// The two training workloads.
//
//   train-inproc  core::DrlCews (the in-process ChiefEmployeeTrainer):
//                 DRL-CEWS, sparse reward + spatial curiosity, 2 employee
//                 threads x 1 env, gradient-summing chief.
//   train-dist    dist::SpawnEmployees + ChiefServer::Run over a unix
//                 socket: DPPO (dense reward, no intrinsic module),
//                 2 employee processes x 4 envs, single learner.
//
// Both train the `cews train` quick-scale net on earthquake-site. One
// repetition trains a fresh system from the workload seed for a fixed
// number of iterations; repetitions run until the time budget is spent.
// Every repetition must end with bitwise-identical parameters, so the
// first one doubles as warm-up and as the reference for the others.
//
// The traced run adds a replay of training iterations built from the
// library's public calls, timed call by call, which splits rollout and
// learn time into named layers (README.md).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <memory>
#include <string>
#include <vector>

#include "agents/curiosity.h"
#include "agents/eval.h"
#include "agents/ppo.h"
#include "agents/rollout.h"
#include "agents/trainer_core.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "core/algorithms.h"
#include "core/drl_cews.h"
#include "dist/trainer.h"
#include "dist/wire.h"
#include "env/state_encoder.h"
#include "env/vec_env.h"
#include "nn/optimizer.h"
#include "nn/params.h"
#include "obs/trace.h"
#include "report.h"

namespace perfbench {
namespace {

using cews::Stopwatch;
namespace agents = cews::agents;
namespace core = cews::core;
namespace dist = cews::dist;
namespace env = cews::env;
namespace nn = cews::nn;

constexpr int kInprocEpisodes = 40;
constexpr int kDistIterations = 20;
constexpr int kEvalEpisodes = 4;
constexpr uint64_t kEvalSeed = 2024;
/// Repetitions a run makes at least: one warm-up plus two measured.
constexpr int kMinReps = 3;
/// Iterations per block of the tail-latency estimate.
constexpr size_t kTailBlock = 100;
/// Timed iterations of the traced run's component replay.
constexpr int kReplayIterations = 3;

/// Mean kappa of a deterministic evaluation on a fixed eval seed.
double EvalKappa(const agents::PolicyNet& net,
                 const agents::TrainerConfig& config, const env::Map& map) {
  env::VecEnv vec(config.env, map, kEvalEpisodes);
  cews::Rng rng(kEvalSeed);
  const env::StateEncoder encoder(config.encoder);
  double kappa = 0.0;
  for (const agents::EvalResult& r : agents::EvaluatePolicyVec(
           net, vec, encoder, rng, /*deterministic=*/true)) {
    kappa += r.kappa;
  }
  return kappa / kEvalEpisodes;
}

/// What one training repetition produced, for the cross-repetition checks.
struct RepResult {
  bool ok = true;
  std::vector<float> params;
  double kappa = 0.0;
  double setup_seconds = 0.0;
  int64_t env_steps = 0;  ///< Every iteration's, for the exact check.
  /// The measured iterations: all but the first, whose lazy set-up (kernel
  /// workspaces, first-touch allocation) is charged to set-up time.
  int64_t train_steps = 0;
  std::vector<double> iteration_us;
};

/// Moves the first iteration into set-up and records the rest.
void SplitWarmup(const std::vector<agents::EpisodeRecord>& history,
                 RepResult* r) {
  if (history.empty()) return;
  const int64_t steps_per_iteration =
      r->env_steps / static_cast<int64_t>(history.size());
  for (size_t i = 0; i < history.size(); ++i) {
    if (i == 0) {
      r->setup_seconds += history[i].wall_seconds;
      continue;
    }
    r->train_steps += steps_per_iteration;
    r->iteration_us.push_back(history[i].wall_seconds * 1e6);
  }
}

/// Checks shared by both trainers; the first repetition is the reference.
class RepChecker {
 public:
  RepChecker(Report& report, int64_t expected_steps, int iterations)
      : report_(report),
        expected_steps_(expected_steps),
        iterations_(iterations) {}

  /// Returns whether `rep` passed; records failures and operation counts.
  bool Check(const RepResult& rep) {
    bool ok = rep.ok;
    if (!rep.ok) report_.Fail("training repetition returned an error");
    if (rep.env_steps != expected_steps_) {
      ok = false;
      report_.Fail("env steps " + std::to_string(rep.env_steps) +
                   " != episodes x employees x envs x horizon = " +
                   std::to_string(expected_steps_));
    }
    if (!AllFinite(rep.params)) {
      ok = false;
      report_.Fail("final parameters are not all finite");
    }
    if (!(rep.kappa >= 0.0 && rep.kappa <= 1.0)) {
      ok = false;
      report_.Fail("eval kappa " + Num(rep.kappa) + " outside [0, 1]");
    }
    if (reps_ == 0) {
      hash_ = HashFloats(rep.params);
      kappa_ = rep.kappa;
    } else if (HashFloats(rep.params) != hash_ || rep.kappa != kappa_) {
      ok = false;
      report_.Fail("repetition " + std::to_string(reps_) +
                   " diverged from repetition 0 (same seed, same config)");
    }
    ++reps_;
    attempted_ += iterations_;
    completed_ += rep.ok ? iterations_ : 0;
    nonfinite_ += AllFinite(rep.params) ? 0 : 1;
    report_.Ops(iterations_, ok ? 0 : iterations_);
    return ok;
  }

  /// The failure-accounting report line.
  std::string Accounting() const {
    return "iterations attempted " + std::to_string(attempted_) +
           ", completed " + std::to_string(completed_) +
           ", repetitions with non-finite parameters " +
           std::to_string(nonfinite_);
  }
  uint64_t hash() const { return hash_; }
  double kappa() const { return kappa_; }

 private:
  Report& report_;
  const int64_t expected_steps_;
  const int iterations_;
  int reps_ = 0;
  int64_t attempted_ = 0, completed_ = 0, nonfinite_ = 0;
  uint64_t hash_ = 0;
  double kappa_ = 0.0;
};

/// Iteration latency and set-up time over measured repetitions (all but
/// the first).
struct RepStats {
  std::vector<double> iteration_us, setup_s;
  int64_t steps_per_iteration = 0;
  void Add(const RepResult& rep, bool measured) {
    setup_s.push_back(rep.setup_seconds);
    if (!measured) return;
    steps_per_iteration =
        rep.train_steps / static_cast<int64_t>(rep.iteration_us.size());
    iteration_us.insert(iteration_us.end(), rep.iteration_us.begin(),
                        rep.iteration_us.end());
  }
  /// Env steps per second at the median iteration time. Every iteration
  /// does the same work, so this is the training rate with host stalls
  /// (which hit single iterations) left out.
  double Rate() const {
    return static_cast<double>(steps_per_iteration) /
           (Percentile(iteration_us, 0.5) * 1e-6);
  }
  /// Median over consecutive blocks of kTailBlock iterations of each
  /// block's p90 (10 iterations beyond it): a burst of host contention
  /// decides at most the blocks it falls in. Runs shorter than one block
  /// take the p90 of all their iterations.
  double BlockP90() const {
    std::vector<double> p90s;
    for (size_t first = 0; first + kTailBlock <= iteration_us.size();
         first += kTailBlock) {
      p90s.push_back(Percentile(
          std::vector<double>(iteration_us.begin() + first,
                              iteration_us.begin() + first + kTailBlock),
          0.9));
    }
    return p90s.empty() ? Percentile(iteration_us, 0.9) : Median(p90s);
  }
};

/// Runs `rep` until `seconds` have passed and at least kMinReps ran.
template <typename Fn>
RepStats RunReps(double seconds, RepChecker& checker, Fn&& rep) {
  RepStats stats;
  Stopwatch watch;
  for (int i = 0; i < kMinReps || watch.ElapsedSeconds() < seconds; ++i) {
    const RepResult result = rep();
    checker.Check(result);
    stats.Add(result, /*measured=*/i > 0);
  }
  return stats;
}

void ReportEndToEnd(Report& report, const RepStats& stats, double rss_mb,
                    const RepChecker& checker) {
  const double rate = stats.Rate();
  const double p50 = Percentile(stats.iteration_us, 0.5);
  const double p90 = stats.BlockP90();
  report.Metric("throughput_per_s", rate);
  report.Metric("latency_p50_us", p50);
  report.Metric("latency_p90_us", p90);
  report.Metric("setup_s", Median(stats.setup_s));
  report.Metric("peak_rss_mb", rss_mb);
  report.Note("train_steps_per_s = " + Num(rate) +
              " env steps/s at the median iteration time");
  report.Note("train_eval_kappa = " + Num(checker.kappa()) +
              " (deterministic eval, " + std::to_string(kEvalEpisodes) +
              " episodes, eval seed " + std::to_string(kEvalSeed) + ")");
  report.Note("iteration p50 = " + Num(p50) + " us over " +
              std::to_string(stats.iteration_us.size()) +
              " iterations, p90 = " + Num(p90) + " us (median over blocks of " +
              std::to_string(kTailBlock) + " iterations)");
  report.Note("setup_s = " + Num(Median(stats.setup_s)) + " s, peak_rss_mb = " +
              Num(rss_mb) + " MB");
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(checker.hash()));
  report.Note(std::string("final_params_hash = ") + hash);
  report.Note(checker.Accounting());
}

// ---------------------------------------------------------------------------
// Component replay: training iterations rebuilt from public calls.
// ---------------------------------------------------------------------------

/// Per-call timings of the replayed iterations.
struct ReplayTimes {
  std::vector<double> act_us, step_encode_us, curiosity_reward_us,
      curiosity_update_us, ppo_fwd_us, ppo_bwd_us, clip_us, adam_us;
  double rollout_s = 0.0, learn_s = 0.0, wall_s = 0.0;
  int64_t env_steps = 0;

  double NamedSeconds() const {
    double us = 0.0;
    for (const auto* v : {&act_us, &step_encode_us, &curiosity_reward_us,
                          &curiosity_update_us, &ppo_fwd_us, &ppo_bwd_us,
                          &clip_us, &adam_us}) {
      for (const double x : *v) us += x;
    }
    return us * 1e-6;
  }
};

/// Replays training iterations of either learner rule with the trainers'
/// seeds and call order: employees roll out (act, step + encode, intrinsic
/// reward), then K update rounds either sum per-employee clipped gradients
/// into one chief step (ChiefEmployeeTrainer) or take one clipped step per
/// minibatch of the merged pool (dist::LearnerCore).
class ComponentReplay {
 public:
  ComponentReplay(const agents::TrainerConfig& normalized, const env::Map& map,
                  bool sum_gradients)
      : config_(normalized),
        map_(map),
        encoder_(normalized.encoder),
        sum_gradients_(sum_gradients),
        learner_(normalized.net, normalized.ppo, normalized.seed),
        learner_rng_(normalized.seed * 0x9E3779B9ULL + 101) {
    const bool curious =
        config_.intrinsic == agents::IntrinsicMode::kSpatialCuriosity;
    const uint64_t curiosity_seed = config_.seed * 0x9E3779B9ULL + 17;
    if (curious) {
      curiosity_ = std::make_unique<agents::SpatialCuriosity>(
          config_.curiosity, curiosity_seed);
      curiosity_optimizer_ = std::make_unique<nn::Adam>(
          curiosity_->Parameters(), config_.curiosity.lr);
    }
    for (int e = 0; e < config_.num_employees; ++e) {
      Employee emp;
      emp.agent = std::make_unique<agents::PpoAgent>(
          config_.net, config_.ppo,
          config_.seed + static_cast<uint64_t>(e) + 1000);
      if (curious) {
        emp.curiosity = std::make_unique<agents::SpatialCuriosity>(
            config_.curiosity, curiosity_seed);
      }
      emp.vec = std::make_unique<env::VecEnv>(config_.env, map_,
                                              config_.envs_per_employee);
      emp.rng = cews::Rng(config_.seed * 7919 + static_cast<uint64_t>(e));
      employees_.push_back(std::move(emp));
    }
    CopyToEmployees();
  }

  /// One iteration; `times` null runs it untimed (warm-up).
  void Iterate(ReplayTimes* times) {
    ReplayTimes scratch;
    ReplayTimes& t = times != nullptr ? *times : scratch;
    const double start = NowUs();
    for (Employee& emp : employees_) Rollout(emp, t);
    const double rolled = NowUs();
    if (sum_gradients_) {
      LearnSummed(t);
    } else {
      LearnSingle(t);
    }
    const double end = NowUs();
    t.rollout_s += (rolled - start) * 1e-6;
    t.learn_s += (end - rolled) * 1e-6;
    t.wall_s += (end - start) * 1e-6;
  }

  const agents::TrainerConfig& config() const { return config_; }

 private:
  struct Employee {
    std::unique_ptr<agents::PpoAgent> agent;
    std::unique_ptr<agents::SpatialCuriosity> curiosity;
    std::unique_ptr<env::VecEnv> vec;
    cews::Rng rng;
    agents::RolloutBuffer buffer;
    std::vector<agents::CuriositySample> samples;
  };

  agents::PositionObs Obs(const env::Env& e, int w) const {
    const env::Position& p = e.workers()[static_cast<size_t>(w)].pos;
    agents::PositionObs obs;
    obs.cell = encoder_.CellIndex(map_, p);
    obs.sx = static_cast<float>(p.x / map_.config.size_x);
    obs.sy = static_cast<float>(p.y / map_.config.size_y);
    return obs;
  }

  void CopyToEmployees() {
    for (Employee& emp : employees_) {
      nn::CopyParameters(learner_.Parameters(), emp.agent->Parameters());
      if (curiosity_ != nullptr) {
        nn::CopyParameters(curiosity_->Parameters(),
                           emp.curiosity->Parameters());
      }
    }
  }

  void Rollout(Employee& emp, ReplayTimes& t) {
    env::VecEnv& vec = *emp.vec;
    const int n = vec.size();
    const int num_workers = vec.num_workers();
    const size_t stride = static_cast<size_t>(encoder_.StateSize());
    const bool sparse = config_.reward_mode == agents::RewardMode::kSparse;
    emp.samples.clear();
    vec.Reset();
    std::vector<float> states = encoder_.EncodeBatch(vec.EnvPtrs());
    std::vector<agents::RolloutBuffer> buffers(static_cast<size_t>(n));
    std::vector<std::vector<agents::PositionObs>> from(
        static_cast<size_t>(n),
        std::vector<agents::PositionObs>(static_cast<size_t>(num_workers)));
    std::vector<std::vector<env::WorkerAction>> actions(
        static_cast<size_t>(n));
    while (!vec.AllDone()) {
      const double t0 = NowUs();
      std::vector<agents::ActResult> acts = agents::SamplePolicyBatch(
          emp.agent->net(), states, n, emp.rng, /*deterministic=*/false);
      const double t1 = NowUs();
      if (emp.curiosity != nullptr) {
        for (int i = 0; i < n; ++i) {
          for (int w = 0; w < num_workers; ++w) {
            from[static_cast<size_t>(i)][static_cast<size_t>(w)] =
                Obs(vec.env(i), w);
          }
        }
      }
      for (int i = 0; i < n; ++i) {
        actions[static_cast<size_t>(i)] = acts[static_cast<size_t>(i)].actions;
      }
      const double t2 = NowUs();
      const env::VecEnv::StepResults steps = vec.Step(actions);
      std::vector<float> next = encoder_.EncodeBatch(vec.EnvPtrs());
      const double t3 = NowUs();
      std::vector<double> r_int(static_cast<size_t>(n), 0.0);
      if (emp.curiosity != nullptr) {
        for (int i = 0; i < n; ++i) {
          const agents::ActResult& act = acts[static_cast<size_t>(i)];
          double sum = 0.0;
          for (int w = 0; w < num_workers; ++w) {
            const agents::PositionObs& f =
                from[static_cast<size_t>(i)][static_cast<size_t>(w)];
            const agents::PositionObs to = Obs(vec.env(i), w);
            const int move = act.moves[static_cast<size_t>(w)];
            sum += emp.curiosity->IntrinsicReward(w, f, move, to);
            emp.samples.push_back(agents::CuriositySample{w, f, move, to});
          }
          r_int[static_cast<size_t>(i)] = sum / num_workers;
        }
      }
      const double t4 = NowUs();
      t.act_us.push_back(t1 - t0);
      t.step_encode_us.push_back(t3 - t2);
      if (emp.curiosity != nullptr) {
        t.curiosity_reward_us.push_back((t4 - t3) + (t2 - t1));
      }
      t.env_steps += n;
      for (int i = 0; i < n; ++i) {
        agents::ActResult& act = acts[static_cast<size_t>(i)];
        const env::StepResult& step = steps.per_env[static_cast<size_t>(i)];
        const double r_ext = sparse ? step.sparse_reward : step.dense_reward;
        agents::Transition tr;
        tr.state.assign(states.begin() + static_cast<ptrdiff_t>(i * stride),
                        states.begin() +
                            static_cast<ptrdiff_t>((i + 1) * stride));
        tr.moves = std::move(act.moves);
        tr.charges = std::move(act.charges);
        tr.log_prob = act.log_prob;
        tr.value = act.value;
        const double raw = config_.add_intrinsic_to_reward
                               ? r_ext + r_int[static_cast<size_t>(i)]
                               : r_ext;
        tr.reward = config_.reward_scale * static_cast<float>(raw);
        tr.done = step.done;
        buffers[static_cast<size_t>(i)].Add(std::move(tr));
      }
      states = std::move(next);
    }
    for (agents::RolloutBuffer& b : buffers) {
      b.ComputeAdvantages(config_.ppo.gamma, config_.ppo.gae_lambda, 0.0f);
    }
    emp.buffer = agents::MergeBuffers(std::move(buffers));
  }

  /// PPO forward + backward + clip on one minibatch of `agent`.
  void PpoGradient(agents::PpoAgent& agent, agents::MiniBatch mb,
                   ReplayTimes& t) {
    const std::vector<nn::Tensor> params = agent.Parameters();
    nn::ZeroGradients(params);
    const double t0 = NowUs();
    nn::Tensor loss = agent.ComputeLoss(std::move(mb));
    const double t1 = NowUs();
    loss.Backward();
    const double t2 = NowUs();
    nn::ClipGradByGlobalNorm(params, config_.ppo.max_grad_norm);
    const double t3 = NowUs();
    t.ppo_fwd_us.push_back(t1 - t0);
    t.ppo_bwd_us.push_back(t2 - t1);
    t.clip_us.push_back(t3 - t2);
  }

  void CuriosityGradient(const agents::SpatialCuriosity& model,
                         const std::vector<agents::CuriositySample>& samples,
                         cews::Rng& rng, ReplayTimes& t) {
    nn::ZeroGradients(model.Parameters());
    const double t0 = NowUs();
    nn::Tensor loss = model.SampleLoss(
        samples, static_cast<size_t>(config_.batch_size), rng);
    loss.Backward();
    t.curiosity_update_us.push_back(NowUs() - t0);
  }

  void AdamStep(nn::Adam& optimizer, ReplayTimes& t) {
    const double t0 = NowUs();
    optimizer.Step();
    t.adam_us.push_back(NowUs() - t0);
  }

  /// ChiefEmployeeTrainer's rule: every employee contributes a clipped
  /// gradient on its own minibatch; the chief steps on their sum.
  void LearnSummed(ReplayTimes& t) {
    const std::vector<nn::Tensor> global = learner_.Parameters();
    std::vector<float> ppo_sum(static_cast<size_t>(nn::FlatSize(global)));
    std::vector<float> curiosity_sum;
    if (curiosity_ != nullptr) {
      curiosity_sum.resize(
          static_cast<size_t>(nn::FlatSize(curiosity_->Parameters())));
    }
    for (int k = 0; k < config_.update_epochs; ++k) {
      std::fill(ppo_sum.begin(), ppo_sum.end(), 0.0f);
      std::fill(curiosity_sum.begin(), curiosity_sum.end(), 0.0f);
      for (Employee& emp : employees_) {
        agents::MiniBatch mb = emp.buffer.SampleBatch(
            static_cast<size_t>(config_.batch_size), emp.rng);
        if (emp.curiosity != nullptr && !emp.samples.empty()) {
          CuriosityGradient(*emp.curiosity, emp.samples, emp.rng, t);
          const std::vector<float> g =
              nn::FlattenGradients(emp.curiosity->Parameters());
          for (size_t i = 0; i < g.size(); ++i) curiosity_sum[i] += g[i];
        }
        PpoGradient(*emp.agent, std::move(mb), t);
        const std::vector<float> g =
            nn::FlattenGradients(emp.agent->Parameters());
        for (size_t i = 0; i < g.size(); ++i) ppo_sum[i] += g[i];
      }
      nn::ZeroGradients(global);
      nn::AccumulateFlatGradients(global, ppo_sum);
      const double t0 = NowUs();
      nn::ClipGradByGlobalNorm(global,
                               config_.ppo.max_grad_norm *
                                   static_cast<float>(config_.num_employees));
      t.clip_us.push_back(NowUs() - t0);
      AdamStep(learner_.optimizer(), t);
      if (curiosity_ != nullptr) {
        nn::ZeroGradients(curiosity_->Parameters());
        nn::AccumulateFlatGradients(curiosity_->Parameters(), curiosity_sum);
        AdamStep(*curiosity_optimizer_, t);
      }
      CopyToEmployees();
    }
  }

  /// dist::LearnerCore's rule: one clipped step per minibatch drawn from
  /// the rank-ordered merge of every employee's transitions.
  void LearnSingle(ReplayTimes& t) {
    std::vector<agents::RolloutBuffer> buffers;
    std::vector<agents::CuriositySample> samples;
    for (Employee& emp : employees_) {
      buffers.push_back(std::move(emp.buffer));
      samples.insert(samples.end(), emp.samples.begin(), emp.samples.end());
    }
    const agents::RolloutBuffer merged =
        agents::MergeBuffers(std::move(buffers));
    for (int k = 0; k < config_.update_epochs; ++k) {
      agents::MiniBatch mb = merged.SampleBatch(
          static_cast<size_t>(config_.batch_size), learner_rng_);
      if (curiosity_ != nullptr && !samples.empty()) {
        CuriosityGradient(*curiosity_, samples, learner_rng_, t);
        AdamStep(*curiosity_optimizer_, t);
      }
      PpoGradient(learner_, std::move(mb), t);
      AdamStep(learner_.optimizer(), t);
    }
    CopyToEmployees();
  }

  const agents::TrainerConfig config_;
  const env::Map& map_;
  const env::StateEncoder encoder_;
  const bool sum_gradients_;
  agents::PpoAgent learner_;
  cews::Rng learner_rng_;
  std::unique_ptr<agents::SpatialCuriosity> curiosity_;
  std::unique_ptr<nn::Adam> curiosity_optimizer_;
  std::vector<Employee> employees_;
};

/// Replays one warm-up and kReplayIterations timed iterations and reports
/// the agents / env / nn layers and the closure error.
void ReportComponentReplay(Report& report,
                           const agents::TrainerConfig& normalized,
                           const env::Map& map, bool sum_gradients) {
  const int measured = kReplayIterations;
  ComponentReplay replay(normalized, map, sum_gradients);
  replay.Iterate(nullptr);
  ReplayTimes t;
  const RegistryMark mark;
  for (int i = 0; i < measured; ++i) replay.Iterate(&t);
  const double per_iter = 1.0 / measured;

  const double env_counter = mark.CounterDelta("env.steps");
  if (env_counter != static_cast<double>(t.env_steps)) {
    report.Fail("replay env.steps counter " + Num(env_counter) +
                " != steps taken " + std::to_string(t.env_steps));
  }
  const int64_t expected =
      static_cast<int64_t>(measured) * normalized.num_employees *
      normalized.envs_per_employee * normalized.env.horizon;
  if (t.env_steps != expected) {
    report.Fail("replay env steps " + std::to_string(t.env_steps) +
                " != iterations x employees x envs x horizon = " +
                std::to_string(expected));
  }
  report.Metric("env.steps", static_cast<double>(t.env_steps));
  report.Metric("env.step_encode_us", Mean(t.step_encode_us));
  report.Metric("agents.act_us", Mean(t.act_us));
  report.Metric("agents.rollout_s", t.rollout_s * per_iter);
  report.Metric("agents.ppo_fwd_us", Mean(t.ppo_fwd_us));
  report.Metric("agents.ppo_bwd_us", Mean(t.ppo_bwd_us));
  report.Metric("agents.curiosity_reward_us", Mean(t.curiosity_reward_us));
  report.Metric("agents.curiosity_update_us", Mean(t.curiosity_update_us));
  report.Metric("agents.learn_s", t.learn_s * per_iter);
  report.Metric("nn.adam_step_us", Mean(t.adam_us));
  report.Metric("nn.clip_us", Mean(t.clip_us));
  const double conv_fwd_ns = mark.CounterDelta("nn.conv2d.fwd_ns");
  const double conv_bwd_ns = mark.CounterDelta("nn.conv2d.bwd_ns");
  report.Metric("nn.conv2d_fwd_s", conv_fwd_ns * 1e-9 * per_iter);
  report.Metric("nn.conv2d_bwd_s", conv_bwd_ns * 1e-9 * per_iter);
  report.Metric("nn.matmul_fwd_s",
                mark.CounterDelta("nn.matmul.fwd_ns") * 1e-9 * per_iter);
  report.Metric("nn.matmul_bwd_s",
                mark.CounterDelta("nn.matmul.bwd_ns") * 1e-9 * per_iter);
  report.Metric("nn.gemm_pack_s",
                mark.CounterDelta("gemm.pack_ns") * 1e-9 * per_iter);
  const double conv_ns = conv_fwd_ns + conv_bwd_ns;
  report.Metric("nn.conv2d_gflops",
                conv_ns > 0.0 ? (mark.CounterDelta("nn.conv2d.fwd_flops") +
                                 mark.CounterDelta("nn.conv2d.bwd_flops")) /
                                    conv_ns
                              : 0.0);
  report.Metric("nn.workspace_misses",
                mark.CounterDelta("workspace.misses") * per_iter);
  const double closure = 1.0 - t.NamedSeconds() / t.wall_s;
  report.Metric("closure_err_frac", closure);
  report.Note("replay: " + std::to_string(measured) + " iterations, " +
              Num(t.wall_s * per_iter) + " s/iteration, named layers cover " +
              Num(1.0 - closure) + " of it");
}

void ReportOverhead(Report& report, const RepStats& untraced,
                    const RepStats& traced) {
  const double plain = untraced.Rate();
  const double with_trace = traced.Rate();
  report.Metric("obs.trace_overhead_frac", 1.0 - with_trace / plain);
  report.Note("traced vs untraced training: " + Num(with_trace) + " vs " +
              Num(plain) + " env steps/s");
}

}  // namespace

// ---------------------------------------------------------------------------
// train-inproc
// ---------------------------------------------------------------------------

int RunTrainInproc(const Options& options, Report& report) {
  const env::Map map = MakeMap();
  const agents::TrainerConfig config =
      QuickConfig(core::Algorithm::kDrlCews, /*employees=*/2, /*envs=*/1,
                  kInprocEpisodes, options.seed);
  report.Note("workload train-inproc: DRL-CEWS, " +
              std::to_string(config.num_employees) + " employee threads x " +
              std::to_string(config.envs_per_employee) + " env, " +
              std::to_string(config.episodes) +
              " episodes per repetition, busy threads = " +
              std::to_string(config.num_employees));
  RepChecker checker(report,
                     static_cast<int64_t>(config.episodes) *
                         config.num_employees * config.envs_per_employee *
                         kHorizon,
                     config.episodes);
  double barrier_s = 0.0;
  int barrier_iterations = 0;
  auto rep = [&]() {
    RepResult r;
    Stopwatch setup;
    auto system = core::DrlCews::Create(config, map);
    r.setup_seconds = setup.ElapsedSeconds();
    if (!system.ok()) {
      r.ok = false;
      return r;
    }
    const RegistryMark mark;
    const agents::TrainResult result = (*system)->Train();
    r.env_steps = static_cast<int64_t>(mark.CounterDelta("env.steps"));
    barrier_s += mark.HistSumDelta("trainer.barrier_ns") * 1e-9;
    barrier_iterations += config.episodes;
    SplitWarmup(result.history, &r);
    r.params = nn::FlattenValues((*system)->net().Parameters());
    r.kappa = EvalKappa((*system)->net(), (*system)->config(), map);
    return r;
  };

  if (!options.trace) {
    const RepStats stats = RunReps(options.seconds, checker, rep);
    ReportEndToEnd(report, stats, SelfPeakRssMb(), checker);
    return 0;
  }
  const RepStats untraced = RunReps(options.seconds * 0.4, checker, rep);
  cews::obs::SetTraceEnabled(true);
  barrier_s = 0.0;
  barrier_iterations = 0;
  const RepStats traced = RunReps(options.seconds * 0.4, checker, rep);
  ReportOverhead(report, untraced, traced);
  report.Metric("agents.barrier_wait_s", barrier_s / barrier_iterations);
  ReportComponentReplay(report, dist::NormalizeConfig(config, map), map,
                        /*sum_gradients=*/true);
  cews::obs::SetTraceEnabled(false);
  return 0;
}

// ---------------------------------------------------------------------------
// train-dist
// ---------------------------------------------------------------------------

namespace {

/// Reaps every employee like dist::ReapEmployees, also summing their peak
/// resident sets.
cews::Status ReapWithRss(const std::vector<pid_t>& pids, double* rss_mb) {
  cews::Status first = cews::Status::OK();
  *rss_mb = 0.0;
  for (size_t rank = 0; rank < pids.size(); ++rank) {
    int status = 0;
    rusage usage{};
    pid_t got;
    while ((got = wait4(pids[rank], &status, 0, &usage)) < 0 &&
           errno == EINTR) {
    }
    if (got < 0) {
      if (first.ok()) first = cews::Status::IOError("wait4 failed");
      continue;
    }
    *rss_mb += static_cast<double>(usage.ru_maxrss) / 1024.0;
    if ((!WIFEXITED(status) || WEXITSTATUS(status) != 0) && first.ok()) {
      first = cews::Status::Internal("employee rank " + std::to_string(rank) +
                                     " failed");
    }
  }
  return first;
}

/// Drives EmployeeCore and LearnerCore in rank order with the payloads
/// round-tripped through the wire format, timing each public call. Returns
/// the final flat policy.
std::vector<float> ReplayDist(const dist::DistTrainerConfig& config,
                              const env::Map& map, Report& report,
                              double forked_iteration_s) {
  const agents::TrainerConfig cfg = dist::NormalizeConfig(config.trainer, map);
  dist::LearnerCore learner(cfg);
  std::vector<std::unique_ptr<dist::EmployeeCore>> cores;
  for (int rank = 0; rank < cfg.num_employees; ++rank) {
    cores.push_back(std::make_unique<dist::EmployeeCore>(cfg, map, rank));
  }
  std::vector<double> employee_s, pack_us, unpack_us, merge_us, learn_s;
  for (int it = 0; it < cfg.episodes; ++it) {
    const dist::ParamUpdate update =
        learner.CurrentParams(static_cast<uint64_t>(it));
    std::vector<dist::RolloutPayload> payloads;
    for (auto& core : cores) {
      core->SetParams(update);
      double t0 = NowUs();
      const dist::RolloutPayload payload =
          core->RunIteration(static_cast<uint64_t>(it));
      double t1 = NowUs();
      const std::string wire = dist::PackRollout(payload);
      double t2 = NowUs();
      auto unpacked = dist::UnpackRollout(wire);
      double t3 = NowUs();
      CEWS_CHECK(unpacked.ok()) << unpacked.status().ToString();
      payloads.push_back(std::move(unpacked.value()));
      employee_s.push_back((t1 - t0) * 1e-6);
      pack_us.push_back(t2 - t1);
      unpack_us.push_back(t3 - t2);
    }
    double t0 = NowUs();
    dist::MergedRollout merged = dist::MergeRollouts(std::move(payloads));
    double t1 = NowUs();
    learner.Learn(merged.buffer, merged.samples);
    double t2 = NowUs();
    merge_us.push_back(t1 - t0);
    learn_s.push_back((t2 - t1) * 1e-6);
  }
  report.Metric("dist.pack_us", Mean(pack_us));
  report.Metric("dist.unpack_us", Mean(unpack_us));
  report.Metric("dist.merge_us", Mean(merge_us));
  report.Metric("dist.employee_iter_s", Mean(employee_s));
  report.Metric("dist.learn_s", Mean(learn_s));
  // Employees roll out in parallel in the forked run, then the chief
  // unpacks every payload, merges and learns serially.
  const double critical = Mean(employee_s) + Mean(pack_us) * 1e-6 +
                          Mean(unpack_us) * 1e-6 * cfg.num_employees +
                          Mean(merge_us) * 1e-6 + Mean(learn_s);
  report.Metric("dist.transport_residual_s", forked_iteration_s - critical);
  return learner.CurrentParams(static_cast<uint64_t>(cfg.episodes)).policy;
}

}  // namespace

int RunTrainDist(const Options& options, Report& report) {
  const env::Map map = MakeMap();
  dist::DistTrainerConfig config;
  config.trainer = QuickConfig(core::Algorithm::kDppo, /*employees=*/2,
                               /*envs=*/4, kDistIterations, options.seed);
  // Relative to the checkout root the benchmark runs from: unix socket
  // paths are limited to 107 bytes, an absolute checkout path is not.
  config.address =
      "unix:.bench_build/perfbench-" + std::to_string(::getpid()) + ".sock";
  const agents::TrainerConfig& tc = config.trainer;
  report.Note("workload train-dist: DPPO, " +
              std::to_string(tc.num_employees) + " employee processes x " +
              std::to_string(tc.envs_per_employee) + " envs, " +
              std::to_string(tc.episodes) +
              " iterations per repetition, busy threads = " +
              std::to_string(tc.num_employees + 1) +
              " (chief + employees, never all busy at once)");
  RepChecker checker(report,
                     static_cast<int64_t>(tc.episodes) * tc.num_employees *
                         tc.envs_per_employee * kHorizon,
                     tc.episodes);
  const agents::TrainerConfig normalized = dist::NormalizeConfig(tc, map);
  double children_rss_mb = 0.0;
  uint64_t rx = 0, tx = 0;
  std::vector<double> iteration_s;
  std::vector<float> forked_final;
  auto rep = [&]() {
    RepResult r;
    Stopwatch setup;
    dist::ChiefServer server(config, map);
    cews::Status status = server.Bind();
    std::vector<pid_t> pids;
    if (status.ok()) {
      // Forked while this process is single-threaded (runtime_threads 1
      // starts no pool threads, and the benchmark starts none here).
      auto spawned = dist::SpawnEmployees(config, map);
      if (spawned.ok()) {
        pids = std::move(spawned.value());
      } else {
        status = spawned.status();
      }
    }
    const double spawn_s = setup.ElapsedSeconds();
    const RegistryMark mark;
    dist::DistTrainResult result;
    if (status.ok()) status = server.Run(&result);
    double rss = 0.0;
    const cews::Status reaped = ReapWithRss(pids, &rss);
    children_rss_mb = std::max(children_rss_mb, rss);
    if (!status.ok() || !reaped.ok()) {
      report.Note("train-dist error: " + status.ToString() + " / " +
                  reaped.ToString());
      r.ok = false;
      return r;
    }
    r.env_steps =
        static_cast<int64_t>(mark.CounterDelta("dist.merged_transitions"));
    double iterations_s = 0.0;
    for (const agents::EpisodeRecord& rec : result.history) {
      iterations_s += rec.wall_seconds;
      iteration_s.push_back(rec.wall_seconds);
    }
    // Fork, handshake and shutdown are set-up cost, not training.
    r.setup_seconds = spawn_s + (result.seconds - iterations_s);
    SplitWarmup(result.history, &r);
    rx = result.bytes_rx;
    tx = result.bytes_tx;
    r.params = result.final_policy;
    forked_final = result.final_policy;
    cews::Rng net_rng(tc.seed);
    agents::PolicyNet net(normalized.net, net_rng);
    nn::LoadFlatValues(net.Parameters(), result.final_policy);
    r.kappa = EvalKappa(net, normalized, map);
    return r;
  };

  if (!options.trace) {
    const RepStats stats = RunReps(options.seconds, checker, rep);
    ReportEndToEnd(report, stats, SelfPeakRssMb() + children_rss_mb, checker);
    report.Note("transport per iteration: rx " +
                Num(static_cast<double>(rx) / tc.episodes) + " B, tx " +
                Num(static_cast<double>(tx) / tc.episodes) + " B");
    return 0;
  }
  const RepStats untraced = RunReps(options.seconds * 0.4, checker, rep);
  const double forked_iteration_s = Median(iteration_s);
  cews::obs::SetTraceEnabled(true);
  const RepStats traced = RunReps(options.seconds * 0.4, checker, rep);
  ReportOverhead(report, untraced, traced);
  report.Metric("dist.rx_bytes_per_iter", static_cast<double>(rx) / tc.episodes);
  report.Metric("dist.tx_bytes_per_iter", static_cast<double>(tx) / tc.episodes);
  const std::vector<float> replayed =
      ReplayDist(config, map, report, forked_iteration_s);
  if (!BitwiseEqual(replayed, forked_final)) {
    report.Fail("rank-order replay of EmployeeCore/LearnerCore does not "
                "match the forked run's final_policy bitwise");
  } else {
    report.Note("rank-order replay matches the forked run's final_policy "
                "bitwise");
  }
  ReportComponentReplay(report, normalized, map, /*sum_gradients=*/false);
  cews::obs::SetTraceEnabled(false);
  return 0;
}

}  // namespace perfbench
