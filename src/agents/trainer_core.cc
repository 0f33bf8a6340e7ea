#include "agents/trainer_core.h"

#include <utility>

#include "agents/eval.h"
#include "agents/trainer_obs.h"
#include "common/check.h"
#include "nn/params.h"
#include "nn/serialize.h"
#include "obs/trace.h"

namespace cews::agents {

namespace {

env::Position WorkerPos(const env::Env& e, int w) {
  return e.workers()[static_cast<size_t>(w)].pos;
}

/// Position observation in both curiosity representations.
PositionObs MakeObs(const env::StateEncoder& encoder, const env::Map& map,
                    const env::Position& p) {
  PositionObs obs;
  obs.cell = encoder.CellIndex(map, p);
  obs.sx = static_cast<float>(p.x / map.config.size_x);
  obs.sy = static_cast<float>(p.y / map.config.size_y);
  return obs;
}

/// Bridges the intrinsic-reward modules into RunVecRollout: captures
/// per-worker "from" observations before each lockstep step and computes
/// r^int after it — per-worker spatial curiosity (collecting curiosity
/// samples, and per-cell heat-map sums when a sink is given) or RND on the
/// freshly encoded next state.
class IntrinsicObserver : public StepObserver {
 public:
  IntrinsicObserver(const env::StateEncoder& encoder, const env::Map& map,
                    SpatialCuriosity* curiosity, RndCuriosity* rnd,
                    std::vector<CuriositySample>* samples,
                    HeatmapAccumulator* heatmap, int num_envs,
                    int num_workers)
      : encoder_(encoder),
        map_(map),
        curiosity_(curiosity),
        rnd_(rnd),
        samples_(samples),
        heatmap_(heatmap),
        from_(static_cast<size_t>(num_envs),
              std::vector<PositionObs>(static_cast<size_t>(num_workers))) {}

  void BeforeStep(int env_index, const env::Env& env,
                  const ActResult& /*act*/) override {
    if (curiosity_ == nullptr) return;
    std::vector<PositionObs>& from = from_[static_cast<size_t>(env_index)];
    for (size_t w = 0; w < from.size(); ++w) {
      from[w] = MakeObs(encoder_, map_, WorkerPos(env, static_cast<int>(w)));
    }
  }

  double IntrinsicReward(int env_index, const env::Env& env,
                         const ActResult& act,
                         const float* next_state) override {
    if (curiosity_ != nullptr) {
      const std::vector<PositionObs>& from =
          from_[static_cast<size_t>(env_index)];
      const int num_workers = static_cast<int>(from.size());
      double r_int = 0.0;
      for (int w = 0; w < num_workers; ++w) {
        const PositionObs& start = from[static_cast<size_t>(w)];
        const int move = act.moves[static_cast<size_t>(w)];
        const PositionObs to = MakeObs(encoder_, map_, WorkerPos(env, w));
        const double r = curiosity_->IntrinsicReward(w, start, move, to);
        r_int += r;
        samples_->push_back(CuriositySample{w, start, move, to});
        if (heatmap_ != nullptr) {
          heatmap_->sum[static_cast<size_t>(start.cell)] += r;
          ++heatmap_->count[static_cast<size_t>(start.cell)];
        }
      }
      return r_int / num_workers;
    }
    if (rnd_ != nullptr) return rnd_->IntrinsicReward(next_state);
    return 0.0;
  }

 private:
  const env::StateEncoder& encoder_;
  const env::Map& map_;
  SpatialCuriosity* curiosity_;
  RndCuriosity* rnd_;
  std::vector<CuriositySample>* samples_;
  HeatmapAccumulator* heatmap_;
  std::vector<std::vector<PositionObs>> from_;
};

}  // namespace

TrainerConfig NormalizeConfig(const TrainerConfig& config,
                              const env::Map& map) {
  TrainerConfig out = config;
  const env::StateEncoder encoder(config.encoder);
  out.net.num_workers = static_cast<int>(map.worker_spawns.size());
  out.net.num_moves = out.env.action_space.num_moves();
  out.net.grid = out.encoder.grid;
  out.curiosity.num_cells = encoder.NumCells();
  out.curiosity.num_moves = out.net.num_moves;
  out.curiosity.num_workers = out.net.num_workers;
  out.rnd.state_size = encoder.StateSize();
  return out;
}

uint64_t CuriositySeed(uint64_t seed) { return seed * 0x9E3779B9ULL + 17; }
uint64_t RndSeed(uint64_t seed) { return seed * 0x9E3779B9ULL + 29; }
uint64_t LearnerSeed(uint64_t seed) { return seed * 0x9E3779B9ULL + 101; }
uint64_t EmployeeRolloutSeed(uint64_t seed, int rank) {
  return seed * 7919 + static_cast<uint64_t>(rank);
}
uint64_t EmployeeAgentSeed(uint64_t seed, int rank) {
  return seed + static_cast<uint64_t>(rank) + 1000;
}

VecRolloutResult RunVecRollout(const PolicyNet& net, env::VecEnv& vec,
                               const env::StateEncoder& encoder, Rng& rng,
                               const VecRolloutOptions& options,
                               StepObserver* observer,
                               std::vector<RewardNormalizer>* normalizers) {
  CEWS_CHECK(!vec.auto_reset())
      << "RunVecRollout runs bounded episodes; build the VecEnv with "
         "auto_reset off";
  const int n = vec.size();
  if (normalizers != nullptr) {
    CEWS_CHECK_EQ(static_cast<int>(normalizers->size()), n)
        << "need one RewardNormalizer per environment instance";
  }
  CEWS_TRACE_SCOPE("trainer.rollout");
  TrainerPhaseMetrics& phase_metrics = TrainerMetrics();
  obs::ScopedTimerNs rollout_timer(phase_metrics.rollout_ns);

  vec.Reset();
  VecRolloutResult result;
  result.buffers.resize(static_cast<size_t>(n));
  result.extrinsic_sums.assign(static_cast<size_t>(n), 0.0);
  result.intrinsic_sums.assign(static_cast<size_t>(n), 0.0);

  const size_t stride = static_cast<size_t>(encoder.StateSize());
  std::vector<float> states = encoder.EncodeBatch(vec.EnvPtrs());
  std::vector<std::vector<env::WorkerAction>> actions(
      static_cast<size_t>(n));
  while (!vec.AllDone()) {
    std::vector<ActResult> acts;
    {
      CEWS_TRACE_SCOPE("trainer.act");
      obs::ScopedTimerNs act_timer(phase_metrics.act_ns);
      acts = SamplePolicyBatch(net, states, n, rng, /*deterministic=*/false);
      phase_metrics.act_batches->Increment();
      phase_metrics.act_env_steps->Add(static_cast<uint64_t>(n));
    }
    if (observer != nullptr) {
      for (int i = 0; i < n; ++i) {
        observer->BeforeStep(i, vec.env(i), acts[static_cast<size_t>(i)]);
      }
    }
    for (int i = 0; i < n; ++i) {
      actions[static_cast<size_t>(i)] =
          std::move(acts[static_cast<size_t>(i)].actions);
    }
    const env::VecEnv::StepResults step_results = vec.Step(actions);
    result.env_steps += n;
    std::vector<float> next_states = encoder.EncodeBatch(vec.EnvPtrs());

    for (int i = 0; i < n; ++i) {
      ActResult& act = acts[static_cast<size_t>(i)];
      const env::StepResult& step =
          step_results.per_env[static_cast<size_t>(i)];
      const double r_ext =
          options.sparse_reward ? step.sparse_reward : step.dense_reward;
      const double r_int =
          observer != nullptr
              ? observer->IntrinsicReward(
                    i, vec.env(i), act,
                    next_states.data() + static_cast<size_t>(i) * stride)
              : 0.0;

      Transition t;
      t.state.assign(
          states.begin() + static_cast<ptrdiff_t>(i * stride),
          states.begin() + static_cast<ptrdiff_t>((i + 1) * stride));
      t.moves = std::move(act.moves);
      t.charges = std::move(act.charges);
      t.log_prob = act.log_prob;
      t.value = act.value;
      const float raw_reward = static_cast<float>(
          options.add_intrinsic_to_reward ? r_ext + r_int : r_ext);
      t.reward = normalizers != nullptr
                     ? (*normalizers)[static_cast<size_t>(i)].Normalize(
                           raw_reward)
                     : options.reward_scale * raw_reward;
      t.done = step.done;
      result.buffers[static_cast<size_t>(i)].Add(std::move(t));
      result.extrinsic_sums[static_cast<size_t>(i)] += r_ext;
      result.intrinsic_sums[static_cast<size_t>(i)] += r_int;
    }
    states = std::move(next_states);
  }
  if (normalizers != nullptr) {
    for (RewardNormalizer& norm : *normalizers) norm.EndEpisode();
  }
  return result;
}

RolloutBuffer MergeBuffers(std::vector<RolloutBuffer> buffers) {
  CEWS_CHECK(!buffers.empty()) << "MergeBuffers on an empty buffer list";
  // All inputs must share one feature schema (encoded-state size and worker
  // count): a mismatched buffer would survive the merge silently and only
  // mis-pack downstream, inside GatherBatch. Checked here, at the seam.
  size_t total = 0;
  size_t state_size = 0, num_workers = 0;
  bool schema_set = false;
  for (const RolloutBuffer& b : buffers) {
    total += b.size();
    if (b.empty()) continue;
    if (!schema_set) {
      state_size = b[0].state.size();
      num_workers = b[0].moves.size();
      schema_set = true;
      continue;
    }
    CEWS_CHECK_EQ(b[0].state.size(), state_size)
        << "MergeBuffers: encoded-state size mismatch across buffers";
    CEWS_CHECK_EQ(b[0].moves.size(), num_workers)
        << "MergeBuffers: worker count mismatch across buffers";
  }
  RolloutBuffer merged = std::move(buffers.front());
  if (buffers.size() > 1) merged.Reserve(total);
  for (size_t i = 1; i < buffers.size(); ++i) {
    merged.Append(std::move(buffers[i]));
  }
  return merged;
}

// ---------------------------------------------------------------------------
// TrainableModels
// ---------------------------------------------------------------------------

TrainableModels::TrainableModels(const TrainerConfig& config,
                                 uint64_t agent_seed)
    : agent_(config.net, config.ppo, agent_seed) {
  if (config.intrinsic == IntrinsicMode::kSpatialCuriosity) {
    curiosity_ = std::make_unique<SpatialCuriosity>(
        config.curiosity, CuriositySeed(config.seed));
  } else if (config.intrinsic == IntrinsicMode::kRnd) {
    rnd_ = std::make_unique<RndCuriosity>(config.rnd, RndSeed(config.seed));
  }
}

std::vector<nn::Tensor> TrainableModels::IntrinsicParameters() const {
  if (curiosity_ != nullptr) return curiosity_->Parameters();
  if (rnd_ != nullptr) return rnd_->Parameters();
  return {};
}

bool TrainableModels::UpdateRound(const RolloutBuffer& buffer,
                                  const std::vector<CuriositySample>& samples,
                                  int batch_size, Rng& rng,
                                  LossStats* stats) {
  // One packed minibatch feeds every model (a single gather per round).
  MiniBatch mb = buffer.SampleBatch(static_cast<size_t>(batch_size), rng);

  // Intrinsic module first: it reads mb before ComputeLoss adopts it. The
  // RND predictor distills the minibatch states directly (s_{t+1} of step t
  // is s_t of step t+1, so the training distribution is the next-state
  // distribution up to the episode's boundary states).
  bool intrinsic_ran = false;
  if (curiosity_ != nullptr && !samples.empty()) {
    nn::ZeroGradients(curiosity_->Parameters());
    curiosity_->SampleLoss(samples, static_cast<size_t>(batch_size), rng)
        .Backward();
    intrinsic_ran = true;
  } else if (rnd_ != nullptr) {
    nn::ZeroGradients(rnd_->Parameters());
    rnd_->Loss(mb).Backward();
    intrinsic_ran = true;
  }

  const std::vector<nn::Tensor> params = agent_.Parameters();
  nn::ZeroGradients(params);
  agent_.ComputeLoss(std::move(mb), stats).Backward();
  if (stats != nullptr) TrainerMetrics().loss->Set(stats->total);
  nn::ClipGradByGlobalNorm(params, agent_.config().max_grad_norm);
  return intrinsic_ran;
}

// ---------------------------------------------------------------------------
// EmployeeCore
// ---------------------------------------------------------------------------

EmployeeCore::EmployeeCore(const TrainerConfig& config, const env::Map& map,
                           int rank, HeatmapAccumulator* heatmap)
    : config_(config),
      map_(map),
      encoder_(config.encoder),
      models_(config, EmployeeAgentSeed(config.seed, rank)),
      vec_(config.env, map_, config.envs_per_employee),
      rng_(EmployeeRolloutSeed(config.seed, rank)),
      normalizers_(static_cast<size_t>(config.envs_per_employee),
                   RewardNormalizer(config.ppo.gamma)),
      heatmap_(heatmap),
      rank_(rank) {
  CEWS_CHECK_GE(rank, 0);
  CEWS_CHECK_LT(rank, config.num_employees);
}

void EmployeeCore::SetParams(const ParamUpdate& update) {
  nn::LoadFlatValues(models_.agent().Parameters(), update.policy);
  nn::LoadFlatValues(models_.IntrinsicParameters(), update.intrinsic);
}

void EmployeeCore::CopyParams(const LearnerCore& learner) {
  nn::CopyParameters(learner.models().agent().Parameters(),
                     models_.agent().Parameters());
  nn::CopyParameters(learner.models().IntrinsicParameters(),
                     models_.IntrinsicParameters());
}

RolloutPayload EmployeeCore::RunIteration(uint64_t iteration) {
  RolloutPayload payload;
  payload.rank = static_cast<uint32_t>(rank_);
  payload.iteration = iteration;

  IntrinsicObserver observer(encoder_, map_, models_.curiosity(),
                             models_.rnd(), &payload.samples, heatmap_,
                             vec_.size(), vec_.num_workers());
  VecRolloutOptions options;
  options.sparse_reward = config_.reward_mode == RewardMode::kSparse;
  options.add_intrinsic_to_reward = config_.add_intrinsic_to_reward;
  options.reward_scale = config_.reward_scale;

  VecRolloutResult rollout = RunVecRollout(
      models_.agent().net(), vec_, encoder_, rng_, options, &observer,
      config_.normalize_rewards ? &normalizers_ : nullptr);
  // GAE per instance buffer: advantages must not bridge episodes, and
  // finishing them here keeps any merge pure concatenation.
  for (RolloutBuffer& b : rollout.buffers) {
    b.ComputeAdvantages(config_.ppo.gamma, config_.ppo.gae_lambda,
                        /*last_value=*/0.0f);
  }
  payload.buffers = std::move(rollout.buffers);
  for (size_t i = 0; i < rollout.extrinsic_sums.size(); ++i) {
    payload.stats.extrinsic_sum += rollout.extrinsic_sums[i];
    payload.stats.intrinsic_sum += rollout.intrinsic_sums[i];
  }
  payload.stats.kappa = vec_.MeanKappa();
  payload.stats.xi = vec_.MeanXi();
  payload.stats.rho = vec_.MeanRho();
  payload.stats.env_steps = rollout.env_steps;
  return payload;
}

void EmployeeCore::ComputeGradients(
    const RolloutBuffer& buffer, const std::vector<CuriositySample>& samples,
    LossStats* stats, std::vector<float>* policy_grad,
    std::vector<float>* intrinsic_grad) {
  const bool intrinsic_ran =
      models_.UpdateRound(buffer, samples, config_.batch_size, rng_, stats);
  *policy_grad = nn::FlattenGradients(models_.agent().Parameters());
  intrinsic_grad->clear();
  if (intrinsic_ran) {
    *intrinsic_grad = nn::FlattenGradients(models_.IntrinsicParameters());
  }
}

// ---------------------------------------------------------------------------
// LearnerCore
// ---------------------------------------------------------------------------

LearnerCore::LearnerCore(const TrainerConfig& config)
    : config_(config),
      models_(config, config.seed),
      rng_(LearnerSeed(config.seed)) {
  if (config_.intrinsic != IntrinsicMode::kNone) {
    intrinsic_optimizer_ = std::make_unique<nn::Adam>(
        models_.IntrinsicParameters(),
        config_.intrinsic == IntrinsicMode::kRnd ? config_.rnd.lr
                                                 : config_.curiosity.lr);
  }
}

ParamUpdate LearnerCore::CurrentParams(uint64_t iteration) const {
  ParamUpdate update;
  update.iteration = iteration;
  update.policy = nn::FlattenValues(models_.agent().Parameters());
  update.intrinsic = nn::FlattenValues(models_.IntrinsicParameters());
  return update;
}

Status LearnerCore::LoadPolicy(const std::string& path) {
  nn::LoadOptions options;
  options.require_crc = true;
  return nn::LoadParameters(path, models_.agent().Parameters(), options);
}

LossStats LearnerCore::Learn(const RolloutBuffer& buffer,
                             const std::vector<CuriositySample>& samples) {
  LossStats stats;
  for (int k = 0; k < config_.update_epochs; ++k) {
    if (models_.UpdateRound(buffer, samples, config_.batch_size, rng_,
                            &stats)) {
      intrinsic_optimizer_->Step();
    }
    models_.agent().optimizer().Step();
  }
  return stats;
}

void LearnerCore::ApplySummedGradients(
    const std::vector<float>& policy_sum,
    const std::vector<float>& intrinsic_sum) {
  const std::vector<nn::Tensor> params = models_.agent().Parameters();
  nn::ZeroGradients(params);
  nn::AccumulateFlatGradients(params, policy_sum);
  // Each employee clipped its own gradient at max_grad_norm, so the sum of
  // N of them is bounded by N * max_grad_norm.
  nn::ClipGradByGlobalNorm(
      params, config_.ppo.max_grad_norm * config_.num_employees);
  models_.agent().optimizer().Step();
  if (intrinsic_optimizer_ != nullptr) {
    const std::vector<nn::Tensor> iparams = models_.IntrinsicParameters();
    nn::ZeroGradients(iparams);
    nn::AccumulateFlatGradients(iparams, intrinsic_sum);
    intrinsic_optimizer_->Step();
  }
}

}  // namespace cews::agents
