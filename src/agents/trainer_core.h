// The shared cores of the trainers. Both chief-employee trainers — the
// in-process ChiefEmployeeTrainer (threads) and cews::dist (processes) —
// run the same EmployeeCore and LearnerCore; the async trainer shares the
// acting path.
//
//   - RunVecRollout: one employee drives `envs_per_employee` environments
//     through the vectorized acting path — EncodeBatch over all instances,
//     a single batched SamplePolicyBatch Forward, lockstep VecEnv::Step —
//     and fills one RolloutBuffer per instance.
//   - EmployeeCore: one employee's local models, environments and rollout
//     rng. RunIteration is one rollout plus per-instance GAE and stats.
//   - LearnerCore: the global models and optimizers. The two learning
//     rules are its methods: Learn takes one clipped step per minibatch of
//     a merged pool (dist), ApplySummedGradients steps on the sum of the
//     employees' clipped gradients (in-process, the paper's rule). Both
//     build on the one update round, TrainableModels::UpdateRound.
//   - NormalizeConfig and the seed derivations, so every core in every
//     process builds from the same config and the same seeds.
//
// Determinism contract: with one environment the rollout consumes the Rng
// in exactly the legacy single-env order (encode, sample move-then-charge
// per worker, step), so envs_per_employee=1 reproduces the
// pre-vectorization trainers bitwise. With N > 1 instances the per-step
// order is instance-major: all N states are encoded and sampled as one
// batch, then instances step in index order.
//
// Execution backend: the batched acting forward here runs the nn ops
// eagerly under NoGradGuard. Only the PPO/curiosity/RND losses are
// compiled into expression graphs (nn/graph.h), cached per batch size
// inside PpoAgent, SpatialCuriosity and RndCuriosity, one per core.
#ifndef CEWS_AGENTS_TRAINER_CORE_H_
#define CEWS_AGENTS_TRAINER_CORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "agents/curiosity.h"
#include "agents/policy_net.h"
#include "agents/ppo.h"
#include "agents/reward_normalizer.h"
#include "agents/rnd.h"
#include "agents/rollout.h"
#include "common/rng.h"
#include "common/status.h"
#include "env/env.h"
#include "env/map.h"
#include "env/state_encoder.h"
#include "env/vec_env.h"
#include "nn/optimizer.h"

namespace cews::agents {

/// Which extrinsic reward the agent trains on (Fig. 5 compares all four
/// combinations of {dense, sparse} x {with, without curiosity}).
enum class RewardMode { kSparse, kDense };

/// Which intrinsic-reward module augments the extrinsic reward.
enum class IntrinsicMode { kNone, kSpatialCuriosity, kRnd };

/// Full training configuration.
struct TrainerConfig {
  /// Number of employee threads (Table II sweeps 1..16; paper picks 8).
  int num_employees = 8;
  /// Training episodes (each episode is synchronized across employees).
  int episodes = 200;
  /// Minibatch size per update round (Table II sweeps 50..500; paper: 250).
  int batch_size = 250;
  /// Update rounds K per episode (Algorithm 1, line 17).
  int update_epochs = 4;

  /// Intra-op worker threads for the NN kernel runtime
  /// (common/thread_pool.h), shared process-wide by all employees. 1 keeps
  /// kernels serial (default); 0 sizes the pool to the hardware cores. The
  /// CEWS_NUM_THREADS environment variable overrides either. Kernel results
  /// are bitwise-identical at any setting.
  int runtime_threads = 1;

  /// Environment instances each employee drives through the vectorized
  /// acting path (env::VecEnv + one batched Forward per lockstep step).
  /// 1 reproduces the legacy single-env employee bitwise; larger values
  /// collect envs_per_employee episodes per training episode and batch
  /// their action selection, which is where the intra-op kernel runtime
  /// pays off during rollouts.
  int envs_per_employee = 1;

  PolicyNetConfig net;
  PpoConfig ppo;

  IntrinsicMode intrinsic = IntrinsicMode::kSpatialCuriosity;
  CuriosityConfig curiosity;  // num_cells/num_moves/num_workers auto-filled
  RndConfig rnd;              // state_size auto-filled
  /// When false the intrinsic module is still trained and its values are
  /// recorded (heat maps), but the reward the agent optimizes excludes
  /// r^int. Used to visualize curiosity under DPPO (Fig. 9, bottom row).
  bool add_intrinsic_to_reward = true;

  /// Multiplies the stored training reward (extrinsic + intrinsic). Keeps
  /// discounted returns O(1) so the value head tracks them within a short
  /// training budget; metrics and reported rewards are unscaled.
  float reward_scale = 1.0f;

  /// When true, replaces the fixed reward_scale with adaptive scaling by
  /// the running std of the discounted return (reward_normalizer.h).
  bool normalize_rewards = false;

  RewardMode reward_mode = RewardMode::kSparse;
  env::EnvConfig env;
  env::StateEncoderConfig encoder;
  uint64_t seed = 1;

  /// Log a one-line training heartbeat (episodes/s, steps/s, loss, kappa,
  /// xi, rho, pool utilization) every this many seconds while Train() runs
  /// (obs/stats_reporter.h). <= 0 disables.
  double heartbeat_seconds = 0.0;

  /// Record a curiosity heat-map snapshot every this many episodes
  /// (0 disables; used by the Fig. 9 bench).
  int heatmap_snapshot_every = 0;

  /// Periodically save the global policy parameters for offline testing
  /// ("the parameters in DNNs are periodically saved", Section VI-D).
  /// 0 disables. Files are "<checkpoint_prefix><episode>.bin".
  int checkpoint_every = 0;
  std::string checkpoint_prefix = "cews_ckpt_";
};

/// Auto-fills the dependent TrainerConfig dimensions from the map and the
/// encoder (net.num_workers/num_moves/grid, curiosity cells/moves/workers,
/// rnd.state_size), so callers cannot desynchronize them. Every trainer
/// entry point builds from the normalized config; the dist chief and its
/// employees also hash it.
TrainerConfig NormalizeConfig(const TrainerConfig& config,
                              const env::Map& map);

/// The seed derivations every core uses, disjoint from each other. The
/// frozen intrinsic parts (curiosity embedding, RND target) replicate
/// across employees and processes because every copy is built from these.
uint64_t CuriositySeed(uint64_t seed);
uint64_t RndSeed(uint64_t seed);
/// The learner's minibatch rng (single-learner rule only).
uint64_t LearnerSeed(uint64_t seed);
/// Employee `rank`'s rollout (and, under the summed rule, minibatch) rng.
uint64_t EmployeeRolloutSeed(uint64_t seed, int rank);
/// Employee `rank`'s local agent initialization; the values are overwritten
/// by the first parameter copy.
uint64_t EmployeeAgentSeed(uint64_t seed, int rank);

/// Reward assembly knobs of one vectorized rollout (the trainer-config
/// slice RunVecRollout needs).
struct VecRolloutOptions {
  /// Extrinsic reward channel (sparse Eqn 7 vs dense shaping).
  bool sparse_reward = true;
  /// Adds the observer's intrinsic reward into the stored training reward
  /// (r = r^ext + r^int, Eqn 10). The observer still runs when false so
  /// intrinsic modules keep training/recording (Fig. 9 bottom row).
  bool add_intrinsic_to_reward = true;
  /// Fixed multiplier on the stored reward (ignored when normalizers are
  /// supplied).
  float reward_scale = 1.0f;
};

/// Per-step hook for intrinsic-reward modules (spatial curiosity, RND).
/// BeforeStep fires on every instance in index order before the lockstep
/// VecEnv::Step; IntrinsicReward fires after, with the freshly encoded
/// next state of that instance.
class StepObserver {
 public:
  virtual ~StepObserver() = default;

  /// Instance `env_index` is about to step with `act` (capture "from"
  /// positions here).
  virtual void BeforeStep(int env_index, const env::Env& env,
                          const ActResult& act) {
    (void)env_index;
    (void)env;
    (void)act;
  }

  /// Intrinsic reward r^int for the step instance `env_index` just took;
  /// `next_state` points at its StateSize() freshly encoded floats.
  virtual double IntrinsicReward(int env_index, const env::Env& env,
                                 const ActResult& act,
                                 const float* next_state) {
    (void)env_index;
    (void)env;
    (void)act;
    (void)next_state;
    return 0.0;
  }
};

/// Everything one vectorized rollout produced.
struct VecRolloutResult {
  /// One episode buffer per instance, index-aligned with vec.env(i).
  /// Advantages are NOT computed (GAE vs V-trace is the trainer's call).
  std::vector<RolloutBuffer> buffers;
  /// Per-instance summed extrinsic / intrinsic reward over the episode.
  std::vector<double> extrinsic_sums;
  std::vector<double> intrinsic_sums;
  /// Total env steps across all instances.
  int64_t env_steps = 0;
};

/// Rolls every instance of `vec` through one full episode with the batched
/// acting path. Resets `vec` first; requires auto_reset off (the uniform
/// horizon makes all instances finish together). `normalizers`, when
/// non-null, must hold one RewardNormalizer per instance and replaces the
/// fixed reward_scale with adaptive scaling (each instance keeps its own
/// running-return statistics); EndEpisode() is called on each at the end.
/// `observer` may be null (no intrinsic reward).
VecRolloutResult RunVecRollout(const PolicyNet& net, env::VecEnv& vec,
                               const env::StateEncoder& encoder, Rng& rng,
                               const VecRolloutOptions& options,
                               StepObserver* observer = nullptr,
                               std::vector<RewardNormalizer>* normalizers =
                                   nullptr);

/// Concatenates `buffers` (with advantages already computed) into
/// buffers[0] and returns it; single-buffer input is returned untouched,
/// keeping the envs_per_employee=1 path allocation- and bitwise-identical
/// to the legacy single-buffer flow.
RolloutBuffer MergeBuffers(std::vector<RolloutBuffer> buffers);

/// Per-cell sum and visit count of the spatial-curiosity reward over a
/// snapshot window: the Fig. 9 heat map before averaging.
struct HeatmapAccumulator {
  std::vector<double> sum;
  std::vector<int64_t> count;
};

/// Flat trainable values of the global policy net and (when an intrinsic
/// module is configured) its trainable parameters. Frozen parts (curiosity
/// embedding, RND target) are never included — they replicate via the
/// shared seed derivations.
struct ParamUpdate {
  uint64_t iteration = 0;
  std::vector<float> policy;
  std::vector<float> intrinsic;
};

/// Per-iteration episode aggregates of one employee.
struct RolloutStats {
  double extrinsic_sum = 0.0;  ///< Summed over all instances.
  double intrinsic_sum = 0.0;
  double kappa = 0.0;  ///< Instance means (VecEnv::MeanKappa etc.).
  double xi = 1.0;
  double rho = 0.0;
  int64_t env_steps = 0;
};

/// Everything one employee iteration produced: one GAE-completed buffer
/// per environment instance, the curiosity samples collected during the
/// rollout (spatial-curiosity mode only), and the episode stats.
struct RolloutPayload {
  uint32_t rank = 0;
  uint64_t iteration = 0;
  std::vector<RolloutBuffer> buffers;
  std::vector<CuriositySample> samples;
  RolloutStats stats;
};

/// The models one core holds: the PPO agent plus the intrinsic module
/// `config.intrinsic` selects (spatial curiosity, RND or none).
class TrainableModels {
 public:
  TrainableModels(const TrainerConfig& config, uint64_t agent_seed);

  PpoAgent& agent() { return agent_; }
  const PpoAgent& agent() const { return agent_; }
  /// The intrinsic module, or null when another (or none) is configured.
  SpatialCuriosity* curiosity() const { return curiosity_.get(); }
  RndCuriosity* rnd() const { return rnd_.get(); }

  /// Trainable intrinsic parameters; empty without an intrinsic module.
  std::vector<nn::Tensor> IntrinsicParameters() const;

  /// The update round both learning rules share: draws one packed
  /// minibatch of `batch_size` from `rng`, backpropagates the intrinsic
  /// loss (curiosity on `samples`, or RND on the minibatch states), then
  /// the PPO loss, and clips the PPO gradient at ppo.max_grad_norm. The
  /// gradients stay on the parameters for the caller's rule. When `stats`
  /// is set it receives the PPO loss diagnostics and the train.loss gauge
  /// is written from it. Returns whether the intrinsic loss ran.
  bool UpdateRound(const RolloutBuffer& buffer,
                   const std::vector<CuriositySample>& samples,
                   int batch_size, Rng& rng, LossStats* stats);

 private:
  PpoAgent agent_;
  std::unique_ptr<SpatialCuriosity> curiosity_;
  std::unique_ptr<RndCuriosity> rnd_;
};

class LearnerCore;

/// One employee's local state: model copies, environments, rollout rng.
/// It never updates parameters itself.
class EmployeeCore {
 public:
  /// `config` must already be normalized. `heatmap`, when set, collects
  /// this employee's spatial-curiosity rewards per cell; it must be sized
  /// to config.curiosity.num_cells and outlive the core.
  EmployeeCore(const TrainerConfig& config, const env::Map& map, int rank,
               HeatmapAccumulator* heatmap = nullptr);

  /// Overwrites the local trainable parameters with a broadcast.
  void SetParams(const ParamUpdate& update);
  /// Copies the learner's trainable parameters (the in-process broadcast).
  void CopyParams(const LearnerCore& learner);

  /// One full iteration: vectorized rollout over all local instances,
  /// per-instance GAE, stats aggregation.
  RolloutPayload RunIteration(uint64_t iteration);

  /// The summed rule's employee half: one update round on the local
  /// models with the rollout rng, then the flat PPO and intrinsic
  /// gradients (`intrinsic_grad` is left empty when the intrinsic loss did
  /// not run).
  void ComputeGradients(const RolloutBuffer& buffer,
                        const std::vector<CuriositySample>& samples,
                        LossStats* stats, std::vector<float>* policy_grad,
                        std::vector<float>* intrinsic_grad);

 private:
  TrainerConfig config_;
  env::Map map_;
  env::StateEncoder encoder_;
  TrainableModels models_;
  env::VecEnv vec_;
  Rng rng_;
  std::vector<RewardNormalizer> normalizers_;
  HeatmapAccumulator* heatmap_ = nullptr;
  int rank_ = 0;
};

/// The global models, their optimizers and the learner rng. The two
/// learning rules are its two update methods.
class LearnerCore {
 public:
  /// `config` must already be normalized. The policy initializes from
  /// Rng(config.seed) with Adam at ppo.lr.
  explicit LearnerCore(const TrainerConfig& config);

  /// Flat snapshot of the current trainable parameters.
  ParamUpdate CurrentParams(uint64_t iteration) const;

  /// Single-learner rule: `update_epochs` update rounds on the merged pool
  /// (minibatches from the learner rng), each followed by a step of both
  /// optimizers — one gradient per minibatch, clipped at max_grad_norm.
  /// Returns the last round's loss stats.
  LossStats Learn(const RolloutBuffer& buffer,
                  const std::vector<CuriositySample>& samples);

  /// Summed rule (Algorithm 2): loads the sum of the employees' clipped
  /// gradients, clips the PPO sum at num_employees * max_grad_norm and
  /// steps both optimizers. `intrinsic_sum` is ignored without an
  /// intrinsic module.
  void ApplySummedGradients(const std::vector<float>& policy_sum,
                            const std::vector<float>& intrinsic_sum);

  PolicyNet& net() { return models_.agent().net(); }
  const PolicyNet& net() const { return models_.agent().net(); }
  const TrainableModels& models() const { return models_; }

  /// Strict (CRC-required) warm-start load into the global policy.
  Status LoadPolicy(const std::string& path);

 private:
  TrainerConfig config_;
  TrainableModels models_;
  std::unique_ptr<nn::Adam> intrinsic_optimizer_;
  Rng rng_;
};

}  // namespace cews::agents

#endif  // CEWS_AGENTS_TRAINER_CORE_H_
