// The shared acting core of both trainers (chief-employee and async): one
// employee drives `envs_per_employee` environments through the vectorized
// acting path — EncodeBatch over all instances, a single batched
// SamplePolicyBatch Forward, lockstep VecEnv::Step — and fills one
// RolloutBuffer per instance. The trainers keep their own learn/sync
// semantics (PPO minibatches + gradient barrier vs V-trace + lock-free
// push); everything upstream of "learn" lives here so the rollout skeleton
// exists exactly once.
//
// Determinism contract: with one environment the core consumes the Rng in
// exactly the legacy single-env order (encode, sample move-then-charge per
// worker, step), so envs_per_employee=1 reproduces the pre-vectorization
// trainers bitwise. With N > 1 instances the per-step order is
// instance-major: all N states are encoded and sampled as one batch, then
// instances step in index order.
//
// Execution backend: the batched acting forward here runs the nn ops
// eagerly under NoGradGuard. Only the trainers' PPO/curiosity/RND losses
// are compiled into expression graphs (nn/graph.h), cached per batch size
// inside PpoAgent, SpatialCuriosity and RndCuriosity, one per employee
// thread.
#ifndef CEWS_AGENTS_TRAINER_CORE_H_
#define CEWS_AGENTS_TRAINER_CORE_H_

#include <cstdint>
#include <vector>

#include "agents/policy_net.h"
#include "agents/ppo.h"
#include "agents/reward_normalizer.h"
#include "agents/rollout.h"
#include "common/rng.h"
#include "env/state_encoder.h"
#include "env/vec_env.h"

namespace cews::agents {

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

}  // namespace cews::agents

#endif  // CEWS_AGENTS_TRAINER_CORE_H_
