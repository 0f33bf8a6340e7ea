// Policy sampling and testing-process evaluation (Section VI-D): run the
// trained policy network alone against an environment and report the three
// metrics.
#ifndef CEWS_AGENTS_EVAL_H_
#define CEWS_AGENTS_EVAL_H_

#include <cstdint>
#include <vector>

#include "agents/policy_net.h"
#include "agents/ppo.h"
#include "common/rng.h"
#include "env/env.h"
#include "env/state_encoder.h"
#include "env/vec_env.h"

namespace cews::agents {

/// Samples per-worker actions from the policy network for one state.
/// With `deterministic` the mode of each distribution is taken.
ActResult SamplePolicy(const PolicyNet& net, const std::vector<float>& state,
                       Rng& rng, bool deterministic);

/// Batched action selection: one Forward over `batch` stacked states
/// (`states` holds batch * StateSize floats, [N, C, H, W] row-major, e.g.
/// from StateEncoder::EncodeBatch), then per-instance sampling from the
/// factored heads. Samples are drawn instance-by-instance in index order,
/// worker-by-worker, move head before charge head — exactly the draw order
/// of `batch` consecutive SamplePolicy calls, so with batch == 1 the result
/// is bitwise-identical to SamplePolicy on the same Rng state.
///
/// `move_masks` (optional) points at batch * W * num_moves 0/1 flags,
/// instance-major (env::VecEnv::MoveValidityMasks layout); masked-out moves
/// have their logits forced to -1e9 before sampling and log-prob
/// computation, confining each worker's route head to its valid options.
/// nullptr leaves every move selectable.
std::vector<ActResult> SamplePolicyBatch(const PolicyNet& net,
                                         const std::vector<float>& states,
                                         int batch, Rng& rng,
                                         bool deterministic = false,
                                         const uint8_t* move_masks = nullptr);

/// One instance's outcome from DecidePolicyBatch: the sampled action plus
/// the exact logits it was drawn from — what an inference service returns
/// to its clients alongside the decision.
struct PolicyDecision {
  ActResult act;
  /// Post-masking route logits, [num_workers * num_moves] (masked-out
  /// entries are the -1e9 sentinel actually used for sampling).
  std::vector<float> move_logits;
  /// Charging logits, [num_workers * 2].
  std::vector<float> charge_logits;
};

/// Serving variant of SamplePolicyBatch: one Forward over `batch` stacked
/// states on caller-provided encodings, with a per-instance deterministic
/// flag (`deterministic_flags`, `batch` 0/1 bytes, nullptr = all sampled)
/// so independently-submitted requests can share a batch, and the (masked)
/// logits copied out per instance. Draw order matches SamplePolicyBatch:
/// instances in index order, worker-by-worker, move head before charge
/// head; deterministic instances consume no randomness.
std::vector<PolicyDecision> DecidePolicyBatch(
    const PolicyNet& net, const std::vector<float>& states, int batch,
    Rng& rng, const uint8_t* deterministic_flags = nullptr,
    const uint8_t* move_masks = nullptr);

/// The sampling half of DecidePolicyBatch, operating on raw logit/value
/// buffers instead of a net's forward output: `move_logits` holds
/// batch * W * num_moves floats, `charge_logits` batch * W * 2, `values`
/// batch. Draw order, masking, and Rng consumption are exactly
/// DecidePolicyBatch's (which delegates here) — the int8 serving path feeds
/// QuantPolicyForward's buffers through this so a precision switch changes
/// only the forward arithmetic, never the decision protocol.
std::vector<PolicyDecision> DecideFromLogits(
    const PolicyNetConfig& cfg, const float* move_logits,
    const float* charge_logits, const float* values, int batch, Rng& rng,
    const uint8_t* deterministic_flags = nullptr,
    const uint8_t* move_masks = nullptr);

/// End-of-episode metrics of one evaluation run.
struct EvalResult {
  double kappa = 0.0;  ///< Average data collection ratio (Eqn 4).
  double xi = 1.0;     ///< Average remaining data ratio (Eqn 5).
  double rho = 0.0;    ///< Energy efficiency (Eqn 6).
  double mean_sparse_reward = 0.0;
  double mean_dense_reward = 0.0;
};

/// Resets `env` and runs one full episode with the policy (Section VI-D:
/// only the policy network is used at test time).
EvalResult EvaluatePolicy(const PolicyNet& net, env::Env& env,
                          const env::StateEncoder& encoder, Rng& rng,
                          bool deterministic = false);

/// Averages EvaluatePolicy over `episodes` runs.
EvalResult EvaluatePolicyAveraged(const PolicyNet& net, env::Env& env,
                                  const env::StateEncoder& encoder, Rng& rng,
                                  int episodes, bool deterministic = false);

/// Vectorized evaluation: resets `vec` and runs every instance to episode
/// end through the batched acting path (EncodeBatch + SamplePolicyBatch),
/// returning one EvalResult per instance in index order. Instances that
/// finish early drop out of the batch; sampling always walks the still-live
/// instances in index order, so with vec.size() == 1 the run consumes the
/// Rng identically to EvaluatePolicy. Requires auto_reset off.
std::vector<EvalResult> EvaluatePolicyVec(const PolicyNet& net,
                                          env::VecEnv& vec,
                                          const env::StateEncoder& encoder,
                                          Rng& rng,
                                          bool deterministic = false);

}  // namespace cews::agents

#endif  // CEWS_AGENTS_EVAL_H_
