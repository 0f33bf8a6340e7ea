// cews::dist — multi-process chief/employee training (DESIGN.md §7).
//
// Runs, as processes, the employee and learner cores the in-process
// ChiefEmployeeTrainer runs as threads (agents/trainer_core.h). This layer
// owns only transport, merging and forking:
//   - Employees are pure rollout actors: each runs an EmployeeCore (rollout
//     over its own environments, per-instance GAE, stats) and ships the
//     payload — buffers, curiosity samples, stats — to the chief.
//   - The chief broadcasts the global parameters each iteration, merges the
//     employee payloads in canonical rank order, and runs the single-learner
//     rule, LearnerCore::Learn: one gradient per minibatch of the merged
//     pool, clipped at ppo.max_grad_norm. The in-process trainer instead
//     applies the sum of per-employee gradients (clipped at
//     N * max_grad_norm); the two differ only in that learner rule.
//
// Determinism: given a fixed employee count N, a fixed seed, and the exact
// float round-trip of the wire format (dist/wire.h), a distributed run is
// bitwise-identical to TrainDistReference — the same cores driven in rank
// order inside one process with no sockets. Rank-ordered merge fixes the
// transition order, the broadcast fixes every actor's parameters, and every
// core derives its seeds from the shared derivations in trainer_core.h, so
// per-rank rollout rngs are the in-process employees' by construction.
//
// Fork mode (SpawnEmployees): for tests, CI smoke and single-host bench
// runs, the employees are forked from the launching process. Children must
// be forked BEFORE any threads exist (CHECK: keep runtime_threads = 1 and
// create the serving fleet only after spawning); each child runs
// EmployeeClient::Run and _exits without returning.
#ifndef CEWS_DIST_TRAINER_H_
#define CEWS_DIST_TRAINER_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "agents/chief_employee.h"
#include "agents/trainer_core.h"
#include "common/result.h"
#include "dist/channel.h"
#include "dist/wire.h"
#include "env/map.h"

namespace cews::dist {

class DeployLoop;

/// Configuration of one distributed run: the full trainer config (episodes
/// double as distributed iterations; num_employees is the employee process
/// count) plus transport knobs.
struct DistTrainerConfig {
  agents::TrainerConfig trainer;

  /// Transport address ("unix:<path>" or "tcp:<ip>:<port>", channel.h).
  std::string address = "unix:/tmp/cews_dist.sock";

  /// Total dial budget of an employee connecting to a chief that may not
  /// have bound its socket yet (exponential backoff underneath).
  int dial_timeout_ms = 15000;
  /// Silence budget of the handshake (hello/welcome) exchanges.
  int handshake_timeout_ms = 15000;
  /// Per-peer liveness window: a peer silent for this long is declared
  /// dead (DeadlineExceeded), which aborts training — the fixed-N
  /// determinism contract has no re-balancing path. Must comfortably cover
  /// one full rollout + learn, since single-threaded peers cannot
  /// heartbeat mid-computation.
  int liveness_timeout_ms = 120000;

  /// Optional warm-start checkpoint the chief loads into the global policy
  /// before the first broadcast. Loaded in STRICT mode (LoadOptions::
  /// require_crc): the distributed path fans these parameters out to every
  /// employee, so a footer-less file with no integrity check is rejected.
  /// Employees never read it — they get the values via the broadcast.
  std::string init_checkpoint;
};

/// Everything a distributed (or reference) run produced. `final_policy` /
/// `final_intrinsic` are the flat global parameter values after the last
/// iteration — what the equivalence test compares bitwise.
struct DistTrainResult {
  std::vector<agents::EpisodeRecord> history;
  double seconds = 0.0;
  std::vector<float> final_policy;
  std::vector<float> final_intrinsic;
  /// Chief-side transport totals (all employee channels, frame overhead
  /// included). Zero for TrainDistReference.
  uint64_t bytes_tx = 0;
  uint64_t bytes_rx = 0;
};

// The cores, re-exported under their dist names. Every entry point builds
// from NormalizeConfig's output: chief and employees hash the same config.
using agents::EmployeeCore;
using agents::LearnerCore;
using agents::NormalizeConfig;

/// Rank-ordered merge of one iteration's employee payloads: buffers
/// concatenate rank-major (rank 0's instances first), curiosity samples
/// likewise, stats sum. CHECK-fails unless payloads[i].rank == i — the
/// canonical order IS the determinism argument, so a mis-ordered call is a
/// bug, not data.
struct MergedRollout {
  agents::RolloutBuffer buffer;
  std::vector<agents::CuriositySample> samples;
  RolloutStats totals;  ///< Sums over employees (kappa/xi/rho summed too).
};
MergedRollout MergeRollouts(std::vector<RolloutPayload> payloads);

/// Single-process reference semantics: the same EmployeeCore/LearnerCore
/// objects driven in rank order with no transport. The distributed run
/// must match this bitwise — that is what dist_trainer_equivalence_test
/// asserts.
Result<DistTrainResult> TrainDistReference(const DistTrainerConfig& config,
                                           const env::Map& map);

/// The chief process: accepts trainer.num_employees employees, drives the
/// broadcast/merge/learn loop, and (optionally) runs the publish gate.
class ChiefServer {
 public:
  ChiefServer(const DistTrainerConfig& config, env::Map map);

  /// Binds the listener. Separate from Run so callers using "tcp:...:0"
  /// can read the resolved address() before employees dial.
  Status Bind();
  const std::string& address() const { return bound_address_; }

  /// Accepts all employees, runs every iteration, shuts employees down.
  /// `deploy` (may be null) gets MaybePublish after each iteration.
  /// Any employee failure (handshake mismatch, liveness timeout, corrupt
  /// frame) aborts the run with the underlying error.
  Status Run(DistTrainResult* result, DeployLoop* deploy = nullptr);

 private:
  DistTrainerConfig config_;
  env::Map map_;
  Listener listener_;
  std::string bound_address_;
};

/// One employee process: dials the chief, handshakes, then loops
/// params -> rollout until the chief says shutdown.
class EmployeeClient {
 public:
  EmployeeClient(const DistTrainerConfig& config, env::Map map, int rank);
  Status Run();

 private:
  DistTrainerConfig config_;
  env::Map map_;
  int rank_ = 0;
};

/// Forks trainer.num_employees child processes, each running
/// EmployeeClient(rank).Run() and _exit-ing with 0/1. MUST be called while
/// the process is still single-threaded (before any fleet, reporter or
/// kernel pool threads exist) — a forked child of a multi-threaded process
/// inherits a poisoned lock state.
Result<std::vector<pid_t>> SpawnEmployees(const DistTrainerConfig& config,
                                          const env::Map& map);

/// waitpid()s every child; non-zero/abnormal exits become an error naming
/// the rank.
Status ReapEmployees(const std::vector<pid_t>& pids);

}  // namespace cews::dist

#endif  // CEWS_DIST_TRAINER_H_
