// The chief-employee distributed computational architecture (Section V-A,
// Algorithms 1-2), in one process: threads that run the employee and
// learner cores it shares with cews::dist (agents/trainer_core.h). Each
// employee thread runs an EmployeeCore — rollout, then per update round a
// clipped gradient (PPO + intrinsic) that it writes into its own slot. At
// the barrier the chief sums the slots in employee order, applies the sums
// with LearnerCore::ApplySummedGradients (the paper's rule) and releases
// the employees to copy the new parameters. Summing in employee order keeps
// a run bitwise repeatable at any employee count. The threads, the barrier,
// the slots, heat-map snapshots and checkpoints live here; the cores own
// every model, seed and update step.
#ifndef CEWS_AGENTS_CHIEF_EMPLOYEE_H_
#define CEWS_AGENTS_CHIEF_EMPLOYEE_H_

#include <string>
#include <vector>

#include "agents/trainer_core.h"
#include "common/barrier.h"
#include "env/map.h"

namespace cews::agents {

/// Per-episode training diagnostics, averaged over employees.
struct EpisodeRecord {
  int episode = 0;
  double kappa = 0.0;
  double xi = 1.0;
  double rho = 0.0;
  double extrinsic_reward = 0.0;  // mean per step
  double intrinsic_reward = 0.0;  // mean per step
  double wall_seconds = 0.0;      // mean employee wall time for the episode
  double steps_per_sec = 0.0;     // total env steps (all employees) / wall
};

/// Mean intrinsic reward per visited cell over a training window (Fig. 9).
struct HeatmapSnapshot {
  int episode = 0;
  std::vector<double> cell_values;  // grid*grid, 0 where unvisited
};

/// Everything Train() produces.
struct TrainResult {
  std::vector<EpisodeRecord> history;
  double seconds = 0.0;  ///< Wall-clock training time (Fig. 3).
};

/// The synchronous distributed trainer. DRL-CEWS is this trainer with
/// sparse reward + spatial curiosity; the DPPO baseline is the same trainer
/// with dense reward and no intrinsic module.
class ChiefEmployeeTrainer {
 public:
  /// The map is copied into every employee's local environment so all
  /// employees train on the same scenario with independent stochasticity.
  ChiefEmployeeTrainer(const TrainerConfig& config, env::Map map);

  ChiefEmployeeTrainer(const ChiefEmployeeTrainer&) = delete;
  ChiefEmployeeTrainer& operator=(const ChiefEmployeeTrainer&) = delete;

  /// Runs the full synchronous training. Blocking; spawns
  /// config.num_employees threads.
  TrainResult Train();

  /// The global policy model (Section VI-D testing uses only this).
  PolicyNet& global_net() { return learner_.net(); }
  const PolicyNet& global_net() const { return learner_.net(); }

  /// Heat-map snapshots collected when heatmap_snapshot_every > 0.
  const std::vector<HeatmapSnapshot>& heatmap_snapshots() const {
    return heatmap_snapshots_;
  }

  const TrainerConfig& config() const { return config_; }

 private:
  /// One employee's episode diagnostics, or (from SumEpisode) their sum
  /// over employees.
  struct EpisodeAccumulator {
    double kappa = 0.0, xi = 0.0, rho = 0.0;
    double extrinsic = 0.0, intrinsic = 0.0;
    double wall = 0.0;  ///< Employee wall seconds for the episode.
    int64_t steps = 0;  ///< Env steps.
  };

  /// Everything one employee hands the chief. Each employee writes only its
  /// own slot; the chief reads the slots while every employee is parked at
  /// the barrier (or after the threads joined).
  struct EmployeeSlot {
    std::vector<float> ppo_grad;
    /// Empty in rounds where the intrinsic loss did not run.
    std::vector<float> intrinsic_grad;
    std::vector<EpisodeAccumulator> episodes;  ///< One per episode.
    /// Curiosity heat map (Fig. 9) of the current snapshot window; empty
    /// when snapshots are off.
    HeatmapAccumulator heatmap;
  };

  void EmployeeLoop(int employee_id);
  /// Runs on the last barrier arriver once per update round: sums the
  /// slots' gradients in employee order and steps the global models.
  void ApplySlotGradients();
  /// The employees' diagnostics for `episode`, summed in employee order.
  EpisodeAccumulator SumEpisode(int episode) const;
  /// Runs on the last barrier arriver once per episode: sums the employees'
  /// heat-map windows into a snapshot when one is due.
  void MaybeSnapshotHeatmap(int episode);

  TrainerConfig config_;
  env::Map map_;
  LearnerCore learner_;
  Barrier barrier_;
  std::vector<EmployeeSlot> slots_;

  // The chief's gradient sums (Fig. 1 center), written only at the barrier.
  std::vector<float> ppo_grad_sum_;
  std::vector<float> intrinsic_grad_sum_;

  std::vector<HeatmapSnapshot> heatmap_snapshots_;
};

}  // namespace cews::agents

#endif  // CEWS_AGENTS_CHIEF_EMPLOYEE_H_
