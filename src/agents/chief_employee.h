// The chief-employee distributed computational architecture (Section V-A,
// Algorithms 1-2), in one process: threads that run the employee and
// learner cores it shares with cews::dist (agents/trainer_core.h). Each
// employee thread runs an EmployeeCore — rollout, then per update round a
// clipped gradient that it adds into two global gradient buffers (PPO +
// intrinsic). At the barrier the chief applies the summed buffers with
// LearnerCore::ApplySummedGradients (the paper's rule) and releases the
// employees to copy the new parameters. The threads, the barrier, the
// gradient buffers, heat-map snapshots and checkpoints live here; the cores
// own every model, seed and update step.
#ifndef CEWS_AGENTS_CHIEF_EMPLOYEE_H_
#define CEWS_AGENTS_CHIEF_EMPLOYEE_H_

#include <mutex>
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
  struct EpisodeAccumulator {
    double kappa = 0.0, xi = 0.0, rho = 0.0;
    double extrinsic = 0.0, intrinsic = 0.0;
    double wall = 0.0;   ///< Summed employee wall seconds for the episode.
    int64_t steps = 0;   ///< Total env steps across employees.
  };

  void EmployeeLoop(int employee_id);
  /// Runs on the last barrier arriver once per episode: sums the employees'
  /// heat-map windows into a snapshot when one is due.
  void MaybeSnapshotHeatmap(int episode);

  TrainerConfig config_;
  env::Map map_;
  LearnerCore learner_;

  // Global gradient buffers (Fig. 1 center) and their lock.
  std::mutex buffer_mu_;
  std::vector<float> ppo_grad_buffer_;
  std::vector<float> intrinsic_grad_buffer_;

  Barrier barrier_;

  // Shared training diagnostics.
  std::mutex stats_mu_;
  std::vector<EpisodeAccumulator> episode_accum_;

  // Curiosity heat map (Fig. 9): one accumulator per employee for the
  // current snapshot window, empty when snapshots are off. Each employee
  // writes only its own; the chief reads them at the episode barrier.
  std::vector<HeatmapAccumulator> heatmaps_;
  std::vector<HeatmapSnapshot> heatmap_snapshots_;
};

}  // namespace cews::agents

#endif  // CEWS_AGENTS_CHIEF_EMPLOYEE_H_
