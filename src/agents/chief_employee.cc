#include "agents/chief_employee.h"

#include <algorithm>
#include <thread>

#include "agents/trainer_obs.h"
#include "common/check.h"
#include "common/log.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "nn/params.h"
#include "nn/serialize.h"
#include "obs/stats_reporter.h"
#include "obs/trace.h"

namespace cews::agents {

ChiefEmployeeTrainer::ChiefEmployeeTrainer(const TrainerConfig& config,
                                           env::Map map)
    : config_(NormalizeConfig(config, map)),
      map_(std::move(map)),
      learner_(config_),
      barrier_(static_cast<size_t>(config_.num_employees)) {
  CEWS_CHECK_GT(config_.num_employees, 0);
  CEWS_CHECK_GT(config_.episodes, 0);
  CEWS_CHECK_GT(config_.batch_size, 0);
  CEWS_CHECK_GT(config_.update_epochs, 0);
  CEWS_CHECK_GT(config_.envs_per_employee, 0);

  ppo_grad_sum_.assign(
      static_cast<size_t>(nn::FlatSize(learner_.net().Parameters())), 0.0f);
  intrinsic_grad_sum_.assign(
      static_cast<size_t>(
          nn::FlatSize(learner_.models().IntrinsicParameters())),
      0.0f);
  slots_.resize(static_cast<size_t>(config_.num_employees));
  for (EmployeeSlot& slot : slots_) {
    slot.episodes.assign(static_cast<size_t>(config_.episodes),
                         EpisodeAccumulator{});
    if (config_.heatmap_snapshot_every > 0) {
      const size_t cells = static_cast<size_t>(config_.curiosity.num_cells);
      slot.heatmap = HeatmapAccumulator{std::vector<double>(cells, 0.0),
                                        std::vector<int64_t>(cells, 0)};
    }
  }
}

void ChiefEmployeeTrainer::ApplySlotGradients() {
  // Each sum starts at 0.0f and adds slot 0, slot 1, ... so its grouping
  // never depends on which thread arrived first.
  std::fill(ppo_grad_sum_.begin(), ppo_grad_sum_.end(), 0.0f);
  std::fill(intrinsic_grad_sum_.begin(), intrinsic_grad_sum_.end(), 0.0f);
  for (const EmployeeSlot& slot : slots_) {
    for (size_t i = 0; i < ppo_grad_sum_.size(); ++i) {
      ppo_grad_sum_[i] += slot.ppo_grad[i];
    }
    for (size_t i = 0; i < slot.intrinsic_grad.size(); ++i) {
      intrinsic_grad_sum_[i] += slot.intrinsic_grad[i];
    }
  }
  learner_.ApplySummedGradients(ppo_grad_sum_, intrinsic_grad_sum_);
}

ChiefEmployeeTrainer::EpisodeAccumulator ChiefEmployeeTrainer::SumEpisode(
    int episode) const {
  EpisodeAccumulator sum;
  for (const EmployeeSlot& slot : slots_) {
    const EpisodeAccumulator& acc =
        slot.episodes[static_cast<size_t>(episode)];
    sum.kappa += acc.kappa;
    sum.xi += acc.xi;
    sum.rho += acc.rho;
    sum.extrinsic += acc.extrinsic;
    sum.intrinsic += acc.intrinsic;
    sum.wall += acc.wall;
    sum.steps += acc.steps;
  }
  return sum;
}

void ChiefEmployeeTrainer::MaybeSnapshotHeatmap(int episode) {
  if (config_.heatmap_snapshot_every <= 0) return;
  if ((episode + 1) % config_.heatmap_snapshot_every != 0) return;
  HeatmapSnapshot snap;
  snap.episode = episode + 1;
  snap.cell_values.assign(slots_.front().heatmap.sum.size(), 0.0);
  for (size_t i = 0; i < snap.cell_values.size(); ++i) {
    // Employees are summed in index order, so the snapshot is
    // deterministic at any employee count.
    double sum = 0.0;
    int64_t count = 0;
    for (EmployeeSlot& slot : slots_) {
      HeatmapAccumulator& heatmap = slot.heatmap;
      sum += heatmap.sum[i];
      count += heatmap.count[i];
      heatmap.sum[i] = 0.0;
      heatmap.count[i] = 0;
    }
    if (count > 0) snap.cell_values[i] = sum / static_cast<double>(count);
  }
  heatmap_snapshots_.push_back(std::move(snap));
}

void ChiefEmployeeTrainer::EmployeeLoop(int employee_id) {
  // The local models' PPO weights are overwritten by the first parameter
  // copy; the intrinsic module is seeded like the learner's, so its frozen
  // parts match across threads.
  EmployeeSlot& slot = slots_[static_cast<size_t>(employee_id)];
  EmployeeCore core(config_, map_, employee_id,
                    slot.heatmap.sum.empty() ? nullptr : &slot.heatmap);
  core.CopyParams(learner_);

  TrainerPhaseMetrics& phase_metrics = TrainerMetrics();
  for (int episode = 0; episode < config_.episodes; ++episode) {
    // ---- Exploration (Algorithm 1, lines 4-15): all envs_per_employee
    // instances act through one batched Forward per lockstep step. ----
    Stopwatch episode_watch;
    RolloutPayload rollout =
        core.RunIteration(static_cast<uint64_t>(episode));

    // Record this employee's episode diagnostics (instance means, so the
    // accumulator keeps the legacy per-employee scale at any
    // envs_per_employee).
    EpisodeAccumulator& acc = slot.episodes[static_cast<size_t>(episode)];
    acc.kappa = rollout.stats.kappa;
    acc.xi = rollout.stats.xi;
    acc.rho = rollout.stats.rho;
    acc.extrinsic = rollout.stats.extrinsic_sum /
                    (config_.env.horizon * config_.envs_per_employee);
    acc.intrinsic = rollout.stats.intrinsic_sum /
                    (config_.env.horizon * config_.envs_per_employee);

    // All instance episodes train as one pool of transitions.
    const RolloutBuffer buffer = MergeBuffers(std::move(rollout.buffers));

    // ---- Exploitation (Algorithm 1, lines 16-23) ----
    for (int k = 0; k < config_.update_epochs; ++k) {
      {
        CEWS_TRACE_SCOPE("trainer.learn");
        obs::ScopedTimerNs learn_timer(phase_metrics.learn_ns);
        // Employee 0 reports the loss gauge: one writer, no averaging race.
        // The gradients go to this employee's slot (Algorithm 1, line 20).
        LossStats loss_stats;
        core.ComputeGradients(buffer, rollout.samples,
                              employee_id == 0 ? &loss_stats : nullptr,
                              &slot.ppo_grad, &slot.intrinsic_grad);
      }

      // Wait for the chief to sum and apply the slots (Algorithm 2, lines
      // 3-7), then copy the fresh parameters (Algorithm 1, lines 21-22).
      {
        CEWS_TRACE_SCOPE("trainer.barrier");
        obs::ScopedTimerNs barrier_timer(phase_metrics.barrier_ns);
        barrier_.ArriveAndWait([this]() { ApplySlotGradients(); });
      }
      {
        CEWS_TRACE_SCOPE("trainer.sync");
        obs::ScopedTimerNs sync_timer(phase_metrics.sync_ns);
        core.CopyParams(learner_);
      }
    }

    // Heat-map snapshotting, checkpointing, and the episode-level metrics
    // are serial chief work done once per episode.
    {
      CEWS_TRACE_SCOPE("trainer.barrier");
      obs::ScopedTimerNs barrier_timer(phase_metrics.barrier_ns);
      barrier_.ArriveAndWait([this, episode, &phase_metrics]() {
        MaybeSnapshotHeatmap(episode);
        const EpisodeAccumulator sum = SumEpisode(episode);
        const double inv_e = 1.0 / config_.num_employees;
        phase_metrics.episodes->Increment();
        phase_metrics.kappa->Set(sum.kappa * inv_e);
        phase_metrics.xi->Set(sum.xi * inv_e);
        phase_metrics.rho->Set(sum.rho * inv_e);
        if (config_.checkpoint_every > 0 &&
            (episode + 1) % config_.checkpoint_every == 0) {
          const std::string path = config_.checkpoint_prefix +
                                   std::to_string(episode + 1) + ".bin";
          nn::SaveInfo info;
          const Status status =
              nn::SaveParameters(path, learner_.net().Parameters(), &info);
          if (!status.ok()) {
            CEWS_LOG(Warning) << "checkpoint failed: " << status.ToString();
          } else {
            CEWS_LOG(Info) << "checkpoint -> " << path << " (" << info.bytes
                           << " bytes, crc32 " << std::hex << info.crc32
                           << ")";
          }
        }
      });
    }

    // Wall time covers the whole synchronized episode (rollout + updates +
    // barriers), so steps/s reflects delivered end-to-end throughput.
    acc.wall = episode_watch.ElapsedSeconds();
    acc.steps = rollout.stats.env_steps;
  }
}

TrainResult ChiefEmployeeTrainer::Train() {
  Stopwatch watch;
  // Size the shared intra-op kernel pool before any employee touches it.
  runtime::SetGlobalPoolThreads(
      runtime::ResolveNumThreads(config_.runtime_threads));
  std::unique_ptr<obs::StatsReporter> reporter;
  if (config_.heartbeat_seconds > 0.0) {
    reporter = std::make_unique<obs::StatsReporter>(config_.heartbeat_seconds);
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(config_.num_employees));
  for (int i = 0; i < config_.num_employees; ++i) {
    threads.emplace_back([this, i]() { EmployeeLoop(i); });
  }
  for (std::thread& t : threads) t.join();
  if (reporter != nullptr) reporter->Stop();

  TrainResult result;
  result.seconds = watch.ElapsedSeconds();
  result.history.reserve(static_cast<size_t>(config_.episodes));
  const double inv_e = 1.0 / config_.num_employees;
  for (int e = 0; e < config_.episodes; ++e) {
    const EpisodeAccumulator acc = SumEpisode(e);
    EpisodeRecord rec;
    rec.episode = e;
    rec.kappa = acc.kappa * inv_e;
    rec.xi = acc.xi * inv_e;
    rec.rho = acc.rho * inv_e;
    rec.extrinsic_reward = acc.extrinsic * inv_e;
    rec.intrinsic_reward = acc.intrinsic * inv_e;
    rec.wall_seconds = acc.wall * inv_e;
    if (rec.wall_seconds > 0.0) {
      rec.steps_per_sec = static_cast<double>(acc.steps) / rec.wall_seconds;
    }
    result.history.push_back(rec);
  }
  return result;
}

}  // namespace cews::agents
