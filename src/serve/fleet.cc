#include "serve/fleet.h"

#include <set>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace cews::serve {

namespace {

/// Per-shard metrics are named serve.shard.N.* — a hand-curated set with a
/// hard registry cap (obs::kMaxCounters), so the shard count is bounded
/// here rather than discovered as a CHECK failure mid-scale-out.
constexpr int kMaxShards = 64;

Status ValidateFleetConfig(const FleetConfig& config) {
  if (config.num_shards <= 0 || config.num_shards > kMaxShards) {
    return Status::InvalidArgument(
        "num_shards must be in [1, " + std::to_string(kMaxShards) +
        "], got " + std::to_string(config.num_shards));
  }
  if (config.threads_per_shard <= 0) {
    return Status::InvalidArgument(
        "threads_per_shard must be positive, got " +
        std::to_string(config.threads_per_shard));
  }
  if (config.vnodes_per_shard <= 0) {
    return Status::InvalidArgument(
        "vnodes_per_shard must be positive, got " +
        std::to_string(config.vnodes_per_shard));
  }
  if (config.scenarios.empty()) {
    return Status::InvalidArgument("scenarios must be non-empty");
  }
  std::set<std::string> seen;
  for (const std::string& name : config.scenarios) {
    if (name.empty()) {
      return Status::InvalidArgument("scenario names must be non-empty");
    }
    if (!seen.insert(name).second) {
      return Status::InvalidArgument("duplicate scenario '" + name + "'");
    }
  }
  // Net shape, batch and queue bounds are validated by
  // PolicyServer::ValidateConfig in Fleet::Create; checking fleet-level
  // knobs here keeps the error messages attributable to the fleet entry
  // point.
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Fleet>> Fleet::Create(const FleetConfig& config) {
  CEWS_RETURN_IF_ERROR(ValidateFleetConfig(config));

  PolicyServerConfig shard_config;
  shard_config.net = config.net;
  shard_config.num_threads = config.threads_per_shard;
  shard_config.max_batch = config.max_batch;
  shard_config.max_queue_delay_us = config.max_queue_delay_us;
  shard_config.max_queue_depth = config.max_queue_depth;
  shard_config.runtime_threads = config.runtime_threads;
  shard_config.precision = config.precision;

  // One validation pass before any net or thread is constructed: shard 0's
  // config stands in for all (they differ only in shard_index and seed).
  CEWS_RETURN_IF_ERROR(PolicyServer::ValidateConfig(shard_config));

  // Epoch-0 parameters shared by every scenario: a freshly initialized net
  // from the fleet seed (cloned per scenario by the registry).
  std::shared_ptr<ScenarioRegistry> scenarios;
  {
    Rng rng(config.seed);
    const agents::PolicyNet net(config.net, rng);
    scenarios = std::make_shared<ScenarioRegistry>(
        config.scenarios, net.Parameters(),
        /*quantize=*/config.precision == Precision::kInt8);
  }

  // Size the intra-op kernel pool once, before shard workers start issuing
  // ParallelFor regions (same contract as the trainers).
  runtime::SetGlobalPoolThreads(config.runtime_threads);

  std::vector<std::unique_ptr<PolicyServer>> shards;
  shards.reserve(static_cast<size_t>(config.num_shards));
  for (int s = 0; s < config.num_shards; ++s) {
    PolicyServerConfig one = shard_config;
    one.shard_index = s;
    // Decorrelate the shards' sampling streams (workers further split by
    // worker index).
    one.seed = config.seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(s);
    CEWS_ASSIGN_OR_RETURN(std::unique_ptr<PolicyServer> shard,
                          PolicyServer::Create(one, scenarios));
    shards.push_back(std::move(shard));
  }

  static obs::Gauge* const shard_gauge = obs::GetGauge("serve.fleet.shards");
  shard_gauge->Set(static_cast<double>(config.num_shards));
  obs::FlightRecorder::Global().Record(obs::FlightEventKind::kNote,
                                       "fleet_create",
                                       /*a=*/config.num_shards,
                                       /*b=*/static_cast<int64_t>(
                                           config.scenarios.size()));
  return std::unique_ptr<Fleet>(
      new Fleet(config, std::move(scenarios), std::move(shards)));
}

Fleet::Fleet(const FleetConfig& config,
             std::shared_ptr<ScenarioRegistry> scenarios,
             std::vector<std::unique_ptr<PolicyServer>> shards)
    : config_(config),
      scenarios_(std::move(scenarios)),
      router_(RouterConfig{config.num_shards, config.vnodes_per_shard}),
      shards_(std::move(shards)) {}

Fleet::~Fleet() { Stop(); }

void Fleet::Stop() {
  for (const std::unique_ptr<PolicyServer>& shard : shards_) shard->Stop();
}

std::future<ScheduleResponse> Fleet::Submit(ScheduleRequest request) {
  static obs::Counter* const routed = obs::GetCounter("serve.fleet.requests");
  const int shard = router_.ShardFor(request.client_id, request.scenario);
  routed->Increment();
  return shards_[static_cast<size_t>(shard)]->Submit(std::move(request));
}

Status Fleet::Publish(const std::string& scenario,
                      const std::vector<nn::Tensor>& params) {
  return scenarios_->Publish(scenario, params);
}

Status Fleet::PublishFromFile(const std::string& scenario,
                              const std::string& path, bool require_crc) {
  return scenarios_->PublishFromFile(scenario, path, require_crc);
}

Result<uint64_t> Fleet::Epoch(const std::string& scenario) const {
  return scenarios_->Epoch(scenario);
}

int Fleet::QueueDepth(int shard) const {
  CEWS_CHECK_GE(shard, 0);
  CEWS_CHECK_LT(shard, num_shards());
  return shards_[static_cast<size_t>(shard)]->QueueDepth();
}

}  // namespace cews::serve
