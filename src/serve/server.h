// cews::serve — PolicyServer: one in-process, dynamically micro-batched
// inference shard over trained DRL-CEWS policies.
//
// Clients submit per-fleet ScheduleRequests from any thread and get a
// future; the batcher coalesces concurrent requests (flush on max_batch or
// max_queue_delay_us); a pool of inference workers runs ONE batched
// PolicyNet::Forward per (flush, scenario) group and completes each future
// with the actions, masked logits and value estimate. Model parameters
// hot-swap through per-scenario ModelRegistry entries without ever blocking
// in-flight inference: each worker keeps a private PolicyNet and copies a
// snapshot's values in only when the (scenario, epoch) it is serving
// changes, so concurrent workers never share mutable tensors and every
// response is computed from exactly one epoch of exactly one scenario.
//
// A PolicyServer is the *shard* building block of serve::Fleet (fleet.h),
// and only Fleet::Create constructs one: the fleet owns routing, the shared
// multi-scenario registry, admission control and publication.
#ifndef CEWS_SERVE_SERVER_H_
#define CEWS_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agents/policy_net.h"
#include "common/result.h"
#include "common/status.h"
#include "env/state_encoder.h"
#include "serve/batcher.h"
#include "serve/model_registry.h"
#include "serve/request.h"

namespace cews::obs {
class Counter;
class Gauge;
class Histogram;
class RollingHistogram;
}  // namespace cews::obs

namespace cews::serve {

/// Numeric precision of the inference forward pass.
///
/// kFp32: each worker owns a private fp32 PolicyNet replica and copies
/// snapshot values in on epoch change. kInt8 serves the
/// snapshot's publish-time nn::quant::QuantizedParams bundle in place
/// through the packed int8 kernels (agents/quant_policy.h): no per-worker
/// parameter copy, no per-request weight quantization, and the decision
/// protocol (masking, sampling, Rng draw order) is byte-for-byte the fp32
/// one — only the forward arithmetic changes. Int8 serving is gated on
/// action agreement with the fp32 reference: at least 99% argmax match
/// over the scenario suite, enforced by serve_quant_test and the deploy
/// and CLI gates.
enum class Precision { kFp32, kInt8 };

/// "fp32" / "int8".
const char* PrecisionName(Precision precision);

/// Parses "fp32" / "int8" (InvalidArgument otherwise).
Result<Precision> ParsePrecision(const std::string& name);

struct PolicyServerConfig {
  /// Architecture served (grid, channels, workers, moves). Must match the
  /// checkpoints published into the registry.
  agents::PolicyNetConfig net;
  /// Inference worker threads draining the batcher.
  int num_threads = 1;
  /// Flush a batch at this many coalesced requests...
  int max_batch = 8;
  /// ...or once the oldest queued request has waited this long.
  int64_t max_queue_delay_us = 200;
  /// Admission control: queued requests beyond this depth are shed — Submit
  /// resolves immediately with ResourceExhausted instead of queueing
  /// (never blocks). 0 = unbounded.
  int max_queue_depth = 0;
  /// Intra-op NN kernel threads (0 = hardware cores; CEWS_NUM_THREADS
  /// overrides); Fleet::Create applies it to the global kernel pool once.
  int runtime_threads = 1;
  /// Seeds the per-worker sampling streams.
  uint64_t seed = 1;
  /// Fleet shard index (>= 0): names the per-shard metrics
  /// (serve.shard.N.queue_depth, serve.shard.N.shed) and is reported in
  /// every ScheduleResponse::shard.
  int shard_index = 0;
  /// Forward-pass precision. kInt8 requires the scenario registry to carry
  /// quantized bundles (Create checks).
  Precision precision = Precision::kFp32;
};

class PolicyServer {
 public:
  /// Fleet hook: validates the config and starts a shard serving the
  /// shared multi-scenario registry (owned jointly with the Fleet and its
  /// sibling shards). Does NOT resize the global kernel pool — the fleet
  /// does that once.
  static Result<std::unique_ptr<PolicyServer>> Create(
      const PolicyServerConfig& config,
      std::shared_ptr<ScenarioRegistry> scenarios);

  /// The validation Create applies (a net shape PolicyNet accepts,
  /// thread/batch/queue bounds, shard index), reusable by Fleet::Create
  /// before it constructs anything.
  static Status ValidateConfig(const PolicyServerConfig& config);

  /// Stops and joins the workers (draining queued requests).
  ~PolicyServer();

  PolicyServer(const PolicyServer&) = delete;
  PolicyServer& operator=(const PolicyServer&) = delete;

  /// Enqueues one request; thread-safe and non-blocking. The future always
  /// resolves — with a non-OK ScheduleResponse::status for malformed
  /// requests (InvalidArgument), unknown scenarios (NotFound), a full queue
  /// (ResourceExhausted, when max_queue_depth bounds it) or after Stop()
  /// (FailedPrecondition) — never with a broken promise.
  std::future<ScheduleResponse> Submit(ScheduleRequest request);

  /// Floats a pre-encoded ScheduleRequest::state must carry.
  int StateSize() const {
    return config_.net.in_channels * config_.net.grid * config_.net.grid;
  }

  /// Instantaneous batcher queue length (telemetry, tests).
  int QueueDepth() const { return batcher_.depth(); }

  /// Drains the queue, completes every pending request, joins the workers.
  /// Later Submits resolve immediately with FailedPrecondition. Idempotent.
  void Stop();

 private:
  PolicyServer(const PolicyServerConfig& config,
               std::shared_ptr<ScenarioRegistry> scenarios);

  void WorkerLoop(int worker_index);
  Status ValidateRequest(const ScheduleRequest& request) const;

  const PolicyServerConfig config_;
  env::StateEncoder encoder_;
  std::shared_ptr<ScenarioRegistry> scenarios_;
  obs::Gauge* depth_gauge_;          ///< serve.shard.N.queue_depth.
  obs::Counter* shed_counter_;       ///< serve.shard.N.shed.
  obs::Histogram* latency_hist_;     ///< serve.shard.N.latency_ns.
  /// Windowed latency: the shard's own rolling histogram plus the shared
  /// fleet-wide one — the SLO monitor and exporter read these.
  obs::RollingHistogram* rolling_latency_;
  obs::RollingHistogram* fleet_rolling_latency_;
  /// Shard-local shed tally for flight-recorder sampling (obs::Counter is
  /// write-only): a shed event is recorded only at power-of-two counts, so
  /// a shed storm cannot evict the sparse lifecycle events around it.
  std::atomic<uint64_t> shed_total_{0};
  RequestBatcher batcher_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
};

}  // namespace cews::serve

#endif  // CEWS_SERVE_SERVER_H_
