// The two serving workloads, both on a 2-shard x 1-worker serve::Fleet.
//
//   serve-steady    fp32, max_batch 8, 200 us flush delay. An open loop:
//                   Poisson arrivals at a fixed 8k requests/s (about a
//                   quarter of capacity), 10^4 client ids, requests drawn
//                   from a pool of distinct seeded env states and masks,
//                   sent and harvested by this one thread. Light load:
//                   queue wait dominates latency.
//   serve-saturate  int8, max_batch 16. A closed loop of 32 virtual
//                   clients multiplexed on this thread, each stepping its
//                   own Env with the actions it gets back. Batches fill, so
//                   the forward pass dominates.
//
// Every input (schedule, client ids, state pool, client envs) comes from
// the workload seed and is built before the clock starts. The benchmark
// calls Fleet::Submit itself and times each request until it observes the
// resolved future.
#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "agents/eval.h"
#include "agents/policy_net.h"
#include "agents/quant_policy.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/algorithms.h"
#include "core/drl_cews.h"
#include "nn/params.h"
#include "dist/trainer.h"
#include "env/state_encoder.h"
#include "env/vec_env.h"
#include "nn/tensor.h"
#include "obs/trace.h"
#include "report.h"
#include "serve/fleet.h"

namespace perfbench {
namespace {

using cews::Stopwatch;
namespace agents = cews::agents;
namespace env = cews::env;
namespace nn = cews::nn;
namespace serve = cews::serve;

constexpr int kShards = 2;
constexpr int kServeTrainEpisodes = 40;
constexpr double kOfferedRps = 8000.0;
constexpr uint64_t kClientIds = 10000;
constexpr int kPoolSize = 1024;
constexpr int kClosedLoopClients = 32;
/// Every this-many-th request asks for the argmax decision; up to
/// kMaxChecked of those are re-decided after the run.
constexpr int kDeterministicEvery = 16;
constexpr size_t kMaxChecked = 512;
constexpr int kSetupReps = 5;
constexpr int kWarmupRequests = 1024;
constexpr double kSloUs = 1000.0;
constexpr size_t kTailBlock = 1000;
/// Latency charged to a request that was shed or failed (it misses every
/// limit, so it sorts above every completed request).
constexpr double kFailedUs = 1e12;
/// An open-loop run whose sends finish this much later than scheduled fell
/// behind and is invalid.
constexpr double kMinAchievedShare = 0.99;

const char* const kScenario = serve::ScenarioRegistry::kDefaultScenario;

struct ServeWorld {
  env::Map map;
  agents::TrainerConfig config;  ///< Normalized quick-scale config.
  /// Published parameters: a seeded net whose head weights are scaled 50x,
  /// standing in for a trained policy's decisive logit gaps (a random-init
  /// head has near-ties that no quantized path reproduces).
  std::unique_ptr<agents::PolicyNet> net;
  int state_size = 0;
  int mask_size = 0;
};

ServeWorld MakeWorld(uint64_t seed) {
  ServeWorld world{MakeMap(), {}, nullptr, 0, 0};
  const agents::TrainerConfig train = QuickConfig(
      cews::core::Algorithm::kDrlCews, 2, 1, kServeTrainEpisodes, seed);
  world.config = cews::dist::NormalizeConfig(train, world.map);
  auto system = cews::core::DrlCews::Create(train, world.map);
  CEWS_CHECK(system.ok()) << system.status().ToString();
  (*system)->Train();
  cews::Rng rng(seed);
  world.net = std::make_unique<agents::PolicyNet>(world.config.net, rng);
  nn::CopyParameters((*system)->net().Parameters(), world.net->Parameters());
  world.state_size = world.config.net.in_channels * world.config.net.grid *
                     world.config.net.grid;
  world.mask_size = world.config.net.num_workers * world.config.net.num_moves;
  return world;
}

/// Uniformly random valid moves (and charge flags) for every worker.
std::vector<env::WorkerAction> RandomActions(const env::Env& e,
                                             cews::Rng& rng) {
  const std::vector<uint8_t> mask = env::MoveValidityMask(e);
  const int num_moves = e.config().action_space.num_moves();
  std::vector<env::WorkerAction> actions;
  for (int w = 0; w < e.num_workers(); ++w) {
    std::vector<int> valid;
    for (int m = 0; m < num_moves; ++m) {
      if (mask[static_cast<size_t>(w * num_moves + m)] != 0) valid.push_back(m);
    }
    const int move =
        valid.empty() ? 0
                      : valid[static_cast<size_t>(rng.UniformInt(valid.size()))];
    actions.push_back(env::WorkerAction{move, rng.UniformInt(4) == 0});
  }
  return actions;
}

/// kPoolSize distinct (state, mask) pairs from seeded VecEnv rollouts under
/// random valid actions.
struct StatePool {
  std::vector<float> states;
  std::vector<uint8_t> masks;
};

StatePool MakePool(const ServeWorld& world, uint64_t seed) {
  StatePool pool;
  const env::StateEncoder encoder(world.config.encoder);
  env::VecEnv vec(world.config.env, world.map, 16);
  cews::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 5);
  std::unordered_set<uint64_t> seen;
  int collected = 0;
  while (collected < kPoolSize) {
    vec.Reset();
    while (!vec.AllDone() && collected < kPoolSize) {
      std::vector<std::vector<env::WorkerAction>> actions;
      for (int i = 0; i < vec.size(); ++i) {
        actions.push_back(RandomActions(vec.env(i), rng));
      }
      vec.Step(actions);
      const std::vector<float> states = encoder.EncodeBatch(vec.EnvPtrs());
      for (int i = 0; i < vec.size() && collected < kPoolSize; ++i) {
        const std::vector<float> state(
            states.begin() + static_cast<ptrdiff_t>(i) * world.state_size,
            states.begin() + static_cast<ptrdiff_t>(i + 1) * world.state_size);
        if (!seen.insert(HashFloats(state)).second) continue;
        const std::vector<uint8_t> mask = env::MoveValidityMask(vec.env(i));
        pool.states.insert(pool.states.end(), state.begin(), state.end());
        pool.masks.insert(pool.masks.end(), mask.begin(), mask.end());
        ++collected;
      }
    }
  }
  return pool;
}

serve::FleetConfig MakeFleetConfig(const ServeWorld& world, uint64_t seed,
                                   serve::Precision precision, int max_batch) {
  serve::FleetConfig config;
  config.net = world.config.net;
  config.num_shards = kShards;
  config.threads_per_shard = 1;
  config.max_batch = max_batch;
  config.max_queue_delay_us = 200;
  config.runtime_threads = 1;
  config.seed = seed;
  config.precision = precision;
  return config;
}

/// A running fleet plus what its set-up cost.
struct LiveFleet {
  std::unique_ptr<serve::Fleet> fleet;
  uint64_t epoch = 0;
  std::vector<double> setup_s, publish_ms;
};

/// Creates, publishes and warms the fleet kSetupReps times (keeping the
/// last) so set-up time is reported as a median.
LiveFleet StartFleet(const ServeWorld& world, const StatePool& pool,
                     const serve::FleetConfig& config, Report& report) {
  LiveFleet live;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    live.fleet.reset();
    Stopwatch watch;
    auto created = serve::Fleet::Create(config);
    CEWS_CHECK(created.ok()) << created.status().ToString();
    live.fleet = std::move(created.value());
    const double t0 = NowUs();
    const cews::Status published =
        live.fleet->Publish(kScenario, world.net->Parameters());
    live.publish_ms.push_back((NowUs() - t0) * 1e-3);
    CEWS_CHECK(published.ok()) << published.ToString();
    std::vector<std::future<serve::ScheduleResponse>> warm;
    for (int i = 0; i < kWarmupRequests; ++i) {
      serve::ScheduleRequest request;
      request.client_id = static_cast<uint64_t>(i);
      const size_t k = static_cast<size_t>(i % kPoolSize);
      request.state.assign(
          pool.states.begin() + static_cast<ptrdiff_t>(k * world.state_size),
          pool.states.begin() +
              static_cast<ptrdiff_t>((k + 1) * world.state_size));
      warm.push_back(live.fleet->Submit(std::move(request)));
      if (warm.size() == 32) {
        for (auto& f : warm) f.get();
        warm.clear();
      }
    }
    for (auto& f : warm) f.get();
    live.setup_s.push_back(watch.ElapsedSeconds());
  }
  live.epoch = live.fleet->Epoch(kScenario).value();
  report.Note("fleet: " + std::to_string(kShards) + " shards x 1 worker, " +
              serve::PrecisionName(config.precision) + ", max_batch " +
              std::to_string(config.max_batch) + ", published epoch " +
              std::to_string(live.epoch));
  return live;
}

/// One deterministic request kept for re-deciding after the run.
struct CheckedDecision {
  std::vector<float> state;
  std::vector<uint8_t> mask;
  std::vector<int> moves, charges;
  std::vector<float> move_logits, charge_logits;
};

/// Outcome tally and latency statistics of one measured phase. Latencies
/// are summarized per block of kTailBlock requests (in completion order),
/// so memory stays bounded and a single stall of the host decides at most
/// one block.
struct PhaseStats {
  int64_t sent = 0, ok = 0, shed = 0, errors = 0, wrong = 0, within_slo = 0;
  std::vector<double> block, block_p50, block_p90, block_p99, block_rps;
  uint64_t block_start_ns = 0;  ///< Previous block's last completion.
  int64_t block_ok = 0;
  std::vector<double> late_us;  ///< Open loop: send minus schedule.
  /// One completed OK request, for the traced layer breakdown.
  struct OkSample {
    uint64_t sent_ns;
    double latency_us, late_us;
    double notify_us;  ///< Observed latency from the send minus latency_ns.
  };
  bool keep_samples = false;  ///< Fill ok_samples (traced phases).
  std::vector<OkSample> ok_samples;
  double step_us_sum = 0.0;  ///< Closed loop: summed client Env::Step time.
  std::vector<CheckedDecision> checked;
  double seconds = 0.0;  ///< Measurement window.
  double scheduled_rps = 0.0, achieved_send_rps = 0.0;
  double batch_sum = 0.0, batch_count = 0.0;
  int64_t env_steps = 0;
  double env_counter = 0.0;

  /// Records one completed request observed at `observed_ns` (latency
  /// kFailedUs for a failed one).
  void AddLatency(double us, bool good, uint64_t observed_ns) {
    within_slo += us <= kSloUs ? 1 : 0;
    block_ok += good ? 1 : 0;
    block.push_back(us);
    if (block.size() == kTailBlock) {
      block_p50.push_back(Percentile(block, 0.5));
      block_p90.push_back(Percentile(block, 0.9));
      block_p99.push_back(Percentile(block, 0.99));
      block_rps.push_back(static_cast<double>(block_ok) /
                          (static_cast<double>(observed_ns - block_start_ns) *
                           1e-9));
      block.clear();
      block_ok = 0;
      block_start_ns = observed_ns;
    }
  }
  /// Medians over blocks of the block's OK-completion rate, p50, p90 and
  /// p99 (each block's p99 has 10 samples beyond it). Runs shorter than
  /// one block use the whole run.
  double Rps() const {
    return block_rps.empty() ? static_cast<double>(ok) / seconds
                             : Median(block_rps);
  }
  double P50() const {
    return block_p50.empty() ? Percentile(block, 0.5) : Median(block_p50);
  }
  double P90() const {
    return block_p90.empty() ? Percentile(block, 0.9) : Median(block_p90);
  }
  double P99() const {
    return block_p99.empty() ? Percentile(block, 0.99) : Median(block_p99);
  }
  double SloFrac() const {
    return sent == 0 ? 0.0 : static_cast<double>(within_slo) / sent;
  }
};

/// Counts one response as ok, shed, error or wrong (bad epoch, action out
/// of range, masked move) and records its latency.
void Tally(const serve::ScheduleResponse& response, uint64_t epoch,
           const agents::PolicyNetConfig& net, const uint8_t* mask,
           double latency_us, uint64_t observed_ns, PhaseStats& stats) {
  if (!response.ok()) {
    if (response.status.code() == cews::StatusCode::kResourceExhausted) {
      ++stats.shed;
    } else {
      ++stats.errors;
    }
    stats.AddLatency(kFailedUs, false, observed_ns);
    return;
  }
  bool good = response.epoch == epoch &&
              static_cast<int>(response.act.moves.size()) == net.num_workers &&
              static_cast<int>(response.act.charges.size()) == net.num_workers;
  for (size_t w = 0; good && w < response.act.moves.size(); ++w) {
    const int move = response.act.moves[w];
    const int charge = response.act.charges[w];
    good = move >= 0 && move < net.num_moves && (charge == 0 || charge == 1) &&
           (mask == nullptr ||
            mask[w * static_cast<size_t>(net.num_moves) +
                 static_cast<size_t>(move)] != 0);
  }
  if (!good) {
    ++stats.wrong;
    stats.AddLatency(kFailedUs, false, observed_ns);
    return;
  }
  ++stats.ok;
  stats.AddLatency(latency_us, true, observed_ns);
}

void KeepForCheck(const float* state, int state_size, const uint8_t* mask,
                  int mask_size, const serve::ScheduleResponse& response,
                  PhaseStats& stats) {
  if (!response.ok() || stats.checked.size() >= kMaxChecked) return;
  CheckedDecision d;
  d.state.assign(state, state + state_size);
  d.mask.assign(mask, mask + mask_size);
  d.moves = response.act.moves;
  d.charges = response.act.charges;
  d.move_logits = response.move_logits;
  d.charge_logits = response.charge_logits;
  stats.checked.push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// Open loop (serve-steady).
// ---------------------------------------------------------------------------

struct Schedule {
  std::vector<uint64_t> offset_ns;  ///< Scheduled send, from the start.
  std::vector<uint64_t> client_id;
  std::vector<int> pool_index;
};

Schedule MakeSchedule(uint64_t seed, double seconds) {
  Schedule s;
  cews::Rng rng(seed * 0xD1B54A32D192ED03ULL + 11);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform()) / kOfferedRps;
    if (t >= seconds) break;
    s.offset_ns.push_back(static_cast<uint64_t>(t * 1e9));
    s.client_id.push_back(rng.UniformInt(kClientIds));
    s.pool_index.push_back(static_cast<int>(rng.UniformInt(kPoolSize)));
  }
  return s;
}

PhaseStats RunOpenLoop(const ServeWorld& world, const StatePool& pool,
                       const LiveFleet& live, const Schedule& schedule,
                       bool keep_samples) {
  PhaseStats stats;
  stats.keep_samples = keep_samples;
  const size_t n = schedule.offset_ns.size();
  std::vector<uint64_t> due(n), sent(n);
  struct InFlight {
    size_t index;
    std::future<serve::ScheduleResponse> future;
  };
  std::vector<InFlight> outstanding;

  auto complete = [&](size_t i, const serve::ScheduleResponse& r,
                      uint64_t observed) {
    const size_t k = static_cast<size_t>(schedule.pool_index[i]);
    const uint8_t* mask = pool.masks.data() + k * world.mask_size;
    const double latency_us = static_cast<double>(observed - due[i]) * 1e-3;
    Tally(r, live.epoch, world.config.net, mask, latency_us, observed, stats);
    if (r.ok() && stats.keep_samples) {
      stats.ok_samples.push_back(PhaseStats::OkSample{
          sent[i], latency_us, static_cast<double>(sent[i] - due[i]) * 1e-3,
          static_cast<double>(observed - sent[i] - r.latency_ns) * 1e-3});
    }
    if (i % kDeterministicEvery == 0) {
      KeepForCheck(pool.states.data() + k * world.state_size, world.state_size,
                   mask, world.mask_size, r, stats);
    }
  };
  // One thread sends on schedule and, between sends, polls every
  // outstanding future, so each response is observed within one poll of
  // resolving, in whatever order the shards finish.
  auto poll = [&]() {
    for (size_t j = 0; j < outstanding.size();) {
      if (outstanding[j].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        const uint64_t now = Stopwatch::NowNs();
        complete(outstanding[j].index, outstanding[j].future.get(), now);
        outstanding[j] = std::move(outstanding.back());
        outstanding.pop_back();
      } else {
        ++j;
      }
    }
  };

  const RegistryMark mark;
  const uint64_t base = Stopwatch::NowNs() + 1'000'000;
  stats.block_start_ns = base;
  for (size_t i = 0; i < n; ++i) {
    due[i] = base + schedule.offset_ns[i];
    while (Stopwatch::NowNs() < due[i]) poll();
    serve::ScheduleRequest request;
    request.client_id = schedule.client_id[i];
    const size_t k = static_cast<size_t>(schedule.pool_index[i]);
    request.state.assign(
        pool.states.begin() + static_cast<ptrdiff_t>(k * world.state_size),
        pool.states.begin() +
            static_cast<ptrdiff_t>((k + 1) * world.state_size));
    request.move_mask.assign(
        pool.masks.begin() + static_cast<ptrdiff_t>(k * world.mask_size),
        pool.masks.begin() + static_cast<ptrdiff_t>((k + 1) * world.mask_size));
    request.deterministic = i % kDeterministicEvery == 0;
    request.arrival_ns = due[i];
    sent[i] = Stopwatch::NowNs();
    stats.late_us.push_back(static_cast<double>(sent[i] - due[i]) * 1e-3);
    ++stats.sent;
    outstanding.push_back(InFlight{i, live.fleet->Submit(std::move(request))});
  }
  const uint64_t last_send = Stopwatch::NowNs();
  while (!outstanding.empty()) poll();

  stats.seconds = static_cast<double>(last_send - base) * 1e-9;
  stats.scheduled_rps =
      n == 0 ? 0.0 : static_cast<double>(n) /
                         (static_cast<double>(schedule.offset_ns.back()) * 1e-9);
  stats.achieved_send_rps = static_cast<double>(n) / stats.seconds;
  stats.batch_sum = mark.HistSumDelta("serve.batch_size");
  stats.batch_count = mark.HistCountDelta("serve.batch_size");
  return stats;
}

// ---------------------------------------------------------------------------
// Closed loop (serve-saturate).
// ---------------------------------------------------------------------------

PhaseStats RunClosedLoop(const ServeWorld& world, const LiveFleet& live,
                         uint64_t seed, double seconds, bool keep_samples) {
  PhaseStats stats;
  stats.keep_samples = keep_samples;
  const env::StateEncoder encoder(world.config.encoder);
  struct Client {
    uint64_t id = 0;
    std::unique_ptr<env::Env> env;
    std::vector<uint8_t> mask;
    std::vector<float> state;  ///< Encoded only for deterministic requests.
    std::future<serve::ScheduleResponse> future;
    uint64_t sent_ns = 0;
    int64_t requests = 0;
    bool deterministic = false;
  };
  cews::Rng rng(seed * 0xA24BAED4963EE407ULL + 3);
  std::vector<Client> clients(kClosedLoopClients);
  for (Client& c : clients) {
    c.id = rng.UniformInt(kClientIds);
    c.env = std::make_unique<env::Env>(world.config.env, world.map);
    c.env->Reset();
    // Desynchronize the clients: each starts a random number of steps in.
    const uint64_t warm = rng.UniformInt(kHorizon / 2);
    for (uint64_t s = 0; s < warm; ++s) c.env->Step(RandomActions(*c.env, rng));
  }

  auto submit = [&](Client& c) {
    c.mask = env::MoveValidityMask(*c.env);
    c.deterministic = c.requests % kDeterministicEvery == 0;
    if (c.deterministic) c.state = encoder.Encode(*c.env);
    serve::ScheduleRequest request;
    request.client_id = c.id;
    request.env = c.env.get();
    request.move_mask = c.mask;
    request.deterministic = c.deterministic;
    c.sent_ns = Stopwatch::NowNs();
    c.future = live.fleet->Submit(std::move(request));
    ++c.requests;
    ++stats.sent;
  };

  const RegistryMark mark;
  const uint64_t start = Stopwatch::NowNs();
  stats.block_start_ns = start;
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  for (Client& c : clients) submit(c);
  int64_t outstanding = kClosedLoopClients;
  while (outstanding > 0) {
    for (Client& c : clients) {
      if (!c.future.valid() || c.future.wait_for(std::chrono::seconds(0)) !=
                                   std::future_status::ready) {
        continue;
      }
      const uint64_t now = Stopwatch::NowNs();
      const serve::ScheduleResponse r = c.future.get();
      --outstanding;
      const double latency_us = static_cast<double>(now - c.sent_ns) * 1e-3;
      Tally(r, live.epoch, world.config.net, c.mask.data(), latency_us, now,
            stats);
      if (r.ok() && stats.keep_samples) {
        stats.ok_samples.push_back(PhaseStats::OkSample{
            c.sent_ns, latency_us, 0.0,
            static_cast<double>(now - c.sent_ns - r.latency_ns) * 1e-3});
      }
      if (c.deterministic) {
        KeepForCheck(c.state.data(), world.state_size, c.mask.data(),
                     world.mask_size, r, stats);
      }
      if (now >= stop) continue;
      const double t0 = NowUs();
      if (r.ok()) {
        c.env->Step(r.act.actions);
      } else {
        c.env->Step(RandomActions(*c.env, rng));
      }
      if (c.env->Done()) c.env->Reset();
      ++stats.env_steps;
      stats.step_us_sum += NowUs() - t0;
      submit(c);
      ++outstanding;
    }
  }
  stats.seconds = static_cast<double>(Stopwatch::NowNs() - start) * 1e-9;
  stats.batch_sum = mark.HistSumDelta("serve.batch_size");
  stats.batch_count = mark.HistCountDelta("serve.batch_size");
  stats.env_counter = mark.CounterDelta("env.steps");
  return stats;
}

// ---------------------------------------------------------------------------
// Checks and reporting.
// ---------------------------------------------------------------------------

/// fp32: every kept deterministic response must be reproduced exactly by
/// agents::DecidePolicyBatch on the published parameters.
void CheckFp32(const ServeWorld& world, const PhaseStats& stats,
               Report& report) {
  int64_t mismatched = 0;
  cews::Rng rng(1);
  const uint8_t deterministic = 1;
  for (const CheckedDecision& d : stats.checked) {
    const std::vector<agents::PolicyDecision> again = agents::DecidePolicyBatch(
        *world.net, d.state, 1, rng, &deterministic, d.mask.data());
    const agents::PolicyDecision& x = again.front();
    if (x.act.moves != d.moves || x.act.charges != d.charges ||
        !BitwiseEqual(x.move_logits, d.move_logits) ||
        !BitwiseEqual(x.charge_logits, d.charge_logits)) {
      ++mismatched;
    }
  }
  report.Note("fp32 re-decision: " + std::to_string(stats.checked.size()) +
              " deterministic responses, " + std::to_string(mismatched) +
              " differ from DecidePolicyBatch");
  if (stats.checked.empty() || mismatched != 0) {
    report.Fail("fp32 responses do not match DecidePolicyBatch exactly");
  }
}

/// int8: argmax agreement with the fp32 net on the kept states.
void CheckInt8(const ServeWorld& world, const PhaseStats& stats,
               Report& report) {
  std::vector<float> states;
  for (const CheckedDecision& d : stats.checked) {
    states.insert(states.end(), d.state.begin(), d.state.end());
  }
  const int n = static_cast<int>(stats.checked.size());
  const cews::nn::quant::QuantizedParams qp =
      agents::QuantizePolicyParams(world.net->Parameters());
  const agents::AgreementStats agreement =
      n > 0 ? agents::ActionAgreementOnStates(*world.net, qp, states, n)
            : agents::AgreementStats{};
  report.Note("int8 agreement: " + std::to_string(agreement.matched) + "/" +
              std::to_string(agreement.decisions) + " = " +
              Num(agreement.rate()));
  if (n == 0 || agreement.rate() < 0.99) {
    report.Fail("int8 action agreement below 0.99");
  }
}

void CheckOutcomes(const PhaseStats& stats, Report& report) {
  report.Ops(stats.sent, stats.sent - stats.ok);
  if (stats.wrong > 0) {
    report.Fail(std::to_string(stats.wrong) +
                " responses with a wrong epoch, an out-of-range action or a "
                "masked move");
  }
  if (stats.ok + stats.shed + stats.errors + stats.wrong != stats.sent) {
    report.Fail("responses do not account for every request sent");
  }
}

void NoteOutcomes(const PhaseStats& stats, Report& report) {
  report.Note("sent " + std::to_string(stats.sent) + ", ok " +
              std::to_string(stats.ok) + ", shed " +
              std::to_string(stats.shed) + ", error " +
              std::to_string(stats.errors) + ", wrong " +
              std::to_string(stats.wrong) + " in " + Num(stats.seconds) +
              " s");
}

void ReportEndToEnd(const PhaseStats& stats, const LiveFleet& live,
                    double rss_mb, bool open_loop, Report& report) {
  const double p50 = stats.P50();
  const double p99 = stats.P99();
  report.Metric("throughput_per_s", stats.Rps());
  report.Metric("latency_p50_us", p50);
  report.Metric("latency_p90_us", stats.P90());
  report.Metric("setup_s", Median(live.setup_s));
  report.Metric("peak_rss_mb", rss_mb);
  report.Note(std::string("latency measured from the ") +
              (open_loop ? "scheduled" : "actual") +
              " send to the observed resolved future");
  report.Note("serve_p50_us = " + Num(p50) + " us, p90 = " +
              Num(stats.P90()) + " us, serve_p99_us = " + Num(p99) +
              " us (medians over " +
              std::to_string(stats.block_p99.size()) + " blocks of " +
              std::to_string(kTailBlock) + " requests)");
  report.Note("serve_rps = " + Num(stats.Rps()) +
              " OK responses/s (median block rate; " +
              Num(static_cast<double>(stats.ok) / stats.seconds) +
              " over the whole run)");
  if (open_loop) {
    report.Note("serve_slo_frac = " + Num(stats.SloFrac()) +
                " of requests sent completed OK within 1 ms");
  }
  report.Note("setup_s = " + Num(Median(live.setup_s)) +
              " s (median of " + std::to_string(kSetupReps) +
              " Create + Publish + warm-up), peak_rss_mb = " + Num(rss_mb) +
              " MB");
}

/// Durations (us) of the request-lifecycle spans named `name` that start
/// at or after `from_ns`.
std::vector<double> SpanUs(const std::vector<cews::obs::CollectedSpan>& spans,
                           const char* name, uint64_t from_ns) {
  std::vector<double> us;
  for (const cews::obs::CollectedSpan& s : spans) {
    if (s.id != 0 && s.start_ns >= from_ns && std::string(s.name) == name) {
      us.push_back(static_cast<double>(s.dur_ns) * 1e-3);
    }
  }
  return us;
}

/// Per-layer report of a traced phase; `primary_overhead` is the relative
/// cost tracing added to the workload's primary end-to-end metric.
void ReportServeLayers(const PhaseStats& traced, const LiveFleet& live,
                       double primary_overhead, Report& report) {
  const std::vector<cews::obs::CollectedSpan> spans =
      cews::obs::CollectSpans();
  // Per-thread span rings keep only their newest spans. Layers and
  // latencies are compared over the window every ring still covers.
  std::map<int, uint64_t> first_by_thread;
  for (const cews::obs::CollectedSpan& s : spans) {
    if (s.id == 0) continue;
    auto it = first_by_thread.find(s.tid);
    if (it == first_by_thread.end() || s.start_ns < it->second) {
      first_by_thread[s.tid] = s.start_ns;
    }
  }
  uint64_t from_ns = 0;
  for (const auto& [tid, first] : first_by_thread) {
    from_ns = std::max(from_ns, first);
  }
  const std::vector<double> queue_wait =
      SpanUs(spans, "serve.queue_wait", from_ns);
  const double assemble = Mean(SpanUs(spans, "serve.batch_assemble", from_ns));
  const double forward = Mean(SpanUs(spans, "serve.forward", from_ns));
  report.Metric("serve.queue_wait_p50_us", Percentile(queue_wait, 0.5));
  report.Metric("serve.queue_wait_p99_us", Percentile(queue_wait, 0.99));
  report.Metric("serve.batch_assemble_us", assemble);
  report.Metric("serve.forward_us", forward);
  report.Metric("serve.scatter_us",
                Mean(SpanUs(spans, "serve.scatter", from_ns)));
  report.Metric("serve.mean_batch", traced.batch_count > 0
                                        ? traced.batch_sum / traced.batch_count
                                        : 0.0);
  std::vector<double> notify, latency, late, window_notify;
  for (const PhaseStats::OkSample& s : traced.ok_samples) {
    notify.push_back(s.notify_us);
    if (s.sent_ns < from_ns) continue;
    latency.push_back(s.latency_us);
    late.push_back(s.late_us);
    window_notify.push_back(s.notify_us);
  }
  report.Metric("serve.notify_us", Percentile(notify, 0.5));
  report.Metric("serve.shed_frac",
                traced.sent == 0 ? 0.0
                                 : static_cast<double>(traced.shed) /
                                       static_cast<double>(traced.sent));
  report.Metric("serve.publish_ms", Median(live.publish_ms));
  report.Metric("obs.trace_overhead_frac", primary_overhead);
  // A request's latency is lateness + queue wait + batch assembly +
  // forward + notification (Submit's own cost and the wake-up of the
  // observer); the spans tile the server's share exactly.
  const double named = Mean(late) + Mean(queue_wait) + assemble + forward +
                       Mean(window_notify);
  report.Metric("closure_err_frac", 1.0 - named / Mean(latency));
}

std::vector<float> PoolBatch(const StatePool& pool, int state_size, int first,
                             int batch) {
  return std::vector<float>(
      pool.states.begin() + static_cast<ptrdiff_t>(first) * state_size,
      pool.states.begin() + static_cast<ptrdiff_t>(first + batch) * state_size);
}

/// Median microseconds of `calls` no-grad PolicyNet::Forward calls over
/// pool batches of `batch` states.
double ForwardFp32Us(const ServeWorld& world, const StatePool& pool,
                     int batch, int calls) {
  const agents::PolicyNetConfig& cfg = world.config.net;
  nn::NoGradGuard no_grad;
  std::vector<double> us;
  for (int c = 0; c < calls; ++c) {
    const int first = (c * batch) % (kPoolSize - batch);
    const nn::Tensor x = nn::Tensor::FromData(
        {batch, cfg.in_channels, cfg.grid, cfg.grid},
        PoolBatch(pool, world.state_size, first, batch));
    const double t0 = NowUs();
    const agents::PolicyOutput out = world.net->Forward(x);
    us.push_back(NowUs() - t0);
    CEWS_CHECK_EQ(out.value.numel(), batch);
  }
  return Median(us);
}

double ForwardInt8Us(const ServeWorld& world, const StatePool& pool, int batch,
                     int calls) {
  const cews::nn::quant::QuantizedParams qp =
      agents::QuantizePolicyParams(world.net->Parameters());
  std::vector<double> us;
  for (int c = 0; c < calls; ++c) {
    const int first = (c * batch) % (kPoolSize - batch);
    const std::vector<float> states =
        PoolBatch(pool, world.state_size, first, batch);
    const double t0 = NowUs();
    const agents::QuantPolicyOutput out =
        agents::QuantPolicyForward(world.config.net, qp, states.data(), batch);
    us.push_back(NowUs() - t0);
    CEWS_CHECK_EQ(static_cast<int>(out.value.size()), batch);
  }
  return Median(us);
}

}  // namespace

int RunServeSteady(const Options& options, Report& report) {
  const ServeWorld world = MakeWorld(options.seed);
  const StatePool pool = MakePool(world, options.seed);
  const double measure_s = options.trace ? options.seconds * 0.4
                                         : options.seconds;
  const Schedule schedule = MakeSchedule(options.seed, measure_s);
  const Schedule traced_schedule = MakeSchedule(options.seed + 1, measure_s);
  report.Note("workload serve-steady: open loop, Poisson " +
              Num(kOfferedRps) + " requests/s, " +
              std::to_string(kClientIds) + " client ids, pool of " +
              std::to_string(kPoolSize) +
              " distinct states; busy threads = 2 shard workers + 1 "
              "load thread = 3");
  LiveFleet live = StartFleet(
      world, pool,
      MakeFleetConfig(world, options.seed, serve::Precision::kFp32, 8),
      report);

  PhaseStats stats = RunOpenLoop(world, pool, live, schedule, false);
  NoteOutcomes(stats, report);
  report.Note("generator: scheduled " + Num(stats.scheduled_rps) +
              " requests/s, achieved send rate " +
              Num(stats.achieved_send_rps) + ", lateness p50 " +
              Num(Percentile(stats.late_us, 0.5)) + " us, p99 " +
              Num(Percentile(stats.late_us, 0.99)) + " us");
  if (stats.achieved_send_rps < kMinAchievedShare * stats.scheduled_rps) {
    std::fprintf(stderr,
                 "perfbench: the open-loop generator fell behind its "
                 "schedule (achieved %.1f of %.1f sends/s); run invalid\n",
                 stats.achieved_send_rps, stats.scheduled_rps);
    return 3;
  }
  CheckOutcomes(stats, report);
  CheckFp32(world, stats, report);
  if (!options.trace) {
    ReportEndToEnd(stats, live, SelfPeakRssMb(), /*open_loop=*/true, report);
    return 0;
  }
  cews::obs::SetTraceEnabled(true);
  PhaseStats traced = RunOpenLoop(world, pool, live, traced_schedule, true);
  cews::obs::SetTraceEnabled(false);
  CheckOutcomes(traced, report);
  ReportServeLayers(traced, live, traced.P50() / stats.P50() - 1.0, report);
  report.Metric("loadgen.late_p50_us", Percentile(traced.late_us, 0.5));
  report.Metric("loadgen.late_p99_us", Percentile(traced.late_us, 0.99));
  report.Metric("nn.forward_fp32_b1_us", ForwardFp32Us(world, pool, 1, 400));
  report.Metric("nn.forward_fp32_b8_us", ForwardFp32Us(world, pool, 8, 200));
  return 0;
}

int RunServeSaturate(const Options& options, Report& report) {
  const ServeWorld world = MakeWorld(options.seed);
  const StatePool pool = MakePool(world, options.seed);
  const double measure_s = options.trace ? options.seconds * 0.4
                                         : options.seconds;
  report.Note("workload serve-saturate: closed loop, " +
              std::to_string(kClosedLoopClients) +
              " clients on one load thread; busy threads = 2 shard "
              "workers + 1 load thread = 3");
  LiveFleet live = StartFleet(
      world, pool,
      MakeFleetConfig(world, options.seed, serve::Precision::kInt8, 16),
      report);
  PhaseStats stats =
      RunClosedLoop(world, live, options.seed, measure_s, false);
  NoteOutcomes(stats, report);
  CheckOutcomes(stats, report);
  CheckInt8(world, stats, report);
  if (!options.trace) {
    ReportEndToEnd(stats, live, SelfPeakRssMb(), /*open_loop=*/false, report);
    return 0;
  }
  cews::obs::SetTraceEnabled(true);
  PhaseStats traced =
      RunClosedLoop(world, live, options.seed + 1, measure_s, true);
  cews::obs::SetTraceEnabled(false);
  CheckOutcomes(traced, report);
  if (traced.env_counter != static_cast<double>(traced.env_steps)) {
    report.Fail("env.steps counter " + Num(traced.env_counter) +
                " != client steps " + std::to_string(traced.env_steps));
  }
  ReportServeLayers(traced, live, 1.0 - traced.Rps() / stats.Rps(), report);
  report.Metric("env.steps", static_cast<double>(traced.env_steps));
  report.Metric("env.step_encode_us",
                traced.step_us_sum / static_cast<double>(traced.env_steps));
  report.Metric("nn.forward_int8_b16_us", ForwardInt8Us(world, pool, 16, 200));
  return 0;
}

}  // namespace perfbench
