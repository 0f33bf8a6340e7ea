#include "serve/fleet.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "agents/eval.h"
#include "agents/policy_net.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"
#include "nn/params.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "serve/loadgen.h"
#include "serve/router.h"

namespace cews::serve {
namespace {

/// Small net matching the default 17-move action space; grid 8 keeps the
/// forward cheap enough for sanitizer runs.
agents::PolicyNetConfig TinyNet() {
  agents::PolicyNetConfig net;
  net.in_channels = 3;
  net.grid = 8;
  net.num_workers = 2;
  net.num_moves = 17;
  net.conv1_channels = 4;
  net.conv2_channels = 4;
  net.conv3_channels = 4;
  net.feature_dim = 32;
  return net;
}

FleetConfig TinyFleet(int shards) {
  FleetConfig config;
  config.net = TinyNet();
  config.num_shards = shards;
  config.threads_per_shard = 1;
  config.max_batch = 4;
  config.max_queue_delay_us = 100;
  config.runtime_threads = 1;
  config.seed = 11;
  return config;
}

std::unique_ptr<Fleet> MakeFleet(const FleetConfig& config) {
  Result<std::unique_ptr<Fleet>> fleet = Fleet::Create(config);
  CEWS_CHECK(fleet.ok()) << fleet.status().ToString();
  return std::move(fleet).value();
}

/// 10x10 two-worker map (matches TinyNet().num_workers).
env::Map TinyMap() {
  env::Map map;
  map.config.size_x = 10.0;
  map.config.size_y = 10.0;
  map.config.hard_corner = false;
  map.pois = {env::Poi{{3.0, 3.0}, 1.0}, env::Poi{{7.0, 6.0}, 1.0}};
  map.stations = {env::ChargingStation{{1.0, 1.0}}};
  map.worker_spawns = {{2.0, 2.0}, {8.0, 8.0}};
  return map;
}

/// An arbitrary (but fixed) pre-encoded state for TinyNet.
std::vector<float> FixedState() {
  std::vector<float> state(3 * 8 * 8);
  for (size_t i = 0; i < state.size(); ++i) {
    state[i] = 0.01f * static_cast<float>(i % 37);
  }
  return state;
}

TEST(FleetTest, CreateValidatesConfig) {
  {
    FleetConfig config = TinyFleet(0);
    EXPECT_EQ(Fleet::Create(config).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    FleetConfig config = TinyFleet(65);  // past the per-shard-metrics bound
    EXPECT_EQ(Fleet::Create(config).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    FleetConfig config = TinyFleet(1);
    config.threads_per_shard = 0;
    EXPECT_EQ(Fleet::Create(config).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    FleetConfig config = TinyFleet(1);
    config.scenarios = {};
    EXPECT_EQ(Fleet::Create(config).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    FleetConfig config = TinyFleet(1);
    config.scenarios = {"a", "a"};
    EXPECT_EQ(Fleet::Create(config).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    FleetConfig config = TinyFleet(1);
    config.scenarios = {""};
    EXPECT_EQ(Fleet::Create(config).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    FleetConfig config = TinyFleet(1);
    config.max_queue_depth = -1;
    EXPECT_EQ(Fleet::Create(config).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// Every net shape the PolicyNet constructor would CHECK-abort on must come
// back from Fleet::Create as InvalidArgument instead.
TEST(FleetTest, CreateRejectsNetShapesPolicyNetCannotBuild) {
  const std::vector<void (*)(agents::PolicyNetConfig&)> breakers = {
      [](agents::PolicyNetConfig& n) { n.num_moves = 1; },
      [](agents::PolicyNetConfig& n) { n.grid = 3; },
      [](agents::PolicyNetConfig& n) { n.grid = 1; },
      [](agents::PolicyNetConfig& n) { n.feature_dim = 0; },
      [](agents::PolicyNetConfig& n) { n.feature_dim = -4; },
      [](agents::PolicyNetConfig& n) { n.conv1_channels = 0; },
      [](agents::PolicyNetConfig& n) { n.conv2_channels = -1; },
      [](agents::PolicyNetConfig& n) { n.conv3_channels = 0; },
  };
  for (size_t i = 0; i < breakers.size(); ++i) {
    FleetConfig config = TinyFleet(1);
    breakers[i](config.net);
    const Result<std::unique_ptr<Fleet>> fleet = Fleet::Create(config);
    EXPECT_EQ(fleet.status().code(), StatusCode::kInvalidArgument)
        << "case " << i;
  }
  // The smallest grid the trunk accepts still builds and serves.
  FleetConfig config = TinyFleet(1);
  config.net.grid = 4;
  const std::unique_ptr<Fleet> fleet = MakeFleet(config);
  ScheduleRequest request;
  request.state.assign(static_cast<size_t>(fleet->StateSize()), 0.5f);
  EXPECT_TRUE(fleet->Submit(std::move(request)).get().ok());
}

TEST(FleetTest, ServesAndReportsOwningShard) {
  std::unique_ptr<Fleet> fleet = MakeFleet(TinyFleet(3));
  for (uint64_t client = 0; client < 24; ++client) {
    ScheduleRequest request;
    request.client_id = client;
    request.state = FixedState();
    const ScheduleResponse response =
        fleet->Submit(std::move(request)).get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    EXPECT_EQ(response.shard, fleet->ShardFor(client, ""));
    EXPECT_EQ(response.act.moves.size(), 2u);
    EXPECT_EQ(response.epoch, 0u);
  }
}

TEST(FleetTest, SameClientAlwaysLandsOnSameShard) {
  std::unique_ptr<Fleet> fleet = MakeFleet(TinyFleet(4));
  for (uint64_t client : {0ULL, 7ULL, 123456789ULL, 0xFFFFFFFFFFFFULL}) {
    const int expected = fleet->ShardFor(client, "");
    for (int repeat = 0; repeat < 8; ++repeat) {
      ScheduleRequest request;
      request.client_id = client;
      request.state = FixedState();
      const ScheduleResponse response =
          fleet->Submit(std::move(request)).get();
      ASSERT_TRUE(response.ok()) << response.status.ToString();
      EXPECT_EQ(response.shard, expected) << "client " << client;
    }
  }
}

TEST(FleetTest, RouterSpreadsClientsAcrossShards) {
  const ConsistentHashRouter router(RouterConfig{/*num_shards=*/4});
  std::vector<int> hits(4, 0);
  constexpr int kClients = 20'000;
  for (uint64_t id = 0; id < kClients; ++id) {
    ++hits[static_cast<size_t>(router.ShardFor(id, ""))];
  }
  // Perfect balance is 25% each; with 64 vnodes/shard the ring is uneven
  // but every shard must carry a material share.
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(hits[static_cast<size_t>(s)], kClients / 10) << "shard " << s;
  }
  // The scenario tag participates in the key: the same population under a
  // different tag lands on a (mostly) different shard assignment.
  int moved = 0;
  for (uint64_t id = 0; id < 1000; ++id) {
    if (router.ShardFor(id, "a") != router.ShardFor(id, "")) ++moved;
  }
  EXPECT_GT(moved, 250);
}

TEST(FleetTest, RouterRemapsMinimallyWhenFleetGrows) {
  // Consistent hashing's point: adding a shard strands only the keys the
  // new shard's vnodes capture (~1/(N+1) of them). Modulo routing would
  // remap ~N/(N+1) — for 4 -> 5 shards, 80%. Assert we stay far below that.
  const ConsistentHashRouter four(RouterConfig{/*num_shards=*/4});
  const ConsistentHashRouter five(RouterConfig{/*num_shards=*/5});
  constexpr int kClients = 20'000;
  int remapped = 0;
  for (uint64_t id = 0; id < kClients; ++id) {
    const int before = four.ShardFor(id, "");
    const int after = five.ShardFor(id, "");
    if (before != after) {
      ++remapped;
      // A key may only move TO the new shard; vnode positions of shards
      // 0..3 are identical in both rings.
      EXPECT_EQ(after, 4) << "client " << id << " moved " << before
                          << " -> " << after;
    }
  }
  EXPECT_LT(remapped, kClients * 2 / 5);  // well below modulo's 80%
  EXPECT_GT(remapped, 0);                 // the new shard does take keys
}

TEST(FleetTest, UnknownScenarioRejectedNotFound) {
  FleetConfig config = TinyFleet(2);
  config.scenarios = {"beijing", "shanghai"};
  std::unique_ptr<Fleet> fleet = MakeFleet(config);

  ScheduleRequest request;
  request.state = FixedState();
  request.scenario = "chengdu";
  const ScheduleResponse response = fleet->Submit(std::move(request)).get();
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);

  // With two scenarios and no "default" registered, an empty tag is
  // ambiguous and must also be rejected, not silently routed.
  ScheduleRequest untagged;
  untagged.state = FixedState();
  const ScheduleResponse ambiguous =
      fleet->Submit(std::move(untagged)).get();
  EXPECT_EQ(ambiguous.status.code(), StatusCode::kNotFound);

  // Tagged requests serve normally.
  ScheduleRequest tagged;
  tagged.state = FixedState();
  tagged.scenario = "beijing";
  EXPECT_TRUE(fleet->Submit(std::move(tagged)).get().ok());
}

TEST(FleetTest, SaturatedShardShedsImmediatelyInsteadOfQueueing) {
  FleetConfig config = TinyFleet(1);
  config.max_batch = 64;               // size trigger unreachable
  config.max_queue_delay_us = 500'000; // timeout far beyond the submit burst
  config.max_queue_depth = 2;
  std::unique_ptr<Fleet> fleet = MakeFleet(config);

  const uint64_t shed_before =
      obs::SnapshotMetrics().CounterValue("serve.fleet.shed_total");

  // The worker is parked in PopBatch waiting for a flush trigger, so the
  // first two requests sit in the queue and every later one must be shed.
  std::vector<std::future<ScheduleResponse>> accepted;
  for (int i = 0; i < 2; ++i) {
    ScheduleRequest request;
    request.state = FixedState();
    accepted.push_back(fleet->Submit(std::move(request)));
  }
  constexpr int kOverload = 5;
  for (int i = 0; i < kOverload; ++i) {
    ScheduleRequest request;
    request.state = FixedState();
    std::future<ScheduleResponse> future =
        fleet->Submit(std::move(request));
    // Shed is immediate: the future is already resolved when Submit
    // returns — admission control never blocks the caller.
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const ScheduleResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(response.shard, 0);
  }

  // The queue never grew past the admission bound.
  EXPECT_LE(fleet->QueueDepth(0), 2);
  EXPECT_GE(obs::SnapshotMetrics().CounterValue("serve.fleet.shed_total"),
            shed_before + kOverload);

  // The accepted requests are served normally once the delay bound flushes
  // them — shedding rejects new work, it never drops admitted work.
  for (std::future<ScheduleResponse>& future : accepted) {
    EXPECT_TRUE(future.get().ok());
  }
}

TEST(FleetTest, PublishSwapsOneScenarioWithoutPerturbingAnother) {
  FleetConfig config = TinyFleet(2);
  config.scenarios = {"a", "b"};
  std::unique_ptr<Fleet> fleet = MakeFleet(config);

  // Replicate scenario b's epoch-0 net locally and precompute the argmax
  // decision for one fixed state (inference is deterministic, so responses
  // must match bitwise).
  const std::vector<float> state = FixedState();
  Rng rng0(config.seed);
  agents::PolicyNet local(config.net, rng0);
  Rng unused(1);
  const uint8_t kDet = 1;
  const agents::PolicyDecision expected_b =
      agents::DecidePolicyBatch(local, state, 1, unused, &kDet)[0];

  // Hammer scenario a with publishes while deterministic scenario-b
  // clients run; b must keep serving its untouched epoch-0 snapshot.
  Rng pub_rng(20001);
  const agents::PolicyNet net_a(config.net, pub_rng);
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      CEWS_CHECK(fleet->Publish("a", net_a.Parameters()).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 30;
  const std::string scenario_b("b");
  std::mutex mu;
  std::vector<ScheduleResponse> responses;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        ScheduleRequest request;
        request.client_id = static_cast<uint64_t>(c);
        request.scenario = scenario_b;
        request.state = state;
        request.deterministic = true;
        ScheduleResponse response = fleet->Submit(std::move(request)).get();
        std::lock_guard<std::mutex> lock(mu);
        responses.push_back(std::move(response));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  publisher.join();

  ASSERT_EQ(responses.size(),
            static_cast<size_t>(kClients * kRequestsPerClient));
  for (const ScheduleResponse& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    EXPECT_EQ(response.epoch, 0u);  // b was never republished
    EXPECT_EQ(response.act.value, expected_b.act.value);
    EXPECT_EQ(response.move_logits, expected_b.move_logits);
    EXPECT_EQ(response.charge_logits, expected_b.charge_logits);
    EXPECT_EQ(response.act.moves, expected_b.act.moves);
  }

  // a advanced its own epoch stream the whole time.
  const Result<uint64_t> epoch_a = fleet->Epoch("a");
  ASSERT_TRUE(epoch_a.ok());
  EXPECT_GT(epoch_a.value(), 0u);
  const Result<uint64_t> epoch_b = fleet->Epoch("b");
  ASSERT_TRUE(epoch_b.ok());
  EXPECT_EQ(epoch_b.value(), 0u);
  EXPECT_FALSE(fleet->Epoch("nope").ok());
}

TEST(FleetTest, PublishRefusesNonFiniteSnapshots) {
  std::unique_ptr<Fleet> fleet = MakeFleet(TinyFleet(1));
  const std::string scenario(ScenarioRegistry::kDefaultScenario);
  const std::string path = testing::TempDir() + "/nonfinite_snapshot.bin";
  const uint64_t rejected_before = obs::SnapshotMetrics().CounterValue(
      "serve.rejected_nonfinite_snapshot");
  Rng rng(5);
  const agents::PolicyNet net(TinyNet(), rng);
  std::vector<nn::Tensor> params = net.Parameters();
  float& weight = params[0].data()[3];
  const float finite = weight;
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    weight = bad;
    const Status direct = fleet->Publish(scenario, params);
    EXPECT_EQ(direct.code(), StatusCode::kInvalidArgument)
        << direct.ToString();
    ASSERT_TRUE(nn::SaveParameters(path, params).ok());
    const Status from_file = fleet->PublishFromFile(scenario, path);
    EXPECT_EQ(from_file.code(), StatusCode::kInvalidArgument)
        << from_file.ToString();
    EXPECT_EQ(fleet->Epoch(scenario).value(), 0u);
  }
  EXPECT_EQ(obs::SnapshotMetrics().CounterValue(
                "serve.rejected_nonfinite_snapshot"),
            rejected_before + 4);
  weight = finite;
  ASSERT_TRUE(fleet->Publish(scenario, params).ok());
  EXPECT_EQ(fleet->Epoch(scenario).value(), 1u);
  std::remove(path.c_str());
}

TEST(FleetTest, ConcurrentPerScenarioPublishesUnderLoad) {
  FleetConfig config = TinyFleet(2);
  config.scenarios = {"a", "b"};
  std::unique_ptr<Fleet> fleet = MakeFleet(config);
  const std::vector<float> state = FixedState();

  // One publisher per scenario swapping mid-flight (the TSan acceptance
  // scenario): every response still resolves OK with a sane epoch.
  std::atomic<bool> stop{false};
  std::vector<std::thread> publishers;
  for (const std::string scenario : {"a", "b"}) {
    publishers.emplace_back([&, scenario] {
      Rng rng(scenario == "a" ? 301 : 302);
      const agents::PolicyNet net(config.net, rng);
      while (!stop.load(std::memory_order_relaxed)) {
        CEWS_CHECK(fleet->Publish(scenario, net.Parameters()).ok());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  std::vector<std::thread> clients;
  std::atomic<int> served{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      const std::string scenario(c % 2 == 0 ? "a" : "b");
      for (int i = 0; i < 25; ++i) {
        ScheduleRequest request;
        request.client_id = static_cast<uint64_t>(c * 1000 + i);
        request.scenario = scenario;
        request.state = state;
        const ScheduleResponse response =
            fleet->Submit(std::move(request)).get();
        CEWS_CHECK(response.ok()) << response.status.ToString();
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : publishers) t.join();
  EXPECT_EQ(served.load(), 100);
}

TEST(FleetTest, SubmitAfterStopFailsPrecondition) {
  std::unique_ptr<Fleet> fleet = MakeFleet(TinyFleet(2));
  fleet->Stop();
  ScheduleRequest request;
  request.state = FixedState();
  const ScheduleResponse response = fleet->Submit(std::move(request)).get();
  EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
  fleet->Stop();  // idempotent
}

TEST(FleetTest, ClosedLoopLoadAcrossShards) {
  std::unique_ptr<Fleet> fleet = MakeFleet(TinyFleet(2));
  LoadSpec spec;
  spec.mode = LoadMode::kClosedLoop;
  spec.clients = 4;
  spec.requests_per_client = 15;
  spec.env.horizon = 30;
  const Result<LoadResult> result = RunLoad(*fleet, TinyMap(), spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().requests, 60u);
  EXPECT_EQ(result.value().errors, 0u);
  EXPECT_EQ(result.value().shed, 0u);
  EXPECT_GT(result.value().throughput_rps, 0.0);
  EXPECT_GE(result.value().latency_p999_us, result.value().latency_p99_us);
}

TEST(FleetTest, OpenLoopLoadWithLargeClientPopulation) {
  std::unique_ptr<Fleet> fleet = MakeFleet(TinyFleet(2));
  LoadSpec spec;
  spec.mode = LoadMode::kOpenLoop;
  spec.clients = 100'000;  // simulated id population, not threads
  spec.arrival_rps = 400.0;
  spec.duration_seconds = 0.25;
  spec.submit_threads = 2;
  spec.env.horizon = 30;
  const Result<LoadResult> result = RunLoad(*fleet, TinyMap(), spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().requests, 0u);
  EXPECT_EQ(result.value().errors, 0u);
  EXPECT_GT(result.value().offered_rps, 0.0);
  if (result.value().latency_p50_us > 0.0) {
    EXPECT_GE(result.value().latency_p99_us, result.value().latency_p50_us);
    EXPECT_GE(result.value().latency_p999_us, result.value().latency_p99_us);
  }
}

TEST(FleetTest, OpenLoopOverloadIsCountedAsShedNotBlocked) {
  FleetConfig config = TinyFleet(1);
  config.max_batch = 64;
  config.max_queue_delay_us = 50'000;  // slow flushes: ~20 batches/s
  config.max_queue_depth = 4;          // tiny admission bound
  std::unique_ptr<Fleet> fleet = MakeFleet(config);

  LoadSpec spec;
  spec.mode = LoadMode::kOpenLoop;
  spec.clients = 1000;
  spec.arrival_rps = 3000.0;  // far beyond what the shard can admit
  spec.duration_seconds = 0.25;
  spec.submit_threads = 2;
  spec.env.horizon = 30;
  const Result<LoadResult> result = RunLoad(*fleet, TinyMap(), spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Overload shows up as counted sheds, and the run finishes on schedule
  // because shed futures resolve immediately (never block the arrivals).
  EXPECT_GT(result.value().shed, 0u);
  EXPECT_EQ(result.value().errors, 0u);
  EXPECT_LT(result.value().wall_seconds, 10.0);
}

TEST(FleetTest, InvalidLoadSpecRejected) {
  std::unique_ptr<Fleet> fleet = MakeFleet(TinyFleet(1));
  LoadSpec spec;
  spec.mode = LoadMode::kOpenLoop;
  spec.arrival_rps = 0.0;
  EXPECT_EQ(RunLoad(*fleet, TinyMap(), spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.arrival_rps = 100.0;
  spec.duration_seconds = -1.0;
  EXPECT_EQ(RunLoad(*fleet, TinyMap(), spec).status().code(),
            StatusCode::kInvalidArgument);
  LoadSpec closed;
  closed.clients = 0;
  EXPECT_EQ(RunLoad(*fleet, TinyMap(), closed).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cews::serve
