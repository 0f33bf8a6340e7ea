// Int8 quantized serving: hot-swap correctness and fp32 action agreement.
//
// The hot-swap tests use bias-dominated parameter sets (all GEMM weights
// zero, decisions forced through the fp32-exact dense biases) so the action
// a response carries identifies EXACTLY which published epoch's quantized
// bundle served it: a torn or stale bundle would produce an action that
// contradicts the response's epoch. The agreement harness runs the serving
// acceptance gate — quantized vs fp32 argmax match rate >= 99% — over
// deterministic rollouts on every core scenario, with head-scaled
// (decisive) nets standing in for trained policies. The *Pinned* cases
// hold the int8 forward's outputs to CRC-32 pins bit for bit.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agents/eval.h"
#include "agents/policy_net.h"
#include "agents/quant_policy.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/scenarios.h"
#include "env/env.h"
#include "env/state_encoder.h"
#include "nn/quant.h"
#include "serve/fleet.h"
#include "serve/server.h"

namespace cews::serve {
namespace {

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

std::vector<float> FixedState(const agents::PolicyNetConfig& net) {
  std::vector<float> state(
      static_cast<size_t>(net.in_channels * net.grid * net.grid));
  for (size_t i = 0; i < state.size(); ++i) {
    state[i] = 0.01f * static_cast<float>(i % 37);
  }
  return state;
}

/// A parameter set whose argmax decisions are forced by the head BIASES
/// (dense fp32 in the quantized bundle, hence exact): every GEMM-fed head
/// weight is zeroed, the move bias picks `move_target` for every worker and
/// the charge bias picks `charge_target`. The trunk stays random — its
/// output is irrelevant once the head weights are zero.
std::vector<nn::Tensor> BiasForcedParams(const agents::PolicyNetConfig& cfg,
                                         uint64_t seed, int move_target,
                                         int charge_target) {
  Rng rng(seed);
  const agents::PolicyNet net(cfg, rng);
  std::vector<nn::Tensor> params = net.Parameters();
  CEWS_CHECK_EQ(params.size(), 20u);
  auto zero = [](nn::Tensor& t) {
    std::fill(t.data(), t.data() + t.numel(), 0.0f);
  };
  zero(params[14]);  // move head W
  zero(params[15]);  // move head b
  zero(params[16]);  // charge head W
  zero(params[17]);  // charge head b
  for (int w = 0; w < cfg.num_workers; ++w) {
    params[15].data()[w * cfg.num_moves + move_target] = 5.0f;
    params[17].data()[w * 2 + charge_target] = 5.0f;
  }
  return params;
}

/// A "trained-looking" net: head weights scaled up 50x post-init so the
/// argmax gaps are decisive, as they are after PPO training — the regime
/// the >= 99% agreement gate is specified for (near-uniform random-init
/// heads have sub-quantization-step logit gaps by construction).
std::unique_ptr<agents::PolicyNet> DecisiveNet(
    const agents::PolicyNetConfig& cfg, uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<agents::PolicyNet>(cfg, rng);
  const std::vector<nn::Tensor> params = net->Parameters();
  for (const size_t head_w : {size_t{14}, size_t{16}, size_t{18}}) {
    nn::Tensor t = params[head_w];
    for (nn::Index i = 0; i < t.numel(); ++i) t.data()[i] *= 50.0f;
  }
  return net;
}

uint32_t Crc(const std::vector<float>& v) {
  return ComputeCrc32(v.data(), v.size() * sizeof(float));
}

/// The pins hold for the default optimized x86-64 build with FMA
/// contraction (-march=native on any FMA-capable host). Other builds —
/// unoptimized, sanitizer-instrumented, or without FMA — contract and
/// vectorize the kernels differently, so there two runs are only checked
/// against each other.
#if defined(__x86_64__) && defined(__FMA__) && defined(__OPTIMIZE__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
constexpr bool kPinsApply = true;
#else
constexpr bool kPinsApply = false;
#endif

/// CRC-32 of each QuantPolicyForward output plus the agreement tally.
struct Int8Pins {
  uint32_t move_b1, charge_b1, value_b1;
  uint32_t move_b16, charge_b16, value_b16;
  int64_t matched, decisions;
};

Int8Pins ComputeInt8Pins(const agents::PolicyNetConfig& cfg,
                         uint64_t net_seed, uint64_t state_seed) {
  const std::unique_ptr<agents::PolicyNet> net = DecisiveNet(cfg, net_seed);
  const nn::quant::QuantizedParams qp =
      agents::QuantizePolicyParams(net->Parameters());
  constexpr int kBatch = 16;
  Rng rng(state_seed);
  std::vector<float> states(static_cast<size_t>(
      kBatch * cfg.in_channels * cfg.grid * cfg.grid));
  for (float& x : states) x = static_cast<float>(rng.Uniform());
  const agents::QuantPolicyOutput b1 =
      agents::QuantPolicyForward(cfg, qp, states.data(), 1);
  const agents::QuantPolicyOutput b16 =
      agents::QuantPolicyForward(cfg, qp, states.data(), kBatch);
  const agents::AgreementStats agree =
      agents::ActionAgreementOnStates(*net, qp, states, kBatch);
  return Int8Pins{Crc(b1.move_logits),  Crc(b1.charge_logits),
                  Crc(b1.value),        Crc(b16.move_logits),
                  Crc(b16.charge_logits), Crc(b16.value),
                  agree.matched,        agree.decisions};
}

/// Runs the int8 forward twice and checks both runs against `pinned`
/// (or, where the pins do not apply, against each other).
void ExpectInt8Pins(const agents::PolicyNetConfig& cfg, uint64_t net_seed,
                    uint64_t state_seed, const Int8Pins& pinned) {
  const Int8Pins first = ComputeInt8Pins(cfg, net_seed, state_seed);
  const Int8Pins second = ComputeInt8Pins(cfg, net_seed, state_seed);
  for (const Int8Pins* run : {&first, &second}) {
    const Int8Pins& want = kPinsApply ? pinned : first;
    EXPECT_EQ(run->move_b1, want.move_b1);
    EXPECT_EQ(run->charge_b1, want.charge_b1);
    EXPECT_EQ(run->value_b1, want.value_b1);
    EXPECT_EQ(run->move_b16, want.move_b16);
    EXPECT_EQ(run->charge_b16, want.charge_b16);
    EXPECT_EQ(run->value_b16, want.value_b16);
  }
  // The agreement tally is a count of argmax matches, robust to the
  // last-bit differences the CRCs are not: it holds on every build.
  EXPECT_EQ(first.matched, pinned.matched);
  EXPECT_EQ(first.decisions, pinned.decisions);
  EXPECT_EQ(second.matched, first.matched);
  EXPECT_EQ(second.decisions, first.decisions);
}

/// The single-shard int8 fleet the hot-swap tests publish into.
FleetConfig Int8FleetConfig(int threads) {
  FleetConfig config;
  config.net = TinyNet();
  config.num_shards = 1;
  config.threads_per_shard = threads;
  config.max_batch = 4;
  config.max_queue_delay_us = 100;
  config.max_queue_depth = 0;
  config.runtime_threads = 1;
  config.seed = 11;
  config.precision = Precision::kInt8;
  return config;
}

constexpr const char* kScenario = ScenarioRegistry::kDefaultScenario;

TEST(PrecisionTest, ParseAndName) {
  EXPECT_EQ(ParsePrecision("fp32").value(), Precision::kFp32);
  EXPECT_EQ(ParsePrecision("int8").value(), Precision::kInt8);
  EXPECT_FALSE(ParsePrecision("bf16").ok());
  EXPECT_STREQ(PrecisionName(Precision::kFp32), "fp32");
  EXPECT_STREQ(PrecisionName(Precision::kInt8), "int8");
}

TEST(QuantServeTest, Int8ShardRequiresQuantizedRegistry) {
  PolicyServerConfig config;
  config.net = TinyNet();
  config.precision = Precision::kInt8;
  Rng rng(3);
  const agents::PolicyNet net(config.net, rng);
  auto fp32_only = std::make_shared<ScenarioRegistry>(
      std::vector<std::string>{ScenarioRegistry::kDefaultScenario},
      net.Parameters(), /*quantize=*/false);
  const Result<std::unique_ptr<PolicyServer>> server =
      PolicyServer::Create(config, fp32_only);
  EXPECT_FALSE(server.ok());
}

TEST(QuantServeTest, HotSwapServesNewQuantizedWeights) {
  const FleetConfig config = Int8FleetConfig(/*threads=*/2);
  Result<std::unique_ptr<Fleet>> created = Fleet::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Fleet> server = std::move(created).value();

  ASSERT_TRUE(server
                  ->Publish(kScenario,
                            BiasForcedParams(config.net, 7, /*move=*/3,
                                             /*charge=*/1))
                  .ok());
  ScheduleRequest request;
  request.state = FixedState(config.net);
  request.deterministic = true;
  ScheduleResponse response = server->Submit(std::move(request)).get();
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(response.epoch, 1u);
  for (const int move : response.act.moves) EXPECT_EQ(move, 3);
  for (const int charge : response.act.charges) EXPECT_EQ(charge, 1);

  // Second publish: the very next response must serve the NEW bundle.
  ASSERT_TRUE(server
                  ->Publish(kScenario,
                            BiasForcedParams(config.net, 9, /*move=*/7,
                                             /*charge=*/0))
                  .ok());
  ScheduleRequest second;
  second.state = FixedState(config.net);
  second.deterministic = true;
  response = server->Submit(std::move(second)).get();
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(response.epoch, 2u);
  for (const int move : response.act.moves) EXPECT_EQ(move, 7);
  for (const int charge : response.act.charges) EXPECT_EQ(charge, 0);
}

TEST(QuantServeTest, ConcurrentPublishesNeverServeTornBundles) {
  const FleetConfig config = Int8FleetConfig(/*threads=*/3);
  Result<std::unique_ptr<Fleet>> created = Fleet::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Fleet> server = std::move(created).value();

  // Odd epochs serve move 3 / charge 1, even epochs move 7 / charge 0.
  const std::vector<nn::Tensor> odd =
      BiasForcedParams(config.net, 7, /*move=*/3, /*charge=*/1);
  const std::vector<nn::Tensor> even =
      BiasForcedParams(config.net, 9, /*move=*/7, /*charge=*/0);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (int p = 0; p < 40 && !stop.load(); ++p) {
      ASSERT_TRUE(server->Publish(kScenario, p % 2 == 0 ? odd : even).ok());
      std::this_thread::yield();
    }
    stop.store(true);
  });

  uint64_t last_epoch = 0;
  int served = 0;
  while (!stop.load() || served == 0) {
    ScheduleRequest request;
    request.state = FixedState(config.net);
    request.deterministic = true;
    const ScheduleResponse response =
        server->Submit(std::move(request)).get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    if (response.epoch == 0) continue;  // before the first publish landed
    ++served;
    // Epochs move forward for a single client stream...
    EXPECT_GE(response.epoch, last_epoch);
    last_epoch = response.epoch;
    // ...and the served actions must be EXACTLY the publishing epoch's:
    // a torn/stale bundle would mix move targets or disagree with epoch.
    const int want_move = response.epoch % 2 == 1 ? 3 : 7;
    const int want_charge = response.epoch % 2 == 1 ? 1 : 0;
    for (const int move : response.act.moves) EXPECT_EQ(move, want_move);
    for (const int charge : response.act.charges) {
      EXPECT_EQ(charge, want_charge);
    }
  }
  publisher.join();
  EXPECT_GT(served, 0);
}

TEST(QuantServeTest, Int8FleetServesAllScenarios) {
  FleetConfig config;
  config.net = TinyNet();
  config.num_shards = 2;
  config.threads_per_shard = 1;
  config.runtime_threads = 1;
  config.seed = 5;
  config.precision = Precision::kInt8;
  config.scenarios = {"default", "earthquake-site"};
  Result<std::unique_ptr<Fleet>> created = Fleet::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const std::unique_ptr<Fleet> fleet = std::move(created).value();
  EXPECT_EQ(fleet->precision(), Precision::kInt8);
  for (const std::string& scenario : config.scenarios) {
    ScheduleRequest request;
    request.state = FixedState(config.net);
    request.scenario = scenario;
    request.deterministic = true;
    const ScheduleResponse response =
        fleet->Submit(std::move(request)).get();
    ASSERT_TRUE(response.ok())
        << scenario << ": " << response.status.ToString();
    EXPECT_EQ(response.epoch, 0u);
  }
}

TEST(QuantServeTest, AgreementAtLeast99PercentAcrossScenarioSuite) {
  const agents::PolicyNetConfig cfg = TinyNet();
  const std::unique_ptr<agents::PolicyNet> net = DecisiveNet(cfg, 1234);
  const nn::quant::QuantizedParams qp =
      agents::QuantizePolicyParams(net->Parameters());
  const env::StateEncoder encoder(env::StateEncoderConfig{cfg.grid});

  agents::AgreementStats total;
  for (const core::Scenario scenario : core::AllScenarios()) {
    Result<env::Map> map = core::MakeScenario(
        scenario, /*pois=*/12, /*workers=*/cfg.num_workers, /*stations=*/2,
        /*seed=*/99);
    ASSERT_TRUE(map.ok()) << map.status().ToString();
    env::Env env(env::EnvConfig{}, map.value());
    env.Reset();
    // Deterministic rollout under the fp32 policy, scoring agreement on
    // every visited state.
    Rng rollout_rng(7);
    std::vector<float> states;
    int visited = 0;
    for (int step = 0; step < 24 && !env.Done(); ++step) {
      const std::vector<float> state = encoder.Encode(env);
      states.insert(states.end(), state.begin(), state.end());
      ++visited;
      const agents::ActResult act = agents::SamplePolicy(
          *net, state, rollout_rng, /*deterministic=*/true);
      env.Step(act.actions);
    }
    ASSERT_GT(visited, 0) << core::ScenarioName(scenario);
    const agents::AgreementStats stats =
        agents::ActionAgreementOnStates(*net, qp, states, visited);
    // Per-scenario floor: with ~96 decisions per rollout a 99% bar would
    // demand a perfect score (one near-tie argmax flip = 98.96%), so each
    // scenario only guards against collapse; the >= 99% acceptance gate is
    // enforced suite-wide below, where the sample is 4x larger.
    EXPECT_GE(stats.rate(), 0.97)
        << core::ScenarioName(scenario) << ": " << stats.matched << "/"
        << stats.decisions;
    total.decisions += stats.decisions;
    total.matched += stats.matched;
  }
  EXPECT_GE(total.rate(), 0.99)
      << "suite-wide: " << total.matched << "/" << total.decisions;
}

/// The quick-scale trunk (grid 12): conv3 has ohow = 9, so 32-column tiles
/// straddle images and a batch's last tile is ragged.
agents::PolicyNetConfig QuickNet() {
  agents::PolicyNetConfig net;
  net.grid = 12;
  return net;
}

std::vector<float> RandomStates(const agents::PolicyNetConfig& cfg,
                                int batch, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> states(static_cast<size_t>(
      batch * cfg.in_channels * cfg.grid * cfg.grid));
  for (float& x : states) x = static_cast<float>(rng.Uniform());
  return states;
}

/// True when out[first, first + n) holds exactly the bits of `part`.
bool SameBits(const std::vector<float>& out, size_t first,
              const std::vector<float>& part) {
  return first + part.size() <= out.size() &&
         std::memcmp(out.data() + first, part.data(),
                     part.size() * sizeof(float)) == 0;
}

TEST(QuantServeTest, Int8ForwardIsBatchInvariant) {
  for (const agents::PolicyNetConfig& cfg :
       {TinyNet(), QuickNet(), agents::PolicyNetConfig{}}) {
    const std::unique_ptr<agents::PolicyNet> net = DecisiveNet(cfg, 4244);
    const nn::quant::QuantizedParams qp =
        agents::QuantizePolicyParams(net->Parameters());
    const size_t state_size =
        static_cast<size_t>(cfg.in_channels * cfg.grid * cfg.grid);
    const size_t n_move = static_cast<size_t>(cfg.num_workers * cfg.num_moves);
    const size_t n_charge = static_cast<size_t>(cfg.num_workers * 2);
    for (const int batch : {2, 5, 11, 17}) {
      SCOPED_TRACE("grid " + std::to_string(cfg.grid) + ", batch " +
                   std::to_string(batch));
      const std::vector<float> states = RandomStates(cfg, batch, 80 + batch);
      const agents::QuantPolicyOutput stacked =
          agents::QuantPolicyForward(cfg, qp, states.data(), batch);
      for (size_t i = 0; i < static_cast<size_t>(batch); ++i) {
        const agents::QuantPolicyOutput single = agents::QuantPolicyForward(
            cfg, qp, states.data() + i * state_size, 1);
        EXPECT_TRUE(SameBits(stacked.move_logits, i * n_move,
                             single.move_logits)) << "instance " << i;
        EXPECT_TRUE(SameBits(stacked.charge_logits, i * n_charge,
                             single.charge_logits)) << "instance " << i;
        EXPECT_TRUE(SameBits(stacked.value, i, single.value))
            << "instance " << i;
      }
    }
  }
}

TEST(QuantServeTest, Int8ForwardIsThreadInvariant) {
  constexpr int kBatch = 16;
  const int threads_before = runtime::GlobalPoolThreads();
  for (const agents::PolicyNetConfig& cfg :
       {TinyNet(), QuickNet(), agents::PolicyNetConfig{}}) {
    SCOPED_TRACE("grid " + std::to_string(cfg.grid));
    const std::unique_ptr<agents::PolicyNet> net = DecisiveNet(cfg, 4245);
    const nn::quant::QuantizedParams qp =
        agents::QuantizePolicyParams(net->Parameters());
    const std::vector<float> states = RandomStates(cfg, kBatch, 81);
    runtime::SetGlobalPoolThreads(1);
    const agents::QuantPolicyOutput one =
        agents::QuantPolicyForward(cfg, qp, states.data(), kBatch);
    runtime::SetGlobalPoolThreads(4);
    const agents::QuantPolicyOutput four =
        agents::QuantPolicyForward(cfg, qp, states.data(), kBatch);
    runtime::SetGlobalPoolThreads(threads_before);
    EXPECT_TRUE(SameBits(four.move_logits, 0, one.move_logits));
    EXPECT_TRUE(SameBits(four.charge_logits, 0, one.charge_logits));
    EXPECT_TRUE(SameBits(four.value, 0, one.value));
  }
}

TEST(QuantServeTest, Int8ForwardMatchesPinnedCrcTinyNet) {
  ExpectInt8Pins(TinyNet(), /*net_seed=*/4242, /*state_seed=*/77,
                 Int8Pins{0xb05285feu, 0x06bf0423u, 0x5c58fc6du, 0x343c0f23u,
                          0xac0082c0u, 0xad12da7cu, /*matched=*/63,
                          /*decisions=*/64});
}

TEST(QuantServeTest, Int8ForwardMatchesPinnedCrcDefaultNet) {
  ExpectInt8Pins(agents::PolicyNetConfig{}, /*net_seed=*/4243,
                 /*state_seed=*/78,
                 Int8Pins{0xf3c1690du, 0x106486a8u, 0x7108ee9au, 0x0ee083feu,
                          0x0630ca0eu, 0x4d08c169u, /*matched=*/64,
                          /*decisions=*/64});
}

}  // namespace
}  // namespace cews::serve
