// Micro-benchmarks of the neural-network substrate (google-benchmark).
//
// The matmul/conv benchmarks sweep the intra-op thread count (second arg)
// so one run reports single- vs multi-thread kernel throughput; compare the
// items_per_second column across `threads` values. Kernel results are
// bitwise-identical at every thread count (see nn_parallel_determinism_test),
// so the sweep measures scheduling only.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agents/cnn_trunk.h"
#include "agents/policy_net.h"
#include "agents/ppo.h"
#include "agents/quant_policy.h"
#include "bench/bench_util.h"
#include "common/env_flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "nn/gemm.h"
#include "nn/gemm_int8.h"
#include "nn/graph.h"
#include "nn/quant.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/params.h"
#include "nn/workspace.h"

namespace {

using namespace cews;

/// Sizes the global pool for one benchmark run and restores the serial
/// default on destruction so unrelated benchmarks stay single-threaded.
class PoolGuard {
 public:
  explicit PoolGuard(benchmark::State& state, int arg_index = 1)
      : threads_(static_cast<int>(state.range(arg_index))) {
    runtime::SetGlobalPoolThreads(threads_);
  }
  ~PoolGuard() { runtime::SetGlobalPoolThreads(1); }
  int threads() const { return threads_; }

 private:
  int threads_;
};

void BM_MatMul(benchmark::State& state) {
  const nn::Index n = state.range(0);
  PoolGuard pool(state);
  Rng rng(1);
  nn::Tensor a = nn::Tensor::Zeros({n, n});
  nn::Tensor b = nn::Tensor::Zeros({n, n});
  for (nn::Index i = 0; i < a.numel(); ++i) {
    a.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
    b.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
  }
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{32, 128, 256}, {1, 2, 4}});

void BM_MatMulBackward(benchmark::State& state) {
  const nn::Index n = state.range(0);
  PoolGuard pool(state);
  Rng rng(1);
  nn::Tensor a = nn::Tensor::Zeros({n, n}, /*requires_grad=*/true);
  nn::Tensor b = nn::Tensor::Zeros({n, n}, /*requires_grad=*/true);
  for (nn::Index i = 0; i < a.numel(); ++i) {
    a.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
    b.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
  }
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    nn::Tensor loss = nn::Mean(nn::MatMul(a, b));
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * 3 * n * n * n);
}
BENCHMARK(BM_MatMulBackward)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{128, 256}, {1, 2, 4}});

/// The quick-scale trunk (grid 12, channels 3->4->6->6): the conv shapes
/// the training runs and the serving fleet execute.
nn::ConvShape QuickTrunkStage(int stage, nn::Index batch) {
  agents::CnnTrunkConfig trunk;
  trunk.grid = 12;
  trunk.conv1_channels = 4;
  trunk.conv2_channels = 6;
  trunk.conv3_channels = 6;
  return trunk.ConvStage(stage, batch);
}

/// One conv stage's operands, filled uniform in (-1, 1). Only the inner
/// stages take an input gradient: the first stage's input is the state.
struct ConvOperands {
  nn::Tensor x, w, bias;
};

ConvOperands MakeConvOperands(const nn::ConvShape& s, int stage, bool grad) {
  Rng rng(2);
  auto fill = [&rng](const nn::Shape& shape, bool requires_grad) {
    nn::Tensor t = nn::Tensor::Zeros(shape, requires_grad);
    for (nn::Index i = 0; i < t.numel(); ++i) {
      t.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
    }
    return t;
  };
  return ConvOperands{fill({s.n, s.c, s.h, s.w}, grad && stage > 0),
                      fill({s.oc, s.c, s.kh, s.kw}, grad),
                      fill({s.oc}, grad)};
}

/// FLOPs of one conv product (forward, dW or dX) over the batch.
int64_t ConvFlops(const nn::ConvShape& s) {
  return 2 * s.n * s.oc * s.ck2() * s.ohow();
}

/// Runs one forward (grad=false) or forward + backward step of `op`.
void ConvStep(const nn::ConvShape& s, ConvOperands& op, bool grad) {
  if (!grad) {
    nn::NoGradGuard no_grad;
    benchmark::DoNotOptimize(
        nn::Conv2d(op.x, op.w, op.bias, s.stride, s.padding));
    return;
  }
  op.x.ZeroGrad();
  op.w.ZeroGrad();
  op.bias.ZeroGrad();
  nn::Tensor loss = nn::Mean(nn::Square(
      nn::Conv2d(op.x, op.w, op.bias, s.stride, s.padding)));
  loss.Backward();
  benchmark::DoNotOptimize(loss.item());
}

// items_per_second is FLOP/s of the conv products alone (one product
// forward; forward + dW, plus dX on the inner stages, with backward).
void BM_Conv2dForward(benchmark::State& state) {
  const int stage = static_cast<int>(state.range(0));
  const nn::ConvShape s = QuickTrunkStage(stage, state.range(1));
  PoolGuard pool(state, 2);
  ConvOperands op = MakeConvOperands(s, stage, /*grad=*/false);
  for (auto _ : state) ConvStep(s, op, /*grad=*/false);
  state.SetItemsProcessed(state.iterations() * ConvFlops(s));
}
BENCHMARK(BM_Conv2dForward)
    ->ArgNames({"stage", "batch", "threads"})
    ->ArgsProduct({{0, 1, 2}, {1, 64}, {1, 4}});

void BM_Conv2dForwardBackward(benchmark::State& state) {
  const int stage = static_cast<int>(state.range(0));
  const nn::ConvShape s = QuickTrunkStage(stage, state.range(1));
  PoolGuard pool(state, 2);
  ConvOperands op = MakeConvOperands(s, stage, /*grad=*/true);
  for (auto _ : state) ConvStep(s, op, /*grad=*/true);
  state.SetItemsProcessed(state.iterations() * ConvFlops(s) *
                          (stage > 0 ? 3 : 2));
}
BENCHMARK(BM_Conv2dForwardBackward)
    ->ArgNames({"stage", "batch", "threads"})
    ->ArgsProduct({{0, 1, 2}, {1, 64}, {1, 4}});

void BM_SoftmaxLastDim(benchmark::State& state) {
  Rng rng(4);
  nn::Tensor x = nn::Tensor::Zeros({64, 17});
  for (nn::Index i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.Uniform(-2, 2));
  }
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::Softmax(x));
  }
}
BENCHMARK(BM_SoftmaxLastDim);

// The quick-scale trunk's LayerNorm rows (f = 4*12*12, 6*6*6, 6*3*3) at
// acting, serving and minibatch batch sizes; backward=1 adds the backward
// of sum(y * r) to each iteration.
void BM_LayerNorm(benchmark::State& state) {
  const nn::Index b = state.range(0), f = state.range(1);
  const bool backward = state.range(2) != 0;
  Rng rng(5);
  auto random = [&rng](nn::Index n) {
    std::vector<float> v(static_cast<size_t>(n));
    for (float& x : v) x = static_cast<float>(rng.Uniform(-1, 1));
    return v;
  };
  nn::LayerNorm ln(f);
  nn::Tensor x = nn::Tensor::FromData({b, f}, random(b * f), backward);
  const nn::Tensor r = nn::Tensor::FromData({b, f}, random(b * f));
  for (auto _ : state) {
    if (backward) {
      nn::Tensor loss = nn::Sum(nn::Mul(ln.Forward(x), r));
      loss.Backward();
      benchmark::DoNotOptimize(loss.item());
    } else {
      nn::NoGradGuard no_grad;
      benchmark::DoNotOptimize(ln.Forward(x));
    }
  }
  state.SetItemsProcessed(state.iterations() * b);
}
BENCHMARK(BM_LayerNorm)
    ->ArgNames({"batch", "f", "backward"})
    ->ArgsProduct({{1, 11, 64}, {54, 216, 576}, {0, 1}});

agents::PolicyNetConfig BenchNet(int grid) {
  agents::PolicyNetConfig config;
  config.grid = grid;
  config.num_workers = 2;
  config.num_moves = 17;
  config.conv1_channels = 6;
  config.conv2_channels = 8;
  config.conv3_channels = 8;
  config.feature_dim = 128;
  return config;
}

void BM_PolicyNetForward(benchmark::State& state) {
  const int grid = static_cast<int>(state.range(0));
  Rng rng(6);
  agents::PolicyNet net(BenchNet(grid), rng);
  nn::Tensor x = nn::Tensor::Zeros({1, 3, grid, grid});
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Forward(x));
  }
}
BENCHMARK(BM_PolicyNetForward)->Arg(12)->Arg(20);

// The vectorized acting path's inference shape: one Forward over a
// [batch, C, g, g] stack of per-env states. items_per_second counts env
// states, so dividing by BM_PolicyNetForward's rate gives the per-state
// amortization from batching (graph/dispatch overhead is paid once per
// batch instead of once per state).
void BM_PolicyNetForwardBatch(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  PoolGuard pool(state);
  const int grid = 12;
  Rng rng(6);
  agents::PolicyNet net(BenchNet(grid), rng);
  nn::Tensor x = nn::Tensor::Zeros({batch, 3, grid, grid});
  for (nn::Index i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.Uniform(0, 1));
  }
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Forward(x));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_PolicyNetForwardBatch)
    ->ArgNames({"batch", "threads"})
    ->ArgsProduct({{1, 4, 8, 16}, {1, 2}});

// The int8 serving forward over the same net and state stack, at the
// serve batch extremes: compare with BM_PolicyNetForwardBatch (grid 12) and
// BM_PolicyNetForward (batch 1). Quantization runs once, outside the loop,
// as it does at publish.
void BM_QuantPolicyForward(benchmark::State& state) {
  const int grid = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  runtime::SetGlobalPoolThreads(1);
  Rng rng(6);
  const agents::PolicyNetConfig config = BenchNet(grid);
  const agents::PolicyNet net(config, rng);
  const nn::quant::QuantizedParams qp =
      agents::QuantizePolicyParams(net.Parameters());
  std::vector<float> states(static_cast<size_t>(batch * 3 * grid * grid));
  for (float& x : states) x = static_cast<float>(rng.Uniform(0, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        agents::QuantPolicyForward(config, qp, states.data(), batch));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_QuantPolicyForward)
    ->ArgNames({"grid", "batch"})
    ->ArgsProduct({{12, 20}, {1, 16}});

/// Fills `buffer` with `batch` on-policy transitions from `agent`.
agents::RolloutBuffer FillPpoBuffer(agents::PpoAgent& agent, int batch) {
  Rng rng(8);
  agents::RolloutBuffer buffer;
  const std::vector<float> zero_state(static_cast<size_t>(3 * 12 * 12), 0.0f);
  for (int t = 0; t < batch; ++t) {
    const agents::ActResult act = agent.Act(zero_state, rng);
    agents::Transition tr;
    tr.state = zero_state;
    tr.moves = act.moves;
    tr.charges = act.charges;
    tr.log_prob = act.log_prob;
    tr.value = act.value;
    tr.reward = 1.0f;
    tr.done = t + 1 == batch;
    buffer.Add(std::move(tr));
  }
  buffer.ComputeAdvantages(0.99f, 0.95f, 0.0f);
  return buffer;
}

// The trainer's per-epoch hot path: the compiled PPO loss is recorded on
// the first iteration and replayed after that. arena_bytes is the planned
// peak activation memory of the loss graph.
void BM_PpoLossBackward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  PoolGuard pool(state);
  const agents::PolicyNetConfig net_config = BenchNet(12);
  agents::PpoAgent agent(net_config, agents::PpoConfig{}, 7);
  agents::RolloutBuffer buffer = FillPpoBuffer(agent, batch);
  std::vector<size_t> idx;
  for (int i = 0; i < batch; ++i) idx.push_back(static_cast<size_t>(i));
  for (auto _ : state) {
    nn::ZeroGradients(agent.Parameters());
    // Gather + packed loss, exactly the trainer's per-epoch hot path.
    nn::Tensor loss = agent.ComputeLoss(buffer.GatherBatch(idx));
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.counters["arena_bytes"] =
      static_cast<double>(agent.LossGraphArenaBytes());
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_PpoLossBackward)
    ->ArgNames({"batch", "threads"})
    ->ArgsProduct({{16, 64}, {1, 2, 4}});

// Compiled-graph replay (forward + backward) of a bare MLP classification
// loss, recorded once before the timed loop.
void BM_GraphReplay(benchmark::State& state) {
  const nn::Index b = 64, in = 192, h = 256, classes = 32;
  Rng rng(31);
  auto rnd = [&](const nn::Shape& s, bool rg) {
    std::vector<float> v(static_cast<size_t>(nn::NumElements(s)));
    for (float& f : v) f = static_cast<float>(rng.Uniform(-0.1, 0.1));
    return nn::Tensor::FromData(s, std::move(v), rg);
  };
  nn::Tensor w1 = rnd({in, h}, true);
  nn::Tensor b1 = rnd({h}, true);
  nn::Tensor w2 = rnd({h, classes}, true);
  nn::Tensor x = rnd({b, in}, false);
  auto idx = std::make_shared<std::vector<nn::Index>>();
  for (nn::Index i = 0; i < b; ++i) idx->push_back(i % classes);
  nn::graph::BeginRecording();
  nn::graph::MarkPlaceholder(x);
  nn::Tensor hid = nn::Relu(nn::AddBias(nn::MatMul(x, w1), b1));
  nn::Tensor loss = nn::Neg(
      nn::Mean(nn::GatherLastDim(nn::LogSoftmax(nn::MatMul(hid, w2)), idx)));
  nn::graph::GraphPtr g = nn::graph::EndRecording(loss);
  for (auto _ : state) {
    g->Forward();
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.counters["arena_bytes"] = static_cast<double>(g->arena_bytes());
}
BENCHMARK(BM_GraphReplay);

void BM_AdamStep(benchmark::State& state) {
  Rng rng(9);
  nn::Mlp mlp({256, 256, 64}, nn::Activation::kRelu, rng);
  nn::Adam adam(mlp.Parameters(), 1e-3f);
  for (nn::Tensor p : mlp.Parameters()) p.ZeroGrad();
  for (auto _ : state) {
    adam.Step();
  }
}
BENCHMARK(BM_AdamStep);

// ---------------------------------------------------------------------------
// Raw GEMM kernel benchmarks: packed kernels vs the retained scalar
// reference. Serial on purpose — the acceptance metric for the packed
// kernels is single-thread GFLOP/s (thread scaling is BM_MatMul's job).
// items_per_second is FLOPs (2mnk per product), i.e. FLOP/s.

std::vector<float> RandomBuffer(nn::Index n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1, 1));
  return v;
}

void BM_GemmNN(benchmark::State& state) {
  const nn::Index n = state.range(0);
  const bool packed = state.range(1) != 0;
  const std::vector<float> a = RandomBuffer(n * n, 11);
  const std::vector<float> b = RandomBuffer(n * n, 12);
  std::vector<float> c(static_cast<size_t>(n * n), 0.0f);
  for (auto _ : state) {
    if (packed) {
      nn::gemm::GemmNN(n, n, n, a.data(), n, 1, b.data(), n, c.data(), n);
    } else {
      nn::gemm::reference::GemmNN(n, n, n, a.data(), n, 1, b.data(), n,
                                  c.data(), n);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNN)
    ->ArgNames({"n", "packed"})
    ->ArgsProduct({{64, 256}, {0, 1}});

void BM_GemmNT(benchmark::State& state) {
  const nn::Index n = state.range(0);
  const bool packed = state.range(1) != 0;
  const std::vector<float> x = RandomBuffer(n * n, 13);
  const std::vector<float> y = RandomBuffer(n * n, 14);
  std::vector<float> c(static_cast<size_t>(n * n), 0.0f);
  for (auto _ : state) {
    if (packed) {
      nn::gemm::GemmNT(n, n, n, x.data(), n, y.data(), n, c.data(), n);
    } else {
      nn::gemm::reference::GemmNT(n, n, n, x.data(), n, y.data(), n, c.data(),
                                  n);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNT)
    ->ArgNames({"n", "packed"})
    ->ArgsProduct({{64, 256}, {0, 1}});

// ---------------------------------------------------------------------------
// CEWS_BENCH_KERNELS=1 kernel sweep: times packed vs reference kernels on
// the trainer + serve GEMM shapes and writes BENCH_kernels.json (path
// overridable via CEWS_BENCH_KERNELS_OUT). Runs single-threaded — the JSON
// records the per-kernel speedup — and also records workspace misses per
// iteration for the packed kernels (0 in steady state: all transient
// buffers come from the recycling arena), then the Conv2d op's repeated
// timings on the quick-scale trunk.

struct KernelShape {
  const char* name;   // what the shape is in the training/serving pipeline
  const char* kind;   // "NN" or "NT"
  nn::Index m, n, k;
};

/// Seconds per iteration of `fn`, auto-scaling reps until the measured
/// window is long enough to trust (>= 0.1 s).
double TimePerIter(const std::function<void()>& fn) {
  fn();  // warm up: faults pages, fills the workspace arena
  long reps = 1;
  for (;;) {
    Stopwatch sw;
    for (long i = 0; i < reps; ++i) fn();
    const double s = sw.ElapsedSeconds();
    if (s >= 0.1 || reps >= (1L << 24)) return s / static_cast<double>(reps);
    reps = (s < 0.01) ? reps * 10
                      : static_cast<long>(static_cast<double>(reps) *
                                          (0.15 / s)) +
                            1;
  }
}

void RunKernelSweep() {
  using nn::gemm::GemmNN;
  using nn::gemm::GemmNT;
  runtime::SetGlobalPoolThreads(1);

  // Trainer shapes: PPO minibatch 64 through the policy net's trunk FC and
  // heads, and their backward products. (Conv products gather their panels
  // inside the Conv2d op instead of calling GemmNN; the conv2d rows below
  // time the op.) Serve shapes:
  // the micro-batcher's batch-16 inference. Large squares are the headline
  // cache-blocking case.
  const KernelShape kShapes[] = {
      {"square_256", "NN", 256, 256, 256},
      {"square_256", "NT", 256, 256, 256},
      {"trunk_fc_fwd_b64", "NN", 64, 128, 1152},
      {"trunk_fc_dA_b64", "NT", 64, 1152, 128},
      {"trunk_fc_dW_b64", "NN", 1152, 128, 64},
      {"head_fwd_b64", "NN", 64, 34, 128},
      {"serve_fc_fwd_b16", "NN", 16, 128, 1152},
  };

  std::string out_path = "BENCH_kernels.json";
  if (const char* p = std::getenv("CEWS_BENCH_KERNELS_OUT")) out_path = p;
  std::ofstream out(out_path);
  out << "{\n  \"benchmark\": \"gemm_kernel_sweep\",\n"
      << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n  \"threads_used\": 1,\n  \"flops_formula\": \"2*m*n*k\",\n"
      << "  \"shapes\": [\n";

  bool first = true;
  for (const KernelShape& s : kShapes) {
    const bool nt = std::string(s.kind) == "NT";
    const std::vector<float> a = RandomBuffer(s.m * s.k, 21);
    const std::vector<float> b =
        RandomBuffer(nt ? s.n * s.k : s.k * s.n, 22);
    std::vector<float> c(static_cast<size_t>(s.m * s.n), 0.0f);
    const auto run_packed = [&] {
      if (nt) {
        GemmNT(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k, c.data(), s.n);
      } else {
        GemmNN(s.m, s.n, s.k, a.data(), s.k, 1, b.data(), s.n, c.data(), s.n);
      }
    };
    const auto run_ref = [&] {
      if (nt) {
        nn::gemm::reference::GemmNT(s.m, s.n, s.k, a.data(), s.k, b.data(),
                                    s.k, c.data(), s.n);
      } else {
        nn::gemm::reference::GemmNN(s.m, s.n, s.k, a.data(), s.k, 1, b.data(),
                                    s.n, c.data(), s.n);
      }
    };

    const double ref_s = TimePerIter(run_ref);
    const double packed_s = TimePerIter(run_packed);

    // Steady-state workspace traffic of the packed kernel (arena is warm
    // after TimePerIter): misses must be 0, hits >= 1 per iteration.
    const nn::Workspace::Stats before = nn::Workspace::GlobalStats();
    constexpr int kProbeIters = 16;
    for (int i = 0; i < kProbeIters; ++i) run_packed();
    const nn::Workspace::Stats after = nn::Workspace::GlobalStats();
    const double misses_per_iter =
        static_cast<double>(after.misses - before.misses) / kProbeIters;

    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.n) * static_cast<double>(s.k);
    const double ref_gflops = flops / ref_s * 1e-9;
    const double packed_gflops = flops / packed_s * 1e-9;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"kind\": \"%s\", \"m\": %lld, \"n\": %lld, "
        "\"k\": %lld, \"reference_gflops\": %.3f, \"packed_gflops\": %.3f, "
        "\"speedup\": %.3f, \"workspace_misses_per_iter\": %.3f}",
        s.name, s.kind, static_cast<long long>(s.m),
        static_cast<long long>(s.n), static_cast<long long>(s.k), ref_gflops,
        packed_gflops, packed_s > 0 ? ref_s / packed_s : 0.0, misses_per_iter);
    out << (first ? "" : ",\n") << buf;
    first = false;
    std::printf("[kernels] %-18s %s m=%lld n=%lld k=%lld  ref %.2f GF/s  "
                "packed %.2f GF/s  speedup %.2fx  misses/iter %.2f\n",
                s.name, s.kind, static_cast<long long>(s.m),
                static_cast<long long>(s.n), static_cast<long long>(s.k),
                ref_gflops, packed_gflops,
                packed_s > 0 ? ref_s / packed_s : 0.0, misses_per_iter);
  }
  // --- Int8 serve path vs packed fp32 on the serve-hot shapes ---
  // Each side is timed with its true per-request cost: the fp32 forward
  // repacks its B panel every call (GemmNN's pack step), the int8 forward
  // quantizes its activations every call (rows for the trunk FC, im2col
  // columns + panel pack for the conv) against a weight panel quantized and
  // packed once at publish. The int8 kernel fuses the bias epilogue.
  struct Int8Shape {
    const char* name;
    const char* kind;  // "fc": A=activations, B=pre-packed weight panel;
                       // "conv": A=pre-quantized weight rows, B=im2col
    nn::Index m, n, k;
  };
  const Int8Shape kInt8Shapes[] = {
      {"serve_fc_fwd_b16", "fc", 16, 128, 1152},
      {"serve_fc_fwd_b64", "fc", 64, 128, 1152},
      {"serve_conv2_img_g12", "conv", 8, 144, 54},
      {"serve_conv2_img_g20", "conv", 8, 400, 54},
  };
  out << "\n  ],\n  \"int8_serve\": [\n";
  first = true;
  for (const Int8Shape& s : kInt8Shapes) {
    const bool fc = std::string(s.kind) == "fc";
    const std::vector<float> a = RandomBuffer(s.m * s.k, 31);
    const std::vector<float> b = RandomBuffer(s.k * s.n, 32);
    const std::vector<float> bias = RandomBuffer(fc ? s.n : s.m, 33);
    std::vector<float> c(static_cast<size_t>(s.m * s.n), 0.0f);

    const auto run_fp32 = [&] {
      nn::gemm::GemmNN(s.m, s.n, s.k, a.data(), s.k, 1, b.data(), s.n,
                       c.data(), s.n);
    };

    double int8_s = 0.0;
    if (fc) {
      // Publish-time: gather B's columns into channel-major rows, quantize
      // per output channel, pack the panel.
      std::vector<int8_t> wq(static_cast<size_t>(s.n * s.k));
      std::vector<float> sb(static_cast<size_t>(s.n));
      std::vector<float> bt(static_cast<size_t>(s.n * s.k));
      for (nn::Index j = 0; j < s.n; ++j) {
        for (nn::Index l = 0; l < s.k; ++l) bt[j * s.k + l] = b[l * s.n + j];
      }
      nn::gemm::QuantizeRowsInt8(s.n, s.k, bt.data(), s.k, wq.data(),
                                 sb.data());
      nn::quant::AlignedInt8Buffer packed(nn::gemm::Int8PanelBytes(s.k, s.n));
      nn::gemm::PackInt8NT(s.k, s.n, wq.data(), s.k, packed.data());
      // Request-time: per-row activation quantization + prepacked GEMM.
      std::vector<int8_t> aq(static_cast<size_t>(s.m * s.k));
      std::vector<float> sa(static_cast<size_t>(s.m));
      int8_s = TimePerIter([&] {
        nn::gemm::QuantizeRowsInt8(s.m, s.k, a.data(), s.k, aq.data(),
                                   sa.data());
        nn::gemm::Int8GemmPrepacked(s.m, s.n, s.k, aq.data(), s.k, sa.data(),
                                    packed.data(), sb.data(), nullptr,
                                    bias.data(), c.data(), s.n);
      });
    } else {
      // Publish-time: conv weights are natively channel-major — quantize
      // the rows once. Request-time: quantize-and-pack the im2col columns
      // into the panel in one fused pass, run the dot kernel.
      std::vector<int8_t> wq(static_cast<size_t>(s.m * s.k));
      std::vector<float> sa(static_cast<size_t>(s.m));
      nn::gemm::QuantizeRowsInt8(s.m, s.k, a.data(), s.k, wq.data(),
                                 sa.data());
      std::vector<float> sb(static_cast<size_t>(s.n));
      nn::quant::AlignedInt8Buffer panel(nn::gemm::Int8PanelBytes(s.k, s.n));
      int8_s = TimePerIter([&] {
        nn::gemm::QuantizePackColsInt8(s.k, s.n, b.data(), s.n, panel.data(),
                                       sb.data());
        nn::gemm::Int8GemmPrepacked(s.m, s.n, s.k, wq.data(), s.k, sa.data(),
                                    panel.data(), sb.data(), bias.data(),
                                    nullptr, c.data(), s.n);
      });
    }
    const double fp32_s = TimePerIter(run_fp32);

    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.n) * static_cast<double>(s.k);
    const double fp32_gflops = flops / fp32_s * 1e-9;
    const double int8_gflops = flops / int8_s * 1e-9;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"kind\": \"%s\", \"m\": %lld, \"n\": %lld, "
        "\"k\": %lld, \"fp32_gflops\": %.3f, \"int8_gflops\": %.3f, "
        "\"speedup\": %.3f}",
        s.name, s.kind, static_cast<long long>(s.m),
        static_cast<long long>(s.n), static_cast<long long>(s.k), fp32_gflops,
        int8_gflops, int8_s > 0 ? fp32_s / int8_s : 0.0);
    out << (first ? "" : ",\n") << buf;
    first = false;
    std::printf("[kernels] %-20s %-4s m=%lld n=%lld k=%lld  fp32 %.2f GF/s  "
                "int8 %.2f GF/s  speedup %.2fx\n",
                s.name, s.kind, static_cast<long long>(s.m),
                static_cast<long long>(s.n), static_cast<long long>(s.k),
                fp32_gflops, int8_gflops, int8_s > 0 ? fp32_s / int8_s : 0.0);
  }

  // --- Compiled PPO loss: forward + backward per step, planned arena ---
  out << "\n  ],\n  \"ppo_loss_backward\": [\n";
  first = true;
  for (const int batch : {16, 64}) {
    agents::PpoAgent agent(BenchNet(12), agents::PpoConfig{}, 7);
    agents::RolloutBuffer buffer = FillPpoBuffer(agent, batch);
    std::vector<size_t> idx;
    for (int i = 0; i < batch; ++i) idx.push_back(static_cast<size_t>(i));
    const double seconds = TimePerIter([&] {
      nn::ZeroGradients(agent.Parameters());
      nn::Tensor loss = agent.ComputeLoss(buffer.GatherBatch(idx));
      loss.Backward();
    });
    const long long arena = static_cast<long long>(agent.LossGraphArenaBytes());
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"batch\": %d, \"graph_us\": %.1f, "
                  "\"graph_arena_bytes\": %lld}",
                  batch, seconds * 1e6, arena);
    out << (first ? "" : ",\n") << buf;
    first = false;
    std::printf(
        "[kernels] ppo_loss_backward b=%-3d %.1f us  arena %lld bytes\n",
        batch, seconds * 1e6, arena);
  }
  // --- Conv2d op on the quick-scale trunk: repeated timing windows ---
  // Each row is the median and median absolute deviation of kConvReps
  // per-iteration times (each from a >= 0.1 s window), forward alone and
  // forward + backward.
  out << "\n  ],\n  \"conv2d\": [\n";
  first = true;
  constexpr int kConvReps = 15;
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
  };
  for (const bool grad : {false, true}) {
    for (int stage = 0; stage < 3; ++stage) {
      for (const nn::Index batch : {nn::Index{1}, nn::Index{64}}) {
        const nn::ConvShape s = QuickTrunkStage(stage, batch);
        ConvOperands op = MakeConvOperands(s, stage, grad);
        std::vector<double> us;
        for (int r = 0; r < kConvReps; ++r) {
          us.push_back(TimePerIter([&] { ConvStep(s, op, grad); }) * 1e6);
        }
        const double med = median(us);
        std::vector<double> dev;
        for (const double u : us) dev.push_back(std::abs(u - med));
        const double mad = median(dev);
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    {\"stage\": %d, \"batch\": %lld, \"pass\": "
                      "\"%s\", \"reps\": %d, \"median_us\": %.2f, "
                      "\"mad_us\": %.2f}",
                      stage + 1, static_cast<long long>(batch),
                      grad ? "fwd_bwd" : "fwd", kConvReps, med, mad);
        out << (first ? "" : ",\n") << buf;
        first = false;
        std::printf("[kernels] conv%d b=%-3lld %-7s median %.1f us  MAD %.1f "
                    "us (%d reps)\n",
                    stage + 1, static_cast<long long>(batch),
                    grad ? "fwd_bwd" : "fwd", med, mad, kConvReps);
      }
    }
  }
  out << "\n  ]\n}\n";
  std::printf("[kernels] wrote %s\n", out_path.c_str());
}

}  // namespace

// Expanded BENCHMARK_MAIN() with a trailing obs profile dump: set
// CEWS_OBS_PROFILE=1 to print where the kernel time actually went. Set
// CEWS_BENCH_KERNELS=1 to run the packed-vs-reference GEMM sweep and write
// BENCH_kernels.json (use --benchmark_filter=NONE to skip the google
// benchmarks and run the sweep alone).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (cews::GetEnvBool("CEWS_BENCH_KERNELS")) RunKernelSweep();
  cews::bench::MaybeEmitProfile();
  return 0;
}
