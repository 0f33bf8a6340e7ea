// Compiled expression graphs (nn/graph.h): replay correctness against the
// tape (bitwise), constant-subgraph memoization, static arena planning,
// steady-state zero workspace churn, the recording's memory high-water mark
// (deferred backward scratch, freed trace storage), and the
// double-backward / forward-only / abandoned-recording guard rails.
#include "nn/graph.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/ops.h"
#include "nn/workspace.h"
#include "obs/metrics.h"

namespace cews::nn {
namespace {

std::vector<float> RandVec(size_t n, Rng& rng, float lo = -1.0f,
                           float hi = 1.0f) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(lo, hi));
  return v;
}

/// A small MLP exercising MatMul, AddBias, LayerNorm, Relu, LogSoftmax,
/// GatherLastDim (shared index handle), Concat and the reductions.
struct MlpParams {
  Tensor w1, b1, gamma, beta, w2;

  static MlpParams Make(Index in, Index hidden, Index classes, uint64_t seed) {
    Rng rng(seed);
    MlpParams p;
    p.w1 = Tensor::FromData({in, hidden},
                            RandVec(static_cast<size_t>(in * hidden), rng),
                            /*requires_grad=*/true);
    p.b1 = Tensor::FromData({hidden}, RandVec(static_cast<size_t>(hidden), rng),
                            true);
    p.gamma = Tensor::FromData(
        {hidden}, RandVec(static_cast<size_t>(hidden), rng, 0.5f, 1.5f), true);
    p.beta = Tensor::FromData({hidden},
                              RandVec(static_cast<size_t>(hidden), rng), true);
    p.w2 = Tensor::FromData(
        {hidden, classes}, RandVec(static_cast<size_t>(hidden * classes), rng),
        true);
    return p;
  }

  std::vector<Tensor> All() const { return {w1, b1, gamma, beta, w2}; }
};

Tensor MlpLoss(const MlpParams& p, const Tensor& x,
               std::shared_ptr<const std::vector<Index>> idx) {
  Tensor h = AddBias(MatMul(x, p.w1), p.b1);
  h = Relu(LayerNormOp(h, p.gamma, p.beta));
  Tensor lp = LogSoftmax(MatMul(h, p.w2));
  Tensor picked = GatherLastDim(lp, std::move(idx));
  // Concat keeps a second consumer of `picked` alive through the planner.
  Tensor both = Concat(Reshape(picked, {picked.numel(), 1}),
                       Reshape(picked, {picked.numel(), 1}));
  return Add(Neg(Mean(picked)), MulScalar(Mean(Square(both)), 0.25f));
}

/// Input shape of the conv-chain tests.
const Shape kConvInput{2, 2, 6, 6};

/// A 3-block conv chain feeding a linear head — the cnn_trunk + policy-head
/// shape in miniature, so the loss exercises both the Conv2d and the MatMul
/// backward scratch.
struct ConvParams {
  Tensor w1, b1, w2, b2, w3, b3, fc;

  static ConvParams Make(uint64_t seed) {
    Rng rng(seed);
    ConvParams p;
    auto t = [&](const Shape& s, float scale) {
      std::vector<float> v =
          RandVec(static_cast<size_t>(NumElements(s)), rng, -scale, scale);
      return Tensor::FromData(s, std::move(v), true);
    };
    p.w1 = t({4, 2, 3, 3}, 0.4f);
    p.b1 = t({4}, 0.2f);
    p.w2 = t({4, 4, 3, 3}, 0.3f);
    p.b2 = t({4}, 0.2f);
    p.w3 = t({2, 4, 3, 3}, 0.3f);
    p.b3 = t({2}, 0.2f);
    p.fc = t({2 * kConvInput[2] * kConvInput[3], 3}, 0.2f);
    return p;
  }

  std::vector<Tensor> All() const { return {w1, b1, w2, b2, w3, b3, fc}; }
};

Tensor ConvLoss(const ConvParams& p, const Tensor& x) {
  Tensor h = Relu(Conv2d(x, p.w1, p.b1, 1, 1));
  h = Relu(Conv2d(h, p.w2, p.b2, 1, 1));
  h = Relu(Conv2d(h, p.w3, p.b3, 1, 1));
  h = Reshape(h, {x.dim(0), h.numel() / x.dim(0)});
  return Mean(Square(MatMul(h, p.fc)));
}

Tensor RandConvInput(Rng& rng) {
  return Tensor::FromData(
      kConvInput, RandVec(static_cast<size_t>(NumElements(kConvInput)), rng));
}

std::vector<std::vector<float>> Grads(const std::vector<Tensor>& params) {
  std::vector<std::vector<float>> out;
  for (const Tensor& t : params) {
    EXPECT_NE(t.grad(), nullptr);
    if (t.grad() == nullptr) {
      out.emplace_back();
      continue;
    }
    out.emplace_back(t.grad(), t.grad() + t.numel());
  }
  return out;
}

void ExpectSameGrads(const std::vector<Tensor>& want_params,
                     const std::vector<Tensor>& got_params) {
  const auto want = Grads(want_params);
  const auto got = Grads(got_params);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].size(), got[i].size());
    for (size_t j = 0; j < want[i].size(); ++j) {
      EXPECT_EQ(want[i][j], got[i][j]) << "param " << i << " elem " << j;
    }
  }
}

TEST(GraphTest, ReplayMatchesTapeBitwise) {
  const Index kB = 3, kIn = 6, kH = 8, kC = 5;
  Rng data_rng(100);
  // Three batches: the first is recorded, the rest replayed.
  std::vector<std::vector<float>> batches;
  std::vector<std::vector<Index>> indices;
  for (int it = 0; it < 3; ++it) {
    batches.push_back(RandVec(static_cast<size_t>(kB * kIn), data_rng));
    std::vector<Index> idx;
    for (Index i = 0; i < kB; ++i) {
      idx.push_back(static_cast<Index>(data_rng.UniformInt(kC)));
    }
    indices.push_back(std::move(idx));
  }

  // Tape reference: fresh graph per batch, grads accumulate across batches.
  MlpParams tape = MlpParams::Make(kIn, kH, kC, 7);
  std::vector<float> tape_losses;
  for (int it = 0; it < 3; ++it) {
    Tensor x = Tensor::FromData({kB, kIn}, batches[static_cast<size_t>(it)]);
    Tensor loss = MlpLoss(
        tape, x,
        std::make_shared<const std::vector<Index>>(
            indices[static_cast<size_t>(it)]));
    tape_losses.push_back(loss.item());
    loss.Backward();
  }

  // Graph: record batch 0, replay batches 1-2 through rewritten
  // placeholders and the shared index handle.
  MlpParams gp = MlpParams::Make(kIn, kH, kC, 7);
  Tensor x = Tensor::FromData({kB, kIn}, batches[0]);
  auto idx = std::make_shared<std::vector<Index>>(indices[0]);
  graph::BeginRecording();
  graph::MarkPlaceholder(x);
  Tensor loss = MlpLoss(gp, x, idx);
  graph::GraphPtr g = graph::EndRecording(loss);
  ASSERT_TRUE(g != nullptr);
  EXPECT_GT(g->num_steps(), 10);

  for (int it = 0; it < 3; ++it) {
    if (it > 0) {
      const std::vector<float>& b = batches[static_cast<size_t>(it)];
      std::copy(b.begin(), b.end(), x.data());
      *idx = indices[static_cast<size_t>(it)];
      g->Forward();
    }
    EXPECT_EQ(loss.item(), tape_losses[static_cast<size_t>(it)])
        << "replay " << it;
    loss.Backward();
  }

  ExpectSameGrads(tape.All(), gp.All());
}

TEST(GraphTest, MemoizesConstantSubgraphs) {
  Rng rng(8);
  Tensor c = Tensor::FromData({4}, RandVec(4, rng));
  Tensor x = Tensor::FromData({4}, RandVec(4, rng));
  Tensor w = Tensor::FromData({4}, RandVec(4, rng), true);
  graph::BeginRecording();
  graph::MarkPlaceholder(x);
  // Softmax(Exp(c)) is pure-constant: both steps must run once and never
  // replay. The x and w paths must not be memoized.
  Tensor konst = Softmax(Exp(c));
  Tensor loss = Sum(Mul(Add(x, konst), w));
  graph::GraphPtr g = graph::EndRecording(loss);
  EXPECT_EQ(g->num_memoized(), 2);

  // Replays still see the constant's value.
  Rng rng2(9);
  std::vector<float> x2 = RandVec(4, rng2);
  std::copy(x2.begin(), x2.end(), x.data());
  g->Forward();

  Tensor x_ref = Tensor::FromData({4}, x2);
  Tensor ref = Sum(Mul(Add(x_ref, Softmax(Exp(c))), w.Clone()));
  EXPECT_EQ(loss.item(), ref.item());
}

TEST(GraphTest, PlansArenaAndReportsMetrics) {
  const uint64_t plan0 = obs::SnapshotMetrics().CounterValue("nn.graph.plan_bytes");
  MlpParams p = MlpParams::Make(6, 32, 5, 3);
  Rng rng(4);
  Tensor x = Tensor::FromData({4, 6}, RandVec(24, rng));
  auto idx = std::make_shared<const std::vector<Index>>(
      std::vector<Index>{0, 1, 2, 3});
  graph::BeginRecording();
  graph::MarkPlaceholder(x);
  Tensor loss = MlpLoss(p, x, idx);
  graph::GraphPtr g = graph::EndRecording(loss);

  EXPECT_GT(g->arena_bytes(), 0);
  // Root output is pinned resident.
  EXPECT_GT(g->persistent_bytes(), 0);
  const obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  EXPECT_GE(snap.CounterValue("nn.graph.plan_bytes") - plan0,
            static_cast<uint64_t>(g->arena_bytes()));
  EXPECT_GE(snap.GaugeValue("nn.graph.peak_arena_bytes"),
            static_cast<double>(g->arena_bytes()));
}

TEST(GraphTest, SteadyStateReplayHasZeroWorkspaceChurn) {
  // The churn guard of the issue: a warmed-up graph training step must not
  // touch the workspace buckets at all — every intermediate and every
  // kernel scratch lives at a planned arena offset.
  ConvParams p = ConvParams::Make(11);
  Rng rng(12);
  const Shape& xshape = kConvInput;
  Tensor x = RandConvInput(rng);
  graph::BeginRecording();
  graph::MarkPlaceholder(x);
  Tensor loss = ConvLoss(p, x);
  graph::GraphPtr g = graph::EndRecording(loss);

  // Warm-up: first backward allocates interior grad buffers.
  for (int it = 0; it < 2; ++it) {
    std::vector<float> nx =
        RandVec(static_cast<size_t>(NumElements(xshape)), rng);
    std::copy(nx.begin(), nx.end(), x.data());
    g->Forward();
    loss.Backward();
  }

  std::vector<float> nx = RandVec(static_cast<size_t>(NumElements(xshape)), rng);
  const Workspace::Stats before = Workspace::GlobalStats();
  std::copy(nx.begin(), nx.end(), x.data());
  g->Forward();
  loss.Backward();
  const Workspace::Stats after = Workspace::GlobalStats();
  EXPECT_EQ(after.reuse_hits - before.reuse_hits, 0u);
  EXPECT_EQ(after.misses - before.misses, 0u);
}

TEST(GraphTest, RecordingDefersBackwardScratchAndFreesTraceStorage) {
  ConvParams tape = ConvParams::Make(51);
  ConvParams gp = ConvParams::Make(51);
  Rng rng(52);
  Tensor x = RandConvInput(rng);
  ConvLoss(tape, x.Clone()).Backward();

  graph::BeginRecording();
  graph::MarkPlaceholder(x);
  Tensor loss = ConvLoss(gp, x);
  // Backward-only scratch (Conv2d dW/dX panels, MatMul dA/dB panels) is
  // registered but owns no storage while recording.
  int backward_bufs = 0;
  for (const auto& buf : graph::RecordedBufs()) {
    if (buf->life != graph::BufLife::kBwd) continue;
    ++backward_bufs;
    EXPECT_EQ(buf->data(), nullptr);
    EXPECT_TRUE(buf->owned.empty());
  }
  // conv1: the dW panel; conv2 and conv3: the dW panel plus two dX slabs;
  // MatMul: the dA and dB panels.
  EXPECT_EQ(backward_bufs, 9);

  // Planning frees the recording pass's storage rather than parking it in
  // the workspace freelists.
  const int64_t parked = Workspace::GlobalStats().bytes_in_use;
  graph::GraphPtr g = graph::EndRecording(loss);
  EXPECT_LE(Workspace::GlobalStats().bytes_in_use, parked);
  EXPECT_TRUE(graph::RecordedBufs().empty());

  // The planned graph's backward (now on arena-bound scratch) matches the
  // tape.
  loss.Backward();
  ExpectSameGrads(tape.All(), gp.All());
}

TEST(GraphDeathTest, DoubleBackwardOnGraphRootDies) {
  MlpParams p = MlpParams::Make(4, 6, 3, 5);
  Rng rng(6);
  Tensor x = Tensor::FromData({2, 4}, RandVec(8, rng));
  auto idx =
      std::make_shared<const std::vector<Index>>(std::vector<Index>{0, 2});
  graph::BeginRecording();
  graph::MarkPlaceholder(x);
  Tensor loss = MlpLoss(p, x, idx);
  graph::GraphPtr g = graph::EndRecording(loss);
  loss.Backward();
  EXPECT_DEATH(loss.Backward(), "double Backward");
  // A fresh Forward re-arms it.
  g->Forward();
  loss.Backward();
}

TEST(GraphDeathTest, ForwardOnlyGraphRefusesBackward) {
  Rng rng(7);
  Tensor w = Tensor::FromData({4, 4}, RandVec(16, rng));
  Tensor x = Tensor::FromData({2, 4}, RandVec(8, rng));
  graph::GraphPtr g;
  Tensor y;
  {
    NoGradGuard no_grad;
    graph::BeginRecording();
    graph::MarkPlaceholder(x);
    y = Softmax(MatMul(x, w));
    graph::Retain(y);
    g = graph::EndRecording(Tensor());
  }

  // Replay matches an eager no-grad forward bitwise.
  std::vector<float> x2 = RandVec(8, rng);
  std::copy(x2.begin(), x2.end(), x.data());
  g->Forward();
  std::vector<float> ref;
  {
    NoGradGuard no_grad;
    ref = Softmax(MatMul(Tensor::FromData({2, 4}, x2), w)).ToVector();
  }
  for (Index i = 0; i < y.numel(); ++i) {
    EXPECT_EQ(y.data()[i], ref[static_cast<size_t>(i)]);
  }
  EXPECT_DEATH(g->Backward(), "forward-only");
}

TEST(GraphTest, AbandonRecordingLeavesTapeTensorsValid) {
  Rng rng(9);
  Tensor w = Tensor::FromData({3}, RandVec(3, rng), true);
  graph::BeginRecording();
  Tensor y = Sum(Square(w));
  graph::AbandonRecording();
  EXPECT_FALSE(graph::Recording());
  y.Backward();
  ASSERT_NE(w.grad(), nullptr);
  for (Index i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(w.grad()[i], 2.0f * w.data()[i]);
  }

  // A conv + matmul loss abandoned mid-recording never had its
  // backward-only scratch allocated: its closures must fall back to
  // workspace scratch and still match the tape bitwise.
  ConvParams tape = ConvParams::Make(61);
  ConvParams abandoned = ConvParams::Make(61);
  Tensor x = RandConvInput(rng);
  Tensor want = ConvLoss(tape, x.Clone());
  want.Backward();
  graph::BeginRecording();
  Tensor loss = ConvLoss(abandoned, x);
  graph::AbandonRecording();
  EXPECT_EQ(loss.item(), want.item());
  loss.Backward();
  ExpectSameGrads(tape.All(), abandoned.All());
}

}  // namespace
}  // namespace cews::nn
