// Forward-value correctness of every tensor op (gradients are covered by
// nn_grad_check_test.cc), plus LayerNorm's bitwise pins: CRC-32s of y, dx,
// dgamma and dbeta at the policy trunk's row widths, and the row-invariance
// the grouped row statistics must keep.
#include "nn/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/graph.h"

namespace cews::nn {
namespace {

Tensor Vec(std::vector<float> v, bool rg = false) {
  const Index n = static_cast<Index>(v.size());
  return Tensor::FromData({n}, std::move(v), rg);
}

TEST(OpsTest, AddSubMul) {
  Tensor a = Vec({1, 2, 3});
  Tensor b = Vec({4, 5, 6});
  EXPECT_FLOAT_EQ(Add(a, b).data()[1], 7.0f);
  EXPECT_FLOAT_EQ(Sub(a, b).data()[2], -3.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).data()[0], 4.0f);
}

TEST(OpsTest, ScalarOpsAndOperators) {
  Tensor a = Vec({1, -2});
  EXPECT_FLOAT_EQ(AddScalar(a, 0.5f).data()[0], 1.5f);
  EXPECT_FLOAT_EQ(MulScalar(a, -2.0f).data()[1], 4.0f);
  EXPECT_FLOAT_EQ(Neg(a).data()[0], -1.0f);
  EXPECT_FLOAT_EQ((a + a).data()[0], 2.0f);
  EXPECT_FLOAT_EQ((a - a).data()[0], 0.0f);
  EXPECT_FLOAT_EQ((a * a).data()[1], 4.0f);
  EXPECT_FLOAT_EQ((2.0f * a).data()[0], 2.0f);
  EXPECT_FLOAT_EQ((-a).data()[0], -1.0f);
}

TEST(OpsTest, AddBias) {
  Tensor x = Tensor::FromData({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor b = Vec({10, 20, 30});
  Tensor y = AddBias(x, b);
  EXPECT_FLOAT_EQ((y.at({0, 1})), 20.0f);
  EXPECT_FLOAT_EQ((y.at({1, 2})), 31.0f);
}

TEST(OpsTest, MatMulKnownProduct) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ((c.at({0, 0})), 58.0f);
  EXPECT_FLOAT_EQ((c.at({0, 1})), 64.0f);
  EXPECT_FLOAT_EQ((c.at({1, 0})), 139.0f);
  EXPECT_FLOAT_EQ((c.at({1, 1})), 154.0f);
}

TEST(OpsTest, Activations) {
  Tensor x = Vec({-1.0f, 0.0f, 2.0f});
  EXPECT_FLOAT_EQ(Relu(x).data()[0], 0.0f);
  EXPECT_FLOAT_EQ(Relu(x).data()[2], 2.0f);
  EXPECT_NEAR(Tanh(x).data()[2], std::tanh(2.0f), 1e-6);
  EXPECT_NEAR(Sigmoid(x).data()[0], 1.0f / (1.0f + std::exp(1.0f)), 1e-6);
  EXPECT_NEAR(Exp(x).data()[2], std::exp(2.0f), 1e-4);
  EXPECT_FLOAT_EQ(Square(x).data()[0], 1.0f);
}

TEST(OpsTest, LogOfPositive) {
  Tensor x = Vec({1.0f, std::exp(1.0f)});
  EXPECT_NEAR(Log(x).data()[0], 0.0f, 1e-6);
  EXPECT_NEAR(Log(x).data()[1], 1.0f, 1e-6);
}

TEST(OpsTest, ClipMinMax) {
  Tensor x = Vec({-2, 0.5, 3});
  Tensor c = Clip(x, 0.0f, 1.0f);
  EXPECT_FLOAT_EQ(c.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(c.data()[1], 0.5f);
  EXPECT_FLOAT_EQ(c.data()[2], 1.0f);
  Tensor a = Vec({1, 5});
  Tensor b = Vec({2, 4});
  EXPECT_FLOAT_EQ(Min(a, b).data()[0], 1.0f);
  EXPECT_FLOAT_EQ(Min(a, b).data()[1], 4.0f);
  EXPECT_FLOAT_EQ(Max(a, b).data()[0], 2.0f);
  EXPECT_FLOAT_EQ(Max(a, b).data()[1], 5.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor x = Tensor::FromData({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor p = Softmax(x);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int j = 0; j < 3; ++j) sum += p.at({r, j});
    EXPECT_NEAR(sum, 1.0f, 1e-6);
  }
  // Larger logits get larger probabilities.
  EXPECT_GT((p.at({0, 2})), (p.at({0, 0})));
}

TEST(OpsTest, SoftmaxNumericallyStableForHugeLogits) {
  Tensor x = Tensor::FromData({1, 2}, {1000.0f, 1000.0f});
  Tensor p = Softmax(x);
  EXPECT_NEAR(p.data()[0], 0.5f, 1e-6);
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor x = Tensor::FromData({1, 4}, {0.1f, -0.3f, 2.0f, 0.7f});
  Tensor ls = LogSoftmax(x);
  Tensor p = Softmax(x);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(ls.data()[j], std::log(p.data()[j]), 1e-5);
  }
}

TEST(OpsTest, Reductions) {
  Tensor x = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(x).item(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(x).item(), 2.5f);
  Tensor s = SumLastDim(x);
  ASSERT_EQ(s.shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(s.data()[0], 3.0f);
  EXPECT_FLOAT_EQ(s.data()[1], 7.0f);
}

TEST(OpsTest, ReshapePreservesData) {
  Tensor x = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(x, {3, 2});
  ASSERT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ((r.at({2, 1})), 6.0f);
}

TEST(OpsTest, ConcatLastDim) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromData({2, 1}, {9, 8});
  Tensor c = Concat(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ((c.at({0, 2})), 9.0f);
  EXPECT_FLOAT_EQ((c.at({1, 0})), 3.0f);
}

TEST(OpsTest, GatherLastDim) {
  Tensor x = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherLastDim(x, {2, 0});
  ASSERT_EQ(g.shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(g.data()[0], 3.0f);
  EXPECT_FLOAT_EQ(g.data()[1], 4.0f);
}

TEST(OpsTest, GatherOn3D) {
  // [1, 2, 2] -> rows are (batch, worker) pairs.
  Tensor x = Tensor::FromData({1, 2, 2}, {1, 2, 3, 4});
  Tensor g = GatherLastDim(x, {1, 0});
  ASSERT_EQ(g.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(g.data()[0], 2.0f);
  EXPECT_FLOAT_EQ(g.data()[1], 3.0f);
}

TEST(OpsTest, Conv2dIdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input.
  Tensor x = Tensor::FromData({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor w = Tensor::FromData({1, 1, 1, 1}, {1.0f});
  Tensor y = Conv2d(x, w, Tensor(), /*stride=*/1, /*padding=*/0);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y.data()[i], x.data()[i]);
}

TEST(OpsTest, Conv2dSumKernelWithPadding) {
  // 3x3 all-ones kernel with padding 1: center output = sum of all inputs.
  Tensor x = Tensor::FromData({1, 1, 3, 3}, {1, 1, 1, 1, 1, 1, 1, 1, 1});
  Tensor w = Tensor::Full({1, 1, 3, 3}, 1.0f);
  Tensor y = Conv2d(x, w, Tensor(), 1, 1);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
  EXPECT_FLOAT_EQ((y.at({0, 0, 1, 1})), 9.0f);  // full overlap
  EXPECT_FLOAT_EQ((y.at({0, 0, 0, 0})), 4.0f);  // corner overlap
}

TEST(OpsTest, Conv2dStrideAndBias) {
  Tensor x = Tensor::FromData({1, 1, 4, 4},
                              {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                               15, 16});
  Tensor w = Tensor::FromData({1, 1, 2, 2}, {1, 0, 0, 1});
  Tensor b = Tensor::FromData({1}, {100.0f});
  Tensor y = Conv2d(x, w, b, /*stride=*/2, /*padding=*/0);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ((y.at({0, 0, 0, 0})), 1.0f + 6.0f + 100.0f);
  EXPECT_FLOAT_EQ((y.at({0, 0, 1, 1})), 11.0f + 16.0f + 100.0f);
}

TEST(OpsTest, Conv2dMultiChannel) {
  // Two input channels, kernel sums both.
  Tensor x = Tensor::FromData({1, 2, 1, 1}, {3.0f, 4.0f});
  Tensor w = Tensor::FromData({1, 2, 1, 1}, {1.0f, 1.0f});
  Tensor y = Conv2d(x, w, Tensor(), 1, 0);
  EXPECT_FLOAT_EQ(y.item(), 7.0f);
}

TEST(OpsTest, LayerNormZeroMeanUnitVar) {
  Tensor x = Tensor::FromData({2, 4}, {1, 2, 3, 4, -1, -2, -3, -4});
  Tensor gamma = Tensor::Full({4}, 1.0f);
  Tensor beta = Tensor::Zeros({4});
  Tensor y = LayerNormOp(x, gamma, beta);
  for (int r = 0; r < 2; ++r) {
    float mean = 0.0f, var = 0.0f;
    for (int j = 0; j < 4; ++j) mean += y.at({r, j});
    mean /= 4.0f;
    for (int j = 0; j < 4; ++j) {
      var += (y.at({r, j}) - mean) * (y.at({r, j}) - mean);
    }
    var /= 4.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-5);
    EXPECT_NEAR(var, 1.0f, 1e-3);
  }
}

TEST(OpsTest, LayerNormAffine) {
  Tensor x = Tensor::FromData({1, 2}, {-1.0f, 1.0f});
  Tensor gamma = Tensor::FromData({2}, {2.0f, 2.0f});
  Tensor beta = Tensor::FromData({2}, {5.0f, 5.0f});
  Tensor y = LayerNormOp(x, gamma, beta);
  // Normalized x is (-1, 1); y = 2 * xhat + 5.
  EXPECT_NEAR(y.data()[0], 3.0f, 1e-3);
  EXPECT_NEAR(y.data()[1], 7.0f, 1e-3);
}

/// The pins hold for the default optimized x86-64 build with FMA
/// contraction (-march=native on any FMA-capable host). Other builds
/// contract and vectorize differently, so there every mode is only checked
/// against the first (as in nn_conv_test).
#if defined(__x86_64__) && defined(__FMA__) && defined(__OPTIMIZE__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
constexpr bool kPinsApply = true;
#else
constexpr bool kPinsApply = false;
#endif

std::vector<float> RandomData(Index n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

uint32_t Crc(const float* p, Index n) {
  return ComputeCrc32(p, static_cast<size_t>(n) * sizeof(float));
}

/// CRC-32s of y, dx, dgamma, dbeta.
struct LnPins {
  uint32_t y, dx, dg, db;
  bool operator==(const LnPins& o) const {
    return y == o.y && dx == o.dx && dg == o.dg && db == o.db;
  }
};

std::string Hex(const LnPins& p) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "{0x%08xu, 0x%08xu, 0x%08xu, 0x%08xu}",
                p.y, p.dx, p.dg, p.db);
  return buf;
}

/// Forward, then backward of sum(y * r), over an [n, f] input whose rows
/// are shifted and scaled apart (so row statistics differ). Graph mode
/// records on a decoy input and replays on the real one.
LnPins RunLayerNorm(Index n, Index f, bool graph_mode, int threads) {
  runtime::SetGlobalPoolThreads(threads);
  std::vector<float> xdata = RandomData(n * f, 7 + n * 1000 + f);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < f; ++j) {
      float& v = xdata[static_cast<size_t>(i * f + j)];
      v = v * (1.0f + 0.25f * static_cast<float>(i % 5)) +
          0.5f * static_cast<float>(i % 3);
    }
  }
  Tensor x = Tensor::FromData(
      {n, f}, graph_mode ? RandomData(n * f, 999) : xdata, true);
  Tensor gamma = Tensor::FromData({f}, RandomData(f, 11 + f), true);
  Tensor beta = Tensor::FromData({f}, RandomData(f, 13 + f), true);
  Tensor r = Tensor::FromData({n, f}, RandomData(n * f, 17 + n + f));
  Tensor y, loss;
  graph::GraphPtr g;
  if (graph_mode) {
    graph::BeginRecording();
    graph::MarkPlaceholder(x);
    y = LayerNormOp(x, gamma, beta);
    loss = Sum(Mul(y, r));
    graph::Retain(y);
    g = graph::EndRecording(loss);
    std::copy(xdata.begin(), xdata.end(), x.data());
    g->Forward();
  } else {
    y = LayerNormOp(x, gamma, beta);
    loss = Sum(Mul(y, r));
  }
  loss.Backward();
  const LnPins pins{Crc(y.data(), n * f), Crc(x.grad(), n * f),
                    Crc(gamma.grad(), f), Crc(beta.grad(), f)};
  runtime::SetGlobalPoolThreads(1);
  return pins;
}

struct LnCase {
  Index n, f;
  LnPins pins;
};

// The quick-scale trunk's LayerNorm rows (f = 4*12*12, 6*6*6, 6*3*3) at
// batch sizes around the 8-row statistics group: one row, a partial group,
// one full group, a group plus a tail, and a full minibatch.
const LnCase kLnCases[] = {
    {1, 54, {0x5b4629b9u, 0xc3212d4fu, 0xe0fb2d8cu, 0x0abdc63bu}},
    {1, 216, {0x558c0d3fu, 0x07f5964fu, 0x15b122a5u, 0x3dea47c7u}},
    {1, 576, {0x7455d24bu, 0x912d79eeu, 0xab38bb0cu, 0x7768baecu}},
    {3, 54, {0x886cbb5au, 0xe011586au, 0x8f1b39bcu, 0xbae2a022u}},
    {3, 216, {0xf4d5a6f3u, 0x526ce4bbu, 0xcc127777u, 0x4e251a9bu}},
    {3, 576, {0x764e0265u, 0x1b7dbc94u, 0x44580918u, 0x1402a230u}},
    {8, 54, {0xffe2472cu, 0x26536b61u, 0x29023cceu, 0x212e12aeu}},
    {8, 216, {0x31487e76u, 0x12ca1df5u, 0x8b9aef23u, 0xa84af798u}},
    {8, 576, {0xab389a72u, 0xe95a24e5u, 0x93d4e29fu, 0x59f01409u}},
    {11, 54, {0xce27ff84u, 0xeb559e91u, 0x1515adbfu, 0x4feaa3beu}},
    {11, 216, {0x78c4e9d9u, 0x7cec554au, 0x5c71d2eau, 0xea1d0af0u}},
    {11, 576, {0xfe72e43fu, 0x9ee2cd50u, 0xf6c08d8bu, 0x75d6d9e7u}},
    {64, 54, {0xc6da02b4u, 0x11a14b2bu, 0x8940d59du, 0x24a58d71u}},
    {64, 216, {0xe8d6e25du, 0x31a775f7u, 0xcb726793u, 0xbd2ff2d6u}},
    {64, 576, {0x691777c2u, 0x6bff10c6u, 0x7c3fae01u, 0x58d5ff00u}},
};

TEST(LayerNormPinTest, TrunkRowsMatchPins) {
  for (const LnCase& c : kLnCases) {
    LnPins first{};
    bool have_first = false;
    for (const bool graph_mode : {false, true}) {
      for (const int threads : {1, 4}) {
        const LnPins got = RunLayerNorm(c.n, c.f, graph_mode, threads);
        if (!have_first) first = got, have_first = true;
        const LnPins& want = kPinsApply ? c.pins : first;
        EXPECT_TRUE(got == want)
            << "n=" << c.n << " f=" << c.f
            << (graph_mode ? " graph" : " eager") << " pool=" << threads
            << ": got " << Hex(got) << ", want " << Hex(want);
      }
    }
  }
}

// Row statistics are computed several rows at a time; each row must still
// get exactly the bits it gets alone, forward and backward.
TEST(LayerNormPinTest, RowsTogetherEqualRowsAlone) {
  for (const Index f : {54, 216, 576}) {
    for (const Index n : {1, 3, 8, 11, 17}) {
      const std::vector<float> xdata = RandomData(n * f, 23 + n + f);
      const std::vector<float> rdata = RandomData(n * f, 29 + n + f);
      Tensor gamma = Tensor::FromData({f}, RandomData(f, 31 + f));
      Tensor beta = Tensor::FromData({f}, RandomData(f, 37 + f));
      Tensor x = Tensor::FromData({n, f}, xdata, true);
      Tensor y = LayerNormOp(x, gamma, beta);
      Sum(Mul(y, Tensor::FromData({n, f}, rdata))).Backward();
      for (Index i = 0; i < n; ++i) {
        const auto row = [&](const std::vector<float>& v) {
          return std::vector<float>(v.begin() + i * f, v.begin() + (i + 1) * f);
        };
        Tensor xi = Tensor::FromData({1, f}, row(xdata), true);
        Tensor yi = LayerNormOp(xi, gamma, beta);
        Sum(Mul(yi, Tensor::FromData({1, f}, row(rdata)))).Backward();
        const std::string ctx =
            "n=" + std::to_string(n) + " f=" + std::to_string(f) +
            " row=" + std::to_string(i);
        EXPECT_EQ(std::memcmp(y.data() + i * f, yi.data(), f * sizeof(float)),
                  0)
            << ctx;
        EXPECT_EQ(std::memcmp(x.grad() + i * f, xi.grad(), f * sizeof(float)),
                  0)
            << ctx;
      }
    }
  }
}

TEST(OpsTest, EmbeddingLookupRows) {
  Tensor table = Tensor::FromData({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor e = EmbeddingLookup(table, {2, 0, 2});
  ASSERT_EQ(e.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ((e.at({0, 0})), 20.0f);
  EXPECT_FLOAT_EQ((e.at({1, 1})), 1.0f);
  EXPECT_FLOAT_EQ((e.at({2, 0})), 20.0f);
}

TEST(OpsTest, MseLoss) {
  Tensor a = Vec({1, 2, 3});
  Tensor b = Vec({1, 0, 0});
  EXPECT_NEAR(MseLoss(a, b).item(), (0.0f + 4.0f + 9.0f) / 3.0f, 1e-6);
}

TEST(OpsTest, HuberQuadraticInsideLinearOutside) {
  Tensor x = Vec({0.5f, -0.5f, 3.0f, -3.0f});
  Tensor h = Huber(x, 1.0f);
  EXPECT_NEAR(h.data()[0], 0.125f, 1e-6);           // 0.5 * 0.25
  EXPECT_NEAR(h.data()[1], 0.125f, 1e-6);
  EXPECT_NEAR(h.data()[2], 1.0f * (3.0f - 0.5f), 1e-6);  // delta(|x|-d/2)
  EXPECT_NEAR(h.data()[3], 2.5f, 1e-6);
}

TEST(OpsTest, HuberContinuousAtDelta) {
  Tensor x = Vec({0.999f, 1.001f});
  Tensor h = Huber(x, 1.0f);
  EXPECT_NEAR(h.data()[0], h.data()[1], 1e-2);
}

TEST(OpsTest, HuberLossMatchesMseForSmallErrors) {
  Tensor a = Vec({0.1f, -0.2f});
  Tensor b = Vec({0.0f, 0.0f});
  // Inside the quadratic zone Huber = 0.5 * mse.
  EXPECT_NEAR(HuberLoss(a, b, 1.0f).item(), 0.5f * MseLoss(a, b).item(),
              1e-6);
}

}  // namespace
}  // namespace cews::nn
