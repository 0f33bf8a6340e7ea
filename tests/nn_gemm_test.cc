// Packed GEMM kernels and the transient-buffer workspace.
//
// The packed kernels (nn/gemm.h) promise bitwise identity with the retained
// pre-packing reference kernels at any thread count, including ragged
// shapes, degenerate dimensions and transposed A-reads — that contract is
// what lets ops.cc route every hot product through them without perturbing
// the PR-1 determinism guarantees. The workspace promises that steady-state
// kernel calls never touch the allocator; the reuse counters are the proof.
#include "nn/gemm.h"

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "nn/workspace.h"

namespace cews::nn {
namespace {

/// Uniform floats in (-1, 1); zero_fraction of the entries are exactly 0.0f
/// to exercise the zero-skip the reference kernels have and the packed
/// kernels dropped.
std::vector<float> RandomData(size_t n, uint64_t seed,
                              double zero_fraction = 0.0) {
  Rng rng(seed);
  std::vector<float> data(n);
  for (float& v : data) {
    if (zero_fraction > 0.0 && rng.Uniform(0.0, 1.0) < zero_fraction) {
      v = 0.0f;
      continue;
    }
    v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return data;
}

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const std::string& ctx) {
  ASSERT_EQ(a.size(), b.size()) << ctx;
  if (a.empty()) return;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << ctx;
}

struct GemmCase {
  Index m, n, k;
};

std::string CaseName(const GemmCase& c, int threads) {
  return "m=" + std::to_string(c.m) + " n=" + std::to_string(c.n) +
         " k=" + std::to_string(c.k) + " threads=" + std::to_string(threads);
}

// Shapes chosen to hit every kernel edge: single elements, single rows and
// columns, exact register-tile multiples (kNr=32, kMr=4), off-by-one around
// them, reductions shorter and longer than kKc=128, empty dimensions, and
// the trainer/serve shapes that dominate production calls. The last rows
// are the quick-scale trunk's conv products (oc = 4/6, ck2 = 27/36/54: dW
// as NT, dX and forward as NN) and head-sized FC rows, so every row count
// 1..kMr and ragged tile widths reach both kernels.
const GemmCase kCases[] = {
    {1, 1, 1},     {1, 32, 1},     {1, 1, 129},   {4, 32, 128}, {3, 5, 7},
    {4, 31, 16},   {5, 33, 129},   {7, 64, 130},  {33, 100, 64}, {64, 48, 96},
    {2, 1, 257},   {31, 32, 33},   {1, 257, 4},   {8, 96, 41},  {40, 36, 100},
    {0, 5, 4},     {4, 0, 5},      {2, 3, 0},     {4, 27, 144}, {6, 36, 36},
    {6, 54, 9},    {6, 2304, 36},  {36, 2304, 6}, {1, 39, 64},  {11, 39, 64},
    {2, 17, 300},  {3, 47, 200},
};

TEST(GemmPackedTest, NNBitwiseMatchesReferenceAcrossShapesAndThreads) {
  // B rows are also read padded (ldb > n): products with at most kMr rows
  // of A read B in place at stride ldb instead of packing it.
  for (const int threads : {0, 1, 4}) {
    runtime::SetGlobalPoolThreads(threads);
    for (const GemmCase& c : kCases) {
      for (const Index pad : {0, 3}) {
        const Index ldb = c.n + pad;
        const auto a =
            RandomData(static_cast<size_t>(c.m * c.k), 11, /*zeros=*/0.25);
        const auto b = RandomData(static_cast<size_t>(c.k * ldb), 13);
        auto want = RandomData(static_cast<size_t>(c.m * c.n), 17);
        auto got = want;
        gemm::reference::GemmNN(c.m, c.n, c.k, a.data(), c.k, 1, b.data(),
                                ldb, want.data(), c.n);
        gemm::GemmNN(c.m, c.n, c.k, a.data(), c.k, 1, b.data(), ldb,
                     got.data(), c.n);
        ExpectBitwiseEqual(want, got,
                           "NN " + CaseName(c, threads) +
                               " ldb=" + std::to_string(ldb));
      }
    }
  }
  runtime::SetGlobalPoolThreads(1);
}

TEST(GemmPackedTest, NNTransposedAReadMatchesReference) {
  // The dB product reads A transposed (rsa=1, csa=lda); same contract.
  for (const int threads : {1, 4}) {
    runtime::SetGlobalPoolThreads(threads);
    for (const GemmCase& c : kCases) {
      // A stored k-major: element (i, l) at a[l * m + i].
      const auto a =
          RandomData(static_cast<size_t>(c.m * c.k), 29, /*zeros=*/0.25);
      const auto b = RandomData(static_cast<size_t>(c.k * c.n), 31);
      auto want = RandomData(static_cast<size_t>(c.m * c.n), 37);
      auto got = want;
      gemm::reference::GemmNN(c.m, c.n, c.k, a.data(), 1, c.m, b.data(), c.n,
                              want.data(), c.n);
      gemm::GemmNN(c.m, c.n, c.k, a.data(), 1, c.m, b.data(), c.n,
                   got.data(), c.n);
      ExpectBitwiseEqual(want, got, "NN^T " + CaseName(c, threads));
    }
  }
  runtime::SetGlobalPoolThreads(1);
}

TEST(GemmPackedTest, NTBitwiseMatchesReferenceAcrossShapesAndThreads) {
  for (const int threads : {0, 1, 4}) {
    runtime::SetGlobalPoolThreads(threads);
    for (const GemmCase& c : kCases) {
      const auto x =
          RandomData(static_cast<size_t>(c.m * c.k), 41, /*zeros=*/0.25);
      const auto y = RandomData(static_cast<size_t>(c.n * c.k), 43);
      auto want = RandomData(static_cast<size_t>(c.m * c.n), 47);
      auto got = want;
      gemm::reference::GemmNT(c.m, c.n, c.k, x.data(), c.k, y.data(), c.k,
                              want.data(), c.n);
      gemm::GemmNT(c.m, c.n, c.k, x.data(), c.k, y.data(), c.k, got.data(),
                   c.n);
      ExpectBitwiseEqual(want, got, "NT " + CaseName(c, threads));
    }
  }
  runtime::SetGlobalPoolThreads(1);
}

TEST(WorkspaceTest, RecycleThenAcquireReusesStorageZeroFilled) {
  Workspace::TrimThisThread();
  const Workspace::Stats s0 = Workspace::GlobalStats();
  std::vector<float> v = Workspace::AcquireVec(1000);  // non-pow2 on purpose
  ASSERT_EQ(v.size(), 1000u);
  for (float& f : v) f = 3.5f;
  Workspace::Recycle(std::move(v));
  std::vector<float> w = Workspace::AcquireVec(1000);
  const Workspace::Stats s1 = Workspace::GlobalStats();
  EXPECT_EQ(s1.misses, s0.misses + 1);
  EXPECT_EQ(s1.reuse_hits, s0.reuse_hits + 1);
  EXPECT_EQ(s1.recycles, s0.recycles + 1);
  ASSERT_EQ(w.size(), 1000u);
  for (float f : w) ASSERT_EQ(f, 0.0f);  // recycled storage comes back zeroed
}

TEST(WorkspaceTest, SmallerRequestReusesLargerChunk) {
  Workspace::TrimThisThread();
  Workspace::Recycle(std::vector<float>(512));
  const Workspace::Stats s0 = Workspace::GlobalStats();
  std::vector<float> v = Workspace::AcquireVec(300);  // same bucket as 512
  const Workspace::Stats s1 = Workspace::GlobalStats();
  EXPECT_EQ(s1.reuse_hits, s0.reuse_hits + 1);
  EXPECT_EQ(v.size(), 300u);
  EXPECT_GE(v.capacity(), 512u);
}

TEST(WorkspaceTest, AcquireZeroIsFreeAndUncounted) {
  const Workspace::Stats s0 = Workspace::GlobalStats();
  std::vector<float> v = Workspace::AcquireVec(0);
  EXPECT_TRUE(v.empty());
  Workspace::Recycle(std::move(v));
  const Workspace::Stats s1 = Workspace::GlobalStats();
  EXPECT_EQ(s1.misses, s0.misses);
  EXPECT_EQ(s1.reuse_hits, s0.reuse_hits);
  EXPECT_EQ(s1.recycles, s0.recycles);
}

TEST(WorkspaceTest, ScopedVecRecyclesOnDestruction) {
  Workspace::TrimThisThread();
  const Workspace::Stats s0 = Workspace::GlobalStats();
  { ScopedVec v(256); EXPECT_EQ(v.size(), 256); }
  { ScopedVec v(256); }  // must be served from the recycled chunk
  const Workspace::Stats s1 = Workspace::GlobalStats();
  EXPECT_EQ(s1.misses, s0.misses + 1);
  EXPECT_EQ(s1.reuse_hits, s0.reuse_hits + 1);
  EXPECT_EQ(s1.recycles, s0.recycles + 2);
}

TEST(WorkspaceTest, TrimReleasesRetainedBytes) {
  Workspace::Recycle(std::vector<float>(4096));
  EXPECT_GT(Workspace::GlobalStats().bytes_in_use, 0);
  Workspace::TrimThisThread();
  // Other threads' arenas may retain bytes, but this thread's 4096-float
  // chunk is gone; a re-acquire must miss.
  const Workspace::Stats s0 = Workspace::GlobalStats();
  std::vector<float> v = Workspace::AcquireVec(4096);
  EXPECT_EQ(Workspace::GlobalStats().misses, s0.misses + 1);
}

/// Offset of flat index `i` in a 3-level walk, by plain division.
Index WalkOffset(const gemm::Walk& walk, Index i) {
  return i / (walk.n[1] * walk.n[2]) * walk.s[0] +
         i / walk.n[2] % walk.n[1] * walk.s[1] + i % walk.n[2] * walk.s[2];
}

/// A trunk conv stage over a 3-image batch (3x3 kernel, padding 1).
ConvShape TrunkStage(Index c, Index hw, Index oc, int stride) {
  ConvShape s;
  s.n = 3, s.c = c, s.h = s.w = hw;
  s.oc = oc, s.kh = s.kw = 3;
  s.stride = stride, s.padding = 1;
  s.oh = s.ow = (hw + 2 - 3) / stride + 1;
  return s;
}

// PackTile's gather (two masked vector gathers per row on AVX-512 builds)
// must copy exactly the element a scalar read at (row offset + column
// offset) yields, for every tile width, on the conv walks that gather: the
// forward panel (taps x pixels) of the quick-scale trunk's stride-1 and
// stride-2 stages, and the transposed dW panel (pixels x taps).
TEST(GemmPackedTest, PackTileGatherMatchesScalarReadsAtEveryWidth) {
  for (const ConvShape& s :
       {TrunkStage(3, 12, 8, 1), TrunkStage(8, 12, 16, 2),
        TrunkStage(16, 6, 16, 2)}) {
    const std::vector<float> stg = RandomData(
        static_cast<size_t>(s.n * s.staged_image()), 91 + s.c);
    const std::pair<gemm::Walk, gemm::Walk> walks[] = {
        {s.Taps(), s.Pixels(s.n)}, {s.Pixels(1), s.Taps()}};
    for (const auto& [rows, cols] : walks) {
      const Index k = rows.n[0] * rows.n[1] * rows.n[2];
      const Index n = cols.n[0] * cols.n[1] * cols.n[2];
      for (Index w = 1; w <= gemm::kNr; ++w) {
        for (const Index c0 : {Index{0}, s.ohow() - 1, n - w}) {
          if (c0 < 0 || c0 + w > n) continue;
          std::vector<float> tile(static_cast<size_t>(k * w));
          gemm::PackTile(stg.data(), rows, cols, c0, w, tile.data());
          std::vector<float> want(tile.size());
          for (Index l = 0; l < k; ++l) {
            for (Index t = 0; t < w; ++t) {
              want[static_cast<size_t>(l * w + t)] =
                  stg[static_cast<size_t>(WalkOffset(rows, l) +
                                          WalkOffset(cols, c0 + t))];
            }
          }
          ExpectBitwiseEqual(tile, want,
                             "stride=" + std::to_string(s.stride) +
                                 " k=" + std::to_string(k) +
                                 " w=" + std::to_string(w) +
                                 " c0=" + std::to_string(c0));
        }
      }
    }
  }
}

/// One conv layer of the synthetic step: input, weight, bias and stride.
struct ConvStep {
  Tensor x, w, bias;
  int stride;
};

/// One synthetic "training step" over both hot kernels: MatMul and every
/// Conv2d forward + backward, with fresh output/grad/scratch buffers each
/// time.
void KernelStep(Tensor& a, Tensor& b, std::vector<ConvStep>& convs) {
  Tensor loss = Mean(Square(MatMul(a, b)));
  for (const ConvStep& c : convs) {
    Tensor cv = Conv2d(c.x, c.w, c.bias, c.stride, /*padding=*/1);
    loss = Add(loss, Mean(Square(cv)));
  }
  a.ZeroGrad();
  b.ZeroGrad();
  for (ConvStep& c : convs) {
    c.x.ZeroGrad();
    c.w.ZeroGrad();
    c.bias.ZeroGrad();
  }
  loss.Backward();
}

ConvStep MakeConvStep(Index n, Index c, Index hw, Index oc, int stride,
                      uint64_t seed) {
  return ConvStep{
      Tensor::FromData({n, c, hw, hw},
                       RandomData(static_cast<size_t>(n * c * hw * hw), seed),
                       true),
      Tensor::FromData({oc, c, 3, 3},
                       RandomData(static_cast<size_t>(oc * c * 9), seed + 1),
                       true),
      Tensor::FromData({oc}, RandomData(static_cast<size_t>(oc), seed + 2),
                       true),
      stride};
}

TEST(WorkspaceChurnTest, KernelStepsAreAllocationFreeInSteadyState) {
  // Serial pool: with workers, which thread first claims a chunk (and thus
  // which arena warms up) is nondeterministic; the zero-miss property is
  // per-arena and is asserted where every acquisition lands on one thread.
  runtime::SetGlobalPoolThreads(1);
  Tensor a = Tensor::FromData({16, 48}, RandomData(16 * 48, 3), true);
  Tensor b = Tensor::FromData({48, 24}, RandomData(48 * 24, 5), true);
  // A stride-1 conv plus the quick-scale trunk's stride-2 stages.
  std::vector<ConvStep> convs = {MakeConvStep(2, 3, 10, 4, 1, 7),
                                 MakeConvStep(2, 4, 12, 6, 2, 17),
                                 MakeConvStep(2, 6, 6, 6, 2, 27)};
  for (int i = 0; i < 3; ++i) KernelStep(a, b, convs);  // warm the arena
  const Workspace::Stats s0 = Workspace::GlobalStats();
  for (int i = 0; i < 5; ++i) KernelStep(a, b, convs);
  const Workspace::Stats s1 = Workspace::GlobalStats();
  EXPECT_EQ(s1.misses, s0.misses) << "steady-state step hit the allocator";
  EXPECT_GT(s1.reuse_hits, s0.reuse_hits);
}

}  // namespace
}  // namespace cews::nn
