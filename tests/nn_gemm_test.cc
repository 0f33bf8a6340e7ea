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
// the trainer/serve shapes that dominate production calls.
const GemmCase kCases[] = {
    {1, 1, 1},    {1, 32, 1},    {1, 1, 129},  {4, 32, 128}, {3, 5, 7},
    {4, 31, 16},  {5, 33, 129},  {7, 64, 130}, {33, 100, 64}, {64, 48, 96},
    {2, 1, 257},  {31, 32, 33},  {1, 257, 4},  {8, 96, 41},  {40, 36, 100},
    {0, 5, 4},    {4, 0, 5},     {2, 3, 0},
};

TEST(GemmPackedTest, NNBitwiseMatchesReferenceAcrossShapesAndThreads) {
  for (const int threads : {0, 1, 4}) {
    runtime::SetGlobalPoolThreads(threads);
    for (const GemmCase& c : kCases) {
      const auto a =
          RandomData(static_cast<size_t>(c.m * c.k), 11, /*zeros=*/0.25);
      const auto b = RandomData(static_cast<size_t>(c.k * c.n), 13);
      auto want = RandomData(static_cast<size_t>(c.m * c.n), 17);
      auto got = want;
      gemm::reference::GemmNN(c.m, c.n, c.k, a.data(), c.k, 1, b.data(), c.n,
                              want.data(), c.n);
      gemm::GemmNN(c.m, c.n, c.k, a.data(), c.k, 1, b.data(), c.n,
                   got.data(), c.n);
      ExpectBitwiseEqual(want, got, "NN " + CaseName(c, threads));
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

/// One synthetic "training step" over both hot kernels: MatMul and Conv2d
/// forward + backward, with fresh output/grad/scratch buffers each time.
void KernelStep(Tensor& a, Tensor& b, Tensor& x, Tensor& w, Tensor& bias) {
  Tensor mm = MatMul(a, b);
  Tensor cv = Conv2d(x, w, bias, /*stride=*/1, /*padding=*/1);
  Tensor loss = Add(Mean(Square(mm)), Mean(Square(cv)));
  a.ZeroGrad();
  b.ZeroGrad();
  x.ZeroGrad();
  w.ZeroGrad();
  bias.ZeroGrad();
  loss.Backward();
}

TEST(WorkspaceChurnTest, KernelStepsAreAllocationFreeInSteadyState) {
  // Serial pool: with workers, which thread first claims a chunk (and thus
  // which arena warms up) is nondeterministic; the zero-miss property is
  // per-arena and is asserted where every acquisition lands on one thread.
  runtime::SetGlobalPoolThreads(1);
  Tensor a = Tensor::FromData({16, 48}, RandomData(16 * 48, 3), true);
  Tensor b = Tensor::FromData({48, 24}, RandomData(48 * 24, 5), true);
  Tensor x = Tensor::FromData({2, 3, 10, 10}, RandomData(600, 7), true);
  Tensor w = Tensor::FromData({4, 3, 3, 3}, RandomData(108, 9), true);
  Tensor bias = Tensor::FromData({4}, RandomData(4, 11), true);
  for (int i = 0; i < 3; ++i) KernelStep(a, b, x, w, bias);  // warm the arena
  const Workspace::Stats s0 = Workspace::GlobalStats();
  for (int i = 0; i < 5; ++i) KernelStep(a, b, x, w, bias);
  const Workspace::Stats s1 = Workspace::GlobalStats();
  EXPECT_EQ(s1.misses, s0.misses) << "steady-state step hit the allocator";
  EXPECT_GT(s1.reuse_hits, s0.reuse_hits);
}

}  // namespace
}  // namespace cews::nn
