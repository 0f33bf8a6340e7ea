// Conv2d pins: the CRC-32 of the forward output and of dx, dW and db for the
// policy trunk's conv stages and a set of non-trunk geometries, in eager and
// compiled-graph mode at pool widths 1 and 4. Every output element of the
// conv lowering has a fixed fmaf sequence (forward: bias, then the patch
// index ascending; dW: one fresh pixel-ascending dot per image, images added
// in order; dX: output channels ascending, folded back pixel by pixel in
// (channel, ky, kx, y, x) order), so a rewrite of the lowering must leave
// every one of these pins unchanged.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/graph.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace cews::nn {
namespace {

/// The pins hold for the default optimized x86-64 build with FMA
/// contraction (-march=native on any FMA-capable host). Other builds —
/// unoptimized, sanitizer-instrumented, or without FMA — contract and
/// vectorize the kernels differently, so there every mode is only checked
/// against the first.
#if defined(__x86_64__) && defined(__FMA__) && defined(__OPTIMIZE__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
constexpr bool kPinsApply = true;
#else
constexpr bool kPinsApply = false;
#endif

struct ConvCase {
  const char* name;
  Index n, c, h, w, oc, kh, kw;
  int stride, padding;
  bool two_convs;  // the same x feeds a second conv: dX accumulates twice
};

/// CRC-32s of y, dx, dW, db (dW and db summed over both convs' weights
/// when two_convs).
struct Pins {
  uint32_t y, dx, dw, db;
  bool operator==(const Pins& o) const {
    return y == o.y && dx == o.dx && dw == o.dw && db == o.db;
  }
};

std::string Hex(const Pins& p) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "{0x%08xu, 0x%08xu, 0x%08xu, 0x%08xu}",
                p.y, p.dx, p.dw, p.db);
  return buf;
}

std::vector<float> RandomData(Index n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

uint32_t Crc(const float* p, Index n) {
  return ComputeCrc32(p, static_cast<size_t>(n) * sizeof(float));
}

/// One conv's parameters plus the fixed upstream gradient r = dL/dy.
struct ConvParams {
  Tensor w, bias, r;
};

ConvParams MakeParams(const ConvCase& k, Index oh, Index ow, uint64_t seed) {
  ConvParams p;
  p.w = Tensor::FromData({k.oc, k.c, k.kh, k.kw},
                         RandomData(k.oc * k.c * k.kh * k.kw, seed), true);
  p.bias = Tensor::FromData({k.oc}, RandomData(k.oc, seed + 1), true);
  p.r = Tensor::FromData({k.n, k.oc, oh, ow},
                         RandomData(k.n * k.oc * oh * ow, seed + 2));
  return p;
}

/// Runs the case (forward, then backward of sum(y * r) over each conv) and
/// returns its pins. Graph mode records on a decoy input and replays on the
/// real one, so the pins also cover reused planner arenas.
Pins RunCase(const ConvCase& k, bool graph_mode, int threads) {
  runtime::SetGlobalPoolThreads(threads);
  const Index oh = (k.h + 2 * k.padding - k.kh) / k.stride + 1;
  const Index ow = (k.w + 2 * k.padding - k.kw) / k.stride + 1;
  const Index xn = k.n * k.c * k.h * k.w;
  const std::vector<float> xdata = RandomData(xn, 101);
  std::vector<ConvParams> convs = {MakeParams(k, oh, ow, 201)};
  if (k.two_convs) convs.push_back(MakeParams(k, oh, ow, 301));

  Tensor x = Tensor::FromData({k.n, k.c, k.h, k.w},
                              graph_mode ? RandomData(xn, 999) : xdata, true);
  auto loss_of = [&](std::vector<Tensor>* ys) {
    Tensor loss;
    for (const ConvParams& p : convs) {
      Tensor y = Conv2d(x, p.w, p.bias, k.stride, k.padding);
      ys->push_back(y);
      Tensor term = Sum(Mul(y, p.r));
      loss = loss.defined() ? Add(loss, term) : term;
    }
    return loss;
  };

  std::vector<Tensor> ys;
  Tensor loss;
  graph::GraphPtr g;
  if (graph_mode) {
    graph::BeginRecording();
    graph::MarkPlaceholder(x);
    loss = loss_of(&ys);
    for (const Tensor& y : ys) graph::Retain(y);
    g = graph::EndRecording(loss);
    std::copy(xdata.begin(), xdata.end(), x.data());
    g->Forward();
  } else {
    loss = loss_of(&ys);
  }
  loss.Backward();

  Crc32 dw, db;
  for (const ConvParams& p : convs) {
    dw.Update(p.w.grad(), static_cast<size_t>(p.w.numel()) * sizeof(float));
    db.Update(p.bias.grad(),
              static_cast<size_t>(p.bias.numel()) * sizeof(float));
  }
  const Pins pins{Crc(ys[0].data(), ys[0].numel()), Crc(x.grad(), xn),
                  dw.Value(), db.Value()};
  runtime::SetGlobalPoolThreads(1);
  return pins;
}

void ExpectPinned(const ConvCase& k, const Pins& pinned) {
  Pins first{};
  bool have_first = false;
  for (const bool graph_mode : {false, true}) {
    for (const int threads : {1, 4}) {
      const Pins got = RunCase(k, graph_mode, threads);
      if (!have_first) first = got, have_first = true;
      const Pins& want = kPinsApply ? pinned : first;
      EXPECT_TRUE(got == want)
          << k.name << (graph_mode ? " graph" : " eager") << " pool="
          << threads << ": got " << Hex(got) << ", want " << Hex(want);
    }
  }
}

// The quick-scale trunk (grid 12, channels 3->4->6->6) and the default net
// (grid 20, channels 3->8->16->16): 3x3 kernels, padding 1, strides 1, 2, 2.
struct PinnedCase {
  ConvCase c;
  Pins pins;
};

const PinnedCase kTrunkCases[] = {
    {{"quick1_b1", 1, 3, 12, 12, 4, 3, 3, 1, 1, false},
     {0xf60d35a5u, 0x0dd66135u, 0x2241b0d2u, 0x7766d0d7u}},
    {{"quick1_b5", 5, 3, 12, 12, 4, 3, 3, 1, 1, false},
     {0x0c08dea8u, 0x3462a929u, 0x5fc04879u, 0x3b6416dcu}},
    {{"quick1_b64", 64, 3, 12, 12, 4, 3, 3, 1, 1, false},
     {0x39e480c2u, 0x878c5b0au, 0xa19cd4d6u, 0x5c5f54bfu}},
    {{"quick2_b1", 1, 4, 12, 12, 6, 3, 3, 2, 1, false},
     {0x9db554f8u, 0xb23b7e2au, 0x473fb705u, 0xb0697e4fu}},
    {{"quick2_b5", 5, 4, 12, 12, 6, 3, 3, 2, 1, false},
     {0xa1d34ac8u, 0xfe70cab6u, 0x57ce34a5u, 0xb393f574u}},
    {{"quick2_b64", 64, 4, 12, 12, 6, 3, 3, 2, 1, false},
     {0x9bf715b9u, 0xedafe3a8u, 0x4961d8fdu, 0x52f52624u}},
    {{"quick3_b1", 1, 6, 6, 6, 6, 3, 3, 2, 1, false},
     {0x867049beu, 0xd1a00354u, 0xfe5209fbu, 0xc4f1187bu}},
    {{"quick3_b5", 5, 6, 6, 6, 6, 3, 3, 2, 1, false},
     {0xf5e74435u, 0x5c4a12f0u, 0x21661e9bu, 0x146fcfbau}},
    {{"quick3_b64", 64, 6, 6, 6, 6, 3, 3, 2, 1, false},
     {0xd245467du, 0x77615daeu, 0x739c0937u, 0x01172ed6u}},
    {{"default1_b1", 1, 3, 20, 20, 8, 3, 3, 1, 1, false},
     {0xc8e71a64u, 0xc6a632c5u, 0xa2f34ad2u, 0x21da3be9u}},
    {{"default1_b5", 5, 3, 20, 20, 8, 3, 3, 1, 1, false},
     {0x7f965a1fu, 0x2b310c02u, 0xc31a47f0u, 0xc25081d7u}},
    {{"default1_b64", 64, 3, 20, 20, 8, 3, 3, 1, 1, false},
     {0x690a8bd3u, 0x7fa05639u, 0xf65c48d7u, 0x38f7f1b8u}},
    {{"default2_b1", 1, 8, 20, 20, 16, 3, 3, 2, 1, false},
     {0x5bada812u, 0x925cd9dau, 0x10cfe3fcu, 0x6ce98ca9u}},
    {{"default2_b5", 5, 8, 20, 20, 16, 3, 3, 2, 1, false},
     {0x5a680809u, 0x70e96ab8u, 0x99d67eacu, 0x05db4cfdu}},
    {{"default2_b64", 64, 8, 20, 20, 16, 3, 3, 2, 1, false},
     {0x6af8e6bbu, 0xdabc3ac0u, 0xecce67e5u, 0x5f992acbu}},
    {{"default3_b1", 1, 16, 10, 10, 16, 3, 3, 2, 1, false},
     {0x04af276eu, 0xd83fcf32u, 0xb168e40du, 0xe4c86301u}},
    {{"default3_b5", 5, 16, 10, 10, 16, 3, 3, 2, 1, false},
     {0x89f4e8c8u, 0xbfbce65bu, 0xbbd0861bu, 0x035b0a78u}},
    {{"default3_b64", 64, 16, 10, 10, 16, 3, 3, 2, 1, false},
     {0x267c0bc1u, 0x8ebb8053u, 0xea4c5c44u, 0x777926e4u}},
};

// Geometries the trunk never uses: no padding, odd sizes under stride 2
// (rows and columns the kernel never reaches), 1x1, 5x5 with padding 2,
// non-square kernels, and two convs sharing one input.
const PinnedCase kOtherCases[] = {
    {{"pad0", 3, 2, 9, 9, 3, 3, 3, 1, 0, false},
     {0x2b76c35eu, 0x0b2dd82du, 0x2c00a1ccu, 0xfdea12d0u}},
    {{"odd_s2", 3, 3, 11, 9, 5, 3, 3, 2, 1, false},
     {0x0a8b153bu, 0xc5e8b057u, 0xd1eb2dbeu, 0x21babf39u}},
    {{"odd_s2_pad0", 2, 2, 8, 7, 3, 2, 2, 2, 0, false},
     {0x87336575u, 0x4ea134cbu, 0x3701292du, 0x98c65cccu}},
    {{"k1x1", 4, 5, 7, 6, 3, 1, 1, 1, 0, false},
     {0xd55d9cbeu, 0x793a4803u, 0xe8abf5fcu, 0x004bcec2u}},
    {{"k5x5", 3, 3, 10, 10, 4, 5, 5, 1, 2, false},
     {0xba7d88c9u, 0xd89b3e82u, 0xa0fac862u, 0x1fa31c0du}},
    {{"k3x5_s2", 3, 2, 9, 12, 4, 3, 5, 2, 1, false},
     {0xb979fd89u, 0x3b052f73u, 0xb9a3dc9cu, 0xf9a2f5d2u}},
    {{"shared_x", 5, 4, 12, 12, 6, 3, 3, 2, 1, true},
     {0xa1d34ac8u, 0x148819d0u, 0x374fc6b5u, 0x4ec2932au}},
};

TEST(ConvPinTest, TrunkStagesMatchPins) {
  for (const PinnedCase& p : kTrunkCases) ExpectPinned(p.c, p.pins);
}

TEST(ConvPinTest, OtherGeometriesMatchPins) {
  for (const PinnedCase& p : kOtherCases) ExpectPinned(p.c, p.pins);
}

}  // namespace
}  // namespace cews::nn
