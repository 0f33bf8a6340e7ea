#include "agents/quant_policy.h"

#include <algorithm>
#include <vector>

#include "agents/eval.h"
#include "common/check.h"
#include "common/rng.h"
#include "nn/gemm.h"
#include "nn/gemm_int8.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "nn/workspace.h"

namespace cews::agents {

namespace {

using nn::Index;
using nn::ScopedVec;
using nn::quant::QuantizedParams;
using nn::quant::QuantizedTensor;
namespace gemm = nn::gemm;

/// One conv-LN-ReLU block over the whole batch, int8 GEMM per image:
/// nn::Im2Col -> per-output-pixel activation quantize -> pack ->
/// Int8DotRows with the quantized conv weight on the A side, then
/// nn::LayerNormBody over the image's oc*oh*ow features and ReLU. Images
/// are independent, so parallelizing over them is partition-invariant; the
/// per-image work is bitwise-fixed.
void ConvLnReluStage(const nn::ConvShape& s, const QuantizedTensor& wq,
                     const float* bias, const float* ln_g, const float* ln_b,
                     const float* in, float* out) {
  const Index ck2 = s.ck2();
  const Index ohow = s.ohow();
  CEWS_CHECK(wq.channels == s.oc && wq.per_channel == ck2);
  const Index in_img = s.c * s.h * s.w;
  const Index out_img = s.oc * ohow;
  gemm::ParallelKernel(s.n, 2 * s.oc * ck2 * ohow, [&](Index n0, Index n1) {
    // Per-thread scratch: the Workspace arena is thread_local, so each
    // worker's buffers are private and recycled across its images.
    ScopedVec cols(ck2 * ohow);
    ScopedVec col_scales(ohow);
    nn::AlignedScopedBytes panel(gemm::Int8PanelBytes(ck2, ohow));
    // The conv output lands in `pre`, not in place: LayerNormBody's output
    // loop only vectorizes when its input and output do not overlap.
    ScopedVec pre(out_img);
    ScopedVec xhat(out_img);
    float inv_sigma = 0.0f;
    for (Index img = n0; img < n1; ++img) {
      nn::Im2Col(s, in + img * in_img, cols.data());
      gemm::QuantizePackColsInt8(ck2, ohow, cols.data(), ohow, panel.data(),
                                 col_scales.data());
      gemm::Int8DotRows(0, s.oc, ohow, ck2, wq.rows.data(), ck2,
                        wq.scales.data(), panel.data(), col_scales.data(),
                        /*bias_row=*/bias, /*bias_col=*/nullptr, pre.data(),
                        ohow);
      float* o = out + img * out_img;
      nn::LayerNormBody(1, out_img, nn::kLayerNormEps, pre.data(), ln_g, ln_b,
                        o, xhat.data(), &inv_sigma);
      for (Index j = 0; j < out_img; ++j) o[j] = std::max(0.0f, o[j]);
    }
  });
}

/// xW + b through the pre-packed int8 panel: quantize activation rows, run
/// the prepacked kernel with the layer bias on the column side.
void QuantLinear(Index m, Index k, Index n, const float* x,
                 const QuantizedTensor& wq, const float* bias, float* out) {
  CEWS_CHECK(wq.channels == n && wq.per_channel == k);
  CEWS_CHECK(!wq.packed.empty());
  nn::AlignedScopedBytes xq(m * k);
  ScopedVec sx(m);
  gemm::QuantizeRowsInt8(m, k, x, k, xq.data(), sx.data());
  gemm::Int8GemmPrepacked(m, n, k, xq.data(), k, sx.data(), wq.packed.data(),
                          wq.scales.data(), /*bias_row=*/nullptr,
                          /*bias_col=*/bias, out, n);
}

/// fp32 xW + b on dense weights for the heads: every output row starts at
/// the bias, then the shared packed GEMM accumulates xW into it.
void DenseLinear(Index m, Index k, Index n, const float* x, const float* w,
                 const float* bias, float* out) {
  for (Index i = 0; i < m; ++i) std::copy(bias, bias + n, out + i * n);
  gemm::GemmNN(m, n, k, x, /*rsa=*/k, /*csa=*/1, w, /*ldb=*/n, out,
               /*ldc=*/n);
}

}  // namespace

nn::quant::QuantizedParams QuantizePolicyParams(
    const std::vector<nn::Tensor>& params) {
  CEWS_CHECK_EQ(params.size(), 20u);
  // Quantize exactly the serve-hot GEMM weights: conv1/conv2/conv3 kernels
  // and the trunk FC. Heads (indices 14, 16, 18), biases and LN params stay
  // dense fp32.
  std::vector<uint8_t> flags(params.size(), 0);
  flags[0] = flags[4] = flags[8] = flags[12] = 1;
  return nn::quant::QuantizeParams(params, &flags);
}

QuantPolicyOutput QuantPolicyForward(const PolicyNetConfig& config,
                                     const QuantizedParams& qp,
                                     const float* states, int batch) {
  CEWS_CHECK_GT(batch, 0);
  CEWS_CHECK_EQ(qp.entries.size(), 20u);

  const Index b = batch;
  const CnnTrunkConfig trunk = config.TrunkConfig();
  const nn::ConvShape stage1 = trunk.ConvStage(0, b);
  const nn::ConvShape stage2 = trunk.ConvStage(1, b);
  const nn::ConvShape stage3 = trunk.ConvStage(2, b);
  const Index flat = stage3.oc * stage3.ohow();
  const Index feat = config.feature_dim;
  const Index n_move =
      static_cast<Index>(config.num_workers) * config.num_moves;
  const Index n_charge = static_cast<Index>(config.num_workers) * 2;

  // Parameter bundle layout = PolicyNet::Parameters() order:
  // trunk (conv1 w/b, ln1 g/b, conv2 w/b, ln2 g/b, conv3 w/b, ln3 g/b,
  // fc w/b) then move, charge, value head w/b pairs.
  auto quantized = [&qp](size_t i) -> const QuantizedTensor& {
    CEWS_CHECK(qp.entries[i].quantized);
    return qp.entries[i].q;
  };
  auto dense = [&qp](size_t i) -> const float* {
    CEWS_CHECK(!qp.entries[i].quantized);
    return qp.entries[i].dense.data();
  };

  ScopedVec act1(b * stage1.oc * stage1.ohow());
  ScopedVec act2(b * stage2.oc * stage2.ohow());
  ScopedVec act3(b * flat);
  ConvLnReluStage(stage1, quantized(0), dense(1), dense(2), dense(3), states,
                  act1.data());
  ConvLnReluStage(stage2, quantized(4), dense(5), dense(6), dense(7),
                  act1.data(), act2.data());
  ConvLnReluStage(stage3, quantized(8), dense(9), dense(10), dense(11),
                  act2.data(), act3.data());

  // Trunk FC + ReLU. act3 is already the flattened [b, flat] matrix.
  ScopedVec feature(b * feat);
  QuantLinear(b, flat, feat, act3.data(), quantized(12), dense(13),
              feature.data());
  for (Index i = 0; i < b * feat; ++i) {
    feature.data()[i] = std::max(0.0f, feature.data()[i]);
  }

  // Heads run fp32 on their dense weights (see QuantizePolicyParams): they
  // are a sliver of the forward cost and own the argmax decision, so the
  // only int8 error reaching the logits is the trunk's feature perturbation.
  QuantPolicyOutput out;
  out.move_logits.resize(static_cast<size_t>(b * n_move));
  out.charge_logits.resize(static_cast<size_t>(b * n_charge));
  out.value.resize(static_cast<size_t>(b));
  DenseLinear(b, feat, n_move, feature.data(), dense(14), dense(15),
              out.move_logits.data());
  DenseLinear(b, feat, n_charge, feature.data(), dense(16), dense(17),
              out.charge_logits.data());
  DenseLinear(b, feat, 1, feature.data(), dense(18), dense(19),
              out.value.data());
  return out;
}

AgreementStats ActionAgreementOnStates(const PolicyNet& net,
                                       const QuantizedParams& qp,
                                       const std::vector<float>& states,
                                       int batch) {
  const PolicyNetConfig& cfg = net.config();
  CEWS_CHECK_GT(batch, 0);
  CEWS_CHECK_EQ(static_cast<int>(states.size()),
                batch * cfg.in_channels * cfg.grid * cfg.grid);

  // fp32 reference logits from an eager no-grad forward.
  PolicyOutput ref;
  {
    nn::NoGradGuard no_grad;
    ref = net.Forward(nn::Tensor::FromData(
        {batch, cfg.in_channels, cfg.grid, cfg.grid}, states));
  }

  const QuantPolicyOutput q =
      QuantPolicyForward(cfg, qp, states.data(), batch);

  // Both logit sets go through the serving decision code with every
  // instance deterministic, which draws no randomness.
  const std::vector<uint8_t> deterministic(static_cast<size_t>(batch), 1);
  Rng rng(0);
  const std::vector<PolicyDecision> want =
      DecideFromLogits(cfg, ref.move_logits.data(), ref.charge_logits.data(),
                       ref.value.data(), batch, rng, deterministic.data());
  const std::vector<PolicyDecision> got =
      DecideFromLogits(cfg, q.move_logits.data(), q.charge_logits.data(),
                       q.value.data(), batch, rng, deterministic.data());
  AgreementStats stats;
  for (int i = 0; i < batch; ++i) {
    const ActResult& a = want[static_cast<size_t>(i)].act;
    const ActResult& b = got[static_cast<size_t>(i)].act;
    for (size_t w = 0; w < a.moves.size(); ++w) {
      stats.decisions += 2;
      if (a.moves[w] == b.moves[w]) ++stats.matched;
      if (a.charges[w] == b.charges[w]) ++stats.matched;
    }
  }
  return stats;
}

}  // namespace cews::agents
