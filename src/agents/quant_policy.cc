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

/// One conv-LN-ReLU block over the whole batch. The batch is staged once by
/// the fp32 Conv2d's own nn::StageConvInput; then each 32-column tile of
/// the [ck2, n*ohow] column matrix is gathered (gemm::PackTile), quantized
/// per column into a tile-sized int8 panel, multiplied by the quantized
/// conv weight (Int8DotRows) and scattered to NCHW. nn::LayerNormBody and
/// ReLU then run one row group of images at a time. A column's scale
/// depends only on that column, int32 accumulation is exact and a
/// LayerNorm row's bits do not depend on its group, so every output bit is
/// independent of the tiling, the batch size and the thread count.
void ConvLnReluStage(const nn::ConvShape& s, const QuantizedTensor& wq,
                     const float* bias, const float* ln_g, const float* ln_b,
                     const float* in, float* out) {
  const Index ck2 = s.ck2(), cols = s.n * s.ohow(), out_img = s.oc * s.ohow();
  CEWS_CHECK(wq.channels == s.oc && wq.per_channel == ck2);
  ScopedVec stg(s.n * s.staged_image());
  nn::StageConvInput(s, in, stg.data());
  const Index tiles = (cols + gemm::kNr - 1) / gemm::kNr;
  gemm::ParallelKernel(tiles, 2 * s.oc * ck2 * gemm::kNr, [&](Index t0,
                                                              Index t1) {
    // Per-tile scratch from the thread_local Workspace arena.
    ScopedVec tile(ck2 * gemm::kNr), ct(s.oc * gemm::kNr), sb(gemm::kNr);
    nn::AlignedScopedBytes panel(gemm::Int8PanelBytes(ck2, gemm::kNr));
    for (Index c = t0 * gemm::kNr; c < std::min(cols, t1 * gemm::kNr);
         c += gemm::kNr) {
      const Index w = std::min(gemm::kNr, cols - c);
      gemm::PackTile(stg.data(), s.Taps(), s.Pixels(s.n), c, w, tile.data());
      gemm::QuantizePackColsInt8(ck2, w, tile.data(), w, panel.data(),
                                 sb.data());
      gemm::Int8DotRows(0, s.oc, w, ck2, wq.rows.data(), ck2,
                        wq.scales.data(), panel.data(), sb.data(),
                        /*bias_row=*/bias, /*bias_col=*/nullptr, ct.data(), w);
      nn::ScatterConvCols(s, ct.data(), w, c, c + w, out);
    }
  });
  // LayerNorm reads a copy of one row group of images at a time: its
  // output may not overlap its input, and one group is all its row
  // statistics run side by side (bounded scratch, whatever the batch).
  gemm::ParallelKernel(s.n, 8 * out_img, [&](Index n0, Index n1) {
    const Index group = std::min<Index>(nn::kLayerNormRowGroup, n1 - n0);
    ScopedVec pre(group * out_img), xhat(group * out_img);
    float inv_sigma[nn::kLayerNormRowGroup];
    for (Index img = n0; img < n1; img += group) {
      const Index rows = std::min(group, n1 - img);
      float* o = out + img * out_img;
      std::copy(o, o + rows * out_img, pre.data());
      nn::LayerNormBody(rows, out_img, nn::kLayerNormEps, pre.data(), ln_g,
                        ln_b, o, xhat.data(), inv_sigma);
      for (Index j = 0; j < rows * out_img; ++j) o[j] = std::max(0.0f, o[j]);
    }
  });
}

}  // namespace

nn::quant::QuantizedParams QuantizePolicyParams(
    const std::vector<nn::Tensor>& params) {
  CEWS_CHECK_EQ(params.size(), 20u);
  // Quantize exactly the serve-hot GEMM weights: conv1/conv2/conv3 kernels
  // and the trunk FC. Trunk biases and LN params stay dense fp32; the heads
  // (indices 14..19) live only in the fp32 head panel and bias below.
  std::vector<uint8_t> flags(params.size(), 0);
  flags[0] = flags[4] = flags[8] = flags[12] = 1;
  QuantizedParams qp = nn::quant::QuantizeParams(params, &flags);
  // The three heads side by side as one [feature_dim, n_move + n_charge +
  // 1] matrix, packed once into an NN panel, and their concatenated bias.
  nn::NoGradGuard no_grad;
  const nn::Tensor w = nn::Concat(nn::Concat(params[14], params[16]),
                                  params[18]);
  const nn::Tensor bias = nn::Concat(nn::Concat(params[15], params[17]),
                                     params[19]);
  const Index k = w.dim(0), n = w.dim(1);
  qp.head_panel.resize(static_cast<size_t>(k * n));
  for (Index c0 = 0; c0 < n; c0 += gemm::kNr) {
    gemm::PackTile(w.data(), gemm::Walk{{1, 1, k}, {0, 0, n}},
                   gemm::Walk{{1, 1, n}, {0, 0, 1}}, c0,
                   std::min(gemm::kNr, n - c0), qp.head_panel.data() + k * c0);
  }
  qp.head_bias.assign(bias.data(), bias.data() + n);
  for (size_t i = 14; i < 20; ++i) {
    std::vector<float>().swap(qp.entries[i].dense);
  }
  return qp;
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

  // Trunk FC + ReLU on the pre-packed int8 panel: the rows of act3 (already
  // the flattened [b, flat] matrix) are quantized, the bias is per column.
  const QuantizedTensor& fc = quantized(12);
  CEWS_CHECK(fc.channels == feat && fc.per_channel == flat);
  nn::AlignedScopedBytes xq(b * flat);
  ScopedVec sx(b), feature(b * feat);
  gemm::QuantizeRowsInt8(b, flat, act3.data(), flat, xq.data(), sx.data());
  gemm::Int8GemmPrepacked(b, feat, flat, xq.data(), flat, sx.data(),
                          fc.packed.data(), fc.scales.data(),
                          /*bias_row=*/nullptr, /*bias_col=*/dense(13),
                          feature.data(), feat);
  for (Index i = 0; i < b * feat; ++i) {
    feature.data()[i] = std::max(0.0f, feature.data()[i]);
  }

  // Heads run fp32 (see QuantizePolicyParams): they are a sliver of the
  // forward cost and own the argmax decision, so the only int8 error
  // reaching the logits is the trunk's feature perturbation. C starts at the
  // concatenated bias; one NNRows sweep over the quantize-time panel fixes
  // each element's fmaf order, so splitting C gives the per-head products.
  const Index n_heads = n_move + n_charge + 1;
  CEWS_CHECK_EQ(static_cast<Index>(qp.head_bias.size()), n_heads);
  ScopedVec heads(b * n_heads);
  for (Index i = 0; i < b; ++i) {
    std::copy(qp.head_bias.begin(), qp.head_bias.end(),
              heads.data() + i * n_heads);
  }
  gemm::ParallelKernel(b, 2 * feat * n_heads, [&](Index r0, Index r1) {
    gemm::NNRows(r0, r1, n_heads, feat, feature.data(), feat, 1,
                 qp.head_panel.data(), heads.data(), n_heads);
  });
  QuantPolicyOutput out;
  for (Index i = 0; i < b; ++i) {
    const float* row = heads.data() + i * n_heads;
    out.move_logits.insert(out.move_logits.end(), row, row + n_move);
    out.charge_logits.insert(out.charge_logits.end(), row + n_move,
                             row + n_move + n_charge);
    out.value.push_back(row[n_heads - 1]);
  }
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
