// cews::agents — the int8 inference executor for the policy architecture.
//
// QuantPolicyForward replays PolicyNet::Forward's layer sequence
// (conv3x3-LN-ReLU x3 -> flatten -> FC-ReLU -> three linear heads) against
// a publish-time nn::quant::QuantizedParams bundle. It owns only the int8
// parts; the rest is the fp32 path's own code. Each conv stages the batch
// with Conv2d's nn::StageConvInput, and each 32-column tile of the batch's
// column matrix is gathered by gemm::PackTile, quantized per column (one
// scale per output pixel) into a tile-sized int8 panel, multiplied by the
// per-output-channel int8 weight (nn/gemm_int8.h) with int32 accumulation
// and fp32 dequantize + bias, and scattered to NCHW. nn::LayerNormBody and
// ReLU stay fp32 per image: O(n) epilogues whose precision anchors the
// statistics the next quantization step depends on. The trunk FC runs on a
// pre-packed int8 panel; the three fp32 heads run as one gemm::NNRows sweep
// over a panel packed once at quantize time.
//
// The bundle is immutable and shared: int8 workers read the snapshot's
// QuantizedParams in place, so hot-swap costs one shared_ptr pin and a
// batch is served entirely by the bundle captured at dequeue time.
//
// Correctness is gated behaviorally: ActionAgreement* compares the
// quantized policy's deterministic decisions (per worker, move and charge,
// through agents::DecideFromLogits) against the fp32 net's over a state
// set, and serving requires >= 99% agreement (tests/serve_quant_test.cc,
// the deploy loop's eval gate and `cews serve --precision int8` enforce
// it). The outputs themselves are bitwise fixed: an instance's bits do not
// depend on the batch around it or on the thread count.
#ifndef CEWS_AGENTS_QUANT_POLICY_H_
#define CEWS_AGENTS_QUANT_POLICY_H_

#include <cstdint>
#include <vector>

#include "agents/policy_net.h"
#include "nn/quant.h"

namespace cews::agents {

/// One quantized forward pass worth of outputs (plain buffers — the int8
/// path has no autograd tensors to hand back).
struct QuantPolicyOutput {
  std::vector<float> move_logits;    ///< [batch * num_workers * num_moves].
  std::vector<float> charge_logits;  ///< [batch * num_workers * 2].
  std::vector<float> value;          ///< [batch].
};

/// Builds the policy's serving bundle: the serve-hot GEMM weights — the
/// three conv kernels and the trunk FC, which dominate forward cost — are
/// quantized per output channel; the head weights (move/charge/value) stay
/// fp32, packed side by side into one panel (head_panel, head_bias). The
/// heads are a few percent of forward FLOPs and sit directly on the argmax
/// decision, so quantizing them buys nothing and costs agreement. `params`
/// must be in PolicyNet::Parameters() order (20 tensors, CHECKed).
nn::quant::QuantizedParams QuantizePolicyParams(
    const std::vector<nn::Tensor>& params);

/// Runs the int8 forward over `batch` stacked states (batch * in_channels *
/// grid * grid floats, the SamplePolicyBatch layout). `qp` must have been
/// built by QuantizePolicyParams from a parameter list in
/// PolicyNet::Parameters() order for this architecture (CHECKed).
/// Deterministic at any thread count and batch size: per-column scales,
/// integer accumulation and per-image fp epilogues.
QuantPolicyOutput QuantPolicyForward(const PolicyNetConfig& config,
                                     const nn::quant::QuantizedParams& qp,
                                     const float* states, int batch);

/// Action-agreement tally between the fp32 net and the quantized bundle.
/// Every (instance, worker) contributes two decisions: the deterministic
/// move and the deterministic charge.
struct AgreementStats {
  int64_t decisions = 0;
  int64_t matched = 0;
  double rate() const {
    return decisions == 0 ? 1.0
                          : static_cast<double>(matched) /
                                static_cast<double>(decisions);
  }
};

/// Compares deterministic decisions (DecideFromLogits with every instance
/// deterministic) over `batch` stacked states. `net` provides
/// the fp32 reference; `qp` must be a bundle of the SAME parameters (the
/// caller typically quantized net.Parameters() or the published snapshot
/// the net was copied from).
AgreementStats ActionAgreementOnStates(const PolicyNet& net,
                                       const nn::quant::QuantizedParams& qp,
                                       const std::vector<float>& states,
                                       int batch);

}  // namespace cews::agents

#endif  // CEWS_AGENTS_QUANT_POLICY_H_
