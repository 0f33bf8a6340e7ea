// Differentiable tensor operations.
//
// Every op returns a fresh tensor; when grad mode is on and any input
// requires grad, the result carries a backward closure that accumulates
// gradients into its parents. All backwards are verified against finite
// differences in tests/nn_grad_check_test.cc.
#ifndef CEWS_NN_OPS_H_
#define CEWS_NN_OPS_H_

#include <memory>
#include <vector>

#include "nn/gemm.h"
#include "nn/tensor.h"

namespace cews::nn {

/// Elementwise sum; shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise difference; shapes must match.
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise product; shapes must match.
Tensor Mul(const Tensor& a, const Tensor& b);
/// Adds a scalar to every element.
Tensor AddScalar(const Tensor& a, float s);
/// Multiplies every element by a scalar.
Tensor MulScalar(const Tensor& a, float s);
/// Elementwise negation.
Tensor Neg(const Tensor& a);

/// Adds bias vector b of shape [D] to every row of x of shape [N, D].
Tensor AddBias(const Tensor& x, const Tensor& b);

/// Matrix product of a [N, K] and b [K, M] -> [N, M].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Elementwise max(x, 0).
Tensor Relu(const Tensor& x);
/// Elementwise hyperbolic tangent.
Tensor Tanh(const Tensor& x);
/// Elementwise logistic sigmoid.
Tensor Sigmoid(const Tensor& x);
/// Elementwise exponential.
Tensor Exp(const Tensor& x);
/// Elementwise natural log; inputs must be strictly positive.
Tensor Log(const Tensor& x);
/// Elementwise square.
Tensor Square(const Tensor& x);
/// Elementwise clamp into [lo, hi]; gradient flows only in the interior.
Tensor Clip(const Tensor& x, float lo, float hi);
/// Elementwise minimum; the smaller input receives the gradient (ties -> a).
Tensor Min(const Tensor& a, const Tensor& b);
/// Elementwise maximum; the larger input receives the gradient (ties -> a).
Tensor Max(const Tensor& a, const Tensor& b);

/// Softmax over the last dimension (numerically stabilized).
Tensor Softmax(const Tensor& x);
/// Log-softmax over the last dimension (numerically stabilized).
Tensor LogSoftmax(const Tensor& x);

/// Sum of all elements -> scalar.
Tensor Sum(const Tensor& x);
/// Mean of all elements -> scalar.
Tensor Mean(const Tensor& x);
/// Sums out the last dimension: [..., D] -> [...].
Tensor SumLastDim(const Tensor& x);

/// Reinterprets x with a new shape of equal element count.
Tensor Reshape(const Tensor& x, const Shape& shape);

/// Concatenates along the last dimension; leading dims must match.
Tensor Concat(const Tensor& a, const Tensor& b);

/// Picks x[row, idx[row]] along the last dimension: [..., D] with one index
/// per leading row -> shape [...]. Used for log-prob lookup of taken actions.
Tensor GatherLastDim(const Tensor& x, const std::vector<Index>& idx);

/// GatherLastDim whose indices live behind a shared handle the caller may
/// rewrite (same length, in-range) between graph replays — the expression
/// graph's index-input mechanism. Bounds are re-CHECKed on every replay.
Tensor GatherLastDim(const Tensor& x,
                     std::shared_ptr<const std::vector<Index>> idx);

/// 2-D convolution. x: [N, C, H, W], w: [O, C, KH, KW], optional bias [O]
/// (pass an undefined Tensor for no bias). Zero padding.
Tensor Conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
              int stride, int padding);

/// nn::LayerNorm's epsilon.
inline constexpr float kLayerNormEps = 1e-5f;

/// Layer normalization over all non-batch dims of x [N, ...]; gamma/beta are
/// flat [features] where features = numel/N.
Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps = kLayerNormEps);

/// Looks up rows of `table` [V, D] at `ids` -> [ids.size(), D].
Tensor EmbeddingLookup(const Tensor& table, const std::vector<Index>& ids);

/// Mean squared error between pred and target (same shape) -> scalar.
Tensor MseLoss(const Tensor& pred, const Tensor& target);

/// Elementwise Huber penalty of x: 0.5 x^2 for |x| <= delta, else
/// delta (|x| - 0.5 delta). Quadratic near zero, linear in the tails —
/// the robust value/TD loss used by the DQN baseline.
Tensor Huber(const Tensor& x, float delta);

/// Mean Huber loss between pred and target -> scalar.
Tensor HuberLoss(const Tensor& pred, const Tensor& target,
                 float delta = 1.0f);

// The conv geometry, the staged lowering and the raw LayerNorm forward,
// shared by Conv2d and the int8 policy executor (agents/quant_policy.h).

/// Static geometry of one Conv2d call. The patch dimension p = (ic * kh +
/// ky) * kw + kx indexes rows of the column matrix [ck2, n * ohow], which
/// is never materialized; column q = (image * oh + y) * ow + x indexes the
/// batch's output pixels.
struct ConvShape {
  Index n, c, h, w;    // input  [N, C, H, W]
  Index oc, kh, kw;    // weight [OC, C, KH, KW]
  Index oh, ow;        // output spatial dims
  int stride, padding;
  Index ck2() const { return c * kh * kw; }
  Index ohow() const { return oh * ow; }
  Index hp() const { return h + 2 * padding; }
  Index wp() const { return w + 2 * padding; }
  /// Floats of one image in the zero-padded staging layout [c, hp, wp].
  Index staged_image() const { return c * hp() * wp(); }
  /// Patch rows l = (ic, ky, kx) of the column matrix, as staging offsets.
  gemm::Walk Taps() const { return {{c, kh, kw}, {hp() * wp(), wp(), 1}}; }
  /// Output pixels (image, y, x) of `images` images, as staging offsets of
  /// their first tap.
  gemm::Walk Pixels(Index images) const {
    return {{images, oh, ow}, {staged_image(), stride * wp(), Index{stride}}};
  }
};

/// Copies the batch x [n, c, h, w] into the zero-padded staging layout
/// [n, c, hp, wp] (n * staged_image() floats). Column-matrix entry (l, q) is
/// then stg[Taps offset of l + Pixels offset of q], read by gemm::PackTile.
void StageConvInput(const ConvShape& s, const float* x, float* stg);

/// Copies columns [c0, c1) of a conv output matrix [oc, n * ohow] to NCHW
/// y. `cm` points at column c0 of output channel 0; rows are ldc apart.
void ScatterConvCols(const ConvShape& s, const float* cm, Index ldc, Index c0,
                     Index c1, float* y);

/// Rows whose LayerNorm statistics are computed side by side: each row
/// keeps its own sequential double sums, so a row's bits do not depend on
/// the rows next to it.
inline constexpr int kLayerNormRowGroup = 8;

/// One LayerNorm forward sweep over n rows of f features: writes the
/// normalized-scaled output `po` plus the xhat [n * f] / inv_sigma [n] row
/// statistics the backward consumes. `po` must not overlap `px`.
void LayerNormBody(Index n, Index f, float eps, const float* px,
                   const float* pg, const float* pb, float* po, float* xhat,
                   float* inv_sigma);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
inline Tensor operator*(const Tensor& a, float s) { return MulScalar(a, s); }
inline Tensor operator*(float s, const Tensor& a) { return MulScalar(a, s); }
inline Tensor operator-(const Tensor& a) { return Neg(a); }

}  // namespace cews::nn

#endif  // CEWS_NN_OPS_H_
