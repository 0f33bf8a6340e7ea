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

/// Layer normalization over all non-batch dims of x [N, ...]; gamma/beta are
/// flat [features] where features = numel/N.
Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps = 1e-5f);

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

inline Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
inline Tensor operator*(const Tensor& a, float s) { return MulScalar(a, s); }
inline Tensor operator*(float s, const Tensor& a) { return MulScalar(a, s); }
inline Tensor operator-(const Tensor& a) { return Neg(a); }

}  // namespace cews::nn

#endif  // CEWS_NN_OPS_H_
