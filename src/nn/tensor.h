// Dense float tensor with reverse-mode automatic differentiation.
//
// This is the substrate that replaces TensorFlow/PyTorch for the paper's
// networks. Every op runs eagerly and, in grad mode, records a backward
// closure on the tensor it produces; Tensor::Backward() runs that tape in
// reverse creation order. The agents' training losses are additionally
// compiled (nn/graph.h): while a graph recording is active each op also
// registers its forward thunk, so the whole loss DAG is replayed against
// new placeholder inputs without rebuilding a single node, with all
// intermediates living at planner-assigned offsets in one graph-owned
// arena. No-grad forwards (acting, evaluation, serving) stay eager.
//
// Design notes:
//  * Tensor is a cheap value-semantics handle (shared_ptr to TensorImpl).
//  * Gradients accumulate (+=) so a tensor used twice gets both
//    contributions; call ZeroGrad()/Optimizer::ZeroGrad() between steps.
//  * Backward() runs closures in descending creation order (a valid reverse
//    topological order, since every op's inputs exist before its output).
//    The graph executor uses the same order, which is what makes the tape
//    and graph replay bitwise-identical.
//  * Tape construction is gated by a thread-local grad mode (NoGradGuard),
//    so rollout-time forwards pay no tape cost. Each employee thread builds
//    its own graphs; there is no cross-thread sharing of TensorImpl.
#ifndef CEWS_NN_TENSOR_H_
#define CEWS_NN_TENSOR_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace cews::nn {

namespace graph {
class CompiledGraph;
}  // namespace graph

/// Index/extent type for tensor dimensions.
using Index = int64_t;

/// Tensor shape as a list of extents; empty means "scalar".
using Shape = std::vector<Index>;

/// Number of elements implied by a shape (1 for scalars).
Index NumElements(const Shape& shape);

/// Human-readable "[2, 3, 4]".
std::string ShapeToString(const Shape& shape);

/// True while ops should record the autodiff tape (thread-local).
bool GradModeEnabled();

/// RAII guard that disables tape recording on this thread (rollouts,
/// evaluation). Nestable.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// Float storage that is either owned (a recyclable std::vector, the tape
/// default) or a view into externally planned memory (the expression graph's
/// arena). Presents the vector-ish surface the op kernels index into.
class Buffer {
 public:
  Buffer() = default;

  /// Adopts `v` as owned storage (workspace-recyclable on release).
  Buffer& operator=(std::vector<float>&& v) {
    owned_ = std::move(v);
    ptr_ = owned_.data();
    size_ = owned_.size();
    keepalive_.reset();
    return *this;
  }

  /// Re-points this buffer at `n` floats of externally owned memory;
  /// `keepalive` pins that memory for this buffer's lifetime. Any owned
  /// storage is released to the caller for recycling.
  std::vector<float> BindExternal(float* p, size_t n,
                                  std::shared_ptr<void> keepalive) {
    std::vector<float> released = std::move(owned_);
    owned_.clear();
    ptr_ = p;
    size_ = n;
    keepalive_ = std::move(keepalive);
    return released;
  }

  /// Detaches and returns owned storage (empty when external/empty).
  std::vector<float> TakeOwned() {
    std::vector<float> out = std::move(owned_);
    owned_.clear();
    ptr_ = nullptr;
    size_ = 0;
    keepalive_.reset();
    return out;
  }

  bool external() const { return ptr_ != nullptr && owned_.empty(); }
  float* data() { return ptr_; }
  const float* data() const { return ptr_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  float& operator[](size_t i) { return ptr_[i]; }
  float operator[](size_t i) const { return ptr_[i]; }
  float* begin() { return ptr_; }
  float* end() { return ptr_ + size_; }
  const float* begin() const { return ptr_; }
  const float* end() const { return ptr_ + size_; }

 private:
  std::vector<float> owned_;
  float* ptr_ = nullptr;
  size_t size_ = 0;
  std::shared_ptr<void> keepalive_;  // arena pin while external
};

struct TensorImpl;

/// Value-semantics handle to a (possibly autograd-tracked) float tensor.
class Tensor {
 public:
  /// Null handle; defined() is false.
  Tensor() = default;

  /// Wraps an existing impl (internal use by ops).
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  /// All-zeros tensor of the given shape.
  static Tensor Zeros(const Shape& shape, bool requires_grad = false);

  /// Constant-filled tensor.
  static Tensor Full(const Shape& shape, float value,
                     bool requires_grad = false);

  /// Tensor adopting the given row-major data (size must match shape).
  static Tensor FromData(const Shape& shape, std::vector<float> data,
                         bool requires_grad = false);

  /// 0-dim scalar tensor.
  static Tensor Scalar(float value);

  /// True when this handle points at a tensor.
  bool defined() const { return impl_ != nullptr; }

  const Shape& shape() const;
  int ndim() const;
  Index dim(int i) const;
  Index numel() const;

  /// Raw row-major storage.
  float* data();
  const float* data() const;

  /// Gradient storage; nullptr until the first backward reaches this tensor.
  float* grad();
  const float* grad() const;

  /// True when this tensor participates in autodiff.
  bool requires_grad() const;

  /// Value of a 0-dim or 1-element tensor.
  float item() const;

  /// Element access by multi-dimensional index (debug/tests; slow).
  float at(std::initializer_list<Index> idx) const;

  /// Copies values out into a std::vector.
  std::vector<float> ToVector() const;

  /// Runs reverse-mode autodiff from this tensor, which must be a scalar.
  /// Gradients accumulate into every reachable tensor with requires_grad.
  /// A second Backward() on the same tape root is a hard CHECK failure
  /// (silent double-accumulation is never what the caller wants); graph
  /// roots delegate to CompiledGraph::Backward, which enforces one backward
  /// per replayed forward.
  void Backward();

  /// Zeroes this tensor's gradient buffer (allocating it if absent).
  void ZeroGrad();

  /// Returns a tensor sharing this storage but detached from the tape.
  Tensor Detach() const;

  /// Deep copy of values (no tape, preserves requires_grad=false).
  Tensor Clone() const;

  /// Internal: underlying impl.
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// Internal node: storage plus tape edges. Public because ops.cc and tests
/// construct nodes directly; user code should stick to Tensor.
struct TensorImpl {
  Shape shape;
  Buffer data;
  Buffer grad;  // empty until needed; same size as data
  bool requires_grad = false;

  /// Monotone per-thread creation stamp; Backward() and the graph executor
  /// order closures by it (descending = reverse topological).
  uint64_t seq = 0;

  /// Set by the first tape Backward() whose root this node is; a second
  /// Backward() on the same root CHECK-fails.
  bool backward_done = false;

  /// Graph-input marker (nn/graph.h): the caller rewrites this leaf's data
  /// before each replay, so it is never treated as a memoizable constant.
  bool placeholder = false;

  /// Set on a compiled graph's root: Backward() delegates to the graph
  /// executor. Raw pointer — the graph owns the root, never the reverse.
  graph::CompiledGraph* graph_exec = nullptr;

  /// Accumulates into parents' grads, reading this node's grad. Only set on
  /// interior nodes produced while GradModeEnabled().
  std::function<void()> backward_fn;

  /// Tape edges toward leaves.
  std::vector<std::shared_ptr<TensorImpl>> parents;

  TensorImpl();
  /// Recycles owned data/grad storage into the per-thread workspace arena
  /// (nn/workspace.h), so the next step's ops reuse it allocation-free.
  /// Arena-bound storage is left to the graph that planned it.
  ~TensorImpl();
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  /// Allocates (zeroed) grad storage if absent; storage comes from the
  /// workspace arena.
  void EnsureGrad();
};

}  // namespace cews::nn

#endif  // CEWS_NN_TENSOR_H_
