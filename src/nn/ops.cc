#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "nn/gemm.h"
#include "nn/graph.h"
#include "nn/workspace.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cews::nn {

namespace {

// ---------------------------------------------------------------------------
// Intra-op parallelism.
//
// The hot kernels (MatMul, Conv2d) run on the cews::runtime global pool via
// the packed GEMM layer (nn/gemm.h). Every kernel is written so that each
// parallel index owns its accumulators outright (a row of the output, an
// image of the batch, an output channel of the weight gradient) and
// accumulates them in a fixed serial order. Chunk boundaries therefore never
// change any floating-point result: outputs are bitwise-identical at any
// thread count.
//
// Execution modes (nn/tensor.h): each op computes its forward through a
// thunk that reads its inputs' *current* data pointers. Eagerly the thunk
// runs once and is discarded; under a graph recording (nn/graph.h) it is
// additionally registered so the compiled graph can replay it against new
// placeholder data — with outputs and kernel scratch living at
// planner-assigned arena offsets instead of workspace buckets. Backward
// closures are identical in both modes, which is the heart of the
// tape/graph bitwise-equivalence contract.
//
// Transient buffers (im2col columns, packed panels, per-image gradient
// scratch) and op outputs come from the per-thread workspace arena
// (nn/workspace.h) in eager mode, so a steady-state training step recycles
// every one of them instead of hitting the allocator; in graph mode they are
// graph::OpBufs the planner folds into the arena.
// ---------------------------------------------------------------------------

using gemm::ParallelKernel;
using graph::BufLife;
using graph::OpBuf;

/// Telemetry for one hot kernel (obs/metrics.h): call count plus FLOP- and
/// time-weighted forward/backward totals, so a scrape can report effective
/// FLOP/s per kernel.
struct KernelMetrics {
  explicit KernelMetrics(const std::string& prefix)
      : calls(obs::GetCounter(prefix + ".calls")),
        fwd_flops(obs::GetCounter(prefix + ".fwd_flops")),
        fwd_ns(obs::GetCounter(prefix + ".fwd_ns")),
        bwd_flops(obs::GetCounter(prefix + ".bwd_flops")),
        bwd_ns(obs::GetCounter(prefix + ".bwd_ns")) {}
  obs::Counter* const calls;
  obs::Counter* const fwd_flops;
  obs::Counter* const fwd_ns;
  obs::Counter* const bwd_flops;
  obs::Counter* const bwd_ns;
};

KernelMetrics& MatMulMetrics() {
  static KernelMetrics* m = new KernelMetrics("nn.matmul");
  return *m;
}

KernelMetrics& Conv2dMetrics() {
  static KernelMetrics* m = new KernelMetrics("nn.conv2d");
  return *m;
}

/// Builds the result node: adopts data, wires tape parents (only those that
/// require grad — requires_grad never propagates through a non-tracking
/// tensor, so others cannot reach a leaf), and marks requires_grad when grad
/// mode is on. The caller installs backward_fn afterwards iff tracking.
Tensor MakeResult(Shape shape, std::vector<float> data,
                  std::initializer_list<Tensor> inputs) {
  auto impl = std::make_shared<TensorImpl>();
  CEWS_CHECK_EQ(static_cast<size_t>(NumElements(shape)), data.size());
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  bool track = false;
  if (GradModeEnabled()) {
    for (const Tensor& t : inputs) {
      if (t.defined() && t.requires_grad()) track = true;
    }
  }
  impl->requires_grad = track;
  if (track) {
    for (const Tensor& t : inputs) {
      if (t.defined() && t.requires_grad()) impl->parents.push_back(t.impl());
    }
  }
  return Tensor(std::move(impl));
}

/// MakeResult over fresh (zero-filled, workspace-recycled) storage: the
/// thunk-style ops allocate the output first and let the forward thunk fill
/// it, so the very same thunk can refill it on graph replay.
Tensor NewResult(Shape shape, std::initializer_list<Tensor> inputs) {
  const Index n = NumElements(shape);
  return MakeResult(std::move(shape), Workspace::AcquireVec(n), inputs);
}

/// True when the result should record a backward closure.
bool Tracking(const Tensor& out) { return out.requires_grad(); }

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  CEWS_CHECK(a.shape() == b.shape())
      << op << ": shape mismatch " << ShapeToString(a.shape()) << " vs "
      << ShapeToString(b.shape());
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  Tensor r = NewResult(a.shape(), {a, b});
  const Index n = a.numel();
  auto fwd = [o = r.impl().get(), xa = a.impl().get(), xb = b.impl().get(),
              n]() {
    const float* pa = xa->data.data();
    const float* pb = xb->data.data();
    float* po = o->data.data();
    for (Index i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
  };
  fwd();
  graph::Record(r, {a, b}, fwd);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ia = a.impl();
    auto ib = b.impl();
    r.impl()->backward_fn = [o, ia, ib]() {
      const size_t n = o->data.size();
      if (ia->requires_grad) {
        ia->EnsureGrad();
        for (size_t i = 0; i < n; ++i) ia->grad[i] += o->grad[i];
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        for (size_t i = 0; i < n; ++i) ib->grad[i] += o->grad[i];
      }
    };
  }
  return r;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub");
  Tensor r = NewResult(a.shape(), {a, b});
  const Index n = a.numel();
  auto fwd = [o = r.impl().get(), xa = a.impl().get(), xb = b.impl().get(),
              n]() {
    const float* pa = xa->data.data();
    const float* pb = xb->data.data();
    float* po = o->data.data();
    for (Index i = 0; i < n; ++i) po[i] = pa[i] - pb[i];
  };
  fwd();
  graph::Record(r, {a, b}, fwd);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ia = a.impl();
    auto ib = b.impl();
    r.impl()->backward_fn = [o, ia, ib]() {
      const size_t n = o->data.size();
      if (ia->requires_grad) {
        ia->EnsureGrad();
        for (size_t i = 0; i < n; ++i) ia->grad[i] += o->grad[i];
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        for (size_t i = 0; i < n; ++i) ib->grad[i] -= o->grad[i];
      }
    };
  }
  return r;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  Tensor r = NewResult(a.shape(), {a, b});
  const Index n = a.numel();
  auto fwd = [o = r.impl().get(), xa = a.impl().get(), xb = b.impl().get(),
              n]() {
    const float* pa = xa->data.data();
    const float* pb = xb->data.data();
    float* po = o->data.data();
    for (Index i = 0; i < n; ++i) po[i] = pa[i] * pb[i];
  };
  fwd();
  graph::Record(r, {a, b}, fwd);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ia = a.impl();
    auto ib = b.impl();
    r.impl()->backward_fn = [o, ia, ib]() {
      const size_t n = o->data.size();
      if (ia->requires_grad) {
        ia->EnsureGrad();
        for (size_t i = 0; i < n; ++i) ia->grad[i] += o->grad[i] * ib->data[i];
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        for (size_t i = 0; i < n; ++i) ib->grad[i] += o->grad[i] * ia->data[i];
      }
    };
  }
  return r;
}

Tensor AddScalar(const Tensor& a, float s) {
  Tensor r = NewResult(a.shape(), {a});
  const Index n = a.numel();
  auto fwd = [o = r.impl().get(), xa = a.impl().get(), n, s]() {
    const float* pa = xa->data.data();
    float* po = o->data.data();
    for (Index i = 0; i < n; ++i) po[i] = pa[i] + s;
  };
  fwd();
  graph::Record(r, {a}, fwd);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ia = a.impl();
    r.impl()->backward_fn = [o, ia]() {
      ia->EnsureGrad();
      for (size_t i = 0; i < o->data.size(); ++i) ia->grad[i] += o->grad[i];
    };
  }
  return r;
}

Tensor MulScalar(const Tensor& a, float s) {
  Tensor r = NewResult(a.shape(), {a});
  const Index n = a.numel();
  auto fwd = [o = r.impl().get(), xa = a.impl().get(), n, s]() {
    const float* pa = xa->data.data();
    float* po = o->data.data();
    for (Index i = 0; i < n; ++i) po[i] = pa[i] * s;
  };
  fwd();
  graph::Record(r, {a}, fwd);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ia = a.impl();
    r.impl()->backward_fn = [o, ia, s]() {
      ia->EnsureGrad();
      for (size_t i = 0; i < o->data.size(); ++i)
        ia->grad[i] += o->grad[i] * s;
    };
  }
  return r;
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor AddBias(const Tensor& x, const Tensor& b) {
  CEWS_CHECK_EQ(x.ndim(), 2);
  CEWS_CHECK_EQ(b.ndim(), 1);
  const Index n = x.dim(0), d = x.dim(1);
  CEWS_CHECK_EQ(b.dim(0), d);
  Tensor r = NewResult(x.shape(), {x, b});
  auto fwd = [o = r.impl().get(), xi = x.impl().get(), bi = b.impl().get(), n,
              d]() {
    const float* px = xi->data.data();
    const float* pb = bi->data.data();
    float* po = o->data.data();
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < d; ++j) po[i * d + j] = px[i * d + j] + pb[j];
    }
  };
  fwd();
  graph::Record(r, {x, b}, fwd);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    auto ib = b.impl();
    r.impl()->backward_fn = [o, ix, ib, n, d]() {
      if (ix->requires_grad) {
        ix->EnsureGrad();
        for (size_t i = 0; i < o->data.size(); ++i)
          ix->grad[i] += o->grad[i];
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        for (Index i = 0; i < n; ++i) {
          for (Index j = 0; j < d; ++j) ib->grad[j] += o->grad[i * d + j];
        }
      }
    };
  }
  return r;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CEWS_CHECK_EQ(a.ndim(), 2);
  CEWS_CHECK_EQ(b.ndim(), 2);
  const Index n = a.dim(0), k = a.dim(1), m = b.dim(1);
  CEWS_CHECK_EQ(b.dim(0), k);
  const bool rec = graph::Recording();
  Tensor r = NewResult({n, m}, {a, b});
  const bool track = Tracking(r);
  const uint64_t flops = 2ull * static_cast<uint64_t>(n * k * m);
  // Graph mode plans the GEMM pack panels into the arena (a pack writes all
  // of its k*n floats, so reused slots need no zeroing); eager mode keeps
  // the per-thread workspace inside the wrappers.
  std::shared_ptr<OpBuf> pack_fwd =
      rec ? graph::AllocBuf(k * m, BufLife::kFwd) : nullptr;
  std::shared_ptr<OpBuf> pack_da =
      rec && track && a.requires_grad()
          ? graph::AllocBuf(m * k, BufLife::kBwd)
          : nullptr;
  std::shared_ptr<OpBuf> pack_db =
      rec && track && b.requires_grad()
          ? graph::AllocBuf(n * m, BufLife::kBwd)
          : nullptr;
  auto fwd = [o = r.impl().get(), xa = a.impl().get(), xb = b.impl().get(), n,
              k, m, flops, pack_fwd]() {
    CEWS_TRACE_SCOPE("nn.MatMul");
    const uint64_t t0 = Stopwatch::NowNs();
    float* po = o->data.data();
    // GemmNN accumulates; the tape allocated a zeroed output per call, so
    // the replayed thunk re-zeroes its (possibly slot-shared) output.
    std::fill(po, po + n * m, 0.0f);
    gemm::GemmNN(n, m, k, xa->data.data(), k, 1, xb->data.data(), m, po, m,
                 pack_fwd ? pack_fwd->data() : nullptr);
    KernelMetrics& metrics = MatMulMetrics();
    metrics.calls->Increment();
    metrics.fwd_flops->Add(flops);
    metrics.fwd_ns->Add(Stopwatch::NowNs() - t0);
  };
  fwd();
  graph::Record(r, {a, b}, fwd);
  if (track) {
    auto o = r.impl().get();
    auto ia = a.impl();
    auto ib = b.impl();
    r.impl()->backward_fn = [o, ia, ib, n, k, m, pack_da, pack_db]() {
      CEWS_TRACE_SCOPE("nn.MatMul.bwd");
      const uint64_t t0 = Stopwatch::NowNs();
      uint64_t bwd_flops = 0;
      // dA = dC * B^T (NT shape: one fresh dot per element) and
      // dB = A^T * dC (NN shape: rows of dB accumulate n-ascending, matching
      // the transposed read of A). Both partitioned over output rows.
      if (ia->requires_grad) {
        bwd_flops += 2ull * static_cast<uint64_t>(n * k * m);
        ia->EnsureGrad();
        const float* og = o->grad.data();
        const float* pb = ib->data.data();
        float* ga = ia->grad.data();
        gemm::GemmNT(n, k, m, og, m, pb, m, ga, k,
                     pack_da ? pack_da->data() : nullptr);
      }
      if (ib->requires_grad) {
        bwd_flops += 2ull * static_cast<uint64_t>(n * k * m);
        ib->EnsureGrad();
        const float* og = o->grad.data();
        const float* pa = ia->data.data();
        float* gb = ib->grad.data();
        gemm::GemmNN(k, m, n, pa, 1, k, og, m, gb, m,
                     pack_db ? pack_db->data() : nullptr);
      }
      KernelMetrics& metrics = MatMulMetrics();
      metrics.bwd_flops->Add(bwd_flops);
      metrics.bwd_ns->Add(Stopwatch::NowNs() - t0);
    };
  }
  return r;
}

namespace {

/// Shared scaffolding for unary elementwise ops whose backward is
/// dx = dy * dfn(x, y).
template <typename FwdFn, typename BwdFn>
Tensor UnaryElementwise(const Tensor& x, FwdFn fwd_fn, BwdFn dfn) {
  Tensor r = NewResult(x.shape(), {x});
  const Index n = x.numel();
  auto fwd = [o = r.impl().get(), xi = x.impl().get(), n, fwd_fn]() {
    const float* px = xi->data.data();
    float* po = o->data.data();
    for (Index i = 0; i < n; ++i) po[i] = fwd_fn(px[i]);
  };
  fwd();
  graph::Record(r, {x}, fwd);
  if (r.requires_grad()) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix, dfn]() {
      ix->EnsureGrad();
      for (size_t i = 0; i < o->data.size(); ++i) {
        ix->grad[i] += o->grad[i] * dfn(ix->data[i], o->data[i]);
      }
    };
  }
  return r;
}

}  // namespace

Tensor Relu(const Tensor& x) {
  return UnaryElementwise(
      x, [](float v) { return v > 0.0f ? v : 0.0f; },
      [](float v, float) { return v > 0.0f ? 1.0f : 0.0f; });
}

Tensor Tanh(const Tensor& x) {
  return UnaryElementwise(
      x, [](float v) { return std::tanh(v); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& x) {
  return UnaryElementwise(
      x, [](float v) { return 1.0f / (1.0f + std::exp(-v)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Exp(const Tensor& x) {
  return UnaryElementwise(
      x, [](float v) { return std::exp(v); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& x) {
  // The positivity check lives inside the forward body so graph replays
  // re-validate fresh placeholder data, not just the recording batch.
  return UnaryElementwise(
      x,
      [](float v) {
        CEWS_CHECK(v > 0.0f) << "Log: non-positive input " << v;
        return std::log(v);
      },
      [](float v, float) { return 1.0f / v; });
}

Tensor Square(const Tensor& x) {
  return UnaryElementwise(
      x, [](float v) { return v * v; },
      [](float v, float) { return 2.0f * v; });
}

Tensor Clip(const Tensor& x, float lo, float hi) {
  CEWS_CHECK(lo <= hi);
  return UnaryElementwise(
      x,
      [lo, hi](float v) { return v < lo ? lo : (v > hi ? hi : v); },
      [lo, hi](float v, float) { return (v > lo && v < hi) ? 1.0f : 0.0f; });
}

namespace {

/// Shared scaffolding for binary select ops (Min/Max): the gradient flows
/// entirely to the selected input.
template <typename PickA>
Tensor BinarySelect(const Tensor& a, const Tensor& b, PickA pick_a,
                    const char* name) {
  CheckSameShape(a, b, name);
  const Index n = a.numel();
  Tensor r = NewResult(a.shape(), {a, b});
  auto fwd = [o = r.impl().get(), xa = a.impl().get(), xb = b.impl().get(), n,
              pick_a]() {
    const float* pa = xa->data.data();
    const float* pb = xb->data.data();
    float* po = o->data.data();
    for (Index i = 0; i < n; ++i) {
      po[i] = pick_a(pa[i], pb[i]) ? pa[i] : pb[i];
    }
  };
  fwd();
  graph::Record(r, {a, b}, fwd);
  if (r.requires_grad()) {
    auto o = r.impl().get();
    auto ia = a.impl();
    auto ib = b.impl();
    r.impl()->backward_fn = [o, ia, ib, pick_a]() {
      if (ia->requires_grad) ia->EnsureGrad();
      if (ib->requires_grad) ib->EnsureGrad();
      for (size_t i = 0; i < o->data.size(); ++i) {
        const bool to_a = pick_a(ia->data[i], ib->data[i]);
        if (to_a && ia->requires_grad) ia->grad[i] += o->grad[i];
        if (!to_a && ib->requires_grad) ib->grad[i] += o->grad[i];
      }
    };
  }
  return r;
}

}  // namespace

Tensor Min(const Tensor& a, const Tensor& b) {
  return BinarySelect(
      a, b, [](float x, float y) { return x <= y; }, "Min");
}

Tensor Max(const Tensor& a, const Tensor& b) {
  return BinarySelect(
      a, b, [](float x, float y) { return x >= y; }, "Max");
}

Tensor Softmax(const Tensor& x) {
  CEWS_CHECK_GE(x.ndim(), 1);
  const Index d = x.dim(-1);
  const Index rows = x.numel() / d;
  Tensor r = NewResult(x.shape(), {x});
  auto fwd = [o = r.impl().get(), xi = x.impl().get(), rows, d]() {
    const float* px = xi->data.data();
    float* po = o->data.data();
    for (Index r = 0; r < rows; ++r) {
      const float* row = px + r * d;
      float mx = row[0];
      for (Index j = 1; j < d; ++j) mx = std::max(mx, row[j]);
      float sum = 0.0f;
      for (Index j = 0; j < d; ++j) {
        const float e = std::exp(row[j] - mx);
        po[r * d + j] = e;
        sum += e;
      }
      for (Index j = 0; j < d; ++j) po[r * d + j] /= sum;
    }
  };
  fwd();
  graph::Record(r, {x}, fwd);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix, rows, d]() {
      // dx = p * (dy - sum(dy * p)) per row.
      ix->EnsureGrad();
      for (Index row = 0; row < rows; ++row) {
        const float* p = o->data.data() + row * d;
        const float* dy = o->grad.data() + row * d;
        float dot = 0.0f;
        for (Index j = 0; j < d; ++j) dot += dy[j] * p[j];
        float* dx = ix->grad.data() + row * d;
        for (Index j = 0; j < d; ++j) dx[j] += p[j] * (dy[j] - dot);
      }
    };
  }
  return r;
}

Tensor LogSoftmax(const Tensor& x) {
  CEWS_CHECK_GE(x.ndim(), 1);
  const Index d = x.dim(-1);
  const Index rows = x.numel() / d;
  Tensor r = NewResult(x.shape(), {x});
  auto fwd = [o = r.impl().get(), xi = x.impl().get(), rows, d]() {
    const float* px = xi->data.data();
    float* po = o->data.data();
    for (Index r = 0; r < rows; ++r) {
      const float* row = px + r * d;
      float mx = row[0];
      for (Index j = 1; j < d; ++j) mx = std::max(mx, row[j]);
      float sum = 0.0f;
      for (Index j = 0; j < d; ++j) sum += std::exp(row[j] - mx);
      const float lse = mx + std::log(sum);
      for (Index j = 0; j < d; ++j) po[r * d + j] = row[j] - lse;
    }
  };
  fwd();
  graph::Record(r, {x}, fwd);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix, rows, d]() {
      // dx = dy - softmax(x) * sum(dy) per row.
      ix->EnsureGrad();
      for (Index row = 0; row < rows; ++row) {
        const float* lp = o->data.data() + row * d;
        const float* dy = o->grad.data() + row * d;
        float sum_dy = 0.0f;
        for (Index j = 0; j < d; ++j) sum_dy += dy[j];
        float* dx = ix->grad.data() + row * d;
        for (Index j = 0; j < d; ++j) {
          dx[j] += dy[j] - std::exp(lp[j]) * sum_dy;
        }
      }
    };
  }
  return r;
}

Tensor Sum(const Tensor& x) {
  const Index n = x.numel();
  Tensor r = NewResult({}, {x});
  auto fwd = [o = r.impl().get(), xi = x.impl().get(), n]() {
    double acc = 0.0;
    const float* px = xi->data.data();
    for (Index i = 0; i < n; ++i) acc += px[i];
    o->data[0] = static_cast<float>(acc);
  };
  fwd();
  graph::Record(r, {x}, fwd);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix]() {
      ix->EnsureGrad();
      const float g = o->grad[0];
      for (size_t i = 0; i < ix->data.size(); ++i) ix->grad[i] += g;
    };
  }
  return r;
}

Tensor Mean(const Tensor& x) {
  CEWS_CHECK_GT(x.numel(), 0);
  const Index n = x.numel();
  const float inv_n = 1.0f / static_cast<float>(n);
  Tensor r = NewResult({}, {x});
  auto fwd = [o = r.impl().get(), xi = x.impl().get(), n, inv_n]() {
    double acc = 0.0;
    const float* px = xi->data.data();
    for (Index i = 0; i < n; ++i) acc += px[i];
    o->data[0] = static_cast<float>(acc) * inv_n;
  };
  fwd();
  graph::Record(r, {x}, fwd);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix, inv_n]() {
      ix->EnsureGrad();
      const float g = o->grad[0] * inv_n;
      for (size_t i = 0; i < ix->data.size(); ++i) ix->grad[i] += g;
    };
  }
  return r;
}

Tensor SumLastDim(const Tensor& x) {
  CEWS_CHECK_GE(x.ndim(), 1);
  const Index d = x.dim(-1);
  const Index rows = x.numel() / d;
  Shape out_shape(x.shape().begin(), x.shape().end() - 1);
  Tensor r = NewResult(std::move(out_shape), {x});
  auto fwd = [o = r.impl().get(), xi = x.impl().get(), rows, d]() {
    const float* px = xi->data.data();
    float* po = o->data.data();
    for (Index r = 0; r < rows; ++r) {
      double acc = 0.0;
      for (Index j = 0; j < d; ++j) acc += px[r * d + j];
      po[r] = static_cast<float>(acc);
    }
  };
  fwd();
  graph::Record(r, {x}, fwd);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix, rows, d]() {
      ix->EnsureGrad();
      for (Index row = 0; row < rows; ++row) {
        const float g = o->grad[row];
        for (Index j = 0; j < d; ++j) ix->grad[row * d + j] += g;
      }
    };
  }
  return r;
}

Tensor Reshape(const Tensor& x, const Shape& shape) {
  CEWS_CHECK_EQ(NumElements(shape), x.numel());
  const Index n = x.numel();
  Tensor r = NewResult(shape, {x});
  auto fwd = [o = r.impl().get(), xi = x.impl().get(), n]() {
    std::copy(xi->data.data(), xi->data.data() + n, o->data.data());
  };
  fwd();
  graph::Record(r, {x}, fwd);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix]() {
      ix->EnsureGrad();
      for (size_t i = 0; i < o->data.size(); ++i) ix->grad[i] += o->grad[i];
    };
  }
  return r;
}

Tensor Concat(const Tensor& a, const Tensor& b) {
  CEWS_CHECK_EQ(a.ndim(), b.ndim());
  CEWS_CHECK_GE(a.ndim(), 1);
  for (int i = 0; i + 1 < a.ndim(); ++i) CEWS_CHECK_EQ(a.dim(i), b.dim(i));
  const Index da = a.dim(-1), db = b.dim(-1);
  const Index rows = a.numel() / da;
  Shape out_shape = a.shape();
  out_shape.back() = da + db;
  Tensor r = NewResult(std::move(out_shape), {a, b});
  auto fwd = [o = r.impl().get(), xa = a.impl().get(), xb = b.impl().get(),
              rows, da, db]() {
    const float* pa = xa->data.data();
    const float* pb = xb->data.data();
    float* po = o->data.data();
    for (Index r = 0; r < rows; ++r) {
      float* orow = po + r * (da + db);
      for (Index j = 0; j < da; ++j) orow[j] = pa[r * da + j];
      for (Index j = 0; j < db; ++j) orow[da + j] = pb[r * db + j];
    }
  };
  fwd();
  graph::Record(r, {a, b}, fwd);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ia = a.impl();
    auto ib = b.impl();
    r.impl()->backward_fn = [o, ia, ib, rows, da, db]() {
      if (ia->requires_grad) ia->EnsureGrad();
      if (ib->requires_grad) ib->EnsureGrad();
      for (Index row = 0; row < rows; ++row) {
        const float* g = o->grad.data() + row * (da + db);
        if (ia->requires_grad) {
          for (Index j = 0; j < da; ++j) ia->grad[row * da + j] += g[j];
        }
        if (ib->requires_grad) {
          for (Index j = 0; j < db; ++j) ib->grad[row * db + j] += g[da + j];
        }
      }
    };
  }
  return r;
}

namespace {

/// Shared body of both GatherLastDim overloads: `idx` is a stable handle
/// whose contents the forward re-reads (and re-validates) on every run.
Tensor GatherLastDimImpl(const Tensor& x,
                         std::shared_ptr<const std::vector<Index>> idx) {
  CEWS_CHECK_GE(x.ndim(), 1);
  CEWS_CHECK(idx != nullptr);
  const Index d = x.dim(-1);
  const Index rows = x.numel() / d;
  Shape out_shape(x.shape().begin(), x.shape().end() - 1);
  Tensor r = NewResult(std::move(out_shape), {x});
  auto fwd = [o = r.impl().get(), xi = x.impl().get(), idx, rows, d]() {
    CEWS_CHECK_EQ(static_cast<Index>(idx->size()), rows)
        << "GatherLastDim: index count changed between replays";
    const float* px = xi->data.data();
    float* po = o->data.data();
    for (Index r = 0; r < rows; ++r) {
      const Index j = (*idx)[static_cast<size_t>(r)];
      CEWS_CHECK_GE(j, 0);
      CEWS_CHECK_LT(j, d);
      po[r] = px[r * d + j];
    }
  };
  fwd();
  graph::Record(r, {x}, fwd);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix, idx, d]() {
      ix->EnsureGrad();
      for (size_t row = 0; row < idx->size(); ++row) {
        ix->grad[static_cast<Index>(row) * d + (*idx)[row]] += o->grad[row];
      }
    };
  }
  return r;
}

}  // namespace

Tensor GatherLastDim(const Tensor& x, const std::vector<Index>& idx) {
  return GatherLastDimImpl(
      x, std::make_shared<const std::vector<Index>>(idx));
}

Tensor GatherLastDim(const Tensor& x,
                     std::shared_ptr<const std::vector<Index>> idx) {
  return GatherLastDimImpl(x, std::move(idx));
}

namespace {

/// Static geometry of one Conv2d call (im2col formulation). The patch
/// dimension p = (ic * kh + ky) * kw + kx indexes rows of the column matrix;
/// the output-pixel dimension q = y * ow + x indexes its columns.
struct ConvShape {
  Index n, c, h, w;    // input  [N, C, H, W]
  Index oc, kh, kw;    // weight [OC, C, KH, KW]
  Index oh, ow;        // output spatial dims
  int stride, padding;
  Index ck2() const { return c * kh * kw; }
  Index ohow() const { return oh * ow; }
};

/// Unfolds one image into its column matrix cols [ck2, ohow]; out-of-bounds
/// (padding) taps become zeros.
void Im2Col(const ConvShape& s, const float* img, float* cols) {
  for (Index ic = 0; ic < s.c; ++ic) {
    const float* plane = img + ic * s.h * s.w;
    for (Index ky = 0; ky < s.kh; ++ky) {
      for (Index kx = 0; kx < s.kw; ++kx) {
        float* row =
            cols + ((ic * s.kh + ky) * s.kw + kx) * s.ohow();
        for (Index y = 0; y < s.oh; ++y) {
          const Index iy = y * s.stride - s.padding + ky;
          float* dst = row + y * s.ow;
          if (iy < 0 || iy >= s.h) {
            std::fill(dst, dst + s.ow, 0.0f);
            continue;
          }
          const float* src = plane + iy * s.w;
          for (Index x = 0; x < s.ow; ++x) {
            const Index ixp = x * s.stride - s.padding + kx;
            dst[x] = (ixp < 0 || ixp >= s.w) ? 0.0f : src[ixp];
          }
        }
      }
    }
  }
}

/// Folds a column-matrix gradient back into one image gradient (the adjoint
/// of Im2Col); accumulates with +=.
void Col2ImAccum(const ConvShape& s, const float* cols, float* img) {
  for (Index ic = 0; ic < s.c; ++ic) {
    float* plane = img + ic * s.h * s.w;
    for (Index ky = 0; ky < s.kh; ++ky) {
      for (Index kx = 0; kx < s.kw; ++kx) {
        const float* row =
            cols + ((ic * s.kh + ky) * s.kw + kx) * s.ohow();
        for (Index y = 0; y < s.oh; ++y) {
          const Index iy = y * s.stride - s.padding + ky;
          if (iy < 0 || iy >= s.h) continue;
          const float* src = row + y * s.ow;
          float* dst = plane + iy * s.w;
          for (Index x = 0; x < s.ow; ++x) {
            const Index ixp = x * s.stride - s.padding + kx;
            if (ixp < 0 || ixp >= s.w) continue;
            dst[ixp] += src[x];
          }
        }
      }
    }
  }
}

/// Unfolds the whole batch into cols (n * ck2 * ohow floats, caller-owned —
/// typically a workspace chunk), one image per parallel index.
void BatchIm2Col(const ConvShape& s, const float* px, float* pc) {
  ParallelKernel(s.n, s.ck2() * s.ohow(), [&](Index n0, Index n1) {
    for (Index in = n0; in < n1; ++in) {
      Im2Col(s, px + in * s.c * s.h * s.w, pc + in * s.ck2() * s.ohow());
    }
  });
}

/// Packs each image's column matrix [ck2, ohow] into the GEMM panel layout,
/// one image per parallel index. Pass transposed=true for the Yᵀ (PackNT)
/// layout the dW product consumes.
void PackBatch(const ConvShape& s, const float* pc, float* pp,
               bool transposed) {
  const Index ck2 = s.ck2(), ohow = s.ohow();
  ParallelKernel(s.n, ck2 * ohow, [&](Index n0, Index n1) {
    for (Index in = n0; in < n1; ++in) {
      const float* src = pc + in * ck2 * ohow;
      float* dst = pp + in * ck2 * ohow;
      if (transposed) {
        gemm::PackNT(ohow, ck2, src, ohow, dst);
      } else {
        gemm::PackNN(ck2, ohow, src, ohow, dst);
      }
    }
  });
}

/// The im2col + pack + NNRows forward product shared by the eager path and
/// the graph thunk. cols/packed are caller scratch of n*ck2*ohow floats
/// each; all three outputs (cols, packed, po) are fully overwritten.
void ConvForwardBody(const ConvShape& s, const float* px, const float* pw,
                     const float* pbias, float* cols, float* packed,
                     float* po) {
  const Index ck2 = s.ck2(), ohow = s.ohow();
  BatchIm2Col(s, px, cols);
  PackBatch(s, cols, packed, /*transposed=*/false);
  ParallelKernel(s.n * s.oc, 2 * ck2 * ohow, [&](Index r0, Index r1) {
    // A chunk may span image boundaries; group its rows by image so each
    // NNRows call covers a contiguous block of output channels and gets
    // the full kMr-row register tiling.
    Index row = r0;
    while (row < r1) {
      const Index in = row / s.oc;
      const Index io0 = row % s.oc;
      const Index io1 = std::min(s.oc, io0 + (r1 - row));
      float* obase = po + in * s.oc * ohow;
      for (Index io = io0; io < io1; ++io) {
        float* orow = obase + io * ohow;
        std::fill(orow, orow + ohow, pbias != nullptr ? pbias[io] : 0.0f);
      }
      gemm::NNRows(io0, io1, ohow, ck2, pw, ck2, 1,
                   packed + in * ck2 * ohow, obase, ohow);
      row += io1 - io0;
    }
  });
}

/// The dW/db/dX backward products shared by the eager closure and the graph
/// closure. `cols` is the forward's im2col buffer, kept alive for dW. The
/// three scratch pointers are nullable: null falls back to workspace vectors
/// (eager mode, abandoned recordings); non-null are planner-assigned slabs
/// — packt n*ck2*ohow, dcols_all n*ck2*ohow and packdy_all n*oc*ohow
/// floats (per-image slices, dcols re-zeroed here).
void ConvBackwardBody(const ConvShape& s, uint64_t conv_flops, TensorImpl* o,
                      TensorImpl* ix, TensorImpl* iw, TensorImpl* ib,
                      const float* cols, float* packt_buf, float* dcols_all,
                      float* packdy_all) {
  CEWS_TRACE_SCOPE("nn.Conv2d.bwd");
  const Index ck2 = s.ck2(), ohow = s.ohow();
  const uint64_t t0 = Stopwatch::NowNs();
  uint64_t bwd_flops = 0;
  const bool need_dx = ix->requires_grad;
  const bool need_dw = iw->requires_grad;
  const bool need_db = ib != nullptr && ib->requires_grad;
  if (need_dx) ix->EnsureGrad();
  if (need_dw) iw->EnsureGrad();
  if (need_db) ib->EnsureGrad();
  const float* og = o->grad.data();

  // dW = sum_n dY_n * cols_n^T (NT shape: one fresh dot per element,
  // images accumulated in ascending order) and db = sum over pixels.
  // Partitioned over output channels: each dW row / db entry has one
  // owner.
  if (need_dw || need_db) {
    if (need_dw) bwd_flops += conv_flops;
    float* gw = need_dw ? iw->grad.data() : nullptr;
    float* gb = need_db ? ib->grad.data() : nullptr;
    ScopedVec packt(need_dw && packt_buf == nullptr ? s.n * ck2 * ohow : 0);
    float* pt = packt_buf != nullptr ? packt_buf : packt.data();
    if (need_dw) PackBatch(s, cols, pt, /*transposed=*/true);
    ParallelKernel(s.oc, 2 * s.n * ck2 * ohow, [&](Index o0, Index o1) {
      // Images ascend in the outer loop; every dW/db element still
      // receives its per-image contributions in image order, identical
      // to the channel-outer loop this replaced.
      for (Index in = 0; in < s.n; ++in) {
        const float* gbase = og + in * s.oc * ohow;
        if (need_db) {
          for (Index io = o0; io < o1; ++io) {
            const float* grow = gbase + io * ohow;
            float acc = 0.0f;
            for (Index q = 0; q < ohow; ++q) acc += grow[q];
            gb[io] += acc;
          }
        }
        if (!need_dw) continue;
        gemm::NTRows(o0, o1, ck2, ohow, gbase, ohow,
                     pt + in * ck2 * ohow, gw, ck2);
      }
    });
  }

  // dX_n = col2im(W^T * dY_n), partitioned over images. The W^T product
  // is NN-shaped: dcols rows accumulate channel-ascending.
  if (need_dx) {
    bwd_flops += conv_flops;
    const float* pw = iw->data.data();
    float* gx = ix->grad.data();
    ParallelKernel(s.n, 2 * s.oc * ck2 * ohow, [&](Index n0, Index n1) {
      for (Index in = n0; in < n1; ++in) {
        ScopedVec dcols_local(dcols_all == nullptr ? ck2 * ohow : 0);
        ScopedVec packdy_local(packdy_all == nullptr ? s.oc * ohow : 0);
        float* dcols = dcols_all != nullptr ? dcols_all + in * ck2 * ohow
                                            : dcols_local.data();
        float* packdy = packdy_all != nullptr ? packdy_all + in * s.oc * ohow
                                              : packdy_local.data();
        // NNRows accumulates into dcols; workspace vectors arrive zeroed,
        // arena slices must be re-zeroed per run. packdy is fully
        // overwritten by the pack.
        if (dcols_all != nullptr) std::fill(dcols, dcols + ck2 * ohow, 0.0f);
        gemm::PackNN(s.oc, ohow, og + in * s.oc * ohow, ohow, packdy);
        gemm::NNRows(0, ck2, ohow, s.oc, pw, 1, ck2, packdy, dcols, ohow);
        Col2ImAccum(s, dcols, gx + in * s.c * s.h * s.w);
      }
    });
  }
  KernelMetrics& metrics = Conv2dMetrics();
  metrics.bwd_flops->Add(bwd_flops);
  metrics.bwd_ns->Add(Stopwatch::NowNs() - t0);
}

}  // namespace

Tensor Conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
              int stride, int padding) {
  CEWS_CHECK_EQ(x.ndim(), 4);
  CEWS_CHECK_EQ(w.ndim(), 4);
  CEWS_CHECK_GE(stride, 1);
  CEWS_CHECK_GE(padding, 0);
  ConvShape s;
  s.n = x.dim(0), s.c = x.dim(1), s.h = x.dim(2), s.w = x.dim(3);
  s.oc = w.dim(0), s.kh = w.dim(2), s.kw = w.dim(3);
  s.stride = stride, s.padding = padding;
  CEWS_CHECK_EQ(w.dim(1), s.c);
  if (bias.defined()) {
    CEWS_CHECK_EQ(bias.ndim(), 1);
    CEWS_CHECK_EQ(bias.dim(0), s.oc);
  }
  s.oh = (s.h + 2 * padding - s.kh) / stride + 1;
  s.ow = (s.w + 2 * padding - s.kw) / stride + 1;
  CEWS_CHECK_GE(s.oh, 1);
  CEWS_CHECK_GE(s.ow, 1);
  const Index ck2 = s.ck2(), ohow = s.ohow();

  // FLOPs of one batched im2col product: multiply + add per (image, output
  // channel, patch row, output pixel). Forward and each backward product
  // share this cost.
  const uint64_t conv_flops =
      2ull * static_cast<uint64_t>(s.n * s.oc * ck2 * ohow);

  const bool rec = graph::Recording();
  Tensor r = NewResult({s.n, s.oc, s.oh, s.ow}, {x, w, bias});
  const bool track = Tracking(r);
  TensorImpl* o = r.impl().get();
  TensorImpl* xi = x.impl().get();
  TensorImpl* wi = w.impl().get();
  TensorImpl* bi = bias.defined() ? bias.impl().get() : nullptr;

  if (rec) {
    // Graph path: all scratch (forward and backward) is planner-managed.
    // cols is kSpan when the backward will read it for dW; packed panels and
    // gradient scratch are single-phase.
    auto cols = graph::AllocBuf(
        s.n * ck2 * ohow,
        track && wi->requires_grad ? BufLife::kSpan : BufLife::kFwd);
    auto packed = graph::AllocBuf(s.n * ck2 * ohow, BufLife::kFwd);
    std::shared_ptr<OpBuf> packt, dcols_all, packdy_all;
    if (track && wi->requires_grad) {
      packt = graph::AllocBuf(s.n * ck2 * ohow, BufLife::kBwd);
    }
    if (track && xi->requires_grad) {
      dcols_all = graph::AllocBuf(s.n * ck2 * ohow, BufLife::kBwd);
      packdy_all = graph::AllocBuf(s.n * s.oc * ohow, BufLife::kBwd);
    }
    auto fwd = [o, xi, wi, bi, s, conv_flops, cols, packed]() {
      CEWS_TRACE_SCOPE("nn.Conv2d");
      const uint64_t t0 = Stopwatch::NowNs();
      ConvForwardBody(s, xi->data.data(), wi->data.data(),
                      bi != nullptr ? bi->data.data() : nullptr, cols->data(),
                      packed->data(), o->data.data());
      KernelMetrics& metrics = Conv2dMetrics();
      metrics.calls->Increment();
      metrics.fwd_flops->Add(conv_flops);
      metrics.fwd_ns->Add(Stopwatch::NowNs() - t0);
    };
    fwd();
    graph::Record(r, {x, w, bias}, fwd);
    if (track) {
      auto ix = x.impl();
      auto iw = w.impl();
      auto ib = bias.defined() ? bias.impl() : std::shared_ptr<TensorImpl>();
      r.impl()->backward_fn = [o, ix, iw, ib, s, conv_flops, cols, packt,
                               dcols_all, packdy_all]() {
        ConvBackwardBody(s, conv_flops, o, ix.get(), iw.get(), ib.get(),
                         cols->data(),
                         packt ? packt->data() : nullptr,
                         dcols_all ? dcols_all->data() : nullptr,
                         packdy_all ? packdy_all->data() : nullptr);
      };
    }
    return r;
  }

  // Eager path. The cols buffer is shared so the backward closure can reuse
  // it for dW instead of re-unfolding x.
  CEWS_TRACE_SCOPE("nn.Conv2d");
  const uint64_t fwd_t0 = Stopwatch::NowNs();
  auto cols = std::make_shared<ScopedVec>(s.n * ck2 * ohow);
  {
    ScopedVec packed(s.n * ck2 * ohow);
    ConvForwardBody(s, x.data(), w.data(),
                    bias.defined() ? bias.data() : nullptr, cols->data(),
                    packed.data(), o->data.data());
  }
  {
    KernelMetrics& metrics = Conv2dMetrics();
    metrics.calls->Increment();
    metrics.fwd_flops->Add(conv_flops);
    metrics.fwd_ns->Add(Stopwatch::NowNs() - fwd_t0);
  }

  if (track) {
    auto ix = x.impl();
    auto iw = w.impl();
    auto ib = bias.defined() ? bias.impl() : std::shared_ptr<TensorImpl>();
    r.impl()->backward_fn = [o, ix, iw, ib, s, conv_flops, cols]() {
      ConvBackwardBody(s, conv_flops, o, ix.get(), iw.get(), ib.get(),
                       cols->data(), nullptr, nullptr, nullptr);
    };
  }
  return r;
}

namespace {

/// One LayerNorm forward sweep: writes the normalized-scaled output `po`
/// plus the xhat/inv_sigma row statistics the backward consumes.
void LayerNormBody(Index n, Index f, float eps, const float* px,
                   const float* pg, const float* pb, float* po, float* xhat,
                   float* inv_sigma) {
  for (Index i = 0; i < n; ++i) {
    const float* row = px + i * f;
    double mu = 0.0;
    for (Index j = 0; j < f; ++j) mu += row[j];
    mu /= static_cast<double>(f);
    double var = 0.0;
    for (Index j = 0; j < f; ++j) {
      const double d = row[j] - mu;
      var += d * d;
    }
    var /= static_cast<double>(f);
    const float is = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    inv_sigma[i] = is;
    for (Index j = 0; j < f; ++j) {
      const float xh = (row[j] - static_cast<float>(mu)) * is;
      xhat[i * f + j] = xh;
      po[i * f + j] = xh * pg[j] + pb[j];
    }
  }
}

}  // namespace

Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps) {
  CEWS_CHECK_GE(x.ndim(), 2);
  const Index n = x.dim(0);
  const Index f = x.numel() / n;
  CEWS_CHECK_EQ(gamma.numel(), f);
  CEWS_CHECK_EQ(beta.numel(), f);
  const bool rec = graph::Recording();
  Tensor r = NewResult(x.shape(), {x, gamma, beta});
  const bool track = Tracking(r);
  // Row statistics live in shared scratch the forward writes and the
  // backward reads: planner-managed (kSpan) in graph mode, workspace-backed
  // in eager mode.
  const BufLife stat_life = track ? BufLife::kSpan : BufLife::kFwd;
  auto xh = rec ? graph::AllocBuf(x.numel(), stat_life)
                : graph::LocalBuf(x.numel());
  auto is = rec ? graph::AllocBuf(n, stat_life) : graph::LocalBuf(n);
  auto fwd = [o = r.impl().get(), xi = x.impl().get(),
              gi = gamma.impl().get(), bi = beta.impl().get(), n, f, eps, xh,
              is]() {
    LayerNormBody(n, f, eps, xi->data.data(), gi->data.data(),
                  bi->data.data(), o->data.data(), xh->data(), is->data());
  };
  fwd();
  graph::Record(r, {x, gamma, beta}, fwd);
  if (track) {
    auto o = r.impl().get();
    auto ix = x.impl();
    auto ig = gamma.impl();
    auto ibt = beta.impl();
    r.impl()->backward_fn = [o, ix, ig, ibt, xh, is, n, f]() {
      if (ix->requires_grad) ix->EnsureGrad();
      if (ig->requires_grad) ig->EnsureGrad();
      if (ibt->requires_grad) ibt->EnsureGrad();
      const float* xhp = xh->data();
      const float* isp = is->data();
      for (Index i = 0; i < n; ++i) {
        const float* dy = o->grad.data() + i * f;
        const float* xr = xhp + i * f;
        if (ig->requires_grad || ibt->requires_grad) {
          for (Index j = 0; j < f; ++j) {
            if (ig->requires_grad) ig->grad[j] += dy[j] * xr[j];
            if (ibt->requires_grad) ibt->grad[j] += dy[j];
          }
        }
        if (ix->requires_grad) {
          // dx = (g - mean(g) - xhat * mean(g * xhat)) * inv_sigma,
          // where g = dy * gamma.
          double mean_g = 0.0, mean_gx = 0.0;
          for (Index j = 0; j < f; ++j) {
            const double gj = static_cast<double>(dy[j]) * ig->data[j];
            mean_g += gj;
            mean_gx += gj * xr[j];
          }
          mean_g /= static_cast<double>(f);
          mean_gx /= static_cast<double>(f);
          float* dx = ix->grad.data() + i * f;
          for (Index j = 0; j < f; ++j) {
            const double gj = static_cast<double>(dy[j]) * ig->data[j];
            dx[j] += static_cast<float>((gj - mean_g - xr[j] * mean_gx) *
                                        isp[i]);
          }
        }
      }
    };
  }
  return r;
}

Tensor EmbeddingLookup(const Tensor& table, const std::vector<Index>& ids) {
  CEWS_CHECK_EQ(table.ndim(), 2);
  const Index v = table.dim(0), d = table.dim(1);
  const Index n = static_cast<Index>(ids.size());
  Tensor r = NewResult({n, d}, {table});
  // The id list is captured by value: a recorded lookup replays the same
  // rows (graph callers run data-dependent lookups outside the recording).
  auto indices = std::make_shared<const std::vector<Index>>(ids);
  auto fwd = [o = r.impl().get(), ti = table.impl().get(), indices, v, d,
              n]() {
    const float* pt = ti->data.data();
    float* po = o->data.data();
    for (Index i = 0; i < n; ++i) {
      const Index id = (*indices)[static_cast<size_t>(i)];
      CEWS_CHECK_GE(id, 0);
      CEWS_CHECK_LT(id, v);
      const float* row = pt + id * d;
      for (Index j = 0; j < d; ++j) po[i * d + j] = row[j];
    }
  };
  fwd();
  graph::Record(r, {table}, fwd);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto it = table.impl();
    r.impl()->backward_fn = [o, it, indices, d]() {
      it->EnsureGrad();
      for (size_t i = 0; i < indices->size(); ++i) {
        for (Index j = 0; j < d; ++j) {
          it->grad[(*indices)[i] * d + j] +=
              o->grad[static_cast<Index>(i) * d + j];
        }
      }
    };
  }
  return r;
}

Tensor MseLoss(const Tensor& pred, const Tensor& target) {
  return Mean(Square(Sub(pred, target)));
}

Tensor Huber(const Tensor& x, float delta) {
  CEWS_CHECK(delta > 0.0f);
  return UnaryElementwise(
      x,
      [delta](float v) {
        const float a = std::abs(v);
        return a <= delta ? 0.5f * v * v : delta * (a - 0.5f * delta);
      },
      [delta](float v, float) {
        if (v > delta) return delta;
        if (v < -delta) return -delta;
        return v;
      });
}

Tensor HuberLoss(const Tensor& pred, const Tensor& target, float delta) {
  return Mean(Huber(Sub(pred, target), delta));
}

}  // namespace cews::nn
