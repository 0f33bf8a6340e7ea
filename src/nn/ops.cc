#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <type_traits>
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
// Transient buffers (conv staging copies, packed panels, gradient scratch)
// and op outputs come from the per-thread workspace arena
// (nn/workspace.h) in eager mode, so a steady-state training step recycles
// every one of them instead of hitting the allocator; in graph mode they are
// graph::OpBufs the planner folds into the arena.
// ---------------------------------------------------------------------------

using gemm::ParallelKernel;
using gemm::Walk;
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

// Conv2d lowering. The batch is copied once into a zero-padded staging
// layout [n, c, hp, wp]; every im2col entry is then one load at tap offset
// + pixel offset with no bounds test, so the GEMM panels are gathered
// straight from the staging copy and no column matrix exists. The staging
// copy is what the backward keeps for dW. Every output element keeps the
// fmaf sequence of the plain im2col product (a padding tap multiplies a
// staged 0.0f where im2col wrote one): forward = bias, then l ascending;
// dW = one fresh j-ascending dot per image, images added in order; dX = oc
// ascending, folded back in (ic, ky, kx, y, x) order. Parallel units are
// images or 32-column tiles, each with a fixed output, so results are
// bitwise identical at any thread count.

void StageConvInput(const ConvShape& s, const float* x, float* stg) {
  const Index hp = s.hp(), wp = s.wp(), staged = s.staged_image();
  ParallelKernel(s.n, staged, [&](Index n0, Index n1) {
    std::fill(stg + n0 * staged, stg + n1 * staged, 0.0f);
    for (Index row = n0 * s.c * s.h; row < n1 * s.c * s.h; ++row) {
      std::copy(x + row * s.w, x + (row + 1) * s.w,
                stg + (row / s.h * hp + row % s.h + s.padding) * wp +
                    s.padding);
    }
  });
}

void ScatterConvCols(const ConvShape& s, const float* cm, Index ldc, Index c0,
                     Index c1, float* y) {
  const Index ohow = s.ohow();
  for (Index c = c0; c < c1;) {  // one image's run of columns at a time
    const Index in = c / ohow, q = c % ohow;
    const Index len = std::min(c1 - c, ohow - q);
    for (Index io = 0; io < s.oc; ++io) {
      const float* src = cm + io * ldc + (c - c0);
      std::copy(src, src + len, y + (in * s.oc + io) * ohow + q);
    }
    c += len;
  }
}

namespace {

/// Output positions [first, second) along one axis whose tap at kernel
/// offset k lands inside the unpadded input [0, size).
std::pair<Index, Index> TapRange(Index out, Index size, int stride,
                                 int padding, Index k) {
  const Index shift = padding - k;  // input = o * stride - shift
  const Index lo = shift > 0 ? (shift + stride - 1) / stride : 0;
  const Index hi = size + shift > 0 ? (size - 1 + shift) / stride + 1 : 0;
  return {lo, std::max(lo, std::min(out, hi))};
}

/// The op's scratch: planner slabs in graph mode. Eagerly only the staging
/// copy is held; Scratch takes the rest, and an abandoned recording's
/// unbound backward slabs, from the workspace.
struct ConvBufs {
  std::shared_ptr<OpBuf> stg, panel, cm, packt, packdy, dcols;
};
struct Scratch {
  Scratch(const std::shared_ptr<OpBuf>& planned, Index n)
      : ptr(planned ? planned->data() : nullptr), local(ptr ? 0 : n) {
    if (ptr == nullptr) ptr = local.data();
  }
  float* ptr;
  ScopedVec local;
};

/// The forward product: stage x, then per run of 32-column tiles gather the
/// [ck2, n*ohow] panel, preset C [oc, n*ohow] to the bias, run NNRows over
/// every output channel and scatter C to NCHW. Every buffer is fully
/// overwritten.
void ConvForwardBody(const ConvShape& s, const float* px, const float* pw,
                     const float* pbias, const ConvBufs& b, float* po) {
  const Index ck2 = s.ck2(), ohow = s.ohow(), cols = s.n * ohow;
  float* stg = b.stg->data();
  StageConvInput(s, px, stg);
  Scratch panel(b.panel, ck2 * cols), cm(b.cm, s.oc * cols);
  const Index tiles = (cols + gemm::kNr - 1) / gemm::kNr;
  ParallelKernel(tiles, 2 * s.oc * ck2 * gemm::kNr, [&](Index t0, Index t1) {
    const Index c0 = t0 * gemm::kNr, c1 = std::min(cols, t1 * gemm::kNr);
    for (Index c = c0; c < c1; c += gemm::kNr) {
      gemm::PackTile(stg, s.Taps(), s.Pixels(s.n), c,
                     std::min(gemm::kNr, c1 - c), panel.ptr + ck2 * c);
    }
    for (Index io = 0; io < s.oc; ++io) {
      std::fill(cm.ptr + io * cols + c0, cm.ptr + io * cols + c1,
                pbias != nullptr ? pbias[io] : 0.0f);
    }
    gemm::NNRows(0, s.oc, c1 - c0, ck2, pw, ck2, 1, panel.ptr + ck2 * c0,
                 cm.ptr + c0, cols);
    ScatterConvCols(s, cm.ptr + c0, cols, c0, c1, po);
  });
}

/// The dW/db/dX backward products, reading the forward's staging copy.
void ConvBackwardBody(const ConvShape& s, uint64_t conv_flops, TensorImpl* o,
                      TensorImpl* ix, TensorImpl* iw, TensorImpl* ib,
                      const ConvBufs& b) {
  CEWS_TRACE_SCOPE("nn.Conv2d.bwd");
  const Index ck2 = s.ck2(), ohow = s.ohow(), cols = s.n * ohow;
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
  // images accumulated in ascending order) and db = sum over pixels. Each
  // image's transposed panel is gathered pixel-outer (contiguous writes);
  // the products are partitioned over output channels, so each dW row / db
  // entry has one owner.
  if (need_dw || need_db) {
    if (need_dw) bwd_flops += conv_flops;
    float* gw = need_dw ? iw->grad.data() : nullptr;
    float* gb = need_db ? ib->grad.data() : nullptr;
    Scratch packt(b.packt, need_dw ? s.n * ck2 * ohow : 0);
    if (need_dw) {
      ParallelKernel(s.n, ck2 * ohow, [&](Index n0, Index n1) {
        for (Index in = n0; in < n1; ++in) {
          for (Index l0 = 0; l0 < ck2; l0 += gemm::kNr) {
            gemm::PackTile(b.stg->data() + in * s.staged_image(),
                           s.Pixels(1), s.Taps(), l0,
                           std::min(gemm::kNr, ck2 - l0),
                           packt.ptr + (in * ck2 + l0) * ohow);
          }
        }
      });
    }
    ParallelKernel(s.oc, 2 * s.n * ck2 * ohow, [&](Index o0, Index o1) {
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
                     packt.ptr + in * ck2 * ohow, gw, ck2);
      }
    });
  }

  // dX = col2im(W^T * dY): one NN product over the whole batch's columns
  // (dcols rows accumulate channel-ascending from zero) partitioned by
  // 32-column tile, then folded into gx one image per parallel index, in
  // (ic, ky, kx, y, x) order; the tap ranges skip exactly the padding taps,
  // so the inner loop has no branch.
  if (need_dx) {
    bwd_flops += conv_flops;
    const float* pw = iw->data.data();
    Scratch packdy(b.packdy, s.oc * cols), dcols(b.dcols, ck2 * cols);
    const Walk channels{{1, 1, s.oc}, {0, 0, ohow}};
    const Walk columns{{s.n, 1, ohow}, {s.oc * ohow, 0, 1}};
    const Index tiles = (cols + gemm::kNr - 1) / gemm::kNr;
    ParallelKernel(tiles, 2 * s.oc * ck2 * gemm::kNr, [&](Index t0,
                                                            Index t1) {
      const Index c0 = t0 * gemm::kNr, c1 = std::min(cols, t1 * gemm::kNr);
      for (Index c = c0; c < c1; c += gemm::kNr) {
        gemm::PackTile(og, channels, columns, c, std::min(gemm::kNr, c1 - c),
                       packdy.ptr + s.oc * c);
      }
      for (Index l = 0; l < ck2; ++l) {
        std::fill(dcols.ptr + l * cols + c0, dcols.ptr + l * cols + c1, 0.0f);
      }
      gemm::NNRows(0, ck2, c1 - c0, s.oc, pw, 1, ck2, packdy.ptr + s.oc * c0,
                   dcols.ptr + c0, cols);
    });
    float* gx = ix->grad.data();
    ParallelKernel(s.n, 2 * ck2 * ohow, [&](Index n0, Index n1) {
      for (Index in = n0; in < n1; ++in) {
        const float* row = dcols.ptr + in * ohow;
        for (Index l = 0; l < ck2; ++l, row += cols) {
          const Index kx = l % s.kw, ky = l / s.kw % s.kh;
          const auto [y0, y1] = TapRange(s.oh, s.h, s.stride, s.padding, ky);
          const auto [x0, x1] = TapRange(s.ow, s.w, s.stride, s.padding, kx);
          // gx offset of pixel (0, 0)'s tap, only read inside the ranges.
          const Index base = ((in * s.c + l / (s.kw * s.kh)) * s.h + ky -
                              s.padding) * s.w + kx - s.padding;
          for (Index y = y0; y < y1; ++y) {
            for (Index x = x0; x < x1; ++x) {
              gx[base + (y * s.w + x) * s.stride] += row[y * s.ow + x];
            }
          }
        }
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
  const Index ck2 = s.ck2(), cols = s.n * s.ohow();

  // FLOPs of one batched im2col product: multiply + add per (image, output
  // channel, patch row, output pixel). Forward and each backward product
  // share this cost.
  const uint64_t conv_flops =
      2ull * static_cast<uint64_t>(s.oc * ck2 * cols);

  const bool rec = graph::Recording();
  Tensor r = NewResult({s.n, s.oc, s.oh, s.ow}, {x, w, bias});
  const bool track = Tracking(r);
  TensorImpl* o = r.impl().get();
  TensorImpl* xi = x.impl().get();
  TensorImpl* wi = w.impl().get();
  TensorImpl* bi = bias.defined() ? bias.impl().get() : nullptr;
  const bool need_dw = track && wi->requires_grad;
  const bool need_dx = track && xi->requires_grad;

  // Graph mode plans all scratch; the staging copy is kSpan when the
  // backward reads it for dW.
  auto b = std::make_shared<ConvBufs>();
  auto plan = [rec](bool needed, Index n, BufLife life) {
    return rec && needed ? graph::AllocBuf(n, life) : nullptr;
  };
  b->stg = rec ? plan(true, s.n * s.staged_image(),
                      need_dw ? BufLife::kSpan : BufLife::kFwd)
               : graph::LocalBuf(s.n * s.staged_image());
  b->panel = plan(true, ck2 * cols, BufLife::kFwd);
  b->cm = plan(true, s.oc * cols, BufLife::kFwd);
  b->packt = plan(need_dw, ck2 * cols, BufLife::kBwd);
  b->packdy = plan(need_dx, s.oc * cols, BufLife::kBwd);
  b->dcols = plan(need_dx, ck2 * cols, BufLife::kBwd);

  auto fwd = [o, xi, wi, bi, s, conv_flops, b]() {
    CEWS_TRACE_SCOPE("nn.Conv2d");
    const uint64_t t0 = Stopwatch::NowNs();
    ConvForwardBody(s, xi->data.data(), wi->data.data(),
                    bi != nullptr ? bi->data.data() : nullptr, *b,
                    o->data.data());
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
    r.impl()->backward_fn = [o, ix, iw, ib, s, conv_flops, b]() {
      ConvBackwardBody(s, conv_flops, o, ix.get(), iw.get(), ib.get(), *b);
    };
  }
  return r;
}

namespace {

/// Calls fn(i, rows) over [0, n) in row groups of kLayerNormRowGroup, then
/// 4, 2 and 1 for the tail, with the group size a compile-time constant.
template <typename Fn>
void ForRowGroups(Index n, Fn&& fn) {
  Index i = 0;
  for (; i + kLayerNormRowGroup <= n; i += kLayerNormRowGroup) {
    fn(i, std::integral_constant<int, kLayerNormRowGroup>{});
  }
  if (n - i >= 4) fn(i, std::integral_constant<int, 4>{}), i += 4;
  if (n - i >= 2) fn(i, std::integral_constant<int, 2>{}), i += 2;
  if (n - i >= 1) fn(i, std::integral_constant<int, 1>{});
}

/// Mean and variance of G rows of f floats: each row's sums are its own
/// sequential double chains in element order, G chains interleaved.
template <int G>
void RowStats(Index f, const float* x, double* mu, double* var) {
  double sum[G] = {};
  for (Index j = 0; j < f; ++j) {
    for (int r = 0; r < G; ++r) sum[r] += x[r * f + j];
  }
  for (int r = 0; r < G; ++r) mu[r] = sum[r] / static_cast<double>(f);
  double sq[G] = {};
  for (Index j = 0; j < f; ++j) {
    for (int r = 0; r < G; ++r) {
      const double d = x[r * f + j] - mu[r];
      sq[r] += d * d;
    }
  }
  for (int r = 0; r < G; ++r) var[r] = sq[r] / static_cast<double>(f);
}

/// The backward's per-row means of g = dy * gamma and g * xhat over G rows,
/// chained like RowStats.
template <int G>
void GradStats(Index f, const float* dy, const float* gamma, const float* xh,
               double* mean_g, double* mean_gx) {
  double sg[G] = {}, sgx[G] = {};
  for (Index j = 0; j < f; ++j) {
    for (int r = 0; r < G; ++r) {
      const double gj = static_cast<double>(dy[r * f + j]) * gamma[j];
      sg[r] += gj;
      sgx[r] += gj * xh[r * f + j];
    }
  }
  for (int r = 0; r < G; ++r) {
    mean_g[r] = sg[r] / static_cast<double>(f);
    mean_gx[r] = sgx[r] / static_cast<double>(f);
  }
}

}  // namespace

void LayerNormBody(Index n, Index f, float eps, const float* px,
                   const float* pg, const float* pb, float* po, float* xhat,
                   float* inv_sigma) {
  ForRowGroups(n, [&](Index i0, auto rows) {
    double mu[rows], var[rows];
    RowStats<rows>(f, px + i0 * f, mu, var);
    for (Index i = i0; i < i0 + rows; ++i) {
      const float* row = px + i * f;
      const float m = static_cast<float>(mu[i - i0]);
      const float is =
          1.0f / std::sqrt(static_cast<float>(var[i - i0]) + eps);
      inv_sigma[i] = is;
      for (Index j = 0; j < f; ++j) {
        const float xh = (row[j] - m) * is;
        xhat[i * f + j] = xh;
        po[i * f + j] = xh * pg[j] + pb[j];
      }
    }
  });
}

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
      const float* xhp = xh->data();
      const float* isp = is->data();
      const float* og = o->grad.data();
      if (ig->requires_grad) {
        ig->EnsureGrad();
        float* gg = ig->grad.data();
        for (Index i = 0; i < n; ++i) {
          const float* dy = og + i * f;
          const float* xr = xhp + i * f;
          for (Index j = 0; j < f; ++j) gg[j] += dy[j] * xr[j];
        }
      }
      if (ibt->requires_grad) {
        ibt->EnsureGrad();
        float* gb = ibt->grad.data();
        for (Index i = 0; i < n; ++i) {
          const float* dy = og + i * f;
          for (Index j = 0; j < f; ++j) gb[j] += dy[j];
        }
      }
      if (!ix->requires_grad) return;
      // dx = (g - mean(g) - xhat * mean(g * xhat)) * inv_sigma,
      // where g = dy * gamma.
      ix->EnsureGrad();
      const float* gamma = ig->data.data();
      ForRowGroups(n, [&](Index i0, auto rows) {
        double mean_g[rows], mean_gx[rows];
        GradStats<rows>(f, og + i0 * f, gamma, xhp + i0 * f, mean_g, mean_gx);
        for (Index i = i0; i < i0 + rows; ++i) {
          const float* dy = og + i * f;
          const float* xr = xhp + i * f;
          float* dx = ix->grad.data() + i * f;
          const double mg = mean_g[i - i0], mgx = mean_gx[i - i0];
          for (Index j = 0; j < f; ++j) {
            const double gj = static_cast<double>(dy[j]) * gamma[j];
            dx[j] += static_cast<float>((gj - mg - xr[j] * mgx) * isp[i]);
          }
        }
      });
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
