#include "nn/graph.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include <sys/mman.h>

#include "common/check.h"
#include "nn/workspace.h"
#include "obs/metrics.h"

namespace cews::nn::graph {

namespace {

// The recording under construction on this thread (nullptr when idle).
// Thread-confined by design, mirroring the tape's thread-local grad mode.
thread_local GraphPtr g_recording;
// Output-impl -> step index for the active recording (Retain and
// duplicate-output detection).
thread_local std::unordered_map<TensorImpl*, int> g_step_of;

// Arena offsets are aligned to 16 floats (64 bytes) so planner slots keep
// the cache-line/SIMD alignment the kernels expect from fresh vectors.
constexpr Index kAlignFloats = 16;

Index AlignUp(Index v) {
  return (v + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

/// A graph arena is one large block that lives as long as its graph. It
/// gets its own zero-filled anonymous mapping instead of a heap block, so
/// dropping a graph returns the memory to the OS at once: a heap block of
/// that size would fall under glibc's adaptive mmap threshold after the
/// first one is freed, and the holes it leaves keep the process's resident
/// size at the high-water mark of the largest recording.
std::shared_ptr<float> MapArena(Index floats) {
  const size_t bytes = static_cast<size_t>(floats) * sizeof(float);
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CEWS_CHECK(p != MAP_FAILED) << "mapping a " << bytes << "-byte graph arena";
  return std::shared_ptr<float>(static_cast<float*>(p),
                                [bytes](float* q) { munmap(q, bytes); });
}

obs::Counter* CacheHits() {
  static obs::Counter* const c = obs::GetCounter("nn.graph.cache_hits");
  return c;
}
obs::Counter* CacheMisses() {
  static obs::Counter* const c = obs::GetCounter("nn.graph.cache_misses");
  return c;
}

}  // namespace

bool Recording() { return g_recording != nullptr; }

void NoteCacheHit() { CacheHits()->Increment(); }
void NoteCacheMiss() { CacheMisses()->Increment(); }

OpBuf::~OpBuf() { Workspace::Recycle(std::move(owned)); }

std::shared_ptr<OpBuf> LocalBuf(Index n) {
  auto buf = std::make_shared<OpBuf>();
  buf->owned = Workspace::AcquireVec(n);
  buf->ptr = buf->owned.data();
  buf->size = n;
  return buf;
}

std::shared_ptr<OpBuf> AllocBuf(Index n, BufLife life) {
  CEWS_CHECK(g_recording != nullptr)
      << "AllocBuf outside a graph recording; eager ops use the workspace";
  auto buf = std::make_shared<OpBuf>();
  // Backward-only scratch is first touched after Plan() binds it into the
  // arena; allocating it here would only raise the recording's high-water
  // mark.
  if (life != BufLife::kBwd) {
    buf->owned = Workspace::AcquireVec(n);
    buf->ptr = buf->owned.data();
  }
  buf->size = n;
  buf->life = life;
  g_recording->pending_bufs_.push_back(buf);
  return buf;
}

std::vector<std::shared_ptr<const OpBuf>> RecordedBufs() {
  std::vector<std::shared_ptr<const OpBuf>> out;
  if (g_recording == nullptr) return out;
  for (const CompiledGraph::Step& s : g_recording->steps_) {
    out.insert(out.end(), s.bufs.begin(), s.bufs.end());
  }
  out.insert(out.end(), g_recording->pending_bufs_.begin(),
             g_recording->pending_bufs_.end());
  return out;
}

void BeginRecording() {
  CEWS_CHECK(g_recording == nullptr)
      << "nested graph recordings are not supported";
  g_recording = GraphPtr(new CompiledGraph());
  g_step_of.clear();
}

void AbandonRecording() {
  g_recording.reset();
  g_step_of.clear();
}

void MarkPlaceholder(const Tensor& t) {
  CEWS_CHECK(t.defined());
  t.impl()->placeholder = true;
}

void Retain(const Tensor& t) {
  CEWS_CHECK(g_recording != nullptr) << "Retain outside a graph recording";
  CEWS_CHECK(t.defined());
  auto it = g_step_of.find(t.impl().get());
  // Leaves are always owned storage; nothing to pin.
  if (it == g_step_of.end()) return;
  g_recording->steps_[static_cast<size_t>(it->second)].retained = true;
}

void RecordStep(const Tensor& out,
                std::vector<std::shared_ptr<TensorImpl>> inputs,
                std::function<void()> fwd) {
  CEWS_CHECK(g_recording != nullptr);
  CEWS_CHECK(out.defined());
  CEWS_CHECK(fwd != nullptr);
  TensorImpl* key = out.impl().get();
  CEWS_CHECK(g_step_of.find(key) == g_step_of.end())
      << "tensor recorded as the output of two steps";
  CompiledGraph::Step step;
  step.out = out.impl();
  step.inputs = std::move(inputs);
  step.fwd = std::move(fwd);
  step.bufs = std::move(g_recording->pending_bufs_);
  g_recording->pending_bufs_.clear();
  g_step_of.emplace(key, static_cast<int>(g_recording->steps_.size()));
  g_recording->steps_.push_back(std::move(step));
}

GraphPtr EndRecording(const Tensor& root) {
  CEWS_CHECK(g_recording != nullptr) << "EndRecording without BeginRecording";
  CEWS_CHECK(g_recording->pending_bufs_.empty())
      << "scratch allocated but never attached to a recorded step";
  GraphPtr graph = std::move(g_recording);
  g_recording.reset();
  g_step_of.clear();
  graph->Finalize(root);
  return graph;
}

CompiledGraph::~CompiledGraph() {
  // The root's delegation pointer is non-owning; sever it so a root tensor
  // outliving its graph falls back to tape-rule CHECKs on Backward instead
  // of dereferencing freed memory.
  if (root_.defined() && root_.impl()->graph_exec == this) {
    root_.impl()->graph_exec = nullptr;
  }
}

void CompiledGraph::Finalize(const Tensor& root) {
  root_ = root;
  const int n = static_cast<int>(steps_.size());

  // Output-impl -> step index (g_step_of is cleared by now).
  std::unordered_map<TensorImpl*, int> sidx;
  sidx.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) sidx.emplace(steps_[i].out.get(), i);

  // --- Reachability: which steps lie on a tape path from the root. Only
  // their closures run in Backward(), and only their grads are re-zeroed
  // per call — exactly the set a tape Backward() from this root touches.
  if (root_.defined()) {
    CEWS_CHECK_EQ(root_.numel(), 1) << "graph root must be a scalar loss";
    std::unordered_set<TensorImpl*> visited;
    std::vector<TensorImpl*> stack{root_.impl().get()};
    visited.insert(root_.impl().get());
    while (!stack.empty()) {
      TensorImpl* node = stack.back();
      stack.pop_back();
      auto it = sidx.find(node);
      if (it != sidx.end()) steps_[static_cast<size_t>(it->second)].reachable = true;
      for (const auto& parent : node->parents) {
        if (visited.insert(parent.get()).second) stack.push_back(parent.get());
      }
    }
  }

  // --- Memoization (marian's memoize_): a step is constant when it has no
  // backward closure and every input is either a constant leaf (not a
  // parameter, not a placeholder) or itself memoized. Constant subgraphs —
  // e.g. the frozen RND target net's normalization constants — ran once at
  // record time and are skipped on every replay.
  for (int i = 0; i < n; ++i) {
    Step& s = steps_[static_cast<size_t>(i)];
    if (s.out->backward_fn) continue;
    bool constant = true;
    for (const auto& in : s.inputs) {
      auto it = sidx.find(in.get());
      if (it != sidx.end()) {
        constant = constant && steps_[static_cast<size_t>(it->second)].memoized;
      } else {
        constant = constant && !in->requires_grad && !in->placeholder;
      }
      if (!constant) break;
    }
    if (constant) {
      s.memoized = true;
      ++num_memoized_;
    }
  }

  // --- Persistence: memoized values and retained outputs keep their own
  // storage; so does the root (callers read the loss between replays).
  if (root_.defined()) {
    auto it = sidx.find(root_.impl().get());
    if (it != sidx.end()) {
      steps_[static_cast<size_t>(it->second)].retained = true;
    }
  }
  for (Step& s : steps_) {
    s.persistent = s.memoized || s.retained;
    if (s.persistent) {
      persistent_floats_ += static_cast<Index>(s.out->data.size());
    }
  }

  Plan();

  // The recording pass executed every op eagerly, so outputs are already
  // valid: the first Backward() needs no fresh Forward().
  fwd_since_bwd_ = true;

  if (root_.defined()) root_.impl()->graph_exec = this;
}

// Static memory planning: on a timeline of forward times F(i) = i followed
// by backward times B(i) (descending creation order, matching the
// executor), give every non-persistent buffer its liveness interval and
// first-fit pack them into one arena with slot sharing between
// liveness-disjoint buffers. Owned trace values are copied into their slots
// in creation order, which is safe because any slot content that survives
// to its first post-trace read is written last (later-created items copy
// later), and everything else is rewritten before being read.
void CompiledGraph::Plan() {
  const int n = static_cast<int>(steps_.size());
  if (n == 0) return;

  std::unordered_map<TensorImpl*, int> sidx;
  sidx.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) sidx.emplace(steps_[i].out.get(), i);

  std::vector<std::vector<int>> consumers(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (const auto& in : steps_[static_cast<size_t>(i)].inputs) {
      auto it = sidx.find(in.get());
      if (it != sidx.end()) consumers[static_cast<size_t>(it->second)].push_back(i);
    }
  }

  auto backward_time = [n](int i) { return 2 * n - 1 - i; };
  auto runs_backward = [&](int i) {
    const Step& s = steps_[static_cast<size_t>(i)];
    return s.reachable && s.out->backward_fn != nullptr;
  };

  struct Item {
    Index size = 0;
    int created = 0;
    bool copy = false;  // trace value must survive into the slot
    int start = 0, end = 0;  // inclusive liveness interval
    TensorImpl* impl = nullptr;
    OpBuf* buf = nullptr;
    Index offset = 0;
  };
  std::vector<Item> items;

  for (int i = 0; i < n; ++i) {
    Step& s = steps_[static_cast<size_t>(i)];
    const int bi = backward_time(i);
    const bool bwd = runs_backward(i);

    if (!s.persistent && !s.out->data.empty()) {
      // Live from this step's own compute through every consumer's forward
      // and through the last backward closure that reads it.
      int end = i;
      for (int j : consumers[static_cast<size_t>(i)]) {
        end = std::max(end, j);
        if (runs_backward(j)) end = std::max(end, backward_time(j));
      }
      if (bwd) end = std::max(end, bi);
      Item item;
      item.size = static_cast<Index>(s.out->data.size());
      item.created = i;
      item.impl = s.out.get();
      item.start = i;
      item.end = end;
      item.copy = true;
      items.push_back(item);
    }

    for (const auto& buf : s.bufs) {
      Item item;
      item.size = buf->size;
      item.created = i;
      item.buf = buf.get();
      switch (buf->life) {
        case BufLife::kFwd:
          item.start = item.end = i;
          break;
        case BufLife::kSpan:
          item.start = i;
          item.end = bwd ? bi : i;
          item.copy = bwd;  // forward-written values read by backward
          break;
        case BufLife::kBwd:
          item.start = item.end = bi;
          break;
      }
      items.push_back(item);
    }
  }

  if (items.empty()) return;

  auto time_overlap = [](const Item& a, const Item& b) {
    return a.start <= b.end && b.start <= a.end;
  };

  // First-fit decreasing: place big buffers first, each at the lowest
  // aligned offset clear of every time-overlapping placed item.
  std::vector<Item*> order;
  order.reserve(items.size());
  for (Item& it : items) order.push_back(&it);
  std::sort(order.begin(), order.end(), [](const Item* a, const Item* b) {
    if (a->size != b->size) return a->size > b->size;
    return a->created < b->created;
  });

  Index total = 0;
  std::vector<Item*> placed;
  std::vector<std::pair<Index, Index>> blocked;  // [offset, end) of rivals
  for (Item* item : order) {
    blocked.clear();
    for (Item* p : placed) {
      if (time_overlap(*item, *p)) {
        blocked.push_back({p->offset, p->offset + p->size});
      }
    }
    std::sort(blocked.begin(), blocked.end());
    Index cand = 0;
    for (const auto& range : blocked) {
      if (cand + item->size <= range.first) break;
      cand = std::max(cand, range.second);
      cand = AlignUp(cand);
    }
    item->offset = cand;
    total = std::max(total, cand + item->size);
    placed.push_back(item);
  }

  if (total == 0) return;
  arena_ = MapArena(total);
  arena_floats_ = total;
  float* base = arena_.get();

  // Bind in creation order (items was built in creation order): where two
  // items share a slot, the later-created one's copy lands last, and it is
  // exactly the one whose value may still be read first after the trace.
  // The recording pass's storage is freed, not recycled: a compiled graph
  // never draws on the workspace again, so parking it in the freelists
  // would only pin the recording's high-water mark for the thread's life.
  for (Item& item : items) {
    float* slot = base + item.offset;
    if (item.impl != nullptr) {
      if (item.copy && item.size > 0) {
        std::memcpy(slot, item.impl->data.data(),
                    static_cast<size_t>(item.size) * sizeof(float));
      }
      item.impl->data.BindExternal(slot, static_cast<size_t>(item.size),
                                   arena_);
    } else {
      if (item.copy && item.size > 0) {
        std::memcpy(slot, item.buf->owned.data(),
                    static_cast<size_t>(item.size) * sizeof(float));
      }
      std::vector<float>().swap(item.buf->owned);
      item.buf->ptr = slot;
      item.buf->keepalive = arena_;
    }
  }

  const Index bytes = total * static_cast<Index>(sizeof(float));
  static obs::Counter* const plan_bytes = obs::GetCounter("nn.graph.plan_bytes");
  plan_bytes->Add(static_cast<uint64_t>(bytes));
  static obs::Gauge* const peak = obs::GetGauge("nn.graph.peak_arena_bytes");
  if (static_cast<double>(bytes) > peak->Get()) {
    peak->Set(static_cast<double>(bytes));
  }
}

void CompiledGraph::Forward() {
  static obs::Counter* const calls = obs::GetCounter("nn.graph.calls");
  for (Step& s : steps_) {
    if (!s.memoized) s.fwd();
  }
  fwd_since_bwd_ = true;
  calls->Increment();
}

void CompiledGraph::Backward() {
  CEWS_CHECK(root_.defined()) << "Backward() on a forward-only graph";
  CEWS_CHECK(fwd_since_bwd_)
      << "double Backward() on the same compiled forward: replay Forward() "
         "with fresh inputs first (gradients would double-accumulate)";
  fwd_since_bwd_ = false;

  // Interior grads persist across replays; zero the ones this backward will
  // touch so accumulation starts from scratch, exactly like the tape's
  // freshly allocated interiors. Leaf/parameter grads are left alone — they
  // accumulate across minibatches until the optimizer clears them.
  for (Step& s : steps_) {
    if (s.reachable && !s.out->grad.empty()) {
      std::fill(s.out->grad.begin(), s.out->grad.end(), 0.0f);
    }
  }
  TensorImpl* root = root_.impl().get();
  root->EnsureGrad();
  std::fill(root->grad.begin(), root->grad.end(), 0.0f);
  root->grad[0] += 1.0f;

  // Descending creation order: the tape's canonical backward order, node
  // for node.
  for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
    if (it->reachable && it->out->backward_fn) it->out->backward_fn();
  }
}

Index CompiledGraph::arena_bytes() const {
  return arena_floats_ * static_cast<Index>(sizeof(float));
}

Index CompiledGraph::persistent_bytes() const {
  return persistent_floats_ * static_cast<Index>(sizeof(float));
}

}  // namespace cews::nn::graph
