// cews::nn::graph — compiled expression graphs over the op layer (ops.h).
//
// Every training loss (the PPO loss, the shared spatial-curiosity loss, the
// RND loss) runs through this module; every no-grad forward (acting, value
// bootstraps, evaluation, serving) runs the ops eagerly instead. A loss is
// recorded once per batch shape and replayed from then on, following
// marian's expression-graph design (Node with memoize_, graph-owned tensor
// allocation):
//
//  * Record/replay: between BeginRecording() and EndRecording(), every op
//    registers its forward thunk alongside the tensor it produced (the op
//    still executes eagerly, so the recording pass doubles as the first
//    forward). The finished CompiledGraph replays the whole forward DAG with
//    plain std::function calls — no node construction, no shape checks, no
//    per-op workspace bucket lookups.
//  * Placeholders: leaves the caller rewrites before each replay
//    (MarkPlaceholder). Everything else that is not a parameter is treated
//    as a constant.
//  * Memoization: steps whose transitive inputs are all constants are run
//    once at record time and skipped on every replay (marian's memoize_).
//  * Static memory planning: a liveness pass assigns every non-persistent
//    intermediate (activations and kernel scratch alike) a fixed offset in
//    one graph-owned arena, with first-fit slot sharing between
//    liveness-disjoint buffers. Replaces the per-op pow2-bucket workspace
//    on the hot path. The arena is its own anonymous memory mapping, so a
//    dropped graph returns it to the OS at once. Backward-only scratch is
//    not allocated until the planner binds it, and the recording pass's
//    own storage is freed once its values are copied into the arena.
//
// Equivalence contract: replayed forwards run the very thunks an eager op
// executes, and backward runs the very closures the tape records, in the
// same descending-creation order Tensor::Backward() uses. A compiled loss
// is therefore bitwise-identical to the same loss built on the tape —
// enforced by tests/nn_graph_test.cc, and end to end by the pinned
// final-parameter hashes of tests/agents_graph_equivalence_test.cc.
//
// Threading: recordings and CompiledGraphs are thread-confined, exactly like
// the tape (each employee thread compiles and replays its own graphs).
//
// Metrics (cews::obs): nn.graph.cache_hits / cache_misses (shape-signature
// cache, counted by callers via NoteCacheHit/Miss), nn.graph.plan_bytes
// (arena bytes planned, cumulative), nn.graph.calls (replays), and the
// nn.graph.peak_arena_bytes gauge (largest arena planned so far).
#ifndef CEWS_NN_GRAPH_H_
#define CEWS_NN_GRAPH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "nn/tensor.h"

namespace cews::nn::graph {

/// True while this thread is recording a graph.
bool Recording();

/// Lifetime class of a kernel scratch buffer relative to its op.
enum class BufLife {
  kFwd,   ///< Live only inside the forward thunk (packed GEMM panels).
  kSpan,  ///< Written by forward, read by the op's backward (im2col
          ///< columns, LayerNorm row statistics).
  kBwd,   ///< Live only inside the backward closure (gradient scratch).
};

/// Kernel scratch registered with the recording so the planner can fold it
/// into the arena. Before planning (and on the recording pass itself) the
/// storage is an owned workspace vector — except kBwd scratch, which owns
/// nothing and has a null data() until planning; after planning, `ptr`
/// points into the graph arena. Thunks capture the shared handle and call
/// data(); backward closures treat a null data() as "use workspace
/// scratch" (an abandoned recording's closures run that way).
struct OpBuf {
  std::vector<float> owned;
  float* ptr = nullptr;
  Index size = 0;
  BufLife life = BufLife::kFwd;
  std::shared_ptr<void> keepalive;  // arena pin once planned

  /// Recycles still-owned storage into the workspace (planned bufs own
  /// nothing by then).
  ~OpBuf();

  float* data() { return ptr; }
  const float* data() const { return ptr; }
};

/// Plain workspace-backed OpBuf outside any recording (eager ops that share
/// one scratch between their forward and backward closure).
std::shared_ptr<OpBuf> LocalBuf(Index n);

/// Registers `n` floats of scratch for the op currently being recorded, for
/// arena planning. kFwd/kSpan scratch is allocated (zero-filled) at once,
/// since the recording pass runs the forward; kBwd scratch is left
/// unallocated until Plan() binds it. CHECK-fails outside a recording —
/// eager ops use the workspace instead.
std::shared_ptr<OpBuf> AllocBuf(Index n, BufLife life);

/// Scratch registered so far by this thread's active recording, in
/// registration order (empty when idle). Diagnostics and tests.
std::vector<std::shared_ptr<const OpBuf>> RecordedBufs();

class CompiledGraph;
using GraphPtr = std::shared_ptr<CompiledGraph>;

/// Starts recording on this thread. CHECK-fails if one is active.
void BeginRecording();

/// Finishes the recording: runs memoization and liveness planning, binds
/// every planned buffer into the arena, and wires `root` (the scalar loss;
/// may be undefined for forward-only graphs) to delegate
/// Tensor::Backward() to the graph. The recording pass already executed
/// every op eagerly, so the returned graph's tensors hold valid outputs and
/// the first Backward() may run without another Forward().
GraphPtr EndRecording(const Tensor& root);

/// Discards the active recording (error paths); recorded tensors stay valid
/// plain tape tensors.
void AbandonRecording();

/// Marks a leaf the caller rewrites before each replay. Placeholders are
/// never memoized away.
void MarkPlaceholder(const Tensor& t);

/// Marks a recorded tensor as externally read between replays (loss terms a
/// caller reports, policy outputs a sampler consumes): its storage stays
/// resident instead of joining the arena slot-sharing.
void Retain(const Tensor& t);

/// Internal: registers one recorded op. `inputs` are all op inputs
/// (including non-tracked ones — liveness and memoization need them);
/// `fwd` recomputes out's data from its inputs' current data.
void RecordStep(const Tensor& out,
                std::vector<std::shared_ptr<TensorImpl>> inputs,
                std::function<void()> fwd);

/// Op-side hook: no-ops (without constructing a std::function) unless a
/// recording is active.
template <typename F>
inline void Record(const Tensor& out, std::initializer_list<Tensor> inputs,
                   F&& fwd) {
  if (!Recording()) return;
  std::vector<std::shared_ptr<TensorImpl>> ins;
  ins.reserve(inputs.size());
  for (const Tensor& t : inputs) {
    if (t.defined()) ins.push_back(t.impl());
  }
  RecordStep(out, std::move(ins), std::function<void()>(std::forward<F>(fwd)));
}

/// Shape-signature cache accounting (callers own their caches; these feed
/// the shared nn.graph.cache_* counters).
void NoteCacheHit();
void NoteCacheMiss();

/// A finished recording: the forward step list, the planned arena, and the
/// backward schedule. Thread-confined, like the tape.
class CompiledGraph {
 public:
  ~CompiledGraph();

  /// Replays the forward pass: runs every non-memoized forward thunk in
  /// creation order against the current placeholder/parameter data.
  void Forward();

  /// Runs backward from the root: zeroes interior gradients, seeds the
  /// root, and runs the recorded closures in descending creation order.
  /// Leaf (parameter) gradients accumulate across calls, exactly like the
  /// tape. CHECK-fails on a second Backward() without an intervening
  /// Forward(), and on forward-only graphs.
  void Backward();

  const Tensor& root() const { return root_; }

  /// Planned arena footprint in bytes (slot-shared intermediates+scratch).
  Index arena_bytes() const;
  /// Bytes of step outputs pinned resident (retained, memoized, root).
  Index persistent_bytes() const;

  int num_steps() const { return static_cast<int>(steps_.size()); }
  int num_memoized() const { return num_memoized_; }

 private:
  friend void BeginRecording();
  friend GraphPtr EndRecording(const Tensor& root);
  friend void AbandonRecording();
  friend void MarkPlaceholder(const Tensor& t);
  friend void Retain(const Tensor& t);
  friend void RecordStep(const Tensor&,
                         std::vector<std::shared_ptr<TensorImpl>>,
                         std::function<void()>);
  friend std::shared_ptr<OpBuf> AllocBuf(Index n, BufLife life);
  friend std::vector<std::shared_ptr<const OpBuf>> RecordedBufs();

  struct Step {
    std::shared_ptr<TensorImpl> out;
    std::function<void()> fwd;
    std::vector<std::shared_ptr<TensorImpl>> inputs;
    std::vector<std::shared_ptr<OpBuf>> bufs;
    bool retained = false;    // externally read between replays
    bool memoized = false;    // constant subgraph: run once, skip on replay
    bool persistent = false;  // data stays owned/resident, never arena-shared
    bool reachable = false;   // on a tape path from the root
  };

  CompiledGraph() = default;
  void Finalize(const Tensor& root);
  void Plan();

  std::vector<Step> steps_;
  std::vector<std::shared_ptr<OpBuf>> pending_bufs_;  // recording only
  Tensor root_;
  std::shared_ptr<float> arena_;  // anonymous mapping, see MapArena
  Index arena_floats_ = 0;
  Index persistent_floats_ = 0;
  int num_memoized_ = 0;
  bool fwd_since_bwd_ = false;
};

}  // namespace cews::nn::graph

#endif  // CEWS_NN_GRAPH_H_
