// The spatial curiosity model (Section V-C, Algorithm 3): predicts the
// feature embedding of a worker's next position from its current position
// feature and route-planning decision; the prediction error is the
// intrinsic reward r^int = eta * Loss^f (Eqns 15-17).
//
// Implements all four feature/structure combinations evaluated in Fig. 4:
//   {shared, independent} x {embedding, direct}.
// "Embedding" is a *static* randomly-initialized (frozen) embedding of grid
// cells (Burda et al.'s finding that random features are stable);
// "direct" scales the raw position into (0, 1)^2. "Shared" uses one forward
// model for every worker; "independent" trains one per worker.
#ifndef CEWS_AGENTS_CURIOSITY_H_
#define CEWS_AGENTS_CURIOSITY_H_

#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/graph.h"
#include "nn/module.h"

namespace cews::agents {

/// Position representation fed to the forward model.
enum class CuriosityFeature { kEmbedding, kDirect };
/// One forward model for all workers, or one per worker.
enum class CuriosityStructure { kShared, kIndependent };

/// Hyperparameters of the spatial curiosity model.
struct CuriosityConfig {
  CuriosityFeature feature = CuriosityFeature::kEmbedding;
  CuriosityStructure structure = CuriosityStructure::kShared;
  /// Intrinsic-reward scale eta (Eqn 17); paper uses 0.3.
  float eta = 0.3f;
  /// Dimension of the static spatial embedding (paper: 8).
  int embed_dim = 8;
  /// Hidden width of the forward model MLP.
  int hidden = 64;
  /// Learning rate when trained standalone (the chief uses its own Adam).
  float lr = 1e-3f;
  /// Number of grid cells (embedding vocabulary); set from the encoder.
  int num_cells = 400;
  /// Number of route-planning options (one-hot action input).
  int num_moves = 17;
  /// Number of workers W.
  int num_workers = 2;
};

/// A worker position in both representations: grid cell (embedding feature)
/// and coordinates scaled into (0, 1) (direct feature).
struct PositionObs {
  int cell = 0;
  float sx = 0.0f;
  float sy = 0.0f;
};

/// One training sample for the forward model.
struct CuriositySample {
  int worker = 0;
  PositionObs from;
  int move = 0;
  PositionObs to;
};

/// The spatial curiosity model.
class SpatialCuriosity {
 public:
  SpatialCuriosity(const CuriosityConfig& config, uint64_t seed);

  /// Intrinsic reward for one observed worker transition (Eqn 17); no tape.
  double IntrinsicReward(int worker, const PositionObs& from, int move,
                         const PositionObs& to) const;

  /// Mean intrinsic reward over all workers for one environment step
  /// (Algorithm 3 outputs rewards for workers "orderly"; we aggregate by
  /// mean so the scale is invariant to W).
  double MeanIntrinsicReward(const std::vector<PositionObs>& from,
                             const std::vector<int>& moves,
                             const std::vector<PositionObs>& to) const;

  /// Training loss Loss^f (Eqn 16) averaged over the batch, for backward.
  /// The shared structure compiles it once per batch size (nn/graph.h), so
  /// the next same-size call overwrites the returned tensor; the
  /// independent structure builds it on the tape.
  nn::Tensor Loss(const std::vector<CuriositySample>& batch) const;

  /// Draws min(batch, samples.size()) samples with replacement from
  /// `samples` and returns Loss over them — the trainer's per-epoch update
  /// path. CHECK-fails on an empty sample pool.
  nn::Tensor SampleLoss(const std::vector<CuriositySample>& samples,
                        size_t batch, Rng& rng) const;

  /// Trainable parameters (forward models only; the embedding is frozen).
  std::vector<nn::Tensor> Parameters() const;

  const CuriosityConfig& config() const { return config_; }

 private:
  /// Feature dimension of the chosen representation.
  int FeatureDim() const;
  /// Writes the feature of `p` into out[0..FeatureDim).
  void WriteFeature(const PositionObs& p, float* out) const;
  /// Forward model for a given worker (shared: always model 0).
  const nn::Mlp& ModelFor(int worker) const;

  /// One compiled forward-model loss graph (shared structure only), cached
  /// per batch size. The kIndependent structure partitions the batch by
  /// worker, so its sub-batch shapes vary per call and it stays on the
  /// tape.
  struct LossGraph {
    nn::graph::GraphPtr graph;
    nn::Tensor inputs, targets, loss;
  };

  CuriosityConfig config_;
  std::unique_ptr<nn::Embedding> embedding_;  // frozen, embedding feature
  std::vector<std::unique_ptr<nn::Mlp>> forward_models_;
  mutable std::map<nn::Index, LossGraph> loss_graphs_;
};

}  // namespace cews::agents

#endif  // CEWS_AGENTS_CURIOSITY_H_
