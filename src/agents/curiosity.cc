#include "agents/curiosity.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace cews::agents {

SpatialCuriosity::SpatialCuriosity(const CuriosityConfig& config,
                                   uint64_t seed)
    : config_(config) {
  CEWS_CHECK_GT(config_.num_cells, 0);
  CEWS_CHECK_GT(config_.num_moves, 1);
  CEWS_CHECK_GT(config_.num_workers, 0);
  CEWS_CHECK(config_.eta >= 0.0f);
  Rng rng(seed);
  if (config_.feature == CuriosityFeature::kEmbedding) {
    embedding_ = std::make_unique<nn::Embedding>(
        config_.num_cells, config_.embed_dim, rng, /*trainable=*/false);
  }
  const int models = config_.structure == CuriosityStructure::kShared
                         ? 1
                         : config_.num_workers;
  const nn::Index in = FeatureDim() + config_.num_moves;
  for (int m = 0; m < models; ++m) {
    forward_models_.push_back(std::make_unique<nn::Mlp>(
        std::vector<nn::Index>{in, config_.hidden, FeatureDim()},
        nn::Activation::kRelu, rng));
  }
}

int SpatialCuriosity::FeatureDim() const {
  return config_.feature == CuriosityFeature::kEmbedding ? config_.embed_dim
                                                         : 2;
}

void SpatialCuriosity::WriteFeature(const PositionObs& p, float* out) const {
  if (config_.feature == CuriosityFeature::kEmbedding) {
    CEWS_CHECK_GE(p.cell, 0);
    CEWS_CHECK_LT(p.cell, config_.num_cells);
    nn::NoGradGuard no_grad;
    const nn::Tensor row = embedding_->Forward({p.cell});
    std::memcpy(out, row.data(),
                sizeof(float) * static_cast<size_t>(config_.embed_dim));
  } else {
    out[0] = p.sx;
    out[1] = p.sy;
  }
}

const nn::Mlp& SpatialCuriosity::ModelFor(int worker) const {
  if (config_.structure == CuriosityStructure::kShared) {
    return *forward_models_[0];
  }
  CEWS_CHECK_GE(worker, 0);
  CEWS_CHECK_LT(worker, static_cast<int>(forward_models_.size()));
  return *forward_models_[static_cast<size_t>(worker)];
}

double SpatialCuriosity::IntrinsicReward(int worker, const PositionObs& from,
                                         int move,
                                         const PositionObs& to) const {
  nn::NoGradGuard no_grad;
  const int f = FeatureDim();
  std::vector<float> input(static_cast<size_t>(f + config_.num_moves), 0.0f);
  WriteFeature(from, input.data());
  CEWS_CHECK_GE(move, 0);
  CEWS_CHECK_LT(move, config_.num_moves);
  input[static_cast<size_t>(f + move)] = 1.0f;
  std::vector<float> target(static_cast<size_t>(f));
  WriteFeature(to, target.data());

  const nn::Tensor pred = ModelFor(worker).Forward(
      nn::Tensor::FromData({1, f + config_.num_moves}, std::move(input)));
  const float* p = pred.data();
  double loss = 0.0;
  for (int i = 0; i < f; ++i) {
    const double d = static_cast<double>(p[i]) - target[static_cast<size_t>(i)];
    loss += d * d;
  }
  // Normalize by the feature dimension so r^int starts at O(eta) for any
  // embedding width (the paper's eta = 0.3 assumes a comparable scale).
  return config_.eta * loss / f;
}

double SpatialCuriosity::MeanIntrinsicReward(
    const std::vector<PositionObs>& from, const std::vector<int>& moves,
    const std::vector<PositionObs>& to) const {
  CEWS_CHECK_EQ(from.size(), to.size());
  CEWS_CHECK_EQ(from.size(), moves.size());
  CEWS_CHECK(!from.empty());
  double total = 0.0;
  for (size_t w = 0; w < from.size(); ++w) {
    total += IntrinsicReward(static_cast<int>(w), from[w], moves[w], to[w]);
  }
  return total / static_cast<double>(from.size());
}

nn::Tensor SpatialCuriosity::Loss(
    const std::vector<CuriositySample>& batch) const {
  CEWS_CHECK(!batch.empty());
  const int f = FeatureDim();
  const int in_dim = f + config_.num_moves;

  if (config_.structure == CuriosityStructure::kShared) {
    const nn::Index b = static_cast<nn::Index>(batch.size());
    // Feature extraction (including the frozen embedding lookups) happens
    // here, outside any graph recording: the compiled graph sees only the
    // packed float placeholders.
    std::vector<float> inputs(static_cast<size_t>(b * in_dim), 0.0f);
    std::vector<float> targets(static_cast<size_t>(b * f));
    for (nn::Index i = 0; i < b; ++i) {
      const CuriositySample& s = batch[static_cast<size_t>(i)];
      WriteFeature(s.from, inputs.data() + i * in_dim);
      inputs[static_cast<size_t>(i * in_dim + f + s.move)] = 1.0f;
      WriteFeature(s.to, targets.data() + i * f);
    }

    // Compiled once per batch size, replayed after that. Mean over the
    // batch of the per-sample squared L2 error (Eqn 16), normalized by the
    // feature dimension (matches IntrinsicReward).
    CEWS_CHECK(nn::GradModeEnabled())
        << "curiosity Loss under NoGradGuard: the cached loss graph would "
           "carry no backward";
    auto it = loss_graphs_.find(b);
    if (it == loss_graphs_.end()) {
      nn::graph::NoteCacheMiss();
      LossGraph g;
      g.inputs = nn::Tensor::FromData({b, in_dim}, std::move(inputs));
      g.targets = nn::Tensor::FromData({b, f}, std::move(targets));
      nn::graph::BeginRecording();
      nn::graph::MarkPlaceholder(g.inputs);
      nn::graph::MarkPlaceholder(g.targets);
      const nn::Tensor pred = forward_models_[0]->Forward(g.inputs);
      g.loss = nn::MulScalar(
          nn::Mean(nn::SumLastDim(nn::Square(nn::Sub(pred, g.targets)))),
          1.0f / static_cast<float>(f));
      g.graph = nn::graph::EndRecording(g.loss);
      it = loss_graphs_.emplace(b, std::move(g)).first;
    } else {
      nn::graph::NoteCacheHit();
      LossGraph& g = it->second;
      CEWS_CHECK_EQ(inputs.size(), g.inputs.impl()->data.size());
      std::copy(inputs.begin(), inputs.end(), g.inputs.impl()->data.data());
      std::copy(targets.begin(), targets.end(), g.targets.impl()->data.data());
      g.graph->Forward();
    }
    return it->second.loss;
  }

  // Independent structure: per-worker losses weighted by sample counts.
  nn::Tensor total = nn::Tensor::Scalar(0.0f);
  size_t covered = 0;
  for (int w = 0; w < config_.num_workers; ++w) {
    std::vector<const CuriositySample*> mine;
    for (const CuriositySample& s : batch) {
      if (s.worker == w) mine.push_back(&s);
    }
    if (mine.empty()) continue;
    const nn::Index b = static_cast<nn::Index>(mine.size());
    std::vector<float> inputs(static_cast<size_t>(b * in_dim), 0.0f);
    std::vector<float> targets(static_cast<size_t>(b * f));
    for (nn::Index i = 0; i < b; ++i) {
      const CuriositySample& s = *mine[static_cast<size_t>(i)];
      WriteFeature(s.from, inputs.data() + i * in_dim);
      inputs[static_cast<size_t>(i * in_dim + f + s.move)] = 1.0f;
      WriteFeature(s.to, targets.data() + i * f);
    }
    const nn::Tensor pred = forward_models_[static_cast<size_t>(w)]->Forward(
        nn::Tensor::FromData({b, in_dim}, std::move(inputs)));
    const nn::Tensor target = nn::Tensor::FromData({b, f}, std::move(targets));
    const nn::Tensor loss =
        nn::Sum(nn::SumLastDim(nn::Square(nn::Sub(pred, target))));
    total = nn::Add(total, loss);
    covered += mine.size();
  }
  CEWS_CHECK_GT(covered, 0u);
  return nn::MulScalar(total,
                       1.0f / (static_cast<float>(covered) * f));
}

nn::Tensor SpatialCuriosity::SampleLoss(
    const std::vector<CuriositySample>& samples, size_t batch,
    Rng& rng) const {
  CEWS_CHECK(!samples.empty())
      << "SampleLoss with no curiosity samples: collect worker transitions "
         "before updating";
  const size_t n = samples.size();
  const size_t take = std::min(n, batch);
  std::vector<CuriositySample> minibatch;
  minibatch.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    minibatch.push_back(samples[static_cast<size_t>(rng.UniformInt(n))]);
  }
  return Loss(minibatch);
}

std::vector<nn::Tensor> SpatialCuriosity::Parameters() const {
  std::vector<nn::Tensor> params;
  for (const auto& m : forward_models_) {
    for (nn::Tensor t : m->Parameters()) params.push_back(t);
  }
  return params;
}

}  // namespace cews::agents
