#include "agents/rnd.h"

#include "common/check.h"
#include "nn/ops.h"

namespace cews::agents {

RndCuriosity::RndCuriosity(const RndConfig& config, uint64_t seed)
    : config_(config) {
  CEWS_CHECK_GT(config_.state_size, 0);
  CEWS_CHECK_GT(config_.out_dim, 0);
  Rng rng(seed);
  target_ = std::make_unique<nn::Mlp>(
      std::vector<nn::Index>{config_.state_size, config_.hidden,
                             config_.out_dim},
      nn::Activation::kRelu, rng);
  predictor_ = std::make_unique<nn::Mlp>(
      std::vector<nn::Index>{config_.state_size, config_.hidden,
                             config_.out_dim},
      nn::Activation::kRelu, rng);
}

nn::Tensor RndCuriosity::TargetEmbedding(const nn::Tensor& x) const {
  // The target network is frozen: evaluate it without tape so its output is
  // a constant in the predictor's loss graph.
  nn::NoGradGuard no_grad;
  return target_->Forward(x);
}

double RndCuriosity::IntrinsicReward(const std::vector<float>& state) const {
  CEWS_CHECK_EQ(static_cast<int>(state.size()), config_.state_size);
  nn::NoGradGuard no_grad;
  const nn::Tensor x =
      nn::Tensor::FromData({1, config_.state_size}, state);
  const nn::Tensor t = target_->Forward(x);
  const nn::Tensor p = predictor_->Forward(x);
  double loss = 0.0;
  for (int i = 0; i < config_.out_dim; ++i) {
    const double d = static_cast<double>(p.data()[i]) - t.data()[i];
    loss += d * d;
  }
  // Per-dimension normalization, as in the spatial curiosity model.
  return config_.eta * loss / config_.out_dim;
}

double RndCuriosity::IntrinsicReward(const float* state) const {
  return IntrinsicReward(
      std::vector<float>(state, state + config_.state_size));
}

nn::Tensor RndCuriosity::Loss(const MiniBatch& batch) const {
  CEWS_CHECK_GT(batch.batch, 0) << "RND Loss on an empty minibatch";
  CEWS_CHECK_EQ(batch.state_size, config_.state_size);
  const nn::Index b = batch.batch;

  // Compiled once per batch size, replayed after that.
  CEWS_CHECK(nn::GradModeEnabled())
      << "RND Loss under NoGradGuard: the cached loss graph would carry no "
         "backward";
  auto it = loss_graphs_.find(b);
  if (it == loss_graphs_.end()) {
    nn::graph::NoteCacheMiss();
    LossGraph g;
    // The packed state block is already the [B, state_size] tensor layout.
    g.x = nn::Tensor::FromData({b, config_.state_size}, batch.states);
    nn::graph::BeginRecording();
    nn::graph::MarkPlaceholder(g.x);
    // The target net forwards under NoGrad, so its steps carry no closures
    // — but they read the placeholder, so they replay (they are not
    // memoized away).
    const nn::Tensor target = TargetEmbedding(g.x);
    const nn::Tensor pred = predictor_->Forward(g.x);
    g.loss = nn::MulScalar(
        nn::Mean(nn::SumLastDim(nn::Square(nn::Sub(pred, target)))),
        1.0f / static_cast<float>(config_.out_dim));
    g.graph = nn::graph::EndRecording(g.loss);
    it = loss_graphs_.emplace(b, std::move(g)).first;
  } else {
    nn::graph::NoteCacheHit();
    LossGraph& g = it->second;
    CEWS_CHECK_EQ(batch.states.size(), g.x.impl()->data.size());
    std::copy(batch.states.begin(), batch.states.end(),
              g.x.impl()->data.data());
    g.graph->Forward();
  }
  return it->second.loss;
}

nn::Tensor RndCuriosity::Loss(
    const std::vector<const std::vector<float>*>& states) const {
  CEWS_CHECK(!states.empty());
  MiniBatch batch;
  batch.batch = static_cast<nn::Index>(states.size());
  batch.state_size = config_.state_size;
  batch.states.reserve(static_cast<size_t>(batch.batch * config_.state_size));
  for (const std::vector<float>* s : states) {
    CEWS_CHECK_EQ(static_cast<int>(s->size()), config_.state_size);
    batch.states.insert(batch.states.end(), s->begin(), s->end());
  }
  return Loss(batch);
}

std::vector<nn::Tensor> RndCuriosity::Parameters() const {
  return predictor_->Parameters();
}

}  // namespace cews::agents
