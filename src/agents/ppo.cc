#include "agents/ppo.h"

#include <cmath>

#include "agents/eval.h"
#include "common/check.h"
#include "common/math_util.h"
#include "common/stopwatch.h"
#include "nn/ops.h"
#include "nn/params.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cews::agents {

PpoAgent::PpoAgent(const PolicyNetConfig& net_config,
                   const PpoConfig& ppo_config, uint64_t seed)
    : config_(ppo_config) {
  Rng rng(seed);
  net_ = std::make_unique<PolicyNet>(net_config, rng);
  optimizer_ = std::make_unique<nn::Adam>(net_->Parameters(), config_.lr);
}

ActResult PpoAgent::Act(const std::vector<float>& state, Rng& rng,
                        bool deterministic) const {
  return SamplePolicy(*net_, state, rng, deterministic);
}

float PpoAgent::Value(const std::vector<float>& state) const {
  nn::NoGradGuard no_grad;
  const PolicyNetConfig& cfg = net_->config();
  nn::Tensor x = nn::Tensor::FromData(
      {1, cfg.in_channels, cfg.grid, cfg.grid}, state);
  return net_->Forward(x).value.item();
}

PpoAgent::LossParts PpoAgent::BuildLoss(
    const PolicyOutput& out, const nn::Tensor& logp_old,
    const nn::Tensor& advantage, const nn::Tensor& returns,
    std::shared_ptr<const std::vector<nn::Index>> move_idx,
    std::shared_ptr<const std::vector<nn::Index>> charge_idx,
    nn::Index b) const {
  LossParts parts;

  // Joint new log-prob: sum over workers of move + charge log-probs.
  nn::Tensor move_logp = nn::LogSoftmax(out.move_logits);    // [B, W, M]
  nn::Tensor charge_logp = nn::LogSoftmax(out.charge_logits);  // [B, W, 2]
  parts.logp_new = nn::Add(
      nn::SumLastDim(nn::GatherLastDim(move_logp, std::move(move_idx))),
      nn::SumLastDim(nn::GatherLastDim(charge_logp, std::move(charge_idx))));

  // Clipped surrogate objective (Eqn 12); minimize its negation.
  parts.ratio = nn::Exp(nn::Sub(parts.logp_new, logp_old));
  nn::Tensor surr1 = nn::Mul(parts.ratio, advantage);
  nn::Tensor surr2 = nn::Mul(
      nn::Clip(parts.ratio, 1.0f - config_.clip_eps, 1.0f + config_.clip_eps),
      advantage);
  parts.policy_loss = nn::Neg(nn::Mean(nn::Min(surr1, surr2)));

  // Value loss (Eqn 11).
  parts.value_loss = nn::Mean(nn::Square(nn::Sub(out.value, returns)));

  // Entropy bonus over both heads, mean per sample.
  const float inv_b = 1.0f / static_cast<float>(b);
  nn::Tensor move_probs = nn::Softmax(out.move_logits);
  nn::Tensor charge_probs = nn::Softmax(out.charge_logits);
  parts.entropy = nn::MulScalar(
      nn::Add(nn::Sum(nn::Mul(move_probs, move_logp)),
              nn::Sum(nn::Mul(charge_probs, charge_logp))),
      -inv_b);

  parts.total = nn::Add(
      nn::Add(parts.policy_loss,
              nn::MulScalar(parts.value_loss, config_.value_coef)),
      nn::MulScalar(parts.entropy, -config_.entropy_coef));
  return parts;
}

void PpoAgent::FillStats(const LossParts& parts, const float* old_logp,
                         nn::Index b, LossStats* stats) const {
  stats->policy_loss = parts.policy_loss.item();
  stats->value_loss = parts.value_loss.item();
  stats->entropy = parts.entropy.item();
  stats->total = parts.total.item();
  double kl = 0.0;
  int clipped = 0;
  for (nn::Index i = 0; i < b; ++i) {
    kl += old_logp[i] - parts.logp_new.data()[i];
    const float r = parts.ratio.data()[i];
    if (r < 1.0f - config_.clip_eps || r > 1.0f + config_.clip_eps) {
      ++clipped;
    }
  }
  stats->approx_kl = static_cast<float>(kl / b);
  stats->clip_fraction = static_cast<float>(clipped) / static_cast<float>(b);
}

nn::Tensor PpoAgent::ComputeLoss(MiniBatch batch, LossStats* stats) const {
  CEWS_TRACE_SCOPE("agents.PpoLoss");
  static obs::Histogram* const loss_ns = obs::GetHistogram("ppo.loss_ns");
  obs::ScopedTimerNs loss_timer(loss_ns);
  const PolicyNetConfig& cfg = net_->config();
  const nn::Index b = batch.batch;
  CEWS_CHECK_GT(b, 0) << "ComputeLoss on an empty minibatch";
  CEWS_CHECK_EQ(batch.state_size,
                nn::Index{cfg.in_channels} * cfg.grid * cfg.grid);
  CEWS_CHECK_EQ(batch.num_workers, cfg.num_workers);
  CEWS_CHECK_EQ(static_cast<nn::Index>(batch.advantages.size()), b)
      << "minibatch carries no advantages: run ComputeAdvantages on the "
         "rollout buffer before sampling";
  CEWS_CHECK_EQ(static_cast<nn::Index>(batch.returns.size()), b);

  // Per-batch advantage normalization (as DPPO; Section VII-B).
  if (config_.normalize_advantages && b > 1) {
    double mean = 0.0;
    for (float a : batch.advantages) mean += a;
    mean /= static_cast<double>(b);
    double var = 0.0;
    for (float a : batch.advantages) var += (a - mean) * (a - mean);
    var /= static_cast<double>(b);
    const float inv_std = 1.0f / (std::sqrt(static_cast<float>(var)) + 1e-8f);
    for (float& a : batch.advantages) {
      a = (a - static_cast<float>(mean)) * inv_std;
    }
  }

  // The loss is compiled once per batch size and replayed against rewritten
  // placeholders from then on — no per-step tape rebuild.
  CEWS_CHECK(nn::GradModeEnabled())
      << "ComputeLoss under NoGradGuard: the cached loss graph would carry "
         "no backward";
  auto it = loss_graphs_.find(b);
  if (it == loss_graphs_.end()) {
    nn::graph::NoteCacheMiss();
    LossGraph g;
    // Placeholder leaves adopt the recording batch's data; replays rewrite
    // them in place. The gather indices live behind shared handles the
    // recorded thunks re-read (and re-bounds-check) on every run.
    g.move_idx = std::make_shared<std::vector<nn::Index>>(
        std::move(batch.move_indices));
    g.charge_idx = std::make_shared<std::vector<nn::Index>>(
        std::move(batch.charge_indices));
    g.x = nn::Tensor::FromData({b, cfg.in_channels, cfg.grid, cfg.grid},
                               std::move(batch.states));
    g.logp_old = nn::Tensor::FromData({b}, std::move(batch.log_probs));
    g.advantage = nn::Tensor::FromData({b}, std::move(batch.advantages));
    g.returns = nn::Tensor::FromData({b}, std::move(batch.returns));
    nn::graph::BeginRecording();
    nn::graph::MarkPlaceholder(g.x);
    nn::graph::MarkPlaceholder(g.logp_old);
    nn::graph::MarkPlaceholder(g.advantage);
    nn::graph::MarkPlaceholder(g.returns);
    const PolicyOutput out = net_->Forward(g.x);
    g.parts = BuildLoss(out, g.logp_old, g.advantage, g.returns, g.move_idx,
                        g.charge_idx, b);
    // LossStats reads these between replays.
    nn::graph::Retain(g.parts.logp_new);
    nn::graph::Retain(g.parts.ratio);
    nn::graph::Retain(g.parts.policy_loss);
    nn::graph::Retain(g.parts.value_loss);
    nn::graph::Retain(g.parts.entropy);
    g.graph = nn::graph::EndRecording(g.parts.total);
    // The recording pass already ran this batch's forward.
    it = loss_graphs_.emplace(b, std::move(g)).first;
  } else {
    nn::graph::NoteCacheHit();
    LossGraph& g = it->second;
    CEWS_CHECK_EQ(batch.states.size(), g.x.impl()->data.size());
    std::copy(batch.states.begin(), batch.states.end(),
              g.x.impl()->data.data());
    std::copy(batch.log_probs.begin(), batch.log_probs.end(),
              g.logp_old.impl()->data.data());
    std::copy(batch.advantages.begin(), batch.advantages.end(),
              g.advantage.impl()->data.data());
    std::copy(batch.returns.begin(), batch.returns.end(),
              g.returns.impl()->data.data());
    *g.move_idx = std::move(batch.move_indices);
    *g.charge_idx = std::move(batch.charge_indices);
    g.graph->Forward();
  }
  const LossGraph& g = it->second;
  if (stats != nullptr) FillStats(g.parts, g.logp_old.data(), b, stats);
  return g.parts.total;
}

nn::Index PpoAgent::LossGraphArenaBytes() const {
  nn::Index total = 0;
  for (const auto& [batch, g] : loss_graphs_) total += g.graph->arena_bytes();
  return total;
}

nn::Tensor PpoAgent::ComputeLoss(const RolloutBuffer& buffer,
                                 const std::vector<size_t>& idx,
                                 LossStats* stats) const {
  CEWS_CHECK_EQ(buffer.advantages().size(), buffer.size())
      << "ComputeLoss before ComputeAdvantages";
  return ComputeLoss(buffer.GatherBatch(idx), stats);
}

void PpoAgent::UpdateStandalone(const RolloutBuffer& buffer, Rng& rng,
                                int epochs, size_t minibatch) {
  CEWS_CHECK_GT(epochs, 0);
  for (int k = 0; k < epochs; ++k) {
    const std::vector<size_t> idx = buffer.SampleIndices(minibatch, rng);
    optimizer_->ZeroGrad();
    nn::Tensor loss = ComputeLoss(buffer, idx);
    loss.Backward();
    nn::ClipGradByGlobalNorm(net_->Parameters(), config_.max_grad_norm);
    optimizer_->Step();
  }
}

}  // namespace cews::agents
