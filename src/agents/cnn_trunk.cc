#include "agents/cnn_trunk.h"

#include "common/check.h"
#include "nn/ops.h"

namespace cews::agents {

nn::ConvShape CnnTrunkConfig::ConvStage(int stage, nn::Index n) const {
  CEWS_CHECK(stage >= 0 && stage < 3);
  const int channels[] = {in_channels, conv1_channels, conv2_channels,
                          conv3_channels};
  nn::ConvShape s;
  s.n = n;
  s.c = channels[stage];
  s.h = s.w = stage == 0 ? grid : ConvStage(stage - 1).oh;
  s.oc = channels[stage + 1];
  s.kh = s.kw = 3;
  s.stride = stage == 0 ? 1 : 2;
  s.padding = 1;
  s.oh = s.ow = (s.h + 2 * s.padding - s.kh) / s.stride + 1;
  return s;
}

CnnTrunk::CnnTrunk(const CnnTrunkConfig& config, cews::Rng& rng)
    : config_(config) {
  CEWS_CHECK_GT(config.grid, 3);
  CEWS_CHECK_GT(config.feature_dim, 0);
  const nn::ConvShape s1 = config.ConvStage(0);
  const nn::ConvShape s2 = config.ConvStage(1);
  const nn::ConvShape s3 = config.ConvStage(2);
  CEWS_CHECK_GE(s3.oh, 1);
  auto conv = [&rng](const nn::ConvShape& s) {
    return std::make_unique<nn::Conv2dLayer>(s.c, s.oc, s.kh, s.stride,
                                             s.padding, rng);
  };
  conv1_ = conv(s1);
  conv2_ = conv(s2);
  conv3_ = conv(s3);
  ln1_ = std::make_unique<nn::LayerNorm>(s1.oc * s1.ohow());
  ln2_ = std::make_unique<nn::LayerNorm>(s2.oc * s2.ohow());
  ln3_ = std::make_unique<nn::LayerNorm>(s3.oc * s3.ohow());
  flat_after_conv_ = s3.oc * s3.ohow();
  fc_ = std::make_unique<nn::Linear>(flat_after_conv_, config.feature_dim,
                                     rng);
}

nn::Tensor CnnTrunk::Forward(const nn::Tensor& x) const {
  CEWS_CHECK_EQ(x.ndim(), 4);
  const nn::Index n = x.dim(0);
  nn::Tensor h = conv1_->Forward(x);
  h = nn::Relu(ln1_->Forward(h));
  h = conv2_->Forward(h);
  h = nn::Relu(ln2_->Forward(h));
  h = conv3_->Forward(h);
  h = nn::Relu(ln3_->Forward(h));
  h = nn::Reshape(h, {n, flat_after_conv_});
  return nn::Relu(fc_->Forward(h));
}

std::vector<nn::Tensor> CnnTrunk::Parameters() const {
  std::vector<nn::Tensor> params;
  for (const nn::Module* m :
       {static_cast<const nn::Module*>(conv1_.get()),
        static_cast<const nn::Module*>(ln1_.get()),
        static_cast<const nn::Module*>(conv2_.get()),
        static_cast<const nn::Module*>(ln2_.get()),
        static_cast<const nn::Module*>(conv3_.get()),
        static_cast<const nn::Module*>(ln3_.get()),
        static_cast<const nn::Module*>(fc_.get())}) {
    for (nn::Tensor t : m->Parameters()) params.push_back(t);
  }
  return params;
}

}  // namespace cews::agents
