// 2-D convolutions: standard and depthwise, plus the residual block used by
// ResNetLite and the depthwise-separable block used by MobileNetLite.  Both
// convolutions lower to im2col + the shared GEMM kernels (parallel_test pins
// them against a naive direct-loop oracle).
#pragma once

#include "ml/layer.hpp"
#include "ml/layers.hpp"

namespace sb::ml {

// Standard convolution: x [N, inC, H, W] -> [N, outC, H', W'].
class Conv2D final : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t padding, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  bool compile(PlanBuilder& builder) override;
  std::unique_ptr<Layer> replicate() const override {
    return std::make_unique<Conv2D>(*this);
  }

 private:
  std::size_t in_c_, out_c_, k_, stride_, pad_;
  Param weight_;  // [outC, inC, k, k]
  Param bias_;    // [outC]
  Tensor cached_x_;
  // Backward dX operand weight^T [inC*k*k, outC], packed lazily and keyed on
  // weight_.version: reused across every backward between optimizer steps
  // (which bump the version), and routes dX through the vectorized
  // matmul_nn instead of the scalar-only matmul_tn.
  Tensor packed_wt_;
  std::uint64_t packed_version_ = 0;
};

// Depthwise convolution: one k x k filter per channel.
class DepthwiseConv2D final : public Layer {
 public:
  DepthwiseConv2D(std::size_t channels, std::size_t kernel, std::size_t stride,
                  std::size_t padding, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  bool compile(PlanBuilder& builder) override;
  std::unique_ptr<Layer> replicate() const override {
    return std::make_unique<DepthwiseConv2D>(*this);
  }

 private:
  std::size_t c_, k_, stride_, pad_;
  Param weight_;  // [C, k, k]
  Param bias_;    // [C]
  Tensor cached_x_;
};

// MobileNet-style depthwise-separable block:
//   depthwise 3x3 (stride s) -> BN -> ReLU6 -> pointwise 1x1 -> BN -> ReLU6.
class DepthwiseSeparableBlock final : public Layer {
 public:
  DepthwiseSeparableBlock(std::size_t in_channels, std::size_t out_channels,
                          std::size_t stride, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return body_.params(); }
  std::vector<Tensor*> state() override { return body_.state(); }
  bool compile(PlanBuilder& builder) override { return body_.compile(builder); }
  std::unique_ptr<Layer> replicate() const override;
  std::size_t shard_stats_size() const override {
    return body_.shard_stats_size();
  }
  void export_shard_stats(std::span<float> out) const override {
    body_.export_shard_stats(out);
  }
  void absorb_shard_stats(std::span<const float> in) override {
    body_.absorb_shard_stats(in);
  }

 private:
  DepthwiseSeparableBlock() = default;

  Sequential body_;
};

// ResNet-style basic block: two 3x3 convs with BN, identity (or 1x1
// projection) shortcut, ReLU after the sum.
class ResidualBlock final : public Layer {
 public:
  ResidualBlock(std::size_t in_channels, std::size_t out_channels, std::size_t stride,
                Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::vector<Tensor*> state() override;
  bool compile(PlanBuilder& builder) override;
  std::unique_ptr<Layer> replicate() const override;
  // Shard stats concatenate main then shortcut — the same structural order
  // the replica exported in.
  std::size_t shard_stats_size() const override {
    return main_.shard_stats_size() +
           (shortcut_ ? shortcut_->shard_stats_size() : 0);
  }
  void export_shard_stats(std::span<float> out) const override {
    const std::size_t n = main_.shard_stats_size();
    main_.export_shard_stats(out.subspan(0, n));
    if (shortcut_) shortcut_->export_shard_stats(out.subspan(n));
  }
  void absorb_shard_stats(std::span<const float> in) override {
    const std::size_t n = main_.shard_stats_size();
    main_.absorb_shard_stats(in.subspan(0, n));
    if (shortcut_) shortcut_->absorb_shard_stats(in.subspan(n));
  }

 private:
  ResidualBlock() = default;

  Sequential main_;
  std::unique_ptr<Sequential> shortcut_;  // null = identity
  Tensor cached_sum_;                     // pre-ReLU sum, for the ReLU mask
};

}  // namespace sb::ml
