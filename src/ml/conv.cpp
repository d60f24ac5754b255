#include "ml/conv.hpp"

#include <algorithm>
#include <stdexcept>

#include "ml/gemm.hpp"
#include "ml/plan.hpp"
#include "ml/workspace.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sb::ml {
namespace {

std::size_t out_dim(std::size_t in, std::size_t k, std::size_t stride, std::size_t pad) {
  return (in + 2 * pad - k) / stride + 1;
}

// Unfolds one [C, H, W] input plane stack into the patch matrix
// col[(c*k + ky)*k + kx][oy*ow + ox], zero-filling padding.  Row order
// (c, ky, kx) matches a direct loop's accumulation order, so GEMM over
// these rows reproduces the direct convolution's floating-point sums.
void im2col(const float* x, std::size_t channels, std::size_t h, std::size_t w,
            std::size_t ksize, std::size_t stride, std::size_t pad, std::size_t oh,
            std::size_t ow, float* col) {
  const std::size_t patches = oh * ow;
  float* crow = col;
  for (std::size_t c = 0; c < channels; ++c) {
    const float* plane = x + c * h * w;
    for (std::size_t ky = 0; ky < ksize; ++ky) {
      for (std::size_t kx = 0; kx < ksize; ++kx, crow += patches) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * stride + ky) -
                                    static_cast<std::ptrdiff_t>(pad);
          float* dst = crow + oy * ow;
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
            std::fill_n(dst, ow, 0.0f);
            continue;
          }
          const float* src = plane + static_cast<std::size_t>(iy) * w;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * stride + kx) -
                                      static_cast<std::ptrdiff_t>(pad);
            dst[ox] = (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w))
                          ? 0.0f
                          : src[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

// Scatter-adds a patch-matrix gradient back onto the [C, H, W] input grid
// (transpose of im2col).
void col2im_add(const float* col, std::size_t channels, std::size_t h, std::size_t w,
                std::size_t ksize, std::size_t stride, std::size_t pad,
                std::size_t oh, std::size_t ow, float* gx) {
  const std::size_t patches = oh * ow;
  const float* crow = col;
  for (std::size_t c = 0; c < channels; ++c) {
    float* plane = gx + c * h * w;
    for (std::size_t ky = 0; ky < ksize; ++ky) {
      for (std::size_t kx = 0; kx < ksize; ++kx, crow += patches) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * stride + ky) -
                                    static_cast<std::ptrdiff_t>(pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
          float* dst = plane + static_cast<std::size_t>(iy) * w;
          const float* src = crow + oy * ow;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * stride + kx) -
                                      static_cast<std::ptrdiff_t>(pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
            dst[static_cast<std::size_t>(ix)] += src[ox];
          }
        }
      }
    }
  }
}

}  // namespace

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t padding, Rng& rng)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      weight_(Tensor::he_normal({out_channels, in_channels, kernel, kernel},
                                in_channels * kernel * kernel, rng)),
      bias_(Tensor::zeros({out_channels})) {}

Tensor Conv2D::forward(const Tensor& x, bool /*train*/) {
  if (x.ndim() != 4 || x.dim(1) != in_c_)
    throw std::invalid_argument{"Conv2D::forward: expected [N,inC,H,W]"};
  cached_x_ = x;
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = out_dim(h, k_, stride_, pad_);
  const std::size_t ow = out_dim(w, k_, stride_, pad_);
  Tensor y({n, out_c_, oh, ow});
  const std::size_t kdim = in_c_ * k_ * k_;
  const std::size_t patches = oh * ow;
  util::parallel_for_ranges(
      n,
      [&](std::size_t i0, std::size_t i1) {
        // im2col fully overwrites col, so uninitialized scratch is safe.
        Scratch<float> col{kdim * patches};
        for (std::size_t i = i0; i < i1; ++i) {
          im2col(x.data() + i * in_c_ * h * w, in_c_, h, w, k_, stride_, pad_, oh,
                 ow, col.data());
          float* yi = y.data() + i * out_c_ * patches;
          for (std::size_t oc = 0; oc < out_c_; ++oc)
            std::fill_n(yi + oc * patches, patches, bias_.value[oc]);
          matmul_nn(weight_.value.data(), kdim, col.data(), patches, yi, patches,
                    out_c_, kdim, patches, true);
        }
      },
      1);
  return y;
}

bool Conv2D::compile(PlanBuilder& builder) {
  builder.conv2d(weight_.value, bias_.value, in_c_, out_c_, k_, stride_, pad_);
  return true;
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  const Tensor& x = cached_x_;
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = grad_out.dim(2), ow = grad_out.dim(3);
  Tensor grad_in(x.shape());
  const std::size_t kdim = in_c_ * k_ * k_;
  const std::size_t patches = oh * ow;
  // dX operand: weight^T packed [kdim, outC], rebuilt only when the weights
  // actually changed (Param::version — optimizer steps, load, replica sync).
  // matmul_nn over the pack keeps matmul_tn's exact per-element ascending-oc
  // accumulation order but runs the vectorized micro-kernel.
  if (packed_version_ != weight_.version) {
    if (packed_wt_.numel() != kdim * out_c_) packed_wt_ = Tensor({kdim, out_c_});
    pack_transpose(weight_.value.data(), kdim, out_c_, kdim, packed_wt_.data());
    packed_version_ = weight_.version;
  }
  // Per-item weight/bias gradient partials, reduced serially in batch order
  // below so the result is independent of the thread count.  Every slot is
  // written before the reduction (matmul_nt with accumulate=false and the
  // patch-sum assignment), so uninitialized scratch is safe.
  Scratch<float> gw_part{n * out_c_ * kdim};
  Scratch<float> gb_part{n * out_c_};
  util::parallel_for_ranges(
      n,
      [&](std::size_t i0, std::size_t i1) {
        Scratch<float> col{kdim * patches};
        Scratch<float> gcol{kdim * patches};
        for (std::size_t i = i0; i < i1; ++i) {
          im2col(x.data() + i * in_c_ * h * w, in_c_, h, w, k_, stride_, pad_, oh,
                 ow, col.data());
          const float* gi = grad_out.data() + i * out_c_ * patches;
          matmul_nt(gi, patches, col.data(), patches,
                    gw_part.data() + i * out_c_ * kdim, kdim, out_c_, patches,
                    kdim, false);
          for (std::size_t oc = 0; oc < out_c_; ++oc) {
            const float* grow = gi + oc * patches;
            float s = 0.0f;
            for (std::size_t p = 0; p < patches; ++p) s += grow[p];
            gb_part[i * out_c_ + oc] = s;
          }
          matmul_nn(packed_wt_.data(), out_c_, gi, patches, gcol.data(), patches,
                    kdim, out_c_, patches, false);
          col2im_add(gcol.data(), in_c_, h, w, k_, stride_, pad_, oh, ow,
                     grad_in.data() + i * in_c_ * h * w);
        }
      },
      1);
  for (std::size_t i = 0; i < n; ++i) {
    const float* gw = gw_part.data() + i * out_c_ * kdim;
    for (std::size_t j = 0; j < out_c_ * kdim; ++j) weight_.grad[j] += gw[j];
    for (std::size_t oc = 0; oc < out_c_; ++oc)
      bias_.grad[oc] += gb_part[i * out_c_ + oc];
  }
  return grad_in;
}

DepthwiseConv2D::DepthwiseConv2D(std::size_t channels, std::size_t kernel,
                                 std::size_t stride, std::size_t padding, Rng& rng)
    : c_(channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      weight_(Tensor::he_normal({channels, kernel, kernel}, kernel * kernel, rng)),
      bias_(Tensor::zeros({channels})) {}

Tensor DepthwiseConv2D::forward(const Tensor& x, bool /*train*/) {
  if (x.ndim() != 4 || x.dim(1) != c_)
    throw std::invalid_argument{"DepthwiseConv2D::forward: expected [N,C,H,W]"};
  cached_x_ = x;
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = out_dim(h, k_, stride_, pad_);
  const std::size_t ow = out_dim(w, k_, stride_, pad_);
  Tensor y({n, c_, oh, ow});
  const std::size_t kdim = k_ * k_;
  const std::size_t patches = oh * ow;
  // Each (item, channel) plane is an independent single-filter convolution.
  util::parallel_for_ranges(n * c_, [&](std::size_t p0, std::size_t p1) {
    Scratch<float> col{kdim * patches};
    for (std::size_t pair = p0; pair < p1; ++pair) {
      const std::size_t c = pair % c_;
      im2col(x.data() + pair * h * w, 1, h, w, k_, stride_, pad_, oh, ow,
             col.data());
      float* yrow = y.data() + pair * patches;
      std::fill_n(yrow, patches, bias_.value[c]);
      matmul_nn(weight_.value.data() + c * kdim, kdim, col.data(), patches, yrow,
                patches, 1, kdim, patches, true);
    }
  });
  return y;
}

bool DepthwiseConv2D::compile(PlanBuilder& builder) {
  builder.depthwise(weight_.value, bias_.value, c_, k_, stride_, pad_);
  return true;
}

Tensor DepthwiseConv2D::backward(const Tensor& grad_out) {
  const Tensor& x = cached_x_;
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = grad_out.dim(2), ow = grad_out.dim(3);
  Tensor grad_in(x.shape());
  const std::size_t kdim = k_ * k_;
  const std::size_t patches = oh * ow;
  Scratch<float> gw_part{n * c_ * kdim};
  Scratch<float> gb_part{n * c_};
  util::parallel_for_ranges(n * c_, [&](std::size_t p0, std::size_t p1) {
    Scratch<float> col{kdim * patches};
    Scratch<float> gcol{kdim * patches};
    for (std::size_t pair = p0; pair < p1; ++pair) {
      const std::size_t c = pair % c_;
      im2col(x.data() + pair * h * w, 1, h, w, k_, stride_, pad_, oh, ow,
             col.data());
      const float* grow = grad_out.data() + pair * patches;
      matmul_nt(grow, patches, col.data(), patches, gw_part.data() + pair * kdim,
                kdim, 1, patches, kdim, false);
      float s = 0.0f;
      for (std::size_t p = 0; p < patches; ++p) s += grow[p];
      gb_part[pair] = s;
      const float* wc = weight_.value.data() + c * kdim;
      for (std::size_t kk = 0; kk < kdim; ++kk) {
        float* grow_col = gcol.data() + kk * patches;
        const float wv = wc[kk];
        for (std::size_t p = 0; p < patches; ++p) grow_col[p] = wv * grow[p];
      }
      col2im_add(gcol.data(), 1, h, w, k_, stride_, pad_, oh, ow,
                 grad_in.data() + pair * h * w);
    }
  });
  for (std::size_t pair = 0; pair < n * c_; ++pair) {
    const std::size_t c = pair % c_;
    const float* gw = gw_part.data() + pair * kdim;
    float* dst = weight_.grad.data() + c * kdim;
    for (std::size_t kk = 0; kk < kdim; ++kk) dst[kk] += gw[kk];
    bias_.grad[c] += gb_part[pair];
  }
  return grad_in;
}

DepthwiseSeparableBlock::DepthwiseSeparableBlock(std::size_t in_channels,
                                                 std::size_t out_channels,
                                                 std::size_t stride, Rng& rng) {
  body_.emplace<DepthwiseConv2D>(in_channels, 3, stride, 1, rng);
  body_.emplace<BatchNorm>(in_channels);
  body_.emplace<ReLU>(6.0f);
  body_.emplace<Conv2D>(in_channels, out_channels, 1, 1, 0, rng);
  body_.emplace<BatchNorm>(out_channels);
  body_.emplace<ReLU>(6.0f);
}

Tensor DepthwiseSeparableBlock::forward(const Tensor& x, bool train) {
  return body_.forward(x, train);
}

Tensor DepthwiseSeparableBlock::backward(const Tensor& grad_out) {
  return body_.backward(grad_out);
}

std::unique_ptr<Layer> DepthwiseSeparableBlock::replicate() const {
  auto body = body_.replicate();
  if (!body) return nullptr;
  std::unique_ptr<DepthwiseSeparableBlock> copy{new DepthwiseSeparableBlock()};
  copy->body_ = std::move(static_cast<Sequential&>(*body));
  return copy;
}

ResidualBlock::ResidualBlock(std::size_t in_channels, std::size_t out_channels,
                             std::size_t stride, Rng& rng) {
  main_.emplace<Conv2D>(in_channels, out_channels, 3, stride, 1, rng);
  main_.emplace<BatchNorm>(out_channels);
  main_.emplace<ReLU>();
  main_.emplace<Conv2D>(out_channels, out_channels, 3, 1, 1, rng);
  main_.emplace<BatchNorm>(out_channels);
  if (stride != 1 || in_channels != out_channels) {
    shortcut_ = std::make_unique<Sequential>();
    shortcut_->emplace<Conv2D>(in_channels, out_channels, 1, stride, 0, rng);
    shortcut_->emplace<BatchNorm>(out_channels);
  }
}

Tensor ResidualBlock::forward(const Tensor& x, bool train) {
  Tensor main_out = main_.forward(x, train);
  Tensor short_out = shortcut_ ? shortcut_->forward(x, train) : x;
  cached_sum_ = main_out;
  cached_sum_.add_scaled(short_out, 1.0f);
  Tensor y = cached_sum_;
  float* p = y.data();
  const std::size_t numel = y.numel();
  std::size_t i = 0;
  // vmax matches std::max's NaN operand pick; lanes are independent.
  if (util::simd_enabled()) {
    namespace v = util::simd;
    const v::VFloat zero = v::zero_f();
    for (; i + v::kFloatLanes <= numel; i += v::kFloatLanes)
      v::store(p + i, v::vmax(v::load(p + i), zero));
  }
  for (; i < numel; ++i) p[i] = std::max(p[i], 0.0f);
  return y;
}

bool ResidualBlock::compile(PlanBuilder& builder) {
  // Both branches read the block input, so its register stays pinned while
  // either branch allocates; the main output is pinned across the shortcut
  // compile for the same reason.  The join writes in place over main.
  const int entry = builder.current_reg();
  const std::vector<std::size_t> entry_shape = builder.item_shape();
  builder.pin(entry);
  main_.compile(builder);
  const int main_reg = builder.current_reg();
  const std::vector<std::size_t> main_shape = builder.item_shape();
  int short_reg = entry;
  if (shortcut_) {
    builder.pin(main_reg);
    builder.set_current(entry, entry_shape);
    shortcut_->compile(builder);
    short_reg = builder.current_reg();
    builder.unpin(main_reg);
  }
  builder.unpin(entry);
  builder.set_current(main_reg, main_shape);
  builder.add_relu(main_reg, short_reg);
  return true;
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  float* gp = g.data();
  const float* sp = cached_sum_.data();
  const std::size_t numel = g.numel();
  std::size_t i = 0;
  // select on an ordered <= matches the scalar branch exactly: NaN sums
  // compare false and keep the incoming gradient, as the scalar path does.
  if (util::simd_enabled()) {
    namespace v = util::simd;
    const v::VFloat zero = v::zero_f();
    for (; i + v::kFloatLanes <= numel; i += v::kFloatLanes)
      v::store(gp + i, v::select(v::cmp_le(v::load(sp + i), zero), zero,
                                 v::load(gp + i)));
  }
  for (; i < numel; ++i)
    if (sp[i] <= 0.0f) gp[i] = 0.0f;
  Tensor grad_main = main_.backward(g);
  Tensor grad_short = shortcut_ ? shortcut_->backward(g) : g;
  grad_main.add_scaled(grad_short, 1.0f);
  return grad_main;
}

std::unique_ptr<Layer> ResidualBlock::replicate() const {
  auto main = main_.replicate();
  if (!main) return nullptr;
  std::unique_ptr<Layer> shortcut;
  if (shortcut_) {
    shortcut = shortcut_->replicate();
    if (!shortcut) return nullptr;
  }
  std::unique_ptr<ResidualBlock> copy{new ResidualBlock()};
  copy->main_ = std::move(static_cast<Sequential&>(*main));
  if (shortcut) {
    copy->shortcut_.reset(static_cast<Sequential*>(shortcut.release()));
  }
  copy->cached_sum_ = cached_sum_;
  return copy;
}

std::vector<Param*> ResidualBlock::params() {
  auto out = main_.params();
  if (shortcut_)
    for (Param* p : shortcut_->params()) out.push_back(p);
  return out;
}

std::vector<Tensor*> ResidualBlock::state() {
  auto out = main_.state();
  if (shortcut_)
    for (Tensor* t : shortcut_->state()) out.push_back(t);
  return out;
}

}  // namespace sb::ml
