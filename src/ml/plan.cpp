#include "ml/plan.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "ml/gemm.hpp"
#include "ml/layer.hpp"
#include "ml/workspace.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sb::ml {
namespace {

constexpr std::size_t kMaxRegs = 8;

std::size_t conv_out_dim(std::size_t in, std::size_t k, std::size_t stride,
                         std::size_t pad) {
  return (in + 2 * pad - k) / stride + 1;
}

// SB_PRECISION env, read once; set_plan_precision overrides.
PlanPrecision& mutable_precision() {
  static PlanPrecision p = [] {
    PlanPrecision out = PlanPrecision::kF64;
    const char* env = std::getenv("SB_PRECISION");
    if (env && *env && !parse_plan_precision(env, out)) {
      obs::logf(obs::LogLevel::kWarn, "ml",
                "SB_PRECISION=%s unrecognized (want f64|f32); using f64",
                env);
      out = PlanPrecision::kF64;
    }
    return out;
  }();
  return p;
}

std::atomic<std::uint64_t> g_plans_built{0};
std::atomic<std::uint64_t> g_folded{0};
std::atomic<std::uint64_t> g_fused{0};
std::atomic<std::uint64_t> g_packed{0};

}  // namespace

const char* to_string(PlanPrecision precision) {
  switch (precision) {
    case PlanPrecision::kF64: return "f64";
    case PlanPrecision::kF32: return "f32";
  }
  return "?";
}

bool parse_plan_precision(std::string_view text, PlanPrecision& out) {
  if (text == "f64") { out = PlanPrecision::kF64; return true; }
  if (text == "f32") { out = PlanPrecision::kF32; return true; }
  return false;
}

PlanPrecision plan_precision() { return mutable_precision(); }
void set_plan_precision(PlanPrecision precision) {
  mutable_precision() = precision;
}

PlanBuildStats plan_build_stats() {
  return {g_plans_built.load(std::memory_order_relaxed),
          g_folded.load(std::memory_order_relaxed),
          g_fused.load(std::memory_order_relaxed),
          g_packed.load(std::memory_order_relaxed)};
}

namespace detail {

struct PlanOp {
  enum class Kind {
    kConv,       // standard conv via gather + GEMM
    kDepthwise,  // per-(item,channel) single-filter conv via gather + GEMM
    kDense,      // bias-seeded GEMM over pre-transposed weight panels
    kAffine,     // exact eval-mode BatchNorm, elementwise per channel
    kRelu,       // standalone ReLU / ReLU6
    kTanh,
    kPool,       // global average pool [N,C,H,W] -> [N,C]
    kAddRelu,    // residual join: a = relu(a + b)
    kLayerCall,  // graph fallback: layer->forward(x, false)
  };

  Kind kind;
  int src = -1;   // -1 = plan input
  int src2 = -1;  // kAddRelu second operand
  int dst = -1;

  // Conv/depthwise geometry (input h/w and output oh/ow are frozen at
  // compile; `hw` doubles as the per-channel row length of kAffine).
  std::size_t in_c = 0, out_c = 0, k = 0, stride = 0, pad = 0;
  std::size_t h = 0, w = 0, oh = 0, ow = 0, hw = 0;
  std::size_t in_dim = 0, out_dim = 0;  // dense

  // Packed parameters, owned by the plan.  Conv: [outC, inC*k*k] rows;
  // depthwise: [C, k*k] rows; dense: [in, out] (the transpose of the
  // layer's [out, in] weight — the exact panel layout matmul_nn streams).
  std::vector<float> wpack;
  std::vector<float> bias;
  // Frozen im2col geometry: index into the item's input per patch slot,
  // -1 = zero padding.
  std::vector<std::int32_t> gather;

  // Fused eval-mode BatchNorm epilogue, kept in the graph's exact
  // (mean, inv_std, gamma, beta) form — NOT pre-combined into scale/shift,
  // which would change rounding vs. the layer.
  bool has_affine = false;
  std::vector<float> aff_mean, aff_inv_std, aff_gamma, aff_beta;
  bool has_relu = false;
  float relu_cap = 0.0f;

  Layer* layer = nullptr;  // kLayerCall
  std::vector<std::size_t> in_shape, out_shape;  // per-item dims

  std::size_t in_numel() const {
    std::size_t n = 1;
    for (std::size_t d : in_shape) n *= d;
    return n;
  }
  std::size_t out_numel() const {
    std::size_t n = 1;
    for (std::size_t d : out_shape) n *= d;
    return n;
  }
};

}  // namespace detail

using detail::PlanOp;

namespace {

// Frozen im2col: same (c, ky, kx) row order and zero-padding semantics as
// conv.cpp's im2col, but evaluated once into an index map.
std::vector<std::int32_t> make_gather(std::size_t channels, std::size_t h,
                                      std::size_t w, std::size_t k,
                                      std::size_t stride, std::size_t pad,
                                      std::size_t oh, std::size_t ow) {
  const std::size_t patches = oh * ow;
  std::vector<std::int32_t> map(channels * k * k * patches);
  std::int32_t* crow = map.data();
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx, crow += patches) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride + ky) -
              static_cast<std::ptrdiff_t>(pad);
          std::int32_t* dst = crow + oy * ow;
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
            std::fill_n(dst, ow, -1);
            continue;
          }
          const std::size_t row_base =
              c * h * w + static_cast<std::size_t>(iy) * w;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kx) -
                static_cast<std::ptrdiff_t>(pad);
            dst[ox] = (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w))
                          ? -1
                          : static_cast<std::int32_t>(
                                row_base + static_cast<std::size_t>(ix));
          }
        }
      }
    }
  }
  return map;
}

void run_gather(const float* xi, const std::int32_t* map, std::size_t count,
                float* col) {
  for (std::size_t r = 0; r < count; ++r) {
    const std::int32_t idx = map[r];
    col[r] = idx < 0 ? 0.0f : xi[idx];
  }
}

// One contiguous activation row through the fused epilogue.  The op
// sequence per element — xhat = (x - mean) * inv_std; y = gamma*xhat +
// beta; y = max(y, 0); y = min(y, cap) — is exactly the graph's
// BatchNorm(eval) pass followed by its ReLU pass, on both backends, so
// fusing them into one sweep is bitwise-neutral.
void epilogue_row(const float* src, float* dst, std::size_t len, bool affine,
                  float mean, float inv_std, float gamma, float beta,
                  bool relu, float cap) {
  std::size_t i = 0;
  if (util::simd_enabled()) {
    namespace v = util::simd;
    const v::VFloat vm = v::broadcast(mean);
    const v::VFloat vs = v::broadcast(inv_std);
    const v::VFloat vg = v::broadcast(gamma);
    const v::VFloat vb = v::broadcast(beta);
    const v::VFloat zero = v::zero_f();
    const v::VFloat vcap = v::broadcast(cap);
    for (; i + v::kFloatLanes <= len; i += v::kFloatLanes) {
      v::VFloat val = v::load(src + i);
      if (affine) {
        const v::VFloat xhat = v::mul(v::sub(val, vm), vs);
        val = v::add(v::mul(vg, xhat), vb);
      }
      if (relu) {
        val = v::vmax(val, zero);
        if (cap > 0.0f) val = v::vmin(val, vcap);
      }
      v::store(dst + i, val);
    }
  }
  for (; i < len; ++i) {
    float val = src[i];
    if (affine) {
      const float xhat = (val - mean) * inv_std;
      val = gamma * xhat + beta;
    }
    if (relu) {
      val = std::max(val, 0.0f);
      if (cap > 0.0f) val = std::min(val, cap);
    }
    dst[i] = val;
  }
}

void exec_conv(const PlanOp& op, const float* xin, float* y, std::size_t n) {
  const std::size_t kdim = op.in_c * op.k * op.k;
  const std::size_t patches = op.oh * op.ow;
  const std::size_t in_numel = op.in_numel(), out_numel = op.out_numel();
  util::parallel_for_ranges(
      n,
      [&](std::size_t i0, std::size_t i1) {
        util::Scratch<float> col{kdim * patches};
        for (std::size_t i = i0; i < i1; ++i) {
          run_gather(xin + i * in_numel, op.gather.data(), kdim * patches,
                     col.data());
          float* yi = y + i * out_numel;
          for (std::size_t oc = 0; oc < op.out_c; ++oc)
            std::fill_n(yi + oc * patches, patches, op.bias[oc]);
          matmul_nn(op.wpack.data(), kdim, col.data(), patches, yi, patches,
                    op.out_c, kdim, patches, true);
          if (op.has_affine || op.has_relu)
            for (std::size_t oc = 0; oc < op.out_c; ++oc)
              epilogue_row(yi + oc * patches, yi + oc * patches, patches,
                           op.has_affine,
                           op.has_affine ? op.aff_mean[oc] : 0.0f,
                           op.has_affine ? op.aff_inv_std[oc] : 0.0f,
                           op.has_affine ? op.aff_gamma[oc] : 0.0f,
                           op.has_affine ? op.aff_beta[oc] : 0.0f, op.has_relu,
                           op.relu_cap);
        }
      },
      1);
}

void exec_depthwise(const PlanOp& op, const float* xin, float* y,
                    std::size_t n) {
  const std::size_t kdim = op.k * op.k;
  const std::size_t patches = op.oh * op.ow;
  const std::size_t plane_in = op.h * op.w;
  util::parallel_for_ranges(n * op.out_c, [&](std::size_t p0, std::size_t p1) {
    util::Scratch<float> col{kdim * patches};
    for (std::size_t pair = p0; pair < p1; ++pair) {
      const std::size_t c = pair % op.out_c;
      run_gather(xin + pair * plane_in, op.gather.data(), kdim * patches,
                 col.data());
      float* yrow = y + pair * patches;
      std::fill_n(yrow, patches, op.bias[c]);
      matmul_nn(op.wpack.data() + c * kdim, kdim, col.data(), patches, yrow,
                patches, 1, kdim, patches, true);
      if (op.has_affine || op.has_relu)
        epilogue_row(yrow, yrow, patches, op.has_affine,
                     op.has_affine ? op.aff_mean[c] : 0.0f,
                     op.has_affine ? op.aff_inv_std[c] : 0.0f,
                     op.has_affine ? op.aff_gamma[c] : 0.0f,
                     op.has_affine ? op.aff_beta[c] : 0.0f, op.has_relu,
                     op.relu_cap);
    }
  });
}

void exec_dense(const PlanOp& op, const float* xin, float* y, std::size_t n) {
  // Bias-seeded rows + matmul_nn over the pre-transposed [in, out] panel:
  // per output element this is the same ascending-k mul-then-add sequence
  // as the layer's matmul_nt over [out, in], so the pack is bitwise-free.
  for (std::size_t i = 0; i < n; ++i)
    std::copy_n(op.bias.data(), op.out_dim, y + i * op.out_dim);
  matmul_nn(xin, op.in_dim, op.wpack.data(), op.out_dim, y, op.out_dim, n,
            op.in_dim, op.out_dim, true);
  if (op.has_affine) {
    // [N, C] affine: hw == 1, which the graph's BatchNorm handles entirely
    // in its scalar tail — mirror that (per-feature scalar pass).
    for (std::size_t i = 0; i < n; ++i) {
      float* row = y + i * op.out_dim;
      for (std::size_t d = 0; d < op.out_dim; ++d)
        epilogue_row(row + d, row + d, 1, true, op.aff_mean[d],
                     op.aff_inv_std[d], op.aff_gamma[d], op.aff_beta[d],
                     op.has_relu, op.relu_cap);
    }
  } else if (op.has_relu) {
    util::parallel_for_ranges(n * op.out_dim,
                              [&](std::size_t b, std::size_t e) {
                                epilogue_row(y + b, y + b, e - b, false, 0, 0,
                                             0, 0, true, op.relu_cap);
                              });
  }
}

void exec_affine(const PlanOp& op, const float* xin, float* y, std::size_t n) {
  // Standalone eval BatchNorm: per-(item, channel) rows, grain 1 like the
  // layer's per-channel parallel split (values are per-element, so any
  // split is bitwise-equal).
  util::parallel_for_ranges(
      n * op.out_c,
      [&](std::size_t p0, std::size_t p1) {
        for (std::size_t pair = p0; pair < p1; ++pair) {
          const std::size_t c = pair % op.out_c;
          epilogue_row(xin + pair * op.hw, y + pair * op.hw, op.hw, true,
                       op.aff_mean[c], op.aff_inv_std[c], op.aff_gamma[c],
                       op.aff_beta[c], op.has_relu, op.relu_cap);
        }
      },
      1);
}

void exec_add_relu(const PlanOp& op, float* a, const float* b, std::size_t n) {
  // Residual join.  The graph runs add_scaled(short, 1.0f) then a ReLU
  // sweep; a[i] + 1.0f*b[i] followed by max matches it element-for-element
  // (both serial in the graph, so this stays serial too).
  const std::size_t numel = n * op.out_numel();
  std::size_t i = 0;
  if (util::simd_enabled()) {
    namespace v = util::simd;
    const v::VFloat one = v::broadcast(1.0f);
    const v::VFloat zero = v::zero_f();
    for (; i + v::kFloatLanes <= numel; i += v::kFloatLanes) {
      const v::VFloat sum = v::add(v::load(a + i), v::mul(one, v::load(b + i)));
      v::store(a + i, v::vmax(sum, zero));
    }
  }
  for (; i < numel; ++i) a[i] = std::max(a[i] + 1.0f * b[i], 0.0f);
}

void exec_pool(const PlanOp& op, const float* xin, float* y, std::size_t n) {
  const std::size_t c = op.in_shape[0], hw = op.hw;
  util::parallel_for(n, [&](std::size_t i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* p = xin + (i * c + ch) * hw;
      float s = 0.0f;
      for (std::size_t k = 0; k < hw; ++k) s += p[k];
      y[i * c + ch] = s / static_cast<float>(hw);
    }
  });
}

void exec_layer_call(const PlanOp& op, const float* xin, float* y,
                     std::size_t n) {
  Shape in_shape;
  in_shape.push_back(n);
  for (std::size_t d : op.in_shape) in_shape.push_back(d);
  Tensor in(std::move(in_shape));
  std::copy_n(xin, in.numel(), in.data());
  const Tensor out = op.layer->forward(in, false);
  std::copy_n(out.data(), out.numel(), y);
}

}  // namespace

// ---------------------------------------------------------------------------
// PlanBuilder

PlanBuilder::PlanBuilder(std::vector<std::size_t> input_shape,
                         PlanPrecision precision)
    : precision_(precision), shape_(std::move(input_shape)) {}

PlanBuilder::~PlanBuilder() = default;

PlanOp* PlanBuilder::last_op() { return ops_.empty() ? nullptr : &ops_.back(); }

std::size_t PlanBuilder::item_numel() const {
  std::size_t n = 1;
  for (std::size_t d : shape_) n *= d;
  return n;
}

int PlanBuilder::alloc_reg(std::size_t numel) {
  for (std::size_t r = 0; r < reg_numel_.size(); ++r) {
    if (reg_pinned_[r] || static_cast<int>(r) == cur_) continue;
    reg_numel_[r] = std::max(reg_numel_[r], numel);
    return static_cast<int>(r);
  }
  if (reg_numel_.size() >= kMaxRegs)
    throw std::logic_error{"InferencePlan: register file exhausted"};
  reg_numel_.push_back(numel);
  reg_pinned_.push_back(false);
  return static_cast<int>(reg_numel_.size() - 1);
}

void PlanBuilder::touch_reg(int reg, std::size_t numel) {
  if (reg >= 0)
    reg_numel_[static_cast<std::size_t>(reg)] =
        std::max(reg_numel_[static_cast<std::size_t>(reg)], numel);
}

void PlanBuilder::pin(int reg) {
  if (reg >= 0) reg_pinned_[static_cast<std::size_t>(reg)] = true;
}

void PlanBuilder::unpin(int reg) {
  if (reg >= 0) reg_pinned_[static_cast<std::size_t>(reg)] = false;
}

void PlanBuilder::set_current(int reg, const std::vector<std::size_t>& shape) {
  cur_ = reg;
  shape_ = shape;
}

void PlanBuilder::conv2d(const Tensor& weight, const Tensor& bias,
                         std::size_t in_c, std::size_t out_c, std::size_t k,
                         std::size_t stride, std::size_t pad) {
  if (shape_.size() != 3 || shape_[0] != in_c)
    throw std::logic_error{"PlanBuilder::conv2d: shape mismatch"};
  const std::size_t h = shape_[1], w = shape_[2];
  const std::size_t oh = conv_out_dim(h, k, stride, pad);
  const std::size_t ow = conv_out_dim(w, k, stride, pad);

  PlanOp op;
  op.kind = PlanOp::Kind::kConv;
  op.src = cur_;
  op.in_c = in_c; op.out_c = out_c; op.k = k; op.stride = stride; op.pad = pad;
  op.h = h; op.w = w; op.oh = oh; op.ow = ow;
  op.in_shape = shape_;
  op.out_shape = {out_c, oh, ow};
  op.wpack.assign(weight.data(), weight.data() + weight.numel());
  op.bias.assign(bias.data(), bias.data() + bias.numel());
  op.gather = make_gather(in_c, h, w, k, stride, pad, oh, ow);
  op.dst = alloc_reg(op.out_numel());
  ++stats_.packed_panels;
  cur_ = op.dst;
  shape_ = op.out_shape;
  ops_.push_back(std::move(op));
}

void PlanBuilder::depthwise(const Tensor& weight, const Tensor& bias,
                            std::size_t c, std::size_t k, std::size_t stride,
                            std::size_t pad) {
  if (shape_.size() != 3 || shape_[0] != c)
    throw std::logic_error{"PlanBuilder::depthwise: shape mismatch"};
  const std::size_t h = shape_[1], w = shape_[2];
  const std::size_t oh = conv_out_dim(h, k, stride, pad);
  const std::size_t ow = conv_out_dim(w, k, stride, pad);

  PlanOp op;
  op.kind = PlanOp::Kind::kDepthwise;
  op.src = cur_;
  op.in_c = c; op.out_c = c; op.k = k; op.stride = stride; op.pad = pad;
  op.h = h; op.w = w; op.oh = oh; op.ow = ow;
  op.in_shape = shape_;
  op.out_shape = {c, oh, ow};
  op.wpack.assign(weight.data(), weight.data() + weight.numel());
  op.bias.assign(bias.data(), bias.data() + bias.numel());
  op.gather = make_gather(1, h, w, k, stride, pad, oh, ow);
  op.dst = alloc_reg(op.out_numel());
  ++stats_.packed_panels;
  cur_ = op.dst;
  shape_ = op.out_shape;
  ops_.push_back(std::move(op));
}

void PlanBuilder::dense(const Tensor& weight, const Tensor& bias,
                        std::size_t in_dim, std::size_t out_dim) {
  if (item_numel() != in_dim)
    throw std::logic_error{"PlanBuilder::dense: shape mismatch"};
  PlanOp op;
  op.kind = PlanOp::Kind::kDense;
  op.src = cur_;
  op.in_dim = in_dim;
  op.out_dim = out_dim;
  op.in_shape = shape_;
  op.out_shape = {out_dim};
  // Pack the [out, in] layer weight as the [in, out] B-panel matmul_nn
  // streams row-by-row.  A pure transpose copies bits, so the exact plan's
  // GEMM reproduces matmul_nt's sums identically.
  op.wpack.resize(in_dim * out_dim);
  for (std::size_t o = 0; o < out_dim; ++o)
    for (std::size_t i = 0; i < in_dim; ++i)
      op.wpack[i * out_dim + o] = weight.data()[o * in_dim + i];
  op.bias.assign(bias.data(), bias.data() + bias.numel());
  op.dst = alloc_reg(out_dim);
  ++stats_.packed_panels;
  cur_ = op.dst;
  shape_ = op.out_shape;
  ops_.push_back(std::move(op));
}

bool PlanBuilder::try_fuse_affine(const Tensor& gamma, const Tensor& beta,
                                  const Tensor& mean, const Tensor& var,
                                  float eps) {
  PlanOp* prev = last_op();
  if (!prev || prev->dst != cur_ || prev->has_affine || prev->has_relu)
    return false;
  const bool producer = prev->kind == PlanOp::Kind::kConv ||
                        prev->kind == PlanOp::Kind::kDepthwise ||
                        prev->kind == PlanOp::Kind::kDense;
  if (!producer) return false;
  const std::size_t c = prev->kind == PlanOp::Kind::kDense ? prev->out_dim
                                                           : prev->out_c;
  if (gamma.numel() != c) return false;

  if (precision_ == PlanPrecision::kF32) {
    // Fold the eval-mode BN affine into the producer's weights and bias:
    //   s    = gamma / sqrt(var + eps)
    //   w'   = w * s[oc]
    //   b'   = (b[oc] - mean[oc]) * s[oc] + beta[oc]
    // computed in double and rounded to float32 once per element — the only
    // rounding difference vs. the reference path, bounded by the tolerance
    // harness.
    const std::size_t row = prev->wpack.size() / c;
    for (std::size_t oc = 0; oc < c; ++oc) {
      const double s = static_cast<double>(gamma[oc]) /
                       std::sqrt(static_cast<double>(var[oc]) +
                                 static_cast<double>(eps));
      if (prev->kind == PlanOp::Kind::kDense) {
        for (std::size_t i = 0; i < prev->in_dim; ++i) {
          float& wv = prev->wpack[i * prev->out_dim + oc];
          wv = static_cast<float>(static_cast<double>(wv) * s);
        }
      } else {
        for (std::size_t j = 0; j < row; ++j) {
          float& wv = prev->wpack[oc * row + j];
          wv = static_cast<float>(static_cast<double>(wv) * s);
        }
      }
      prev->bias[oc] = static_cast<float>(
          (static_cast<double>(prev->bias[oc]) - static_cast<double>(mean[oc])) *
              s +
          static_cast<double>(beta[oc]));
    }
    ++stats_.folded_batchnorms;
    return true;
  }

  // Exact plan: attach the BN epilogue in the graph's own arithmetic form.
  prev->has_affine = true;
  prev->aff_mean.assign(mean.data(), mean.data() + c);
  prev->aff_gamma.assign(gamma.data(), gamma.data() + c);
  prev->aff_beta.assign(beta.data(), beta.data() + c);
  prev->aff_inv_std.resize(c);
  for (std::size_t ch = 0; ch < c; ++ch)
    prev->aff_inv_std[ch] = 1.0f / std::sqrt(var[ch] + eps);
  ++stats_.fused_activations;
  return true;
}

void PlanBuilder::batchnorm(const Tensor& gamma, const Tensor& beta,
                            const Tensor& mean, const Tensor& var, float eps) {
  if (try_fuse_affine(gamma, beta, mean, var, eps)) return;

  // Standalone exact eval BN (e.g. after a graph-call op).
  if (shape_.empty() || (shape_.size() != 1 && shape_.size() != 3))
    throw std::logic_error{"PlanBuilder::batchnorm: shape mismatch"};
  const std::size_t c = shape_[0];
  if (gamma.numel() != c)
    throw std::logic_error{"PlanBuilder::batchnorm: channel mismatch"};
  PlanOp op;
  op.kind = PlanOp::Kind::kAffine;
  op.src = cur_;
  op.out_c = c;
  op.hw = shape_.size() == 3 ? shape_[1] * shape_[2] : 1;
  op.in_shape = shape_;
  op.out_shape = shape_;
  op.has_affine = true;
  op.aff_mean.assign(mean.data(), mean.data() + c);
  op.aff_gamma.assign(gamma.data(), gamma.data() + c);
  op.aff_beta.assign(beta.data(), beta.data() + c);
  op.aff_inv_std.resize(c);
  for (std::size_t ch = 0; ch < c; ++ch)
    op.aff_inv_std[ch] = 1.0f / std::sqrt(var[ch] + eps);
  // Elementwise: runs in place when the input is already a register.
  op.dst = cur_ >= 0 ? cur_ : alloc_reg(item_numel());
  cur_ = op.dst;
  ops_.push_back(std::move(op));
}

bool PlanBuilder::try_fuse_relu(float cap) {
  PlanOp* prev = last_op();
  if (!prev || prev->dst != cur_ || prev->has_relu) return false;
  const bool fusable = prev->kind == PlanOp::Kind::kConv ||
                       prev->kind == PlanOp::Kind::kDepthwise ||
                       prev->kind == PlanOp::Kind::kDense ||
                       prev->kind == PlanOp::Kind::kAffine;
  if (!fusable) return false;
  prev->has_relu = true;
  prev->relu_cap = cap;
  ++stats_.fused_activations;
  return true;
}

void PlanBuilder::relu(float cap) {
  if (try_fuse_relu(cap)) return;
  PlanOp op;
  op.kind = PlanOp::Kind::kRelu;
  op.src = cur_;
  op.in_shape = shape_;
  op.out_shape = shape_;
  op.has_relu = true;
  op.relu_cap = cap;
  op.dst = cur_ >= 0 ? cur_ : alloc_reg(item_numel());
  cur_ = op.dst;
  ops_.push_back(std::move(op));
}

void PlanBuilder::tanh() {
  PlanOp op;
  op.kind = PlanOp::Kind::kTanh;
  op.src = cur_;
  op.in_shape = shape_;
  op.out_shape = shape_;
  op.dst = cur_ >= 0 ? cur_ : alloc_reg(item_numel());
  cur_ = op.dst;
  ops_.push_back(std::move(op));
}

void PlanBuilder::global_avg_pool() {
  if (shape_.size() != 3)
    throw std::logic_error{"PlanBuilder::global_avg_pool: expected [C,H,W]"};
  PlanOp op;
  op.kind = PlanOp::Kind::kPool;
  op.src = cur_;
  op.in_shape = shape_;
  op.out_shape = {shape_[0]};
  op.hw = shape_[1] * shape_[2];
  op.dst = alloc_reg(op.out_numel());
  cur_ = op.dst;
  shape_ = op.out_shape;
  ops_.push_back(std::move(op));
}

void PlanBuilder::flatten() {
  // Row-major activations: flattening is a pure reshape, no op emitted.
  shape_ = {item_numel()};
}

void PlanBuilder::identity() {}

void PlanBuilder::layer_call(Layer* layer) {
  PlanOp op;
  op.kind = PlanOp::Kind::kLayerCall;
  op.src = cur_;
  op.layer = layer;
  op.in_shape = shape_;
  // Discover the output shape with a one-item dry run (eval mode, so the
  // only side effect is overwriting the layer's forward caches).
  Shape probe_shape;
  probe_shape.push_back(1);
  for (std::size_t d : shape_) probe_shape.push_back(d);
  const Tensor probe = layer->forward(Tensor(std::move(probe_shape)), false);
  op.out_shape.clear();
  for (std::size_t d = 1; d < probe.ndim(); ++d)
    op.out_shape.push_back(probe.dim(d));
  op.dst = alloc_reg(op.out_numel());
  cur_ = op.dst;
  shape_ = op.out_shape;
  ops_.push_back(std::move(op));
}

void PlanBuilder::add_relu(int a, int b) {
  PlanOp op;
  op.kind = PlanOp::Kind::kAddRelu;
  op.src = a;
  op.src2 = b;
  op.dst = a;  // in place over the main branch
  op.in_shape = shape_;
  op.out_shape = shape_;
  cur_ = a;
  ops_.push_back(std::move(op));
}

// ---------------------------------------------------------------------------
// Sequential lowering (declared in layer.hpp)

bool Sequential::compile(PlanBuilder& builder) {
  for (auto& l : layers_)
    if (!l->compile(builder)) builder.layer_call(l.get());
  return true;
}

// ---------------------------------------------------------------------------
// InferencePlan

InferencePlan::~InferencePlan() = default;

std::unique_ptr<InferencePlan> InferencePlan::compile(
    Layer& model, const std::vector<std::size_t>& item_shape,
    PlanPrecision precision) {
  PlanBuilder builder{item_shape, precision};
  if (!model.compile(builder)) builder.layer_call(&model);

  std::unique_ptr<InferencePlan> plan{new InferencePlan};
  plan->precision_ = precision;
  plan->input_shape_ = item_shape;
  plan->output_shape_ = builder.shape_;
  plan->out_reg_ = builder.cur_;
  plan->reg_numel_ = std::move(builder.reg_numel_);
  plan->ops_ = std::move(builder.ops_);
  plan->stats_ = builder.stats_;
  plan->stats_.plans_built = 1;

  g_plans_built.fetch_add(1, std::memory_order_relaxed);
  g_folded.fetch_add(plan->stats_.folded_batchnorms,
                     std::memory_order_relaxed);
  g_fused.fetch_add(plan->stats_.fused_activations, std::memory_order_relaxed);
  g_packed.fetch_add(plan->stats_.packed_panels, std::memory_order_relaxed);
  static obs::Counter& builds =
      obs::Registry::instance().counter("ml.plan.builds");
  builds.add(1);
  return plan;
}

std::size_t InferencePlan::num_ops() const { return ops_.size(); }

std::size_t InferencePlan::graph_fallback_ops() const {
  std::size_t n = 0;
  for (const PlanOp& op : ops_)
    if (op.kind == PlanOp::Kind::kLayerCall) ++n;
  return n;
}

Tensor InferencePlan::forward(const Tensor& x) const {
  if (x.ndim() != input_shape_.size() + 1)
    throw std::invalid_argument{"InferencePlan::forward: rank mismatch"};
  for (std::size_t d = 0; d < input_shape_.size(); ++d)
    if (x.dim(d + 1) != input_shape_[d])
      throw std::invalid_argument{"InferencePlan::forward: shape mismatch"};
  const std::size_t n = x.dim(0);

  std::size_t total = 0;
  for (std::size_t r : reg_numel_) total += r;
  // Every register slot an op reads is written by its producer first
  // (conv/dense seed with the bias, elementwise ops overwrite), so
  // uninitialized scratch is safe.
  util::Scratch<float> arena{total * n};
  std::array<float*, kMaxRegs> regs{};
  {
    float* base = arena.data();
    for (std::size_t r = 0; r < reg_numel_.size(); ++r) {
      regs[r] = base;
      base += reg_numel_[r] * n;
    }
  }
  const auto src_ptr = [&](int reg) -> const float* {
    return reg < 0 ? x.data() : regs[static_cast<std::size_t>(reg)];
  };

  for (const PlanOp& op : ops_) {
    float* dst = regs[static_cast<std::size_t>(op.dst)];
    switch (op.kind) {
      case PlanOp::Kind::kConv:
        exec_conv(op, src_ptr(op.src), dst, n);
        break;
      case PlanOp::Kind::kDepthwise:
        exec_depthwise(op, src_ptr(op.src), dst, n);
        break;
      case PlanOp::Kind::kDense:
        exec_dense(op, src_ptr(op.src), dst, n);
        break;
      case PlanOp::Kind::kAffine:
        exec_affine(op, src_ptr(op.src), dst, n);
        break;
      case PlanOp::Kind::kRelu:
        util::parallel_for_ranges(
            n * op.out_numel(), [&](std::size_t b, std::size_t e) {
              epilogue_row(src_ptr(op.src) + b, dst + b, e - b, false, 0, 0, 0,
                           0, true, op.relu_cap);
            });
        break;
      case PlanOp::Kind::kTanh: {
        const float* in = src_ptr(op.src);
        util::parallel_for(n * op.out_numel(), [&](std::size_t i) {
          dst[i] = std::tanh(in[i]);
        });
        break;
      }
      case PlanOp::Kind::kPool:
        exec_pool(op, src_ptr(op.src), dst, n);
        break;
      case PlanOp::Kind::kAddRelu:
        exec_add_relu(op, dst, src_ptr(op.src2), n);
        break;
      case PlanOp::Kind::kLayerCall:
        exec_layer_call(op, src_ptr(op.src), dst, n);
        break;
    }
  }

  Shape out_shape;
  out_shape.push_back(n);
  for (std::size_t d : output_shape_) out_shape.push_back(d);
  Tensor y(std::move(out_shape));
  std::copy_n(src_ptr(out_reg_), y.numel(), y.data());
  return y;
}

}  // namespace sb::ml
