#include "dsp/biquad.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "util/simd.hpp"

namespace sb::dsp {

Biquad::Biquad(double b0, double b1, double b2, double a1, double a2)
    : b0_(b0), b1_(b1), b2_(b2), a1_(a1), a2_(a2) {}

Biquad Biquad::low_pass(double cutoff_hz, double sample_rate, double q) {
  const double w0 = 2.0 * std::numbers::pi * cutoff_hz / sample_rate;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  return {(1.0 - cw) / 2.0 / a0, (1.0 - cw) / a0, (1.0 - cw) / 2.0 / a0,
          -2.0 * cw / a0, (1.0 - alpha) / a0};
}

Biquad Biquad::high_pass(double cutoff_hz, double sample_rate, double q) {
  const double w0 = 2.0 * std::numbers::pi * cutoff_hz / sample_rate;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  return {(1.0 + cw) / 2.0 / a0, -(1.0 + cw) / a0, (1.0 + cw) / 2.0 / a0,
          -2.0 * cw / a0, (1.0 - alpha) / a0};
}

Biquad Biquad::band_pass(double center_hz, double sample_rate, double q) {
  const double w0 = 2.0 * std::numbers::pi * center_hz / sample_rate;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  return {alpha / a0, 0.0, -alpha / a0, -2.0 * cw / a0, (1.0 - alpha) / a0};
}

Biquad Biquad::notch(double center_hz, double sample_rate, double q) {
  const double w0 = 2.0 * std::numbers::pi * center_hz / sample_rate;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  return {1.0 / a0, -2.0 * cw / a0, 1.0 / a0, -2.0 * cw / a0, (1.0 - alpha) / a0};
}

double Biquad::process(double x) {
  const double y = b0_ * x + b1_ * x1_ + b2_ * x2_ - a1_ * y1_ - a2_ * y2_;
  x2_ = x1_;
  x1_ = x;
  y2_ = y1_;
  y1_ = y;
  return y;
}

std::vector<double> Biquad::process(std::span<const double> xs) {
  std::vector<double> out(xs.size());
  process_into(xs, out);
  return out;
}

void Biquad::process_into(std::span<const double> xs, std::span<double> out) {
  if (xs.size() != out.size())
    throw std::invalid_argument{"Biquad::process_into: size mismatch"};
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = process(xs[i]);
}

void Biquad::reset() { x1_ = x2_ = y1_ = y2_ = 0.0; }

namespace {

// Channels per lane block of cascade_channels: the signature's 4 mics fill
// one block (one AVX2 vector, two SSE2/NEON vectors).
constexpr std::size_t kLaneBlock = 4;

struct Coeffs {
  double b0, b1, b2, a1, a2;
};

// `sections` sections over an interleaved [n][kLaneBlock] block, in place,
// each from zero state: per lane exactly Biquad::process's formula and
// operation order.  A cascade feeds section s+1 the output sequence of
// section s, so running the sections over the whole block in turn computes
// the same values as stepping every section per sample.
void cascade_pass_scalar(double* buf, std::size_t n, const Coeffs& c,
                         int sections) {
  for (int sec = 0; sec < sections; ++sec) {
    double x1[kLaneBlock] = {}, x2[kLaneBlock] = {};
    double y1[kLaneBlock] = {}, y2[kLaneBlock] = {};
    for (std::size_t i = 0; i < n; ++i) {
      double* s = buf + i * kLaneBlock;
      for (std::size_t l = 0; l < kLaneBlock; ++l) {
        const double x = s[l];
        const double y = c.b0 * x + c.b1 * x1[l] + c.b2 * x2[l] -
                         c.a1 * y1[l] - c.a2 * y2[l];
        x2[l] = x1[l];
        x1[l] = x;
        y2[l] = y1[l];
        y1[l] = y;
        s[l] = y;
      }
    }
  }
}

namespace v = util::simd;

struct VSection {
  v::VDouble b0, b1, b2, a1, a2;
};
struct VState {
  v::VDouble x1, x2, y1, y2;
};

inline void section_step(double* s, const VSection& c, VState& st) {
  const v::VDouble x = v::loadd(s);
  const v::VDouble y = v::subd(
      v::subd(v::addd(v::addd(v::muld(c.b0, x), v::muld(c.b1, st.x1)),
                      v::muld(c.b2, st.x2)),
              v::muld(c.a1, st.y1)),
      v::muld(c.a2, st.y2));
  st.x2 = st.x1;
  st.x1 = x;
  st.y2 = st.y1;
  st.y1 = y;
  v::stored(s, y);
}

// One section over an interleaved block, in place, from zero state.  The
// block's vectors are stepped side by side — a fold over J, so every state
// index is a constant and the states stay in registers — and their
// independent recurrences hide each other's per-sample latency.  (Fusing
// the two sections into one loop as well measured slower at 2 double lanes:
// the extra states spill.)
template <std::size_t... J>
void section_pass_vectors(double* buf, std::size_t n, const VSection& c,
                          std::index_sequence<J...>) {
  const v::VDouble zero = v::broadcastd(0.0);
  VState st[sizeof...(J)];
  for (auto& state : st) state = {zero, zero, zero, zero};
  for (std::size_t i = 0; i < n; ++i) {
    double* s = buf + i * kLaneBlock;
    (section_step(s + J * v::kDoubleLanes, c, st[J]), ...);
  }
}

// The vector form of cascade_pass_scalar.
void cascade_pass_vector(double* buf, std::size_t n, const Coeffs& c,
                         int sections) {
  static_assert(kLaneBlock % v::kDoubleLanes == 0);
  const VSection vc{v::broadcastd(c.b0), v::broadcastd(c.b1),
                    v::broadcastd(c.b2), v::broadcastd(c.a1),
                    v::broadcastd(c.a2)};
  for (int sec = 0; sec < sections; ++sec)
    section_pass_vectors(buf, n, vc,
                         std::make_index_sequence<kLaneBlock / v::kDoubleLanes>{});
}

}  // namespace

void Biquad::cascade_channels(int sections,
                              std::span<const std::span<const double>> in,
                              std::span<const std::span<double>> out) const {
  if (in.size() != out.size())
    throw std::invalid_argument{"Biquad::cascade_channels: channel count mismatch"};
  const std::size_t n = in.empty() ? 0 : in[0].size();
  for (std::size_t c = 0; c < in.size(); ++c)
    if (in[c].size() != n || out[c].size() != n)
      throw std::invalid_argument{"Biquad::cascade_channels: length mismatch"};
  const Coeffs coeffs{b0_, b1_, b2_, a1_, a2_};
  auto* pass = util::simd_enabled() ? cascade_pass_vector : cascade_pass_scalar;
  // Channels are interleaved into [n][kLaneBlock] blocks.  Unused lanes of
  // the last block are zero-filled: they are read, and never copied out.
  util::Scratch<double> block{n * kLaneBlock};
  for (std::size_t c0 = 0; c0 < in.size(); c0 += kLaneBlock) {
    const std::size_t lanes = std::min(kLaneBlock, in.size() - c0);
    const double* src[kLaneBlock] = {};
    double* dst[kLaneBlock] = {};
    for (std::size_t l = 0; l < lanes; ++l) {
      src[l] = in[c0 + l].data();
      dst[l] = out[c0 + l].data();
    }
    double* row = block.data();
    for (std::size_t i = 0; i < n; ++i, row += kLaneBlock)
      for (std::size_t l = 0; l < kLaneBlock; ++l)
        row[l] = l < lanes ? src[l][i] : 0.0;
    pass(block.data(), n, coeffs, sections);
    row = block.data();
    for (std::size_t i = 0; i < n; ++i, row += kLaneBlock)
      for (std::size_t l = 0; l < lanes; ++l) dst[l][i] = row[l];
  }
}

double Biquad::magnitude_at(double hz, double sample_rate) const {
  const double w = 2.0 * std::numbers::pi * hz / sample_rate;
  const std::complex<double> z{std::cos(w), std::sin(w)};
  const auto z1 = 1.0 / z, z2 = z1 * z1;
  const auto num = b0_ + b1_ * z1 + b2_ * z2;
  const auto den = 1.0 + a1_ * z1 + a2_ * z2;
  return std::abs(num / den);
}

BiquadCascade BiquadCascade::low_pass(double cutoff_hz, double sample_rate,
                                      int sections) {
  BiquadCascade c;
  for (int i = 0; i < sections; ++i)
    c.sections_.push_back(Biquad::low_pass(cutoff_hz, sample_rate));
  return c;
}

double BiquadCascade::process(double x) {
  for (auto& s : sections_) x = s.process(x);
  return x;
}

std::vector<double> BiquadCascade::process(std::span<const double> xs) {
  std::vector<double> out(xs.size());
  process_into(xs, out);
  return out;
}

void BiquadCascade::process_into(std::span<const double> xs,
                                 std::span<double> out) {
  if (xs.size() != out.size())
    throw std::invalid_argument{"BiquadCascade::process_into: size mismatch"};
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = process(xs[i]);
}

void BiquadCascade::reset() {
  for (auto& s : sections_) s.reset();
}

}  // namespace sb::dsp
