#include "dsp/spectrogram.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "obs/trace.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace sb::dsp {
namespace {

// Frames per batched-FFT chunk of the exact path.  Fixed, never derived from
// the thread count; 16 covers the signature's 14-frame grid in one chunk.
constexpr std::size_t kStftFrameGrain = 16;

}  // namespace

Spectrogram stft(std::span<const double> signal, const StftConfig& config) {
  obs::ScopedSpan span{"stft", obs::Stage::kStft};
  if (config.frame_size == 0 || config.hop_size == 0)
    throw std::invalid_argument{"stft: frame_size and hop_size must be positive"};
  if (next_pow2(config.frame_size) != config.frame_size)
    throw std::invalid_argument{"stft: frame_size must be a power of two"};

  const auto window = cached_window(config.window, config.frame_size);
  const double norm = 2.0 / window_sum(*window);

  Spectrogram out;
  out.num_bins = config.frame_size / 2 + 1;
  out.sample_rate = config.sample_rate;
  out.bin_hz = config.sample_rate / static_cast<double>(config.frame_size);

  if (signal.size() >= config.frame_size)
    out.num_frames = (signal.size() - config.frame_size) / config.hop_size + 1;
  out.mags.resize(out.num_frames * out.num_bins);

  // Frames are independent and write disjoint rows of the magnitude matrix;
  // per-chunk scratch comes from the workspace pool.
  if (config.fast_f32) {
    // Float32 fast path: window products computed in double and rounded to
    // float once per sample, single-precision FFT, sqrt magnitudes (std::abs
    // on complex is hypot — measured 3x the cost of the sqrt form — and the
    // float grid can't represent hypot's extra headroom anyway).  Magnitudes
    // widen back to double so everything downstream is unchanged.
    util::parallel_for_ranges(out.num_frames, [&](std::size_t f0, std::size_t f1) {
      const std::size_t fsize = config.frame_size;
      util::Scratch<float> cbuf{2 * fsize};
      // std::complex<float> is layout-compatible with float[2].
      auto* spec = reinterpret_cast<std::complex<float>*>(cbuf.data());
      const double* win = window->data();
      for (std::size_t f = f0; f < f1; ++f) {
        const std::size_t start = f * config.hop_size;
        for (std::size_t k = 0; k < fsize; ++k)
          spec[k] = std::complex<float>{
              static_cast<float>(signal[start + k] * win[k]), 0.0f};
        fft_inplace_f32({spec, fsize});
        double* row = out.mags.data() + f * out.num_bins;
        for (std::size_t k = 0; k < out.num_bins; ++k) {
          const float re = spec[k].real();
          const float im = spec[k].imag();
          row[k] = static_cast<double>(std::sqrt(re * re + im * im)) * norm;
        }
      }
    });
    return out;
  }
  // Exact double path: frames run through the batched FFT kernel, one SIMD
  // lane per frame, kStftFrameGrain frames per chunk.  Each chunk fills its
  // structure-of-arrays planes straight from the signal, already windowed and
  // in bit-reversed order (row k holds frame sample rev[k] times window
  // coefficient rev[k] — the very product apply_window forms), so every
  // frame is bitwise what copy -> apply_window -> fft_inplace -> std::abs
  // gives.  Chunks write disjoint rows, and the fixed grain keeps the plan
  // lookup count (one per chunk) independent of the thread count.
  const std::size_t chunks = (out.num_frames + kStftFrameGrain - 1) / kStftFrameGrain;
  util::parallel_for(chunks, [&](std::size_t c) {
    const std::size_t fsize = config.frame_size;
    const std::size_t f0 = c * kStftFrameGrain;
    const std::size_t batch = std::min(kStftFrameGrain, out.num_frames - f0);
    const auto rev = fft_bit_reversal(fsize);
    const double* win = window->data();
    const double* first = signal.data() + f0 * config.hop_size;
    util::Scratch<double> re{fsize * batch};
    util::Scratch<double> im{fsize * batch};
    for (std::size_t k = 0; k < fsize; ++k) {
      const std::size_t src = rev[k];
      const double w = win[src];
      double* row = re.data() + k * batch;
      for (std::size_t b = 0; b < batch; ++b)
        row[b] = first[b * config.hop_size + src] * w;
    }
    std::fill_n(im.data(), fsize * batch, 0.0);
    fft_batch_bitreversed(re.span(), im.span(), fsize, batch);
    for (std::size_t b = 0; b < batch; ++b) {
      double* row = out.mags.data() + (f0 + b) * out.num_bins;
      for (std::size_t k = 0; k < out.num_bins; ++k)
        row[k] = std::abs(std::complex<double>{re[k * batch + b],
                                               im[k * batch + b]}) *
                 norm;
    }
  }, 1);
  return out;
}

std::vector<double> band_amplitude_over_time(const Spectrogram& spec, double lo_hz,
                                             double hi_hz) {
  std::vector<double> out(spec.num_frames, 0.0);
  if (spec.num_frames == 0 || spec.bin_hz <= 0.0) return out;
  const auto lo = static_cast<std::size_t>(std::max(0.0, lo_hz / spec.bin_hz));
  const auto hi = std::min(static_cast<std::size_t>(hi_hz / spec.bin_hz),
                           spec.num_bins);
  const std::size_t count = hi > lo ? hi - lo : 1;
  for (std::size_t f = 0; f < spec.num_frames; ++f) {
    double s = 0.0;
    for (std::size_t k = lo; k < hi; ++k) s += spec.at(f, k);
    out[f] = s / static_cast<double>(count);
  }
  return out;
}

}  // namespace sb::dsp
