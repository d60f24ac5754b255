#include "core/signature.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

#include "dsp/biquad.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace sb::core {

SignatureShape signature_shape(const SignatureConfig& config) {
  return {static_cast<std::size_t>(sensors::kNumMics), config.target_frames,
          config.bands.bands_per_frame};
}

std::vector<WindowSpan> window_grid(double settle, double stride,
                                    double window_seconds, double duration) {
  std::vector<WindowSpan> grid;
  if (stride <= 0.0 || window_seconds <= 0.0) return grid;
  for (double t0 = settle; t0 + window_seconds <= duration; t0 += stride)
    grid.push_back({t0, t0 + window_seconds});
  return grid;
}

ml::Tensor compute_signature(const acoustics::MultiChannelAudio& audio,
                             const SignatureConfig& config, bool fast_f32) {
  const std::size_t n = audio.num_samples();
  if (n < config.frame_size)
    throw std::invalid_argument{"compute_signature: window shorter than one frame"};

  // Stretch the hop so any capture length yields target_frames frames.
  const std::size_t span = n - config.frame_size;
  const std::size_t hop =
      std::max<std::size_t>(1, span / std::max<std::size_t>(config.target_frames - 1, 1));

  dsp::StftConfig stft_cfg;
  stft_cfg.frame_size = config.frame_size;
  stft_cfg.hop_size = hop;
  stft_cfg.sample_rate = audio.sample_rate;
  stft_cfg.fast_f32 = fast_f32;

  const auto shape = signature_shape(config);
  ml::Tensor out({1, shape.channels, shape.frames, shape.bands});

  // 6 kHz anti-spoofing low-pass before analysis: one section design, all
  // mics filtered together (one SIMD lane per channel).  Filtered samples
  // and band features live in workspace scratch (fully overwritten below),
  // so the per-window signature path stays off the heap in steady state.
  constexpr std::size_t kMics = sensors::kNumMics;
  util::Scratch<double> filtered{kMics * n};
  {
    std::array<std::span<const double>, kMics> in;
    std::array<std::span<double>, kMics> lp_out;
    for (std::size_t ci = 0; ci < kMics; ++ci) {
      in[ci] = audio.channels[ci];
      lp_out[ci] = filtered.span().subspan(ci * n, n);
    }
    dsp::Biquad::low_pass(config.lowpass_hz, audio.sample_rate)
        .cascade_channels(config.lowpass_sections, in, lp_out);
  }

  // Channels are analysed independently and fill disjoint slices of the
  // output tensor.
  util::parallel_for(kMics, [&](std::size_t ci) {
    const auto spec = dsp::stft(filtered.span().subspan(ci * n, n), stft_cfg);
    util::Scratch<double> feats{spec.num_frames * config.bands.bands_per_frame};
    dsp::band_features_into(spec, config.bands, feats.span());
    const std::size_t frames = std::min<std::size_t>(spec.num_frames, shape.frames);
    for (std::size_t f = 0; f < frames; ++f)
      for (std::size_t b = 0; b < shape.bands; ++b)
        out[(ci * shape.frames + f) * shape.bands + b] =
            static_cast<float>(feats[f * config.bands.bands_per_frame + b]);
    // If the STFT produced fewer frames than the target (rounding), repeat
    // the last frame so the grid is always dense.
    for (std::size_t f = frames; f < shape.frames && frames > 0; ++f)
      for (std::size_t b = 0; b < shape.bands; ++b)
        out[(ci * shape.frames + f) * shape.bands + b] =
            out[(ci * shape.frames + frames - 1) * shape.bands + b];
  }, 1);
  return out;
}

void remove_frequency_group(ml::Tensor& signatures, dsp::FreqGroup group,
                            const SignatureConfig& config) {
  if (signatures.ndim() != 4)
    throw std::invalid_argument{"remove_frequency_group: expected [N,C,H,W]"};
  const std::size_t bands = signatures.dim(3);
  for (std::size_t i = 0; i < signatures.numel(); ++i) {
    const std::size_t band = i % bands;
    if (dsp::group_of_band(band, config.bands) == group)
      signatures[i] = static_cast<float>(dsp::kSilenceFeature);
  }
}

}  // namespace sb::core
