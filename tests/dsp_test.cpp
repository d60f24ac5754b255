#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>

#include "dsp/biquad.hpp"
#include "dsp/features.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrogram.hpp"
#include "dsp/window.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sb::dsp {
namespace {

struct SimdBackendGuard {
  util::SimdBackend saved = util::simd_backend();
  explicit SimdBackendGuard(util::SimdBackend b) { util::set_simd_backend(b); }
  ~SimdBackendGuard() { util::set_simd_backend(saved); }
};

std::vector<double> sine(double freq, double fs, std::size_t n, double amp = 1.0) {
  std::vector<double> s(n);
  for (std::size_t i = 0; i < n; ++i)
    s[i] = amp * std::sin(2.0 * std::numbers::pi * freq * static_cast<double>(i) / fs);
  return s;
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(100);
  EXPECT_THROW(fft(data), std::invalid_argument);
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<std::complex<double>> data(64);
  data[0] = 1.0;
  fft(data);
  for (const auto& x : data) EXPECT_NEAR(std::abs(x), 1.0, 1e-12);
}

TEST(Fft, RoundTrip) {
  Rng rng{3};
  std::vector<std::complex<double>> data(128);
  for (auto& x : data) x = {rng.normal(), rng.normal()};
  const auto original = data;
  fft(data);
  ifft(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-9);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng{4};
  std::vector<std::complex<double>> data(256);
  double time_energy = 0.0;
  for (auto& x : data) {
    x = {rng.normal(), 0.0};
    time_energy += std::norm(x);
  }
  fft(data);
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / 256.0, time_energy, 1e-6 * time_energy);
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft, MagnitudeSpectrumFindsTone) {
  const double fs = 16000.0;
  const auto s = sine(1000.0, fs, 1024, 2.0);
  const auto mags = magnitude_spectrum(s);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < mags.size(); ++k)
    if (mags[k] > mags[peak]) peak = k;
  EXPECT_NEAR(bin_frequency(peak, 1024, fs), 1000.0, fs / 1024.0);
  EXPECT_NEAR(mags[peak], 2.0, 0.3);
}

TEST(Fft, GoertzelMatchesFftAtBin) {
  const double fs = 16000.0;
  // Bin-centred frequency so there is no leakage.
  const double f = 32.0 * fs / 1024.0;
  const auto s = sine(f, fs, 1024, 1.5);
  EXPECT_NEAR(goertzel(s, f, fs), 1.5, 0.05);
  EXPECT_NEAR(goertzel(s, f * 2, fs), 0.0, 0.05);
}

TEST(Fft, F32TracksDoubleTransform) {
  Rng rng{11};
  const std::size_t n = 1024;
  std::vector<std::complex<double>> ref(n);
  std::vector<std::complex<float>> f32(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double re = rng.normal(), im = rng.normal();
    ref[i] = {re, im};
    f32[i] = {static_cast<float>(re), static_cast<float>(im)};
  }
  fft(ref);
  fft_inplace_f32(f32);
  double peak = 0.0;
  for (const auto& x : ref) peak = std::max(peak, std::abs(x));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(f32[i].real(), ref[i].real(), 1e-5 * peak);
    EXPECT_NEAR(f32[i].imag(), ref[i].imag(), 1e-5 * peak);
  }
}

TEST(Fft, F32RejectsNonPowerOfTwo) {
  std::vector<std::complex<float>> data(100);
  EXPECT_THROW(fft_inplace_f32(data), std::invalid_argument);
}

TEST(Fft, PlanCacheHitsOnWarmSize) {
  auto& hits = sb::obs::Registry::instance().counter("fft.plan_hits");
  // First transform builds (or reuses) the 512-point plan; the second must
  // be a cache hit — a rebuild per call would defeat the plan cache.
  std::vector<std::complex<double>> a(512, {1.0, 0.0});
  fft(a);
  const auto before = hits.value();
  std::vector<std::complex<double>> b(512, {0.5, 0.0});
  fft(b);
  EXPECT_GT(hits.value(), before);
}

TEST(Window, HannEndpointsAndPeak) {
  const auto w = make_window(WindowType::kHann, 64);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 0.01);
}

TEST(Window, RectIsUnity) {
  const auto w = make_window(WindowType::kRect, 16);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Window, SumMatchesApplied) {
  const auto w = make_window(WindowType::kHamming, 128);
  EXPECT_NEAR(window_sum(w), 0.54 * 128, 1.0);
}

TEST(Window, ApplyMismatchThrows) {
  std::vector<double> frame(10);
  const auto w = make_window(WindowType::kHann, 8);
  EXPECT_THROW(apply_window(frame, w), std::invalid_argument);
}

class WindowTypeTest : public ::testing::TestWithParam<WindowType> {};

TEST_P(WindowTypeTest, NonNegativeAndBounded) {
  const auto w = make_window(GetParam(), 101);
  for (double v : w) {
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWindows, WindowTypeTest,
                         ::testing::Values(WindowType::kRect, WindowType::kHann,
                                           WindowType::kHamming,
                                           WindowType::kBlackman));

TEST(Stft, FrameCount) {
  StftConfig cfg;
  cfg.frame_size = 256;
  std::vector<double> signal(1024, 0.0);
  for (const std::size_t hop : {std::size_t{128}, std::size_t{300}}) {
    cfg.hop_size = hop;
    const auto spec = stft(signal, cfg);
    EXPECT_EQ(spec.num_frames, (1024 - 256) / hop + 1);
    EXPECT_EQ(spec.num_bins, 129u);
  }
}

TEST(Stft, ShortSignalYieldsNoFrames) {
  StftConfig cfg;
  cfg.frame_size = 256;
  std::vector<double> signal(100, 0.0);
  EXPECT_EQ(stft(signal, cfg).num_frames, 0u);
}

TEST(Stft, RequiresPowerOfTwoFrame) {
  StftConfig cfg;
  cfg.frame_size = 300;
  std::vector<double> signal(1024, 0.0);
  EXPECT_THROW(stft(signal, cfg), std::invalid_argument);
}

TEST(Stft, ToneAppearsInCorrectBand) {
  StftConfig cfg;
  cfg.frame_size = 1024;
  cfg.hop_size = 512;
  cfg.sample_rate = 16000.0;
  const auto s = sine(2500.0, cfg.sample_rate, 8000, 1.0);
  const auto spec = stft(s, cfg);
  const auto band = band_amplitude_over_time(spec, 2400.0, 2600.0);
  const auto off_band = band_amplitude_over_time(spec, 5000.0, 5200.0);
  ASSERT_FALSE(band.empty());
  EXPECT_GT(band[0], 10.0 * (off_band[0] + 1e-9));
}

TEST(Stft, AmplitudeTracksToneLevel) {
  StftConfig cfg;
  cfg.frame_size = 1024;
  cfg.hop_size = 512;
  cfg.sample_rate = 16000.0;
  auto quiet = sine(1000.0, cfg.sample_rate, 4096, 0.5);
  auto loud = sine(1000.0, cfg.sample_rate, 4096, 1.5);
  const auto bq = band_amplitude_over_time(stft(quiet, cfg), 900, 1100);
  const auto bl = band_amplitude_over_time(stft(loud, cfg), 900, 1100);
  EXPECT_NEAR(bl[0] / bq[0], 3.0, 0.2);
}

TEST(Stft, FastF32TracksExactPipeline) {
  StftConfig cfg;
  cfg.frame_size = 1024;
  cfg.hop_size = 512;
  cfg.sample_rate = 16000.0;
  Rng rng{13};
  auto s = sine(2500.0, cfg.sample_rate, 8000, 1.0);
  for (auto& v : s) v += rng.normal(0.0, 0.05);
  const auto exact = stft(s, cfg);
  cfg.fast_f32 = true;
  const auto fast = stft(s, cfg);
  ASSERT_EQ(fast.num_frames, exact.num_frames);
  ASSERT_EQ(fast.num_bins, exact.num_bins);
  double peak = 0.0;
  for (double m : exact.mags) peak = std::max(peak, m);
  ASSERT_GT(peak, 0.0);
  for (std::size_t i = 0; i < exact.mags.size(); ++i)
    EXPECT_NEAR(fast.mags[i], exact.mags[i], 1e-5 * peak) << "cell " << i;
}

TEST(Stft, FastF32ScalarAndVectorBackendsAreBitwiseIdentical) {
  StftConfig cfg;
  cfg.frame_size = 512;
  cfg.hop_size = 256;
  cfg.fast_f32 = true;
  Rng rng{14};
  std::vector<double> s(4096);
  for (auto& v : s) v = rng.normal(0.0, 0.3);
  Spectrogram vec, sca;
  {
    SimdBackendGuard g{util::SimdBackend::kVector};
    vec = stft(s, cfg);
  }
  {
    SimdBackendGuard g{util::SimdBackend::kScalar};
    sca = stft(s, cfg);
  }
  ASSERT_EQ(vec.mags.size(), sca.mags.size());
  for (std::size_t i = 0; i < vec.mags.size(); ++i)
    ASSERT_EQ(vec.mags[i], sca.mags[i]) << "cell " << i;
}

// Test-local per-frame oracle for the exact STFT: copy -> apply_window ->
// fft_inplace -> std::abs, one frame at a time.
Spectrogram per_frame_stft(std::span<const double> signal, const StftConfig& cfg) {
  const auto window = make_window(cfg.window, cfg.frame_size);
  const double norm = 2.0 / window_sum(window);
  Spectrogram out;
  out.num_bins = cfg.frame_size / 2 + 1;
  if (signal.size() >= cfg.frame_size)
    out.num_frames = (signal.size() - cfg.frame_size) / cfg.hop_size + 1;
  out.mags.resize(out.num_frames * out.num_bins);
  std::vector<double> frame(cfg.frame_size);
  std::vector<std::complex<double>> spec(cfg.frame_size);
  for (std::size_t f = 0; f < out.num_frames; ++f) {
    std::copy_n(signal.begin() + static_cast<std::ptrdiff_t>(f * cfg.hop_size),
                cfg.frame_size, frame.begin());
    apply_window(frame, window);
    for (std::size_t k = 0; k < cfg.frame_size; ++k) spec[k] = {frame[k], 0.0};
    fft_inplace(spec);
    for (std::size_t k = 0; k < out.num_bins; ++k)
      out.at(f, k) = std::abs(spec[k]) * norm;
  }
  return out;
}

// NaN and infinities go to separate inputs: inf - inf makes the default NaN,
// and which of two NaN payloads an operation returns is the documented
// multi-NaN boundary of the SIMD contract (util/simd.hpp), not a property
// of the STFT.  With one NaN source per input every bit is pinned.
enum class StftInput { kNoise, kNaN, kInf, kZeros };

std::vector<double> stft_input(StftInput kind, std::size_t n, std::uint64_t seed) {
  std::vector<double> s(n, 0.0);
  if (kind == StftInput::kZeros) return s;
  Rng rng{seed};
  for (auto& v : s) v = rng.normal(0.0, 0.3);
  if (kind == StftInput::kNaN) s[n / 5] = std::numeric_limits<double>::quiet_NaN();
  if (kind == StftInput::kInf) {
    s[n / 5] = std::numeric_limits<double>::infinity();
    s[n / 2] = -std::numeric_limits<double>::infinity();
  }
  return s;
}

struct StftShape {
  std::size_t frames;
  std::size_t hop;
};

class StftBatchEquivalence : public ::testing::TestWithParam<StftShape> {};

// The batched exact STFT equals the per-frame oracle bitwise for every frame
// count around the batch grain (1, 3, 14, 15, several chunks), hops below
// and above the frame size, both SIMD backends, 1 and 4 threads, and inputs
// carrying a NaN, +-Inf or only zeros.
TEST_P(StftBatchEquivalence, MatchesPerFrameReferenceBitwise) {
  const auto [frames, hop] = GetParam();
  StftConfig cfg;
  cfg.frame_size = 256;
  cfg.hop_size = hop;
  // A tail shorter than one hop, which no frame may read.
  const std::size_t n = (frames - 1) * hop + cfg.frame_size + hop / 2;
  for (const auto kind :
       {StftInput::kNoise, StftInput::kNaN, StftInput::kInf, StftInput::kZeros}) {
    const auto signal = stft_input(kind, n, 17 + frames);
    for (const auto backend : {util::SimdBackend::kVector, util::SimdBackend::kScalar}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(::testing::Message()
                     << "input " << static_cast<int>(kind) << ", backend "
                     << static_cast<int>(backend) << ", threads " << threads);
        SimdBackendGuard simd{backend};
        util::ThreadPool::set_threads(threads);
        const auto got = stft(signal, cfg);
        util::ThreadPool::set_threads(0);
        const auto want = per_frame_stft(signal, cfg);
        ASSERT_EQ(got.num_frames, frames);
        ASSERT_EQ(got.mags.size(), want.mags.size());
        EXPECT_EQ(std::memcmp(got.mags.data(), want.mags.data(),
                              got.mags.size() * sizeof(double)),
                  0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FramesAndHops, StftBatchEquivalence,
    ::testing::Values(StftShape{1, 100}, StftShape{3, 100}, StftShape{14, 100},
                      StftShape{15, 100}, StftShape{40, 100}, StftShape{1, 300},
                      StftShape{3, 300}, StftShape{14, 300}, StftShape{15, 300},
                      StftShape{40, 300}),
    [](const auto& info) {
      return "F" + std::to_string(info.param.frames) + "_hop" +
             std::to_string(info.param.hop);
    });

TEST(Biquad, LowPassAttenuatesHighFrequency) {
  Biquad lp = Biquad::low_pass(1000.0, 16000.0);
  EXPECT_NEAR(lp.magnitude_at(100.0, 16000.0), 1.0, 0.05);
  EXPECT_LT(lp.magnitude_at(6000.0, 16000.0), 0.05);
}

TEST(Biquad, HighPassMirrorsLowPass) {
  Biquad hp = Biquad::high_pass(1000.0, 16000.0);
  EXPECT_LT(hp.magnitude_at(50.0, 16000.0), 0.01);
  EXPECT_NEAR(hp.magnitude_at(7000.0, 16000.0), 1.0, 0.05);
}

TEST(Biquad, BandPassPeaksAtCenter) {
  Biquad bp = Biquad::band_pass(2500.0, 16000.0, 3.0);
  const double at_center = bp.magnitude_at(2500.0, 16000.0);
  EXPECT_GT(at_center, bp.magnitude_at(1000.0, 16000.0) * 5.0);
  EXPECT_GT(at_center, bp.magnitude_at(5000.0, 16000.0) * 5.0);
}

TEST(Biquad, NotchNullsCenter) {
  Biquad n = Biquad::notch(2500.0, 16000.0, 5.0);
  EXPECT_LT(n.magnitude_at(2500.0, 16000.0), 0.05);
  EXPECT_NEAR(n.magnitude_at(100.0, 16000.0), 1.0, 0.05);
}

TEST(Biquad, TimeDomainMatchesMagnitudeResponse) {
  Biquad lp = Biquad::low_pass(2000.0, 16000.0);
  const auto s = sine(5500.0, 16000.0, 4000);
  const auto y = lp.process(s);
  // Steady-state amplitude after the transient.
  double peak = 0.0;
  for (std::size_t i = 2000; i < y.size(); ++i) peak = std::max(peak, std::abs(y[i]));
  EXPECT_NEAR(peak, lp.magnitude_at(5500.0, 16000.0), 0.02);
}

TEST(Biquad, ResetClearsState) {
  Biquad lp = Biquad::low_pass(2000.0, 16000.0);
  lp.process(1.0);
  lp.process(1.0);
  lp.reset();
  Biquad fresh = Biquad::low_pass(2000.0, 16000.0);
  EXPECT_DOUBLE_EQ(lp.process(0.5), fresh.process(0.5));
}

TEST(BiquadCascade, SteeperThanSingleSection) {
  Biquad one = Biquad::low_pass(1000.0, 16000.0);
  BiquadCascade two = BiquadCascade::low_pass(1000.0, 16000.0, 2);
  const auto s = sine(4000.0, 16000.0, 4000);
  Biquad one_copy = one;
  const auto y1 = one_copy.process(s);
  const auto y2 = two.process(s);
  double p1 = 0.0, p2 = 0.0;
  for (std::size_t i = 2000; i < s.size(); ++i) {
    p1 = std::max(p1, std::abs(y1[i]));
    p2 = std::max(p2, std::abs(y2[i]));
  }
  EXPECT_LT(p2, p1 * 0.5);
}

TEST(Features, GroupBandsCoverExpectedFrequencies) {
  BandFeatureConfig cfg;  // 32 bands to 6 kHz -> 187.5 Hz per band
  // 200 Hz -> band 1 -> blade passing.
  EXPECT_EQ(group_of_band(1, cfg), FreqGroup::kBladePassing);
  // 2500 Hz -> band 13 -> mechanical.
  EXPECT_EQ(group_of_band(13, cfg), FreqGroup::kMechanical);
  // 5500 Hz -> band 29 -> aerodynamic.
  EXPECT_EQ(group_of_band(29, cfg), FreqGroup::kAerodynamic);
  // 3800 Hz -> none of the named groups.
  EXPECT_EQ(group_of_band(20, cfg), FreqGroup::kOther);
}

TEST(Features, BandFeatureLayout) {
  StftConfig scfg;
  scfg.frame_size = 1024;
  scfg.hop_size = 512;
  const auto s = sine(2500.0, 16000.0, 4096);
  const auto spec = stft(s, scfg);
  BandFeatureConfig cfg;
  const auto feats = band_features(spec, cfg);
  EXPECT_EQ(feats.size(), spec.num_frames * cfg.bands_per_frame);
}

TEST(Features, ToneRaisesItsBandOnly) {
  StftConfig scfg;
  scfg.frame_size = 1024;
  scfg.hop_size = 512;
  const auto s = sine(2500.0, 16000.0, 4096, 1.0);
  const auto spec = stft(s, scfg);
  BandFeatureConfig cfg;
  const auto feats = band_features(spec, cfg);
  // Band 13 holds 2500 Hz; band 5 holds ~1 kHz.
  EXPECT_GT(feats[13], feats[5] + 3.0);  // log scale: >3 nats apart
}

TEST(Features, RemoveGroupSilencesItsBands) {
  BandFeatureConfig cfg;
  std::vector<double> feats(2 * cfg.bands_per_frame, 1.0);
  remove_group(feats, cfg.bands_per_frame, FreqGroup::kAerodynamic, cfg);
  bool any_removed = false;
  for (std::size_t i = 0; i < feats.size(); ++i) {
    const auto band = i % cfg.bands_per_frame;
    if (group_of_band(band, cfg) == FreqGroup::kAerodynamic) {
      EXPECT_DOUBLE_EQ(feats[i], kSilenceFeature);
      any_removed = true;
    } else {
      EXPECT_DOUBLE_EQ(feats[i], 1.0);
    }
  }
  EXPECT_TRUE(any_removed);
}

TEST(Features, RemoveGroupRejectsBadLayout) {
  BandFeatureConfig cfg;
  std::vector<double> feats(cfg.bands_per_frame + 1, 1.0);
  EXPECT_THROW(remove_group(feats, cfg.bands_per_frame, FreqGroup::kOther, cfg),
               std::invalid_argument);
}

TEST(Features, PipelineCutoffIs6kHz) { EXPECT_DOUBLE_EQ(kPipelineCutoffHz, 6000.0); }

class FftSizeSweep : public ::testing::TestWithParam<std::size_t> {};

// Property: FFT/IFFT round-trips at every power-of-two size.
TEST_P(FftSizeSweep, RoundTripAtAllSizes) {
  const std::size_t n = GetParam();
  Rng rng{n};
  std::vector<std::complex<double>> data(n);
  for (auto& x : data) x = {rng.normal(), rng.normal()};
  const auto original = data;
  fft(data);
  ifft(data);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(data[i] - original[i]), 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizeSweep,
                         ::testing::Values(2, 8, 64, 512, 4096));

class ToneFrequencySweep : public ::testing::TestWithParam<double> {};

// Property: the magnitude spectrum localizes a tone at any in-band
// frequency to within one bin.
TEST_P(ToneFrequencySweep, PeakWithinOneBin) {
  const double f = GetParam();
  const double fs = 16000.0;
  const auto s = sine(f, fs, 4096);
  const auto mags = magnitude_spectrum(s);
  std::size_t peak = 1;
  for (std::size_t k = 1; k < mags.size(); ++k)
    if (mags[k] > mags[peak]) peak = k;
  EXPECT_NEAR(bin_frequency(peak, 4096, fs), f, fs / 4096.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AcrossBand, ToneFrequencySweep,
                         ::testing::Values(200.0, 1000.0, 2500.0, 5500.0, 7000.0));

class LowPassCutoffSweep : public ::testing::TestWithParam<double> {};

// Property: any RBJ low-pass passes DC and attenuates 4x its cutoff.
TEST_P(LowPassCutoffSweep, PassbandAndStopband) {
  const double cutoff = GetParam();
  Biquad lp = Biquad::low_pass(cutoff, 16000.0);
  EXPECT_NEAR(lp.magnitude_at(cutoff / 20.0, 16000.0), 1.0, 0.05);
  EXPECT_LT(lp.magnitude_at(std::min(cutoff * 4.0, 7900.0), 16000.0), 0.3);
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, LowPassCutoffSweep,
                         ::testing::Values(250.0, 1000.0, 1900.0));

}  // namespace
}  // namespace sb::dsp
