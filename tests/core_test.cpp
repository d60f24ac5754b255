#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "core/dataset.hpp"
#include "core/flight_lab.hpp"
#include "core/imu_rca.hpp"
#include "core/signature.hpp"
#include "dsp/biquad.hpp"
#include "dsp/spectrogram.hpp"
#include "scenario/airframe.hpp"
#include "util/checksum.hpp"
#include "test_helpers.hpp"

namespace sb::core {
namespace {

acoustics::MultiChannelAudio tone_audio(double freq, std::size_t n = 8000,
                                        double amp = 0.5) {
  acoustics::MultiChannelAudio audio;
  audio.sample_rate = 16000.0;
  for (auto& ch : audio.channels) {
    ch.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      ch[i] = amp * std::sin(2.0 * M_PI * freq * static_cast<double>(i) / 16000.0);
  }
  return audio;
}

TEST(Signature, ShapeMatchesConfig) {
  SignatureConfig cfg;
  const auto shape = signature_shape(cfg);
  EXPECT_EQ(shape.channels, 4u);
  EXPECT_EQ(shape.frames, 14u);
  EXPECT_EQ(shape.bands, 32u);

  const auto sig = compute_signature(tone_audio(1000.0), cfg);
  ASSERT_EQ(sig.ndim(), 4u);
  EXPECT_EQ(sig.dim(0), 1u);
  EXPECT_EQ(sig.dim(1), 4u);
  EXPECT_EQ(sig.dim(2), 14u);
  EXPECT_EQ(sig.dim(3), 32u);
}

TEST(Signature, StretchedCaptureKeepsShape) {
  SignatureConfig cfg;
  // 5x time-shift augmentation window: 2.5 s of audio -> same grid.
  const auto sig = compute_signature(tone_audio(1000.0, 40000), cfg);
  EXPECT_EQ(sig.dim(2), 14u);
  EXPECT_EQ(sig.dim(3), 32u);
}

TEST(Signature, TooShortWindowThrows) {
  SignatureConfig cfg;
  EXPECT_THROW(compute_signature(tone_audio(1000.0, 512), cfg),
               std::invalid_argument);
}

TEST(Signature, LowPassSuppressesAbove6kHz) {
  SignatureConfig cfg;
  const auto in_band = compute_signature(tone_audio(5000.0), cfg);
  const auto out_band = compute_signature(tone_audio(7500.0), cfg);
  // Feature energy above the silence floor.
  auto energy = [](const ml::Tensor& t) {
    double s = 0;
    for (float v : t.flat()) s += v - dsp::kSilenceFeature;
    return s;
  };
  EXPECT_GT(energy(in_band), 1.5 * energy(out_band));
}

TEST(Signature, ToneLandsInItsBand) {
  SignatureConfig cfg;
  const auto sig = compute_signature(tone_audio(2500.0), cfg);
  // Band 13 covers 2437-2625 Hz; compare against a distant band.
  const std::size_t frames = sig.dim(2), bands = sig.dim(3);
  const double hit = sig[(0 * frames + 5) * bands + 13];
  const double miss = sig[(0 * frames + 5) * bands + 25];
  EXPECT_GT(hit, miss + 2.0);
}

TEST(Signature, RemoveFrequencyGroupSilences) {
  SignatureConfig cfg;
  auto sig = compute_signature(tone_audio(5250.0), cfg);
  remove_frequency_group(sig, dsp::FreqGroup::kAerodynamic, cfg);
  const std::size_t bands = sig.dim(3);
  for (std::size_t i = 0; i < sig.numel(); ++i) {
    if (dsp::group_of_band(i % bands, cfg.bands) == dsp::FreqGroup::kAerodynamic)
      EXPECT_FLOAT_EQ(sig[i], static_cast<float>(dsp::kSilenceFeature));
  }
}

TEST(FlightLab, DeterministicForSameSeed) {
  const auto f1 = test::hover_flight(5.0, 99);
  const auto f2 = test::hover_flight(5.0, 99);
  ASSERT_EQ(f1.log.t.size(), f2.log.t.size());
  for (std::size_t i = 0; i < f1.log.t.size(); i += 100) {
    EXPECT_DOUBLE_EQ(f1.log.true_pos[i].x, f2.log.true_pos[i].x);
    EXPECT_DOUBLE_EQ(f1.log.true_pos[i].z, f2.log.true_pos[i].z);
  }
  EXPECT_EQ(f1.audio_seed, f2.audio_seed);
}

TEST(FlightLab, DifferentSeedsDiffer) {
  const auto f1 = test::hover_flight(5.0, 1);
  const auto f2 = test::hover_flight(5.0, 2);
  EXPECT_NE(f1.audio_seed, f2.audio_seed);
}

TEST(FlightLab, LogStreamsHaveExpectedRates) {
  const auto f = test::hover_flight(5.0, 3);
  const auto& log = f.log;
  EXPECT_NEAR(static_cast<double>(log.t.size()), 5.0 * 400, 2);
  EXPECT_NEAR(static_cast<double>(log.imu.size()), 5.0 * 200, 2);
  EXPECT_NEAR(static_cast<double>(log.gps.size()), 5.0 * 5, 2);
  EXPECT_EQ(log.nav.size(), log.gps.size());
  EXPECT_EQ(log.setpoint.size(), log.t.size());
}

TEST(FlightLab, BenignFlightHasNoAttackMetadata) {
  const auto f = test::hover_flight(4.0, 4);
  EXPECT_FALSE(f.log.imu_attacked);
  EXPECT_FALSE(f.log.gps_attacked);
  EXPECT_LT(f.log.attack_start, 0.0);
}

TEST(FlightLab, AttackMetadataRecorded) {
  FlightScenario s;
  s.mission = sim::Mission::hover({0, 0, -10}, 8.0);
  attacks::ImuAttackConfig a;
  a.start = 3.0;
  a.end = 6.0;
  s.imu_attack = a;
  s.seed = 5;
  const auto f = test::lab().fly(s);
  EXPECT_TRUE(f.log.imu_attacked);
  EXPECT_DOUBLE_EQ(f.log.attack_start, 3.0);
  EXPECT_DOUBLE_EQ(f.log.attack_end, 6.0);
}

TEST(FlightLab, HoverStaysNearSetpoint) {
  const auto f = test::hover_flight(8.0, 6);
  double max_err = 0;
  for (std::size_t i = 1600; i < f.log.t.size(); ++i)
    max_err = std::max(max_err, (f.log.true_pos[i] - Vec3{0, 0, -10}).norm());
  EXPECT_LT(max_err, 2.0);
}

TEST(FlightLab, TrainingScenariosCoverSixFamilies) {
  const auto scenarios = test::lab().training_scenarios(6, 30.0);
  EXPECT_EQ(scenarios.size(), 36u);  // the paper's 36 training flights
  std::set<std::string> names;
  for (const auto& s : scenarios) names.insert(s.mission.name());
  EXPECT_GE(names.size(), 5u);
}

TEST(FlightLab, MotorHealthShiftsRotorSpeeds) {
  FlightScenario healthy;
  healthy.mission = sim::Mission::hover({0, 0, -10}, 6.0);
  healthy.seed = 7;
  FlightScenario degraded = healthy;
  degraded.motor_health = 0.85;
  const auto f1 = test::lab().fly(healthy);
  const auto f2 = test::lab().fly(degraded);
  const double w1 = f1.log.mean_omega(3, 6)[0];
  const double w2 = f2.log.mean_omega(3, 6)[0];
  EXPECT_GT(w2, w1 * 1.04);  // degraded motors must spin faster to hover
}

TEST(Dataset, WindowCountMatchesStride) {
  DatasetConfig cfg;
  cfg.stride = 0.5;
  cfg.settle_time = 2.0;
  DatasetBuilder builder{cfg, test::lab()};
  const auto f = test::hover_flight(7.0, 8);
  builder.add_flight(f);
  // Windows start at 2.0, 2.5, ..., last with t0+0.5 <= ~7.0.
  EXPECT_NEAR(static_cast<double>(builder.size()), 9.0, 1.0);
}

TEST(Dataset, AugmentationMultipliesWindows) {
  DatasetConfig plain;
  plain.stride = 0.5;
  DatasetBuilder b1{plain, test::lab()};
  DatasetConfig aug = plain;
  aug.augmentation_factors = {2.0};
  DatasetBuilder b2{aug, test::lab()};
  const auto f = test::hover_flight(8.0, 9);
  b1.add_flight(f);
  b2.add_flight(f);
  EXPECT_GT(b2.size(), b1.size());
  EXPECT_LE(b2.size(), 2 * b1.size());
}

TEST(Dataset, BuildShapes) {
  DatasetConfig cfg;
  cfg.stride = 0.5;
  DatasetBuilder builder{cfg, test::lab()};
  builder.add_flight(test::hover_flight(6.0, 10));
  const auto data = builder.build();
  ASSERT_EQ(data.x.ndim(), 4u);
  EXPECT_EQ(data.x.dim(0), builder.size());
  EXPECT_EQ(data.y.dim(1), kLabelDim);
}

TEST(Dataset, HoverLabelsAreNearZeroAccel) {
  DatasetConfig cfg;
  cfg.stride = 0.5;
  DatasetBuilder builder{cfg, test::lab()};
  builder.add_flight(test::hover_flight(6.0, 11));
  const auto data = builder.build();
  for (std::size_t i = 0; i < data.y.dim(0); ++i) {
    EXPECT_LT(std::abs(data.y[i * kLabelDim + 0]), 1.5);
    EXPECT_LT(std::abs(data.y[i * kLabelDim + 2]), 1.5);
  }
}

TEST(FlightLab, ActuatorDosSlowsRotorsAndCostsAltitude) {
  // §V-B extension: the PWM block waveform audibly collapses the attacked
  // rotors' speed and the vehicle loses altitude during the attack.
  FlightScenario s;
  s.mission = sim::Mission::hover({0, 0, -30}, 20.0);
  attacks::ActuatorDosConfig a;
  a.start = 8.0;
  a.end = 14.0;
  s.actuator_attack = a;
  s.seed = 15;
  const auto f = test::lab().fly(s);

  double min_omega = 1e9, max_sink = -1e9;
  for (std::size_t i = 0; i < f.log.t.size(); ++i) {
    if (f.log.t[i] > 8.3 && f.log.t[i] < 14.0) {
      min_omega = std::min(min_omega, f.log.rotor_omega[i][0]);
      max_sink = std::max(max_sink, f.log.true_pos[i].z);
    }
  }
  EXPECT_LT(min_omega, 0.7 * test::lab().config().quad.hover_omega());
  EXPECT_GT(max_sink, -30.0 + 0.3);  // sank at least 0.3 m (NED z down)
}

TEST(FlightLab, BenignFlightUnaffectedByInactiveActuatorConfig) {
  FlightScenario s;
  s.mission = sim::Mission::hover({0, 0, -10}, 8.0);
  attacks::ActuatorDosConfig a;
  a.start = 100.0;  // never active within the flight
  a.end = 200.0;
  s.actuator_attack = a;
  s.seed = 16;
  const auto attacked_cfg = test::lab().fly(s);
  s.actuator_attack.reset();
  const auto clean = test::lab().fly(s);
  ASSERT_EQ(attacked_cfg.log.t.size(), clean.log.t.size());
  EXPECT_DOUBLE_EQ(attacked_cfg.log.true_pos.back().z, clean.log.true_pos.back().z);
}

TEST(Signature, DeterministicForSameAudio) {
  SignatureConfig cfg;
  const auto audio = tone_audio(2500.0);
  const auto a = compute_signature(audio, cfg);
  const auto b = compute_signature(audio, cfg);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

// Golden pin: the signature of a synthesized x500 window, at the base 0.5 s
// length (STFT hop below the frame size) and at a 2x time-shift-augmented
// length (hop above it), is bitwise the one the per-frame STFT and
// per-channel low-pass produced (CRCs recorded before the front end moved
// to batched SIMD lanes).  This pins the real configuration independently
// of the dsp_test reference.  The float features would hide an ulp-level
// change in the double pipeline, so the double stages they are rounded
// from — the low-passed mics and their STFT magnitudes — are pinned too.
TEST(GoldenSignature, X500WindowBitwiseIdenticalToPerFrameFrontEnd) {
  const scenario::AirframeSpec* x500 = scenario::find_airframe("x500");
  ASSERT_NE(x500, nullptr);
  const FlightLab lab{x500->lab_config()};
  FlightScenario s;
  s.mission = sim::Mission::line({0, 0, -10}, {15, 0, -10}, 3.0, 6.0);
  s.wind.mean = {1.0, 0.5, 0.0};
  s.wind.gust_stddev = 0.4;
  s.seed = 42;
  const auto flight = lab.fly(s);
  const auto synth = lab.synthesizer(flight);
  const SignatureConfig cfg;
  struct Crcs {
    std::uint32_t signature = 0;
    std::uint32_t front_end = 0;
  };
  auto crcs_of = [&](double seconds) {
    const auto audio = synth.synthesize(flight.log, 3.0, 3.0 + seconds);
    Crcs crcs;
    const auto sig = compute_signature(audio, cfg);
    crcs.signature = util::crc32(sig.flat().data(), sig.numel() * sizeof(float));
    const std::size_t n = audio.num_samples();
    std::array<std::vector<double>, sensors::kNumMics> filtered;
    std::array<std::span<const double>, sensors::kNumMics> in;
    std::array<std::span<double>, sensors::kNumMics> out;
    for (std::size_t c = 0; c < sensors::kNumMics; ++c) {
      filtered[c].resize(n);
      in[c] = audio.channels[c];
      out[c] = filtered[c];
    }
    dsp::Biquad::low_pass(cfg.lowpass_hz, audio.sample_rate)
        .cascade_channels(cfg.lowpass_sections, in, out);
    dsp::StftConfig stft_cfg;
    stft_cfg.frame_size = cfg.frame_size;
    stft_cfg.hop_size = (n - cfg.frame_size) / (cfg.target_frames - 1);
    stft_cfg.sample_rate = audio.sample_rate;
    for (const auto& ch : filtered) {
      crcs.front_end = util::crc32(ch.data(), n * sizeof(double), crcs.front_end);
      const auto spec = dsp::stft(ch, stft_cfg);
      crcs.front_end = util::crc32(spec.mags.data(),
                                   spec.mags.size() * sizeof(double), crcs.front_end);
    }
    return crcs;
  };
  const Crcs base = crcs_of(cfg.window_seconds);
  EXPECT_EQ(base.signature, 0x2d56d9dbu);
  EXPECT_EQ(base.front_end, 0xa45a8659u);
  const Crcs stretched = crcs_of(2.0 * cfg.window_seconds);
  EXPECT_EQ(stretched.signature, 0x23415238u);
  EXPECT_EQ(stretched.front_end, 0xf9ac0da1u);
}

TEST(ImuRca, ResidualWindowsCarryImuRateSamples) {
  const auto f = test::hover_flight(6.0, 12);
  std::vector<TimedPrediction> preds;
  for (double t0 = 2.0; t0 + 0.5 <= 6.0; t0 += 0.5)
    preds.push_back({t0, t0 + 0.5, {}, {}});
  const auto windows = ImuRcaDetector::residuals(f, preds, 0);
  ASSERT_FALSE(windows.empty());
  for (const auto& w : windows) EXPECT_NEAR(static_cast<double>(w.samples.size()), 100, 3);
}

TEST(ImuRca, BaseliningRemovesConstantOffset) {
  const auto f = test::hover_flight(6.0, 13);
  std::vector<TimedPrediction> preds;
  // Predictions biased by a constant +2 in x relative to the IMU.
  for (double t0 = 2.0; t0 + 0.5 <= 6.0; t0 += 0.5) {
    const Vec3 imu = f.log.mean_imu_accel(t0, t0 + 0.5);
    preds.push_back({t0, t0 + 0.5, imu + Vec3{2.0, 0, 0}, {}});
  }
  const auto windows = ImuRcaDetector::residuals(f, preds, 4);
  double mean_x = 0;
  std::size_t n = 0;
  for (const auto& w : windows)
    for (const auto& r : w.samples) {
      mean_x += r.x;
      ++n;
    }
  EXPECT_NEAR(mean_x / static_cast<double>(n), 0.0, 0.2);
}

TEST(ImuRca, AnalyzeRequiresCalibration) {
  ImuRcaDetector det{{}};
  std::vector<WindowResiduals> windows;
  EXPECT_THROW(det.analyze(windows), std::logic_error);
}

TEST(ImuRca, DetectsSyntheticSpreadInflation) {
  // Build synthetic benign windows (residual std 0.1) and attack windows
  // (std 1.5); the detector must flag only the latter.
  Rng rng{14};
  auto make_window = [&](double t, double std, double mean) {
    WindowResiduals w;
    w.t0 = t;
    w.t1 = t + 0.5;
    for (int i = 0; i < 100; ++i)
      w.samples.push_back({rng.normal(mean, std), rng.normal(mean, std),
                           rng.normal(mean, std)});
    return w;
  };
  std::vector<WindowResiduals> benign;
  for (int i = 0; i < 200; ++i)
    benign.push_back(make_window(i * 0.5, 0.1, 0.0));
  ImuRcaDetector det{{}};
  det.calibrate(benign);

  std::vector<WindowResiduals> attack = benign;
  for (int i = 100; i < 120; ++i)
    attack[static_cast<std::size_t>(i)] =
        make_window(i * 0.5, 1.5, 0.0);
  const auto r_benign = det.analyze(benign);
  const auto r_attack = det.analyze(attack);
  EXPECT_FALSE(r_benign.attacked);
  EXPECT_TRUE(r_attack.attacked);
  EXPECT_GE(r_attack.detect_time, 50.0);
  EXPECT_LE(r_attack.detect_time, 52.0);
}

TEST(ImuRca, DetectsSyntheticMeanShift) {
  Rng rng{15};
  auto make_window = [&](double t, double mean) {
    WindowResiduals w;
    w.t0 = t;
    w.t1 = t + 0.5;
    for (int i = 0; i < 100; ++i)
      w.samples.push_back({rng.normal(mean, 0.1), rng.normal(0, 0.1),
                           rng.normal(0, 0.1)});
    return w;
  };
  std::vector<WindowResiduals> benign;
  for (int i = 0; i < 200; ++i) benign.push_back(make_window(i * 0.5, 0.0));
  ImuRcaDetector det{{}};
  det.calibrate(benign);

  std::vector<WindowResiduals> attack = benign;
  for (int i = 100; i < 120; ++i)
    attack[static_cast<std::size_t>(i)] = make_window(i * 0.5, 0.8);
  EXPECT_TRUE(det.analyze(attack).attacked);
}

TEST(ImuRca, ThresholdFloorEngagesOnDegenerateCalibration) {
  // Near-identical residual windows calibrate an absurdly tight threshold;
  // the min_threshold floor keeps ordinary sensor jitter from becoming an
  // alert storm.
  Rng rng{17};
  std::vector<WindowResiduals> degenerate;
  for (int i = 0; i < 50; ++i) {
    WindowResiduals w;
    w.t0 = i * 0.5;
    w.t1 = w.t0 + 0.5;
    for (int j = 0; j < 100; ++j)
      w.samples.push_back({rng.normal(0.0, 1e-7), rng.normal(0.0, 1e-7),
                           rng.normal(0.0, 1e-7)});
    degenerate.push_back(std::move(w));
  }
  ImuRcaConfig cfg;
  ImuRcaDetector det{cfg};
  det.calibrate(degenerate);
  EXPECT_TRUE(std::isfinite(det.score_threshold()));
  EXPECT_GE(det.score_threshold(), cfg.min_threshold);
}

TEST(ImuRca, ShortWindowsAreSkippedAndCounted) {
  Rng rng{18};
  auto make_window = [&](double t, int n) {
    WindowResiduals w;
    w.t0 = t;
    w.t1 = t + 0.5;
    for (int i = 0; i < n; ++i)
      w.samples.push_back({rng.normal(0, 0.1), rng.normal(0, 0.1),
                           rng.normal(0, 0.1)});
    return w;
  };
  std::vector<WindowResiduals> benign;
  for (int i = 0; i < 100; ++i) benign.push_back(make_window(i * 0.5, 100));
  ImuRcaDetector det{{}};
  det.calibrate(benign);

  std::vector<WindowResiduals> gappy = benign;
  gappy[10] = make_window(5.0, 2);  // dropout leaves 2 usable samples
  gappy[11] = make_window(5.5, 0);  // total dropout
  const auto r = det.analyze(gappy);
  EXPECT_EQ(r.windows_skipped, 2u);
  EXPECT_EQ(r.windows_tested, gappy.size() - 2);
  EXPECT_FALSE(r.attacked);
}

TEST(ImuRca, WindowKsIsLargeUnderAttackDistribution) {
  Rng rng{16};
  auto make_window = [&](double std) {
    WindowResiduals w;
    w.t1 = 0.5;
    for (int i = 0; i < 100; ++i)
      w.samples.push_back({rng.normal(0, std), rng.normal(0, std), rng.normal(0, std)});
    return w;
  };
  std::vector<WindowResiduals> benign;
  for (int i = 0; i < 100; ++i) benign.push_back(make_window(0.3));
  ImuRcaDetector det{{}};
  det.calibrate(benign);
  const double ks_benign = det.window_ks(make_window(0.3));
  const double ks_attack = det.window_ks(make_window(2.8));
  EXPECT_GT(ks_attack, 3.0 * ks_benign);
}

}  // namespace
}  // namespace sb::core
