// End-to-end pipeline tests: train a small acoustic model once, then verify
// the two-stage RCA (IMU KS-stage + GPS KF-stage) on attacked and benign
// flights.  Uses the fast MLP model and short flights to stay test-sized;
// the bench harnesses exercise the full-size configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "attacks/sound_attack.hpp"
#include "faults/fault_injector.hpp"
#include "core/gps_rca.hpp"
#include "core/imu_rca.hpp"
#include "core/rca_engine.hpp"
#include "core/sensory_mapper.hpp"
#include "obs/metrics.hpp"
#include "stream/inference_scheduler.hpp"
#include "stream/rca_session.hpp"
#include "stream/streaming_extractor.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace sb::core {
namespace {

struct Pipeline {
  std::unique_ptr<SensoryMapper> mapper;
  std::unique_ptr<ImuRcaDetector> imu_det;
  std::unique_ptr<GpsRcaDetector> gps_det;
  std::vector<Flight> benign;
};

const Pipeline& pipeline() {
  static const Pipeline p = [] {
    Pipeline out;
    // Train on 12 short flights with the fast MLP.
    auto scenarios = test::lab().training_scenarios(2, 18.0);
    std::vector<Flight> train;
    for (const auto& s : scenarios) train.push_back(test::lab().fly(s));

    SensoryMapperConfig cfg;
    cfg.model = ml::ModelKind::kMlp;
    cfg.dataset.stride = 0.25;
    cfg.train.epochs = 8;
    cfg.train.lr = 1e-3;
    out.mapper = std::make_unique<SensoryMapper>(cfg);
    out.mapper->fit(test::lab(), train);

    // Held-out benign flights for calibration.
    for (std::uint64_t s = 300; s < 306; ++s)
      out.benign.push_back(test::hover_flight(25.0, s, 0.4));
    out.benign.push_back(test::line_flight(25.0, 306));
    out.benign.push_back(test::line_flight(25.0, 307));

    out.imu_det = std::make_unique<ImuRcaDetector>(ImuRcaConfig{});
    std::vector<WindowResiduals> cal;
    for (const auto& f : out.benign) {
      const auto preds = out.mapper->predict_flight(test::lab(), f);
      const auto w = ImuRcaDetector::residuals(f, preds);
      cal.insert(cal.end(), w.begin(), w.end());
    }
    out.imu_det->calibrate(cal);

    out.gps_det = std::make_unique<GpsRcaDetector>(GpsRcaConfig{});
    std::vector<GpsRcaDetector::Result> audio_results, fused_results;
    for (const auto& f : out.benign) {
      const auto preds = out.mapper->predict_flight(test::lab(), f);
      audio_results.push_back(
          out.gps_det->analyze(f, preds, GpsDetectorMode::kAudioOnly));
      fused_results.push_back(
          out.gps_det->analyze(f, preds, GpsDetectorMode::kAudioImu));
    }
    out.gps_det->calibrate(audio_results, GpsDetectorMode::kAudioOnly);
    out.gps_det->calibrate(fused_results, GpsDetectorMode::kAudioImu);
    return out;
  }();
  return p;
}

Flight imu_attack_flight(attacks::ImuAttackType type, std::uint64_t seed) {
  FlightScenario s;
  s.mission = sim::Mission::hover({0, 0, -10}, 25.0);
  s.wind.gust_stddev = 0.4;
  attacks::ImuAttackConfig a;
  a.type = type;
  a.start = 10.0;
  a.end = 20.0;
  s.imu_attack = a;
  s.seed = seed;
  return test::lab().fly(s);
}

Flight gps_attack_flight(std::uint64_t seed, double drag_rate = 1.2) {
  FlightScenario s;
  s.mission = sim::Mission::hover({0, 0, -10}, 35.0);
  s.wind.gust_stddev = 0.4;
  attacks::GpsSpoofConfig g;
  g.start = 10.0;
  g.end = 30.0;
  g.drag_rate = drag_rate;
  s.gps_spoof = g;
  s.seed = seed;
  return test::lab().fly(s);
}

TEST(Integration, ModelPredictsFiniteAccelerations) {
  const auto& p = pipeline();
  const auto preds = p.mapper->predict_flight(test::lab(), p.benign.front());
  ASSERT_FALSE(preds.empty());
  for (const auto& pr : preds) {
    EXPECT_TRUE(std::isfinite(pr.accel.norm()));
    EXPECT_TRUE(std::isfinite(pr.vel.norm()));
    EXPECT_LT(pr.accel.norm(), 30.0);
  }
}

TEST(Integration, ModelBeatsZeroPredictorOnVerticalAxis) {
  const auto& p = pipeline();
  const auto& f = p.benign.back();  // line mission: real dynamics
  const auto preds = p.mapper->predict_flight(test::lab(), f);
  double model_se = 0, zero_se = 0;
  for (const auto& pr : preds) {
    const Vec3 label = f.log.mean_imu_accel(pr.t0, pr.t1);
    model_se += (pr.accel.z - label.z) * (pr.accel.z - label.z);
    zero_se += label.z * label.z;
  }
  EXPECT_LT(model_se, zero_se);
}

TEST(Integration, BenignResidualsApproximatelyZeroMean) {
  const auto& p = pipeline();
  for (int axis = 0; axis < 3; ++axis) {
    const auto& fit = p.imu_det->benign_fit(axis);
    EXPECT_LT(std::abs(fit.mean), 0.35) << "axis " << axis;
    EXPECT_GT(fit.stddev, 0.0);
  }
}

TEST(Integration, ImuStageDetectsAccelDos) {
  const auto& p = pipeline();
  const auto f = imu_attack_flight(attacks::ImuAttackType::kAccelDos, 400);
  const auto preds = p.mapper->predict_flight(test::lab(), f);
  const auto r = p.imu_det->analyze(ImuRcaDetector::residuals(f, preds));
  EXPECT_TRUE(r.attacked);
  EXPECT_GE(r.detect_time, 10.0);
  EXPECT_LE(r.detect_time, 20.0);
}

TEST(Integration, ImuStageDetectsSideSwing) {
  const auto& p = pipeline();
  const auto f = imu_attack_flight(attacks::ImuAttackType::kSideSwing, 401);
  const auto preds = p.mapper->predict_flight(test::lab(), f);
  const auto r = p.imu_det->analyze(ImuRcaDetector::residuals(f, preds));
  EXPECT_TRUE(r.attacked);
}

TEST(Integration, ImuStageQuietOnFreshBenignFlight) {
  const auto& p = pipeline();
  const auto f = test::hover_flight(25.0, 402, 0.4);
  const auto preds = p.mapper->predict_flight(test::lab(), f);
  const auto r = p.imu_det->analyze(ImuRcaDetector::residuals(f, preds));
  EXPECT_FALSE(r.attacked);
}

TEST(Integration, GpsStageDetectsDragSpoofFused) {
  const auto& p = pipeline();
  const auto f = gps_attack_flight(403);
  const auto preds = p.mapper->predict_flight(test::lab(), f);
  const auto r = p.gps_det->analyze(f, preds, GpsDetectorMode::kAudioImu);
  EXPECT_TRUE(r.attacked);
  EXPECT_GE(r.detect_time, 10.0);
}

TEST(Integration, GpsStageDetectsDragSpoofAudioOnly) {
  const auto& p = pipeline();
  const auto f = gps_attack_flight(404);
  const auto preds = p.mapper->predict_flight(test::lab(), f);
  const auto r = p.gps_det->analyze(f, preds, GpsDetectorMode::kAudioOnly);
  EXPECT_TRUE(r.attacked);
}

TEST(Integration, GpsStageQuietOnFreshBenignFlight) {
  const auto& p = pipeline();
  const auto f = test::hover_flight(30.0, 405, 0.4);
  const auto preds = p.mapper->predict_flight(test::lab(), f);
  const auto r = p.gps_det->analyze(f, preds, GpsDetectorMode::kAudioImu);
  EXPECT_FALSE(r.attacked);
}

TEST(Integration, RcaEngineAttributesImuAttack) {
  const auto& p = pipeline();
  RcaEngine engine{*p.mapper, *p.imu_det, *p.gps_det};
  const auto f = imu_attack_flight(attacks::ImuAttackType::kAccelDos, 406);
  const auto report = engine.analyze(test::lab(), f);
  EXPECT_TRUE(report.imu_attacked);
  // With the IMU flagged, the GPS stage must fall back to audio-only.
  EXPECT_EQ(report.gps_mode_used, GpsDetectorMode::kAudioOnly);
}

TEST(Integration, RcaEngineAttributesGpsAttack) {
  const auto& p = pipeline();
  RcaEngine engine{*p.mapper, *p.imu_det, *p.gps_det};
  const auto f = gps_attack_flight(407);
  const auto report = engine.analyze(test::lab(), f);
  EXPECT_TRUE(report.gps_attacked);
  EXPECT_TRUE(report.any_attack());
}

TEST(Integration, RcaEngineQuietOnBenign) {
  const auto& p = pipeline();
  RcaEngine engine{*p.mapper, *p.imu_det, *p.gps_det};
  const auto f = test::hover_flight(25.0, 408, 0.4);
  const auto report = engine.analyze(test::lab(), f);
  EXPECT_FALSE(report.imu_attacked);
  EXPECT_FALSE(report.gps_attacked);
  EXPECT_FALSE(report.any_attack());
}

TEST(Integration, SaveLoadRoundTripPreservesPredictions) {
  const auto& p = pipeline();
  const std::string path = "/tmp/soundboost_test_model.bin";
  ASSERT_TRUE(p.mapper->save(path));

  core::SensoryMapper loaded{p.mapper->config()};
  ASSERT_TRUE(loaded.load(path));

  const auto& f = p.benign.front();
  const auto a = p.mapper->predict_flight(test::lab(), f);
  const auto b = loaded.predict_flight(test::lab(), f);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].accel.x, b[i].accel.x, 1e-9);
    EXPECT_NEAR(a[i].accel.z, b[i].accel.z, 1e-9);
    EXPECT_NEAR(a[i].vel.y, b[i].vel.y, 1e-9);
  }
  std::remove(path.c_str());
}

// Guard that restores the process serving precision (tests share one
// process; leaking a precision override would change later tests' paths).
struct PlanPrecisionGuard {
  explicit PlanPrecisionGuard(ml::PlanPrecision p)
      : prev_(ml::plan_precision()) {
    ml::set_plan_precision(p);
  }
  ~PlanPrecisionGuard() { ml::set_plan_precision(prev_); }
  ml::PlanPrecision prev_;
};

// The compiled plan packs frozen weights, so load() must invalidate it and
// serving must rebuild from the LOADED weights: save -> load -> serve via
// the exact plan has to match the original mapper's exact-plan predictions
// bitwise (the exact plan is pinned bitwise-equal to the graph by
// PlanEquivalence in ml_test; this pins the rebuild-after-load plumbing).
TEST(Integration, SaveLoadRebuildsInferencePlan) {
  const auto& p = pipeline();
  const std::string path = "/tmp/soundboost_test_plan_model.bin";
  ASSERT_TRUE(p.mapper->save(path));
  core::SensoryMapper loaded{p.mapper->config()};
  ASSERT_TRUE(loaded.load(path));

  const auto& f = p.benign.front();
  std::vector<TimedPrediction> original, planned;
  {
    PlanPrecisionGuard exact{ml::PlanPrecision::kF64};
    original = p.mapper->predict_flight(test::lab(), f);
  }
  {
    PlanPrecisionGuard exact{ml::PlanPrecision::kF64};
    loaded.warm_serving();
    ASSERT_NE(loaded.serving_plan(), nullptr);
    EXPECT_EQ(loaded.serving_plan()->precision(), ml::PlanPrecision::kF64);
    planned = loaded.predict_flight(test::lab(), f);
  }
  ASSERT_EQ(original.size(), planned.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i].accel.x, planned[i].accel.x) << i;
    EXPECT_EQ(original[i].accel.y, planned[i].accel.y) << i;
    EXPECT_EQ(original[i].accel.z, planned[i].accel.z) << i;
    EXPECT_EQ(original[i].vel.x, planned[i].vel.x) << i;
    EXPECT_EQ(original[i].vel.y, planned[i].vel.y) << i;
    EXPECT_EQ(original[i].vel.z, planned[i].vel.z) << i;
  }
  std::remove(path.c_str());
}

// The opt-in float32 plan folds BatchNorm into the weights (one rounding
// per weight), so its predictions drift — but verdicts must agree with the
// exact plan on every fixture flight, and the drift must stay orders
// of magnitude under the detector thresholds.
TEST(Integration, F32PlanKeepsVerdictsAndBoundsDrift) {
  const auto& p = pipeline();
  RcaEngine engine{*p.mapper, *p.imu_det, *p.gps_det};
  const std::vector<Flight> flights = {
      imu_attack_flight(attacks::ImuAttackType::kAccelDos, 606),
      gps_attack_flight(607),
      test::hover_flight(25.0, 608, 0.4),
  };
  for (const auto& f : flights) {
    RcaReport ref, fast;
    {
      PlanPrecisionGuard exact{ml::PlanPrecision::kF64};
      ref = engine.analyze(test::lab(), f);
    }
    {
      PlanPrecisionGuard folded{ml::PlanPrecision::kF32};
      fast = engine.analyze(test::lab(), f);
    }
    EXPECT_EQ(ref.imu_attacked, fast.imu_attacked);
    EXPECT_EQ(ref.gps_attacked, fast.gps_attacked);
    EXPECT_EQ(ref.gps_mode_used, fast.gps_mode_used);
  }

  // Component-wise prediction drift on a benign flight.
  std::vector<TimedPrediction> ref, fast;
  {
    PlanPrecisionGuard exact{ml::PlanPrecision::kF64};
    ref = p.mapper->predict_flight(test::lab(), flights.back());
  }
  {
    PlanPrecisionGuard folded{ml::PlanPrecision::kF32};
    fast = p.mapper->predict_flight(test::lab(), flights.back());
  }
  ASSERT_EQ(ref.size(), fast.size());
  ASSERT_FALSE(ref.empty());
  double mse = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double d[6] = {fast[i].accel.x - ref[i].accel.x,
                         fast[i].accel.y - ref[i].accel.y,
                         fast[i].accel.z - ref[i].accel.z,
                         fast[i].vel.x - ref[i].vel.x,
                         fast[i].vel.y - ref[i].vel.y,
                         fast[i].vel.z - ref[i].vel.z};
    for (double v : d) {
      EXPECT_TRUE(std::isfinite(v));
      mse += v * v;
      ++n;
    }
  }
  // The f32 path rounds both the STFT front end and the folded weights at
  // float level; prediction drift stays orders of magnitude below the
  // detector thresholds (measured MSE ~1e-12 on the bench workload).  A
  // violation means the f32 math is wrong, not that float noise grew.
  EXPECT_LT(mse / static_cast<double>(n), 1e-6);
}

TEST(Integration, LoadRejectsWrongModelKind) {
  const auto& p = pipeline();
  const std::string path = "/tmp/soundboost_test_model2.bin";
  ASSERT_TRUE(p.mapper->save(path));
  core::SensoryMapperConfig other = p.mapper->config();
  other.model = ml::ModelKind::kMobileNetLite;  // pipeline uses kMlp
  core::SensoryMapper mismatched{other};
  EXPECT_FALSE(mismatched.load(path));
  EXPECT_FALSE(mismatched.trained());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Model-file integrity frame: truncation, bit flips and pre-framing files
// must be rejected cleanly, leaving the mapper untrained.

std::string slurp(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{is}, {}};
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream os{path, std::ios::binary};
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Integration, LoadRejectsTruncatedModelFile) {
  const auto& p = pipeline();
  const std::string path = "/tmp/soundboost_test_model_trunc.bin";
  ASSERT_TRUE(p.mapper->save(path));
  const auto bytes = slurp(path);
  ASSERT_GT(bytes.size(), 100u);
  for (const std::size_t keep : {bytes.size() - 1, bytes.size() / 2, std::size_t{10}}) {
    spew(path, bytes.substr(0, keep));
    core::SensoryMapper loaded{p.mapper->config()};
    EXPECT_FALSE(loaded.load(path)) << "accepted a file cut to " << keep << " bytes";
    EXPECT_FALSE(loaded.trained());
  }
  std::remove(path.c_str());
}

TEST(Integration, LoadRejectsBitFlippedModelFile) {
  const auto& p = pipeline();
  const std::string path = "/tmp/soundboost_test_model_flip.bin";
  ASSERT_TRUE(p.mapper->save(path));
  auto bytes = slurp(path);
  // Flip one bit in the middle of the weight payload: without the CRC this
  // would load fine and silently change eval behavior.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  spew(path, bytes);
  core::SensoryMapper loaded{p.mapper->config()};
  EXPECT_FALSE(loaded.load(path));
  EXPECT_FALSE(loaded.trained());
  std::remove(path.c_str());
}

TEST(Integration, LoadRejectsPreFramingFormat) {
  const auto& p = pipeline();
  const std::string path = "/tmp/soundboost_test_model_legacy.bin";
  ASSERT_TRUE(p.mapper->save(path));
  auto bytes = slurp(path);
  // Rewrite the magic to the legacy value: a file saved before the integrity
  // frame existed must be recognized and rejected, not misparsed.
  const std::uint64_t legacy = 0x53424d4150313032ULL;  // "SBMAP102"
  std::memcpy(bytes.data(), &legacy, sizeof(legacy));
  spew(path, bytes);
  core::SensoryMapper loaded{p.mapper->config()};
  EXPECT_FALSE(loaded.load(path));
  EXPECT_FALSE(loaded.trained());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Graceful degradation through the full engine.

TEST(Integration, DeadMicFlightStillCompletesRcaWithHealthReport) {
  const auto& p = pipeline();
  RcaEngine engine{*p.mapper, *p.imu_det, *p.gps_det};
  const auto f = test::hover_flight(25.0, 410, 0.4);
  PredictionHooks hooks;
  hooks.audio_transform = [](acoustics::MultiChannelAudio& audio) {
    for (auto& v : audio.channels[1]) v = 0.0;  // mic 1 recorded nothing
  };
  RcaDecisionTrace trace;
  const auto report = engine.analyze(test::lab(), f, hooks, &trace);
  EXPECT_FALSE(report.health.mic_alive(1));
  EXPECT_EQ(report.health.mics_alive(), sensors::kNumMics - 1);
  EXPECT_GT(report.health.windows_degraded, 0u);
  EXPECT_TRUE(report.health.degraded());
  EXPECT_EQ(trace.health.mics_alive(), sensors::kNumMics - 1);
  // The analysis still completes and the masked front-end stays quiet on a
  // benign flight.
  EXPECT_FALSE(report.gps_attacked);
}

TEST(Integration, GpsOutageCoastsWithoutFalseAlert) {
  const auto& p = pipeline();
  RcaEngine engine{*p.mapper, *p.imu_det, *p.gps_det};
  auto f = test::hover_flight(25.0, 411, 0.4);
  faults::FaultPlan plan;
  plan.gps.push_back({faults::GpsFaultType::kOutage, 1.0, 10.0, 15.0});
  faults::apply_to_log(f.log, plan);

  RcaDecisionTrace trace;
  const auto report = engine.analyze(test::lab(), f, {}, &trace);
  EXPECT_GE(report.health.gps_coast_intervals, 1u);
  EXPECT_GT(report.health.gps_coast_seconds, 3.0);
  EXPECT_FALSE(report.imu_attacked);
  EXPECT_FALSE(report.gps_attacked);  // the coast must not be scored as a spoof
  bool any_reset = false;
  for (const auto& d : trace.gps) any_reset = any_reset || d.coast_reset;
  EXPECT_TRUE(any_reset);
}

TEST(Integration, EngineHealthCleanOnPristineFlight) {
  const auto& p = pipeline();
  RcaEngine engine{*p.mapper, *p.imu_det, *p.gps_det};
  const auto f = test::hover_flight(25.0, 412, 0.4);
  const auto report = engine.analyze(test::lab(), f);
  EXPECT_FALSE(report.health.degraded());
  EXPECT_EQ(report.health.mics_alive(), sensors::kNumMics);
  EXPECT_GT(report.health.windows_total, 0u);
  EXPECT_EQ(report.health.windows_degraded, 0u);
}

TEST(Integration, PredictWindowsMatchesPredictFlight) {
  const auto& p = pipeline();
  const auto& f = p.benign.front();
  const auto windows = p.mapper->synthesize_windows(test::lab(), f);
  const auto a = p.mapper->predict_windows(windows);
  const auto b = p.mapper->predict_flight(test::lab(), f);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].accel.x, b[i].accel.x);
    EXPECT_DOUBLE_EQ(a[i].vel.z, b[i].vel.z);
  }
}

TEST(Integration, SoundCancellationShiftsPredictions) {
  const auto& p = pipeline();
  const auto& f = p.benign.front();
  const auto windows = p.mapper->synthesize_windows(test::lab(), f);
  PredictionHooks hooks;
  hooks.audio_transform = [](acoustics::MultiChannelAudio& audio) {
    attacks::PhaseSyncSoundAttackConfig cfg;
    cfg.amplitude_factor = 0.0;
    cfg.channels = {0, 1, 2, 3};
    attacks::apply_phase_sync_attack(audio, cfg);
  };
  const auto clean = p.mapper->predict_windows(windows);
  const auto attacked = p.mapper->predict_windows(windows, hooks);
  double diff = 0;
  for (std::size_t i = 0; i < clean.size(); ++i)
    diff += (clean[i].accel - attacked[i].accel).norm();
  EXPECT_GT(diff / static_cast<double>(clean.size()), 0.01);
}

TEST(Integration, FrequencyGroupRemovalDegradesAccuracy) {
  const auto& p = pipeline();
  const auto& f = p.benign.back();
  PredictionHooks hooks;
  hooks.signature_transform = [&](ml::Tensor& sig) {
    remove_frequency_group(sig, dsp::FreqGroup::kAerodynamic,
                           p.mapper->config().dataset.signature);
  };
  const double clean_mse = p.mapper->test_mse(test::lab(), std::span{&f, 1});
  const double ablated_mse = p.mapper->test_mse(test::lab(), std::span{&f, 1}, hooks);
  EXPECT_GT(ablated_mse, clean_mse);
}

// ---------------------------------------------------------------------------
// Streaming equivalence: a flight pushed chunk-by-chunk through RcaSession +
// InferenceScheduler must reproduce RcaEngine::analyze bit for bit —
// signature windows, residual decisions, GPS fix decisions, health tallies
// and the final report — at any thread count.
//
// The offline pipeline synthesizes each analysis window independently
// (seeded per window start), so a continuous recording matches the offline
// windows only where the grid tiles disjointly: stride == window.  The
// equivalence mapper transplants the trained pipeline weights into a
// stride == window configuration (save/load validates model kind and
// parameter shapes, not stride), and the "recording" is the settle-period
// audio followed by the offline windows' concatenation — exactly what a
// microphone would have captured if the synthesizer were the world.

const SensoryMapper& stream_mapper() {
  static const std::unique_ptr<SensoryMapper> m = [] {
    const auto& p = pipeline();
    SensoryMapperConfig cfg = p.mapper->config();
    cfg.dataset.stride = cfg.dataset.signature.window_seconds;
    auto out = std::make_unique<SensoryMapper>(cfg);
    const std::string path = "/tmp/soundboost_test_stream_mapper.bin";
    if (!p.mapper->save(path) || !out->load(path))
      throw std::logic_error{"stream_mapper: weight transplant failed"};
    std::remove(path.c_str());
    return out;
  }();
  return *m;
}

acoustics::MultiChannelAudio continuous_recording(const Flight& f,
                                                  const SensoryMapper& m) {
  const auto& ds = m.config().dataset;
  const auto synth = test::lab().synthesizer(f);
  acoustics::MultiChannelAudio out =
      synth.synthesize(f.log, 0.0, ds.settle_time);
  for (const WindowSpan& w :
       window_grid(ds.settle_time, ds.stride, ds.signature.window_seconds,
                   f.log.duration())) {
    const auto win = synth.synthesize(f.log, w.t0, w.t1);
    for (std::size_t c = 0; c < sensors::kNumMics; ++c)
      out.channels[c].insert(out.channels[c].end(), win.channels[c].begin(),
                             win.channels[c].end());
  }
  return out;
}

struct StreamOutcome {
  RcaReport report;
  RcaDecisionTrace trace;
  std::vector<stream::VerdictEvent> events;
  std::size_t shed = 0;
};

StreamOutcome run_streaming(const Flight& f, const SensoryMapper& m,
                            const PredictionHooks& hooks = {},
                            std::size_t chunk = 1600) {
  const auto& p = pipeline();
  stream::RcaSessionConfig sc;
  sc.hooks = hooks;
  // Inert unless the recorder-on test flips SB_RECORDER's switch; keeps any
  // black-box dumps out of the working directory.
  sc.recorder.out_dir = ::testing::TempDir();
  stream::RcaSession session{1, m, *p.imu_det, *p.gps_det, sc};
  stream::InferenceScheduler sched{m};
  sched.attach(session);

  const auto audio = continuous_recording(f, m);
  const double fs = audio.sample_rate;
  const std::size_t total = audio.num_samples();
  std::size_t imu_i = 0, gps_i = 0;
  StreamOutcome out;
  for (std::size_t begin = 0; begin < total; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, total);
    // Sensors lead the audio: by the time a window's last audio sample
    // arrives, a live recorder has every IMU sample and GPS fix up to that
    // instant (the GPS stage consumes fixes with t <= window end).
    const double until = static_cast<double>(end) / fs;
    std::size_t imu_hi = imu_i;
    while (imu_hi < f.log.imu.size() && f.log.imu[imu_hi].t <= until) ++imu_hi;
    session.push_imu(std::span{f.log.imu}.subspan(imu_i, imu_hi - imu_i));
    imu_i = imu_hi;
    std::size_t gps_hi = gps_i;
    while (gps_hi < f.log.gps.size() && f.log.gps[gps_hi].t <= until) ++gps_hi;
    session.push_gps(std::span{f.log.gps}.subspan(gps_i, gps_hi - gps_i));
    gps_i = gps_hi;

    acoustics::MultiChannelAudio slice;
    slice.sample_rate = fs;
    for (std::size_t c = 0; c < sensors::kNumMics; ++c)
      slice.channels[c].assign(audio.channels[c].begin() + static_cast<std::ptrdiff_t>(begin),
                               audio.channels[c].begin() + static_cast<std::ptrdiff_t>(end));
    session.push_audio(slice);
    sched.pump();
    for (auto& e : session.poll_verdicts()) out.events.push_back(e);
  }
  session.push_imu(std::span{f.log.imu}.subspan(imu_i));
  session.push_gps(std::span{f.log.gps}.subspan(gps_i));
  sched.drain();
  for (auto& e : session.poll_verdicts()) out.events.push_back(e);
  out.shed = sched.windows_shed();
  out.report = session.finish(&out.trace);
  return out;
}

// run_streaming with a simulated server crash at mid-flight: the session is
// drained, checkpointed (SBSESS01), destroyed together with its scheduler,
// then restored into a NEW session on a NEW scheduler which serves the rest
// of the stream.  Everything downstream — events, trace, report — must be
// bitwise identical to the uninterrupted paths.
StreamOutcome run_streaming_with_restart(const Flight& f,
                                         const SensoryMapper& m,
                                         const PredictionHooks& hooks = {},
                                         std::size_t chunk = 1600) {
  const auto& p = pipeline();
  stream::RcaSessionConfig sc;
  sc.hooks = hooks;
  sc.recorder.out_dir = ::testing::TempDir();
  auto session =
      std::make_unique<stream::RcaSession>(1, m, *p.imu_det, *p.gps_det, sc);
  auto sched = std::make_unique<stream::InferenceScheduler>(m);
  sched->attach(*session);

  const auto audio = continuous_recording(f, m);
  const double fs = audio.sample_rate;
  const std::size_t total = audio.num_samples();
  std::size_t imu_i = 0, gps_i = 0;
  bool restarted = false;
  StreamOutcome out;
  for (std::size_t begin = 0; begin < total; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, total);
    const double until = static_cast<double>(end) / fs;
    std::size_t imu_hi = imu_i;
    while (imu_hi < f.log.imu.size() && f.log.imu[imu_hi].t <= until) ++imu_hi;
    session->push_imu(std::span{f.log.imu}.subspan(imu_i, imu_hi - imu_i));
    imu_i = imu_hi;
    std::size_t gps_hi = gps_i;
    while (gps_hi < f.log.gps.size() && f.log.gps[gps_hi].t <= until) ++gps_hi;
    session->push_gps(std::span{f.log.gps}.subspan(gps_i, gps_hi - gps_i));
    gps_i = gps_hi;

    acoustics::MultiChannelAudio slice;
    slice.sample_rate = fs;
    for (std::size_t c = 0; c < sensors::kNumMics; ++c)
      slice.channels[c].assign(
          audio.channels[c].begin() + static_cast<std::ptrdiff_t>(begin),
          audio.channels[c].begin() + static_cast<std::ptrdiff_t>(end));
    session->push_audio(slice);
    sched->pump();
    for (auto& e : session->poll_verdicts()) out.events.push_back(e);

    if (!restarted && end >= total / 2) {
      restarted = true;
      sched->drain();
      for (auto& e : session->poll_verdicts()) out.events.push_back(e);
      out.shed += sched->windows_shed();
      const std::string path = ::testing::TempDir() + "sb_midflight.sbsess";
      EXPECT_TRUE(session->checkpoint(path));
      // Crash: the old scheduler and session go away entirely.
      sched.reset();
      session.reset();
      session = stream::RcaSession::restore(path, m, *p.imu_det, *p.gps_det, sc);
      EXPECT_NE(session, nullptr);
      if (!session) return out;
      sched = std::make_unique<stream::InferenceScheduler>(m);
      sched->attach(*session);
    }
  }
  session->push_imu(std::span{f.log.imu}.subspan(imu_i));
  session->push_gps(std::span{f.log.gps}.subspan(gps_i));
  sched->drain();
  for (auto& e : session->poll_verdicts()) out.events.push_back(e);
  out.shed += sched->windows_shed();
  out.report = session->finish(&out.trace);
  return out;
}

void expect_health_eq(const faults::HealthReport& a,
                      const faults::HealthReport& b) {
  for (std::size_t c = 0; c < sensors::kNumMics; ++c)
    EXPECT_EQ(a.mic_windows_masked[c], b.mic_windows_masked[c]) << "mic " << c;
  EXPECT_EQ(a.windows_total, b.windows_total);
  EXPECT_EQ(a.windows_degraded, b.windows_degraded);
  EXPECT_EQ(a.imu_samples_total, b.imu_samples_total);
  EXPECT_EQ(a.imu_samples_nonfinite, b.imu_samples_nonfinite);
  EXPECT_EQ(a.imu_windows_skipped, b.imu_windows_skipped);
  EXPECT_EQ(a.gps_fixes_total, b.gps_fixes_total);
  EXPECT_EQ(a.gps_fixes_nonfinite, b.gps_fixes_nonfinite);
  EXPECT_EQ(a.gps_coast_intervals, b.gps_coast_intervals);
  EXPECT_EQ(a.gps_coast_seconds, b.gps_coast_seconds);
  EXPECT_EQ(a.kf_fallback_steps, b.kf_fallback_steps);
}

void expect_imu_decision_eq(const ImuWindowDecision& a,
                            const ImuWindowDecision& b, std::size_t i) {
  EXPECT_EQ(a.t0, b.t0) << "imu window " << i;
  EXPECT_EQ(a.t1, b.t1) << "imu window " << i;
  for (int axis = 0; axis < 3; ++axis) {
    EXPECT_EQ(a.mean_z[axis], b.mean_z[axis]) << "imu window " << i;
    EXPECT_EQ(a.spread_z[axis], b.spread_z[axis]) << "imu window " << i;
  }
  EXPECT_EQ(a.score, b.score) << "imu window " << i;
  EXPECT_EQ(a.threshold, b.threshold) << "imu window " << i;
  EXPECT_EQ(a.flagged, b.flagged) << "imu window " << i;
  EXPECT_EQ(a.alert, b.alert) << "imu window " << i;
}

// Bitwise comparison of the two paths' full evidence: EXPECT_EQ on doubles
// is exact, so any drift in a residual or threshold fails loudly.
void expect_equivalent(const RcaReport& off, const RcaDecisionTrace& off_tr,
                       const StreamOutcome& on) {
  EXPECT_EQ(off.imu_attacked, on.report.imu_attacked);
  EXPECT_EQ(off.imu_detect_time, on.report.imu_detect_time);
  EXPECT_EQ(off.gps_attacked, on.report.gps_attacked);
  EXPECT_EQ(off.gps_detect_time, on.report.gps_detect_time);
  EXPECT_EQ(off.gps_mode_used, on.report.gps_mode_used);
  expect_health_eq(off.health, on.report.health);

  ASSERT_EQ(off_tr.imu.size(), on.trace.imu.size());
  for (std::size_t i = 0; i < off_tr.imu.size(); ++i)
    expect_imu_decision_eq(off_tr.imu[i], on.trace.imu[i], i);

  ASSERT_EQ(off_tr.gps.size(), on.trace.gps.size());
  for (std::size_t i = 0; i < off_tr.gps.size(); ++i) {
    const auto& a = off_tr.gps[i];
    const auto& b = on.trace.gps[i];
    EXPECT_EQ(a.t, b.t) << "gps fix " << i;
    EXPECT_EQ(a.running_mean_err, b.running_mean_err) << "gps fix " << i;
    EXPECT_EQ(a.pos_dev, b.pos_dev) << "gps fix " << i;
    EXPECT_EQ(a.vel_threshold, b.vel_threshold) << "gps fix " << i;
    EXPECT_EQ(a.pos_threshold, b.pos_threshold) << "gps fix " << i;
    EXPECT_EQ(a.vel_hit, b.vel_hit) << "gps fix " << i;
    EXPECT_EQ(a.pos_hit, b.pos_hit) << "gps fix " << i;
    EXPECT_EQ(a.alert, b.alert) << "gps fix " << i;
    EXPECT_EQ(a.coast_reset, b.coast_reset) << "gps fix " << i;
  }

  // The live event stream carries the same IMU evidence in the same order,
  // stamped with non-decreasing availability times.
  std::vector<const stream::VerdictEvent*> imu_events;
  double last_decided = 0.0;
  for (const auto& e : on.events) {
    EXPECT_GE(e.decided_at, last_decided);
    last_decided = e.decided_at;
    if (e.kind == stream::VerdictEvent::Kind::kImuWindow)
      imu_events.push_back(&e);
  }
  ASSERT_EQ(imu_events.size(), on.trace.imu.size());
  for (std::size_t i = 0; i < imu_events.size(); ++i)
    expect_imu_decision_eq(imu_events[i]->imu, on.trace.imu[i], i);
}

// Runs both paths at 1 and 4 threads and demands bitwise-identical evidence
// everywhere — between streaming and offline at each count, and across the
// two counts.
void check_equivalence(const Flight& f, const PredictionHooks& hooks = {}) {
  const auto& p = pipeline();
  const auto& m = stream_mapper();
  RcaEngine engine{m, *p.imu_det, *p.gps_det};
  std::vector<RcaDecisionTrace> offline_traces;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool::set_threads(threads);
    RcaDecisionTrace off_tr;
    const auto off = engine.analyze(test::lab(), f, hooks, &off_tr);
    const auto on = run_streaming(f, m, hooks);
    EXPECT_EQ(on.shed, 0u) << "threads " << threads;
    expect_equivalent(off, off_tr, on);
    offline_traces.push_back(off_tr);
  }
  util::ThreadPool::set_threads(0);
  ASSERT_EQ(offline_traces[0].imu.size(), offline_traces[1].imu.size());
  for (std::size_t i = 0; i < offline_traces[0].imu.size(); ++i)
    expect_imu_decision_eq(offline_traces[0].imu[i], offline_traces[1].imu[i], i);
}

TEST(StreamingEquivalence, ExtractorReslicesOfflineWindowsBitwise) {
  const auto& m = stream_mapper();
  const auto f = test::hover_flight(12.0, 424, 0.4);
  const auto offline = m.synthesize_windows(test::lab(), f);
  ASSERT_FALSE(offline.empty());

  const auto& ds = m.config().dataset;
  stream::StreamingExtractorConfig cfg;
  cfg.settle = ds.settle_time;
  cfg.stride = ds.stride;
  cfg.window_seconds = ds.signature.window_seconds;
  stream::StreamingFeatureExtractor ex{cfg};
  const auto got = ex.push(continuous_recording(f, m));

  ASSERT_EQ(got.size(), offline.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].t0, offline[i].t0) << "window " << i;
    EXPECT_EQ(got[i].t1, offline[i].t1) << "window " << i;
    for (std::size_t c = 0; c < sensors::kNumMics; ++c)
      EXPECT_EQ(got[i].audio.channels[c], offline[i].audio.channels[c])
          << "window " << i << " channel " << c;
  }
}

TEST(StreamingEquivalence, BenignFlightMatchesOfflineAtOneAndFourThreads) {
  check_equivalence(test::hover_flight(25.0, 420, 0.4));
}

TEST(StreamingEquivalence, ChunkSizeDoesNotChangeTheVerdictEvidence) {
  const auto& p = pipeline();
  const auto& m = stream_mapper();
  const auto f = test::hover_flight(25.0, 420, 0.4);
  RcaEngine engine{m, *p.imu_det, *p.gps_det};
  RcaDecisionTrace off_tr;
  const auto off = engine.analyze(test::lab(), f, {}, &off_tr);
  // A prime chunk size keeps every window boundary strictly inside a chunk.
  expect_equivalent(off, off_tr, run_streaming(f, m, {}, 1237));
}

TEST(StreamingEquivalence, ImuAttackFlightMatchesOffline) {
  const auto f = imu_attack_flight(attacks::ImuAttackType::kAccelDos, 421);
  const auto& p = pipeline();
  const auto& m = stream_mapper();
  RcaEngine engine{m, *p.imu_det, *p.gps_det};
  const auto off = engine.analyze(test::lab(), f);
  EXPECT_TRUE(off.imu_attacked);  // the comparison must not be vacuous
  check_equivalence(f);
}

TEST(StreamingEquivalence, GpsSpoofFlightMatchesOffline) {
  const auto f = gps_attack_flight(422);
  const auto& p = pipeline();
  const auto& m = stream_mapper();
  RcaEngine engine{m, *p.imu_det, *p.gps_det};
  const auto off = engine.analyze(test::lab(), f);
  EXPECT_TRUE(off.gps_attacked);
  check_equivalence(f);
}

TEST(StreamingEquivalence, CheckpointRestoreMidFlightIsBitwiseIdentical) {
  // A crash-and-restore at mid-flight must be invisible in the evidence: the
  // restored session's remaining verdicts, full decision trace and final
  // report stay bitwise identical to the offline analysis (and hence to the
  // uninterrupted streaming path) at 1 and 4 threads.  An attack flight, so
  // the verdict being preserved is a non-vacuous one.
  const auto f = imu_attack_flight(attacks::ImuAttackType::kAccelDos, 421);
  const auto& p = pipeline();
  const auto& m = stream_mapper();
  RcaEngine engine{m, *p.imu_det, *p.gps_det};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool::set_threads(threads);
    RcaDecisionTrace off_tr;
    const auto off = engine.analyze(test::lab(), f, {}, &off_tr);
    EXPECT_TRUE(off.imu_attacked);
    const auto on = run_streaming_with_restart(f, m);
    EXPECT_EQ(on.shed, 0u) << "threads " << threads;
    expect_equivalent(off, off_tr, on);
  }
  util::ThreadPool::set_threads(0);
}

// Restores the process-wide recorder switch on scope exit.
struct RecorderGuard {
  explicit RecorderGuard(bool on) { obs::set_recorder_enabled(on); }
  ~RecorderGuard() { obs::set_recorder_enabled(false); }
};

TEST(StreamingEquivalence, RecorderOnKeepsEvidenceBitwiseIdentical) {
  // Recording is observation-only: with the flight recorder capturing every
  // chunk/window/verdict event, the served evidence must stay bitwise equal
  // to the offline analysis at 1 and 4 threads — an attack flight, so the
  // final-verdict dump path runs too.
  const auto f = imu_attack_flight(attacks::ImuAttackType::kAccelDos, 421);
  const auto& p = pipeline();
  const auto& m = stream_mapper();
  RcaEngine engine{m, *p.imu_det, *p.gps_det};
  RecorderGuard recorder_on{true};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool::set_threads(threads);
    RcaDecisionTrace off_tr;
    const auto off = engine.analyze(test::lab(), f, {}, &off_tr);
    const auto on = run_streaming(f, m);
    EXPECT_EQ(on.shed, 0u) << "threads " << threads;
    expect_equivalent(off, off_tr, on);
  }
  util::ThreadPool::set_threads(0);
}

TEST(StreamingEquivalence, RecorderOnServingStaysScratchHeapFlat) {
  // The recorder ring is preallocated, so the zero-allocation serving steady
  // state (scratch-pool heap fetches flat after warm-up) must hold with
  // recording enabled.
  util::ThreadPool::set_threads(1);
  RecorderGuard recorder_on{true};
  const auto& p = pipeline();
  const auto& m = stream_mapper();
  const auto f = test::hover_flight(25.0, 420, 0.4);
  stream::RcaSessionConfig sc;
  sc.recorder.out_dir = ::testing::TempDir();
  stream::RcaSession session{11, m, *p.imu_det, *p.gps_det, sc};
  ASSERT_NE(session.recorder(), nullptr);
  stream::InferenceScheduler sched{m};
  sched.attach(session);

  const auto audio = continuous_recording(f, m);
  const double fs = audio.sample_rate;
  const std::size_t total = audio.num_samples();
  const std::size_t chunk = 1600;
  const std::size_t warm_end = total / 2;  // well past settle + pool warm-up
  auto& heap_allocs =
      obs::Registry::instance().counter("ml.workspace.heap_allocs");
  std::uint64_t baseline = 0;
  std::size_t imu_i = 0, gps_i = 0;
  for (std::size_t begin = 0; begin < total; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, total);
    const double until = static_cast<double>(end) / fs;
    std::size_t imu_hi = imu_i;
    while (imu_hi < f.log.imu.size() && f.log.imu[imu_hi].t <= until) ++imu_hi;
    session.push_imu(std::span{f.log.imu}.subspan(imu_i, imu_hi - imu_i));
    imu_i = imu_hi;
    std::size_t gps_hi = gps_i;
    while (gps_hi < f.log.gps.size() && f.log.gps[gps_hi].t <= until) ++gps_hi;
    session.push_gps(std::span{f.log.gps}.subspan(gps_i, gps_hi - gps_i));
    gps_i = gps_hi;
    acoustics::MultiChannelAudio slice;
    slice.sample_rate = fs;
    for (std::size_t c = 0; c < sensors::kNumMics; ++c)
      slice.channels[c].assign(
          audio.channels[c].begin() + static_cast<std::ptrdiff_t>(begin),
          audio.channels[c].begin() + static_cast<std::ptrdiff_t>(end));
    session.push_audio(slice);
    sched.pump();
    if (begin < warm_end && warm_end <= end) baseline = heap_allocs.value();
  }
  sched.drain();
  ASSERT_GT(baseline, 0u);  // serving ran and the pool was exercised
  EXPECT_EQ(heap_allocs.value(), baseline)
      << "scratch pool grew past the warm-up steady state with recording on";
  EXPECT_GT(session.recorder()->recorded(), 0u);
  session.finish();
  util::ThreadPool::set_threads(0);
}

TEST(StreamingEquivalence, FaultedFlightMatchesOffline) {
  // Dead mic + mid-flight GPS outage: the degradation paths (channel
  // masking, KF coasting) must stay bit-identical online.
  auto f = test::hover_flight(25.0, 423, 0.4);
  faults::FaultPlan plan;
  plan.gps.push_back({faults::GpsFaultType::kOutage, 1.0, 10.0, 15.0});
  faults::apply_to_log(f.log, plan);
  PredictionHooks hooks;
  hooks.audio_transform = [](acoustics::MultiChannelAudio& audio) {
    for (auto& v : audio.channels[1]) v = 0.0;
  };
  const auto& p = pipeline();
  const auto& m = stream_mapper();
  RcaEngine engine{m, *p.imu_det, *p.gps_det};
  RcaDecisionTrace off_tr;
  const auto off = engine.analyze(test::lab(), f, hooks, &off_tr);
  EXPECT_GE(off.health.gps_coast_intervals, 1u);
  EXPECT_FALSE(off.health.mic_alive(1));
  check_equivalence(f, hooks);
}

}  // namespace
}  // namespace sb::core
