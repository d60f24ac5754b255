#include "layers.hpp"

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace sbbench {
namespace {

using namespace sb;

std::uint64_t fft_lookups() {
  return counter("fft.plan_hits") + counter("fft.plan_misses");
}

}  // namespace

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_report(const core::RcaReport& a, const core::RcaReport& b) {
  return a.imu_attacked == b.imu_attacked && a.gps_attacked == b.gps_attacked &&
         same_bits(a.imu_detect_time, b.imu_detect_time) &&
         same_bits(a.gps_detect_time, b.gps_detect_time) &&
         a.health.windows_degraded == b.health.windows_degraded;
}

void trace_offline_layers(Result& res, const core::SensoryMapper& mapper,
                          const core::ImuRcaDetector& imu,
                          const core::GpsRcaDetector& gps,
                          std::span<const OfflineFlight> flights) {
  static const core::PredictionHooks kNoHooks;
  obs::Registry::instance().histogram("detect.kf_step_seconds").reset();
  double synth_ms = 0.0, sig_us = 0.0, fwd_us = 0.0, resid_ms = 0.0, gps_ms = 0.0;
  std::size_t n_windows = 0, mismatched = 0;
  std::uint64_t sig_fft = 0, fwd_flops = 0, fwd_calls = 0;
  for (const auto& of : flights) {
    const auto& flight = *of.flight;
    const auto& hooks = of.hooks ? *of.hooks : kNoHooks;
    Stopwatch synth_timer;
    const auto wins = mapper.synthesize_windows(*of.lab, flight);
    synth_ms += synth_timer.ms();
    n_windows += wins.size();

    // Serial signature preparation and one whole-flight forward.
    std::vector<ml::Tensor> sigs;
    std::vector<core::WindowSpan> spans;
    const std::uint64_t fft0 = fft_lookups();
    Stopwatch sig_timer;
    for (const auto& win : wins) {
      sigs.push_back(mapper.prepare_signature(win.audio, hooks));
      spans.push_back({win.t0, win.t1});
    }
    sig_us += sig_timer.us();
    sig_fft += fft_lookups() - fft0;
    const std::uint64_t flops0 = counter("gemm.flops");
    const std::uint64_t calls0 = counter("gemm.calls");
    Stopwatch fwd_timer;
    mapper.predict_prepared(sigs, spans);
    fwd_us += fwd_timer.us();
    fwd_flops += counter("gemm.flops") - flops0;
    fwd_calls += counter("gemm.calls") - calls0;

    // The engine's own stages, in its order, on the engine's predictions.
    core::RcaReport rep;
    const auto preds = mapper.predict_windows(wins, hooks, &rep.health);
    Stopwatch resid_timer;
    const auto resid = core::ImuRcaDetector::residuals(flight, preds, 10, &rep.health);
    resid_ms += resid_timer.ms();
    const auto imu_result = imu.analyze(resid);
    rep.imu_attacked = imu_result.attacked;
    rep.imu_detect_time = imu_result.detect_time;
    Stopwatch gps_timer;
    core::GpsRcaDetector::Result by_mode[2];
    faults::HealthReport scratch_health[2] = {rep.health, rep.health};
    by_mode[0] = gps.analyze(flight, preds, core::GpsDetectorMode::kAudioOnly,
                             nullptr, &scratch_health[0]);
    by_mode[1] = gps.analyze(flight, preds, core::GpsDetectorMode::kAudioImu,
                             nullptr, &scratch_health[1]);
    gps_ms += gps_timer.ms();
    const auto& chosen = by_mode[imu_result.attacked ? 0 : 1];
    rep.gps_attacked = chosen.attacked;
    rep.gps_detect_time = chosen.detect_time;
    if (!same_report(rep, of.reference)) ++mismatched;
  }
  obs::Trace::instance().clear();
  res.gate(mismatched == 0, "decomposed analysis differs from analyze() on " +
                                std::to_string(mismatched) + " flights");
  const double nf = static_cast<double>(flights.size());
  const double nw = static_cast<double>(n_windows);
  res.metric("acoustics.synth_ms_per_window", synth_ms / nw, "ms");
  res.metric("core.signature_us_per_window", sig_us / nw, "us");
  res.metric("dsp.fft_calls_per_window", static_cast<double>(sig_fft) / nw,
             "count/window");
  res.metric("ml.forward_us_per_window.bulk", fwd_us / nw, "us");
  res.metric("ml.gemm_mflop_per_window", 1e-6 * static_cast<double>(fwd_flops) / nw,
             "Mflop/window");
  res.metric("ml.gemm_calls_per_window", static_cast<double>(fwd_calls) / nw,
             "count/window");
  res.metric("detect.imu_residuals_ms_per_flight", resid_ms / nf, "ms");
  res.metric("estimation.gps_analyze_ms_per_flight", gps_ms / nf, "ms");
  res.metric("estimation.kf_step_us.p50",
             1e6 * obs::Registry::instance()
                       .histogram("detect.kf_step_seconds")
                       .percentile(50),
             "us");
}

void trace_model_clone(Result& res, const core::SensoryMapper& mapper) {
  std::vector<double> clone_ms;
  for (int i = 0; i < 5; ++i) {
    Stopwatch t;
    std::stringstream ss;
    mapper.save(ss);
    core::SensoryMapper copy{mapper.config()};
    res.gate(copy.load(ss, "clone"), "model clone failed to load");
    clone_ms.push_back(t.ms());
  }
  res.metric("io.model_clone_ms", median(clone_ms), "ms");
}

}  // namespace sbbench
