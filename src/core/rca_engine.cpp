#include "core/rca_engine.hpp"

#include <string>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/binary_io.hpp"

namespace sb::core {
namespace {

std::size_t mode_index(GpsDetectorMode mode) {
  return mode == GpsDetectorMode::kAudioOnly ? 0 : 1;
}

// Stage 2's KF variant for a stage-1 verdict.
GpsDetectorMode gps_mode_for(bool imu_attacked) {
  return imu_attacked ? GpsDetectorMode::kAudioOnly : GpsDetectorMode::kAudioImu;
}

void add_counter(const char* name, std::size_t n) {
  if (n > 0) obs::Registry::instance().counter(name).add(n);
}

}  // namespace

RcaMonitor::RcaMonitor(const ImuRcaDetector& imu_detector,
                       const GpsRcaDetector& gps_detector,
                       std::size_t reference_windows)
    : imu_(imu_detector, reference_windows),
      gps_{{gps_detector, GpsDetectorMode::kAudioOnly, /*count_metrics=*/false},
           {gps_detector, GpsDetectorMode::kAudioImu, /*count_metrics=*/false}} {}

RcaMonitor::Step RcaMonitor::step(const TimedPrediction& pred,
                                  std::span<const sim::ImuSample> imu,
                                  std::span<const sim::GpsSample> gps) {
  // Stage 1: IMU residuals for this window.  A NaN prediction (shed or
  // thinned serving window) makes every residual non-finite, so the window
  // drops to zero usable samples and the monitor skips it.
  std::size_t total = 0, nonfinite = 0;
  auto raw = ImuRcaDetector::window_residuals(pred, imu, residual_lo_, &total,
                                              &nonfinite);
  health_.imu_samples_total += total;
  health_.imu_samples_nonfinite += nonfinite;
  add_counter("faults.imu_samples_nonfinite", nonfinite);
  const std::size_t imu_before = imu_decisions_.size();
  for (auto& d : imu_.add(std::move(raw))) imu_decisions_.push_back(d);

  // Stage 2: both GPS variants advance from the same seed.
  Step out;
  out.imu_attacked = imu_.result().attacked;
  out.gps_mode = gps_mode_for(out.imu_attacked);
  std::size_t gps_before[2];
  for (std::size_t m = 0; m < 2; ++m) {
    gps_before[m] = gps_decisions_[m].size();
    gps_[m].seed_from(gps);  // no-op after the first window
    gps_[m].step_window(pred, gps, imu, &gps_decisions_[m], &gps_health_[m]);
  }
  const std::size_t sel = mode_index(out.gps_mode);
  out.imu = std::span{imu_decisions_}.subspan(imu_before);
  out.gps = std::span{gps_decisions_[sel]}.subspan(gps_before[sel]);
  out.gps_first = gps_before[sel];
  return out;
}

RcaReport RcaMonitor::finish(RcaDecisionTrace* trace_out, std::string_view source) {
  // Short flights: the baseline may still be accumulating — freeze it on
  // what arrived and drain.
  for (auto& d : imu_.finish()) imu_decisions_.push_back(d);

  RcaReport report;
  const auto& imu_result = imu_.result();
  report.imu_attacked = imu_result.attacked;
  report.imu_detect_time = imu_result.detect_time;
  health_.imu_windows_skipped += imu_result.windows_skipped;
  add_counter("faults.imu_windows_skipped", imu_result.windows_skipped);

  report.gps_mode_used = gps_mode_for(report.imu_attacked);
  const std::size_t sel = mode_index(report.gps_mode_used);
  const auto& gps_result = gps_[sel].result();
  report.gps_attacked = gps_result.attacked;
  report.gps_detect_time = gps_result.detect_time;

  // Merge the SELECTED variant's degradation tally — the rejected monitor's
  // identical walk must not double-count — and mirror it into the global
  // counters its monitor was told not to touch.
  const faults::HealthReport& gh = gps_health_[sel];
  health_.gps_fixes_total += gh.gps_fixes_total;
  health_.gps_fixes_nonfinite += gh.gps_fixes_nonfinite;
  health_.gps_coast_intervals += gh.gps_coast_intervals;
  health_.gps_coast_seconds += gh.gps_coast_seconds;
  health_.kf_fallback_steps += gh.kf_fallback_steps;
  add_counter("faults.gps_fixes_nonfinite", gh.gps_fixes_nonfinite);
  add_counter("faults.gps_coast_intervals", gh.gps_coast_intervals);
  add_counter("faults.kf_fallback_steps", gh.kf_fallback_steps);

  report.health = health_;
  if (report.health.degraded())
    obs::logf(obs::LogLevel::kInfo, "detect",
              "%.*s completed degraded: %zu/%u mics alive, %zu windows masked, "
              "%zu IMU windows skipped, %zu GPS coast intervals (%.1f s)",
              static_cast<int>(source.size()), source.data(),
              report.health.mics_alive(), static_cast<unsigned>(sensors::kNumMics),
              report.health.windows_degraded, report.health.imu_windows_skipped,
              report.health.gps_coast_intervals, report.health.gps_coast_seconds);
  if (trace_out) {
    trace_out->imu = imu_decisions_;
    trace_out->gps = gps_decisions_[sel];
    trace_out->imu_attacked = report.imu_attacked;
    trace_out->gps_attacked = report.gps_attacked;
    trace_out->gps_mode = report.gps_mode_used;
    trace_out->health = report.health;
  }
  return report;
}

void RcaMonitor::save_state(std::ostream& os) const {
  using util::io::write_pod;
  using util::io::write_pod_vec;
  imu_.save_state(os);
  for (const auto& m : gps_) m.save_state(os);
  for (const auto& h : gps_health_) write_pod(os, h);
  for (const auto& d : gps_decisions_) write_pod_vec(os, d);
  write_pod_vec(os, imu_decisions_);
  write_pod(os, health_);
  write_pod(os, static_cast<std::uint64_t>(residual_lo_));
}

bool RcaMonitor::load_state(std::istream& is) {
  using util::io::read_pod;
  using util::io::read_pod_vec;
  if (!imu_.load_state(is)) return false;
  for (auto& m : gps_)
    if (!m.load_state(is)) return false;
  for (auto& h : gps_health_)
    if (!read_pod(is, h)) return false;
  for (auto& d : gps_decisions_)
    if (!read_pod_vec(is, d)) return false;
  std::uint64_t residual_lo = 0;
  if (!read_pod_vec(is, imu_decisions_) || !read_pod(is, health_) ||
      !read_pod(is, residual_lo))
    return false;
  residual_lo_ = static_cast<std::size_t>(residual_lo);
  return true;
}

RcaCalibrator::RcaCalibrator(ImuRcaDetector& imu_detector,
                             GpsRcaDetector& gps_detector)
    : imu_(&imu_detector), gps_(&gps_detector) {}

void RcaCalibrator::add(const Flight& benign, std::span<const TimedPrediction> preds) {
  const auto windows = ImuRcaDetector::residuals(benign, preds);
  imu_windows_.insert(imu_windows_.end(), windows.begin(), windows.end());
  for (const auto mode : {GpsDetectorMode::kAudioOnly, GpsDetectorMode::kAudioImu})
    gps_results_[mode_index(mode)].push_back(gps_->analyze(benign, preds, mode));
}

void RcaCalibrator::fit() {
  imu_->calibrate(imu_windows_);
  for (const auto mode : {GpsDetectorMode::kAudioOnly, GpsDetectorMode::kAudioImu})
    gps_->calibrate(gps_results_[mode_index(mode)], mode);
}

RcaEngine::RcaEngine(const SensoryMapper& mapper, const ImuRcaDetector& imu_detector,
                     const GpsRcaDetector& gps_detector)
    : mapper_(&mapper), imu_(&imu_detector), gps_(&gps_detector) {}

RcaReport RcaEngine::analyze(const FlightLab& lab, const Flight& flight,
                             const PredictionHooks& hooks,
                             RcaDecisionTrace* trace_out) const {
  // Every stage feeds the same per-flight health tally; on a pristine
  // recording nothing triggers and the analysis is bit-identical to the
  // health-blind path.
  faults::HealthReport health;
  const auto preds = mapper_->predict_flight(lab, flight, hooks, &health);
  return analyze(flight, preds, health, trace_out);
}

RcaReport RcaEngine::analyze(const Flight& flight,
                             std::span<const TimedPrediction> preds,
                             const faults::HealthReport& health,
                             RcaDecisionTrace* trace_out) const {
  obs::ScopedSpan span{"rca_detect", obs::Stage::kDetect};
  RcaMonitor monitor{*imu_, *gps_};
  monitor.health() = health;
  for (const auto& p : preds) monitor.step(p, flight.log.imu, flight.log.gps);
  return monitor.finish(trace_out);
}

}  // namespace sb::core
