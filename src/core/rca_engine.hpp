// Two-stage RCA orchestration (paper §III-C): first decide whether the IMU
// is compromised; then run GPS spoofing detection with the Kalman filter
// variant matching that verdict (audio-only when the IMU is untrusted,
// audio+IMU fusion when it is trusted).
//
// RcaMonitor is the one implementation of that rule.  The offline
// RcaEngine::analyze steps it over a whole recording; the online
// stream::RcaSession steps it window by window as predictions arrive.
#pragma once

#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

#include "core/gps_rca.hpp"
#include "core/imu_rca.hpp"
#include "core/sensory_mapper.hpp"

namespace sb::core {

struct RcaReport {
  // Stage 1.
  bool imu_attacked = false;
  double imu_detect_time = -1.0;
  // Stage 2.
  bool gps_attacked = false;
  double gps_detect_time = -1.0;
  GpsDetectorMode gps_mode_used = GpsDetectorMode::kAudioImu;
  // What the pipeline tolerated to reach the verdicts: masked mic channels,
  // dropped residual windows, GPS coast intervals.  A degraded() report is
  // still a completed analysis — the flag tells the operator how much
  // evidence backs it.
  faults::HealthReport health;

  bool any_attack() const { return imu_attacked || gps_attacked; }
};

// Per-flight two-stage decision state.  Feed it each analysis window's
// prediction in grid order with the IMU samples and GPS fixes known so far
// (growing buffers with a stable prefix, or the whole log); it returns the
// decisions each window made final.
//
// The GPS stage picks its KF variant from the FINAL IMU verdict, which is
// only known at the end of the flight, so both GPS monitors run and
// finish() selects one; step() reports the provisionally selected mode's
// decisions.  Both filters seed from the first finite fix in the GPS span
// passed with the FIRST window: the whole log offline, the receive buffer
// online (identical whenever GPS acquires before the first window ends).
class RcaMonitor {
 public:
  // Detectors must be calibrated; the monitor holds references only.
  RcaMonitor(const ImuRcaDetector& imu_detector, const GpsRcaDetector& gps_detector,
             std::size_t reference_windows = 10);

  // What one window made final.  The spans point into the monitor's own
  // decision lists and stay valid until the next step()/finish().
  struct Step {
    std::span<const ImuWindowDecision> imu;  // newly final IMU decisions
    bool imu_attacked = false;               // stage-1 verdict after them
    GpsDetectorMode gps_mode = GpsDetectorMode::kAudioImu;  // provisional
    std::span<const GpsFixDecision> gps;     // that mode's new fix decisions
    std::size_t gps_first = 0;  // index of gps.front() in that mode's list
  };
  Step step(const TimedPrediction& pred, std::span<const sim::ImuSample> imu,
            std::span<const sim::GpsSample> gps);

  // End of flight: drains the IMU baseline backlog (the drained decisions
  // are appended to imu_decisions()), selects the GPS variant by the final
  // IMU verdict, merges its health tally and assembles the report.  With
  // `trace_out`, the selected path's full decision trace is recorded.
  // `source` names the analysis in the "completed degraded" log line.
  RcaReport finish(RcaDecisionTrace* trace_out = nullptr,
                   std::string_view source = "RCA");

  // The flight's health tally.  The front end (signature preparation) adds
  // its mic-side counts here; the monitor adds the IMU residual counts as
  // it steps and the selected GPS mode's counts at finish().
  faults::HealthReport& health() { return health_; }
  const faults::HealthReport& health() const { return health_; }

  // Every IMU decision made final so far, in window order.
  const std::vector<ImuWindowDecision>& imu_decisions() const {
    return imu_decisions_;
  }
  const ImuRcaDetector& imu_detector() const { return imu_.detector(); }

  // Bitwise checkpoint of the whole decision state (both stages' monitors,
  // decision lists, health, residual scan cursor).  load_state expects a
  // monitor constructed against the SAME detectors and reference-window
  // count; it returns false on malformed bytes or a configuration mismatch.
  void save_state(std::ostream& os) const;
  bool load_state(std::istream& is);

 private:
  ImuRcaDetector::Monitor imu_;
  // [0] = kAudioOnly, [1] = kAudioImu — both run; finish() selects.
  GpsRcaDetector::Monitor gps_[2];
  faults::HealthReport gps_health_[2];
  std::vector<GpsFixDecision> gps_decisions_[2];
  std::vector<ImuWindowDecision> imu_decisions_;
  faults::HealthReport health_;  // front end + IMU; GPS merged at finish()
  std::size_t residual_lo_ = 0;  // window_residuals scan cursor
};

// Benign calibration of both stages: add() each benign flight with its
// predictions, then fit() sets the IMU score threshold and both GPS modes'
// thresholds.  Flights are pooled in the order they were added.
class RcaCalibrator {
 public:
  RcaCalibrator(ImuRcaDetector& imu_detector, GpsRcaDetector& gps_detector);

  void add(const Flight& benign, std::span<const TimedPrediction> preds);
  void fit();

 private:
  ImuRcaDetector* imu_;
  GpsRcaDetector* gps_;
  std::vector<WindowResiduals> imu_windows_;
  std::vector<GpsRcaDetector::Result> gps_results_[2];  // [audio-only, fused]
};

class RcaEngine {
 public:
  RcaEngine(const SensoryMapper& mapper, const ImuRcaDetector& imu_detector,
            const GpsRcaDetector& gps_detector);

  // Post-incident analysis of one flight recording.  With `trace_out`, both
  // stages record their per-decision evidence (see decision_trace.hpp).
  RcaReport analyze(const FlightLab& lab, const Flight& flight,
                    const PredictionHooks& hooks = {},
                    RcaDecisionTrace* trace_out = nullptr) const;

  // The same analysis from predictions already made (e.g. by
  // predict_windows over faulted audio); `health` carries the front end's
  // tally of those predictions.
  RcaReport analyze(const Flight& flight, std::span<const TimedPrediction> preds,
                    const faults::HealthReport& health = {},
                    RcaDecisionTrace* trace_out = nullptr) const;

 private:
  const SensoryMapper* mapper_;
  const ImuRcaDetector* imu_;
  const GpsRcaDetector* gps_;
};

}  // namespace sb::core
