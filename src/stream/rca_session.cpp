#include "stream/rca_session.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sb::stream {
namespace {

StreamingExtractorConfig extractor_config(const core::SensoryMapper& mapper,
                                          const RcaSessionConfig& config) {
  StreamingExtractorConfig ec;
  ec.sample_rate = config.sample_rate;
  ec.settle = mapper.config().dataset.settle_time;
  ec.stride = mapper.config().dataset.stride;
  ec.window_seconds = mapper.config().dataset.signature.window_seconds;
  return ec;
}

}  // namespace

RcaSession::RcaSession(std::uint64_t id, const core::SensoryMapper& mapper,
                       const core::ImuRcaDetector& imu_detector,
                       const core::GpsRcaDetector& gps_detector,
                       const RcaSessionConfig& config)
    : id_(id),
      mapper_(&mapper),
      config_(config),
      extractor_(extractor_config(mapper, config)),
      monitor_(imu_detector, gps_detector, config.reference_windows) {
  if (!mapper.trained())
    throw std::logic_error{"RcaSession: mapper not trained"};
  if (obs::recorder_enabled())
    recorder_ = std::make_unique<obs::FlightRecorder>(id, config.recorder);
  // Pay serving's one-time costs (FFT plan, window coefficients, compiled
  // inference plan) now rather than inside the first window's latency.
  mapper.warm_serving();
}

void RcaSession::push_audio(const acoustics::MultiChannelAudio& chunk) {
  if (finished_) throw std::logic_error{"RcaSession: push after finish"};
  obs::ScopedSpan span{"session_push_audio", obs::Stage::kPredict};
  if (recorder_)
    recorder_->record({obs::RecorderEvent::Kind::kChunk, false, audio_chunks_,
                       obs::now_us(), 0.0,
                       static_cast<double>(chunk.num_samples()), 0.0});
  ++audio_chunks_;
  for (auto& w : extractor_.push(chunk)) {
    // Stage the raw slice only; signature preparation (the expensive part of
    // serving) is deferred to take_ready() so it runs on the pump thread —
    // in a fleet, the shard's worker — keeping scratch-pool allocations
    // thread-local.  Thinned windows (degraded evidence) skip it entirely.
    const bool thinned =
        config_.evidence_stride > 1 && next_seq_ % config_.evidence_stride != 0;
    ReadyWindow rw;
    rw.session = id_;
    rw.seq = next_seq_++;
    rw.span = {w.t0, w.t1};
    rw.audio = std::move(w.audio);
    rw.thinned = thinned;
    rw.ready_at_us = obs::now_us();
    ++monitor_.health().windows_total;
    ready_.push_back(std::move(rw));
  }
}

void RcaSession::prepare_window(ReadyWindow& w) {
  // Extraction, hooks, channel diagnosis + masking, standardization — the
  // exact per-window path the offline predict_windows runs.
  std::array<bool, sensors::kNumMics> healthy{};
  w.signature = mapper_->prepare_signature(w.audio, config_.hooks, &healthy);
  w.audio = {};
  faults::HealthReport& health = monitor_.health();
  bool any_masked = false;
  std::size_t masked = 0;
  for (std::size_t c = 0; c < sensors::kNumMics; ++c) {
    if (healthy[c]) continue;
    ++health.mic_windows_masked[c];
    ++masked;
    any_masked = true;
  }
  if (any_masked) ++health.windows_degraded;
  if (masked > 0) {
    static obs::Counter& masked_counter =
        obs::Registry::instance().counter("faults.mic_windows_masked");
    masked_counter.add(masked);
  }
  if (recorder_) {
    recorder_->record({obs::RecorderEvent::Kind::kWindow, any_masked, w.seq,
                       w.ready_at_us, w.span.t1, static_cast<double>(masked),
                       0.0});
    if (any_masked) {
      recorder_->record({obs::RecorderEvent::Kind::kDegrade, true, w.seq,
                         w.ready_at_us, w.span.t1,
                         static_cast<double>(health.windows_degraded), 0.0});
      recorder_->trigger("health_degraded");
    }
  }
}

void RcaSession::push_imu(std::span<const sim::ImuSample> samples) {
  if (finished_) throw std::logic_error{"RcaSession: push after finish"};
  imu_buf_.insert(imu_buf_.end(), samples.begin(), samples.end());
}

void RcaSession::push_gps(std::span<const sim::GpsSample> samples) {
  if (finished_) throw std::logic_error{"RcaSession: push after finish"};
  gps_buf_.insert(gps_buf_.end(), samples.begin(), samples.end());
}

std::vector<RcaSession::ReadyWindow> RcaSession::take_ready() {
  auto out = std::exchange(ready_, {});
  for (auto& w : out)
    if (!w.thinned) prepare_window(w);
  return out;
}

void RcaSession::emit_imu_decisions(std::span<const core::ImuWindowDecision> decisions,
                                    bool imu_attacked, double decided_at) {
  // Index of the first decision in the flight's full IMU decision list.
  std::size_t index = monitor_.imu_decisions().size() - decisions.size();
  for (const auto& d : decisions) {
    VerdictEvent e;
    e.kind = VerdictEvent::Kind::kImuWindow;
    e.decided_at = decided_at;
    e.imu_attacked = imu_attacked;
    e.imu = d;
    if (recorder_) {
      recorder_->record({obs::RecorderEvent::Kind::kImuVerdict, d.alert, index,
                         obs::now_us(), d.t1, d.score, d.threshold});
      if (d.alert) recorder_->trigger("imu_alert");
    }
    events_.push_back(e);
    ++index;
  }
}

void RcaSession::deliver(const core::TimedPrediction& pred) {
  if (finished_) throw std::logic_error{"RcaSession: deliver after finish"};
  if (delivered_ >= next_seq_)
    throw std::logic_error{"RcaSession: deliver without a staged window"};
  ++delivered_;
  last_t1_ = pred.t1;

  const auto step = monitor_.step(pred, imu_buf_, gps_buf_);
  emit_imu_decisions(step.imu, step.imu_attacked, pred.t1);
  std::size_t index = step.gps_first;
  for (const auto& d : step.gps) {
    VerdictEvent e;
    e.kind = VerdictEvent::Kind::kGpsFix;
    e.decided_at = pred.t1;
    e.imu_attacked = step.imu_attacked;
    e.gps_mode = step.gps_mode;
    e.gps = d;
    if (recorder_) {
      recorder_->record({obs::RecorderEvent::Kind::kGpsVerdict, d.alert, index,
                         obs::now_us(), d.t, d.running_mean_err, d.pos_dev});
      if (d.alert) recorder_->trigger("gps_alert");
    }
    events_.push_back(e);
    ++index;
  }
}

std::vector<VerdictEvent> RcaSession::poll_verdicts() {
  return std::exchange(events_, {});
}

core::RcaReport RcaSession::finish(core::RcaDecisionTrace* trace_out) {
  if (finished_) throw std::logic_error{"RcaSession: finish twice"};
  finished_ = true;
  const std::size_t imu_before = monitor_.imu_decisions().size();
  const core::RcaReport report = monitor_.finish(
      trace_out, "RCA session " + std::to_string(id_));
  emit_imu_decisions(std::span{monitor_.imu_decisions()}.subspan(imu_before),
                     report.imu_attacked, last_t1_);
  // Attack verdict: the session's black box is the post-incident evidence —
  // always dump (force bypasses the rate-limit gap, not the dump bound).
  if (recorder_ && (report.imu_attacked || report.gps_attacked))
    recorder_->trigger("final_verdict", /*force=*/true);
  return report;
}

}  // namespace sb::stream
