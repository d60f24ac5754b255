#include "core/sensory_mapper.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "dsp/window.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/checksum.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sb::core {

SensoryMapper::SensoryMapper(const SensoryMapperConfig& config) : config_(config) {
  Rng rng{config_.model_seed};
  const auto shape = signature_shape(config_.dataset.signature);
  ml::ModelInputShape in{shape.channels, shape.frames, shape.bands};
  model_ = ml::make_model(config_.model, in, kLabelDim, rng);
}

ml::TrainResult SensoryMapper::fit(const FlightLab& lab,
                                   std::span<const Flight> flights) {
  DatasetBuilder builder{config_.dataset, lab};
  for (const Flight& f : flights) builder.add_flight(f);
  return fit_dataset(builder.build());
}

ml::TrainResult SensoryMapper::fit_dataset(const ml::RegressionDataset& data) {
  obs::ScopedSpan span{"fit_dataset", obs::Stage::kTrain};
  // Fit per-feature standardization on the corpus, then train on the
  // standardized copy.  Rotor-tone amplitude changes are percent-level on a
  // dB-like scale; standardization puts every band on comparable footing.
  const std::size_t d = data.x.row_size();
  const std::size_t n = data.x.dim(0);
  feat_mean_.assign(d, 0.0f);
  feat_inv_std_.assign(d, 1.0f);
  if (n > 0) {
    std::vector<double> sum(d, 0.0), sum_sq(d, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = data.x.data() + i * d;
      for (std::size_t k = 0; k < d; ++k) {
        sum[k] += row[k];
        sum_sq[k] += static_cast<double>(row[k]) * row[k];
      }
    }
    for (std::size_t k = 0; k < d; ++k) {
      const double m = sum[k] / static_cast<double>(n);
      const double var = sum_sq[k] / static_cast<double>(n) - m * m;
      feat_mean_[k] = static_cast<float>(m);
      feat_inv_std_[k] = static_cast<float>(1.0 / std::sqrt(std::max(var, 1e-8)));
    }
  }
  ml::RegressionDataset standardized{data.x, data.y};
  standardize(standardized.x);

  Rng split_rng{config_.model_seed ^ 0xabcdef};
  auto [train, val] = ml::split_dataset(standardized, config_.val_fraction, split_rng);
  const auto result = ml::train_regressor(*model_, train, val, config_.train);
  trained_ = true;
  // The plan packs frozen weights; anything compiled before this training
  // run is stale.
  plan_.reset();
  fit_output_calibration(standardized);
  return result;
}

void SensoryMapper::ensure_plan(ml::PlanPrecision precision) const {
  if (plan_ && plan_->precision() == precision) return;
  const auto shape = signature_shape(config_.dataset.signature);
  plan_ = ml::InferencePlan::compile(
      *model_, {shape.channels, shape.frames, shape.bands}, precision);
}

ml::Tensor SensoryMapper::serving_forward(const ml::Tensor& batch) const {
  ensure_plan(ml::plan_precision());
  return plan_->forward(batch);
}

void SensoryMapper::warm_serving() const {
  // First-window costs on the streaming path: the FFT bit-reversal plan,
  // the Hann coefficients (both memoized process-wide) and the compiled
  // inference plan for this mapper.
  const auto& sig = config_.dataset.signature;
  dsp::warm_fft_plan(sig.frame_size);
  (void)dsp::cached_window(dsp::WindowType::kHann, sig.frame_size);
  if (trained_) ensure_plan(ml::plan_precision());
}

void SensoryMapper::fit_output_calibration(const ml::RegressionDataset& data) {
  calib_a_.fill(1.0);
  calib_b_.fill(0.0);
  const std::size_t n = data.x.empty() ? 0 : data.x.dim(0);
  if (n < 16) return;

  // Accumulate per-dim first/second moments of (pred, label) pairs.
  std::array<double, kLabelDim> sp{}, sl{}, spp{}, spl{};
  constexpr std::size_t kBatch = 64;
  for (std::size_t start = 0; start < n; start += kBatch) {
    const std::size_t end = std::min(start + kBatch, n);
    const ml::Tensor pred = model_->forward(data.x.slice_rows(start, end), false);
    for (std::size_t i = 0; i < end - start; ++i) {
      for (std::size_t d = 0; d < kLabelDim; ++d) {
        const double p = pred[i * kLabelDim + d];
        const double l = data.y[(start + i) * kLabelDim + d];
        sp[d] += p;
        sl[d] += l;
        spp[d] += p * p;
        spl[d] += p * l;
      }
    }
  }
  for (std::size_t d = 0; d < kLabelDim; ++d) {
    const double nn = static_cast<double>(n);
    const double var_p = spp[d] / nn - (sp[d] / nn) * (sp[d] / nn);
    const double cov = spl[d] / nn - (sp[d] / nn) * (sl[d] / nn);
    if (var_p > 1e-8) {
      // Clamp: recalibration may stretch, never wildly amplify noise.
      calib_a_[d] = std::clamp(cov / var_p, 0.5, 3.0);
      calib_b_[d] = sl[d] / nn - calib_a_[d] * sp[d] / nn;
    }
  }
}

void SensoryMapper::neutralize_frequency_group(ml::Tensor& sig,
                                               dsp::FreqGroup group) const {
  if (sig.ndim() != 4 || sig.row_size() != feat_mean_.size()) return;
  const std::size_t bands = sig.dim(3);
  const auto& band_cfg = config_.dataset.signature.bands;
  for (std::size_t i = 0; i < sig.numel(); ++i) {
    const std::size_t band = i % bands;
    if (dsp::group_of_band(band, band_cfg) == group)
      sig[i] = feat_mean_[i % sig.row_size()];
  }
}

void SensoryMapper::standardize(ml::Tensor& x) const {
  const std::size_t d = x.row_size();
  if (d != feat_mean_.size()) return;
  const std::size_t n = x.dim(0);
  // Clamp to +/-4 sigma: robust input conditioning.  Benign features never
  // reach the clamp; an adversary who silences or saturates a band (Tab.
  // III) is bounded instead of driving the model into unconstrained
  // extrapolation.
  constexpr float kClamp = 4.0f;
  const float* mean = feat_mean_.data();
  const float* inv_std = feat_inv_std_.data();
  // vmax(lo) then vmin(hi) IS std::clamp per element, including NaN
  // passthrough (ordered compares are false on NaN, so the value survives
  // both selects) — both backends bitwise-identical.
  for (std::size_t i = 0; i < n; ++i) {
    float* row = x.data() + i * d;
    std::size_t k = 0;
    if (util::simd_enabled()) {
      namespace v = util::simd;
      const v::VFloat lo = v::broadcast(-kClamp);
      const v::VFloat hi = v::broadcast(kClamp);
      for (; k + v::kFloatLanes <= d; k += v::kFloatLanes) {
        const v::VFloat t =
            v::mul(v::sub(v::load(row + k), v::load(mean + k)),
                   v::load(inv_std + k));
        v::store(row + k, v::vmin(v::vmax(t, lo), hi));
      }
    }
    for (; k < d; ++k)
      row[k] = std::clamp((row[k] - mean[k]) * inv_std[k], -kClamp, kClamp);
  }
}

std::vector<SensoryMapper::WindowAudio> SensoryMapper::synthesize_windows(
    const FlightLab& lab, const Flight& flight) const {
  obs::ScopedSpan span{"synthesize_windows", obs::Stage::kSynthesis};
  const auto synth = lab.synthesizer(flight);
  const auto grid =
      window_grid(config_.dataset.settle_time, config_.dataset.stride,
                  config_.dataset.signature.window_seconds, flight.log.duration());

  // Window synthesis is seeded per (flight, window-start), so parallel
  // filling of indexed slots reproduces the serial loop exactly.
  std::vector<WindowAudio> out(grid.size());
  util::parallel_for(grid.size(), [&](std::size_t i) {
    out[i] = {grid[i].t0, grid[i].t1,
              synth.synthesize(flight.log, grid[i].t0, grid[i].t1)};
  });
  return out;
}

ml::Tensor SensoryMapper::prepare_signature(
    const acoustics::MultiChannelAudio& audio_in, const PredictionHooks& hooks,
    std::array<bool, sensors::kNumMics>* healthy) const {
  acoustics::MultiChannelAudio transformed;
  const acoustics::MultiChannelAudio* audio = &audio_in;
  if (hooks.audio_transform) {
    transformed = audio_in;  // transform a copy
    hooks.audio_transform(transformed);
    audio = &transformed;
  }
  // Under the opt-in f32 plan the WHOLE serving path drops to float32 —
  // signature front end included (the STFT dominates serving cost, not the
  // model forward).  Training and dataset building call compute_signature
  // directly and always keep the exact double pipeline.
  const bool fast_f32 = ml::plan_precision() == ml::PlanPrecision::kF32;
  ml::Tensor sig = compute_signature(*audio, config_.dataset.signature, fast_f32);
  if (hooks.signature_transform) hooks.signature_transform(sig);
  if (healthy) {
    // Diagnose the audio the model would actually see and mask unhealthy
    // channels to the corpus mean (standardizes to exactly zero) — the
    // same neutral imputation as neutralize_frequency_group.
    std::array<faults::ChannelStats, sensors::kNumMics> stats;
    for (std::size_t c = 0; c < sensors::kNumMics; ++c)
      stats[c] = faults::analyze_channel(audio->channels[c]);
    *healthy = faults::healthy_channels(stats);
    const std::size_t per_channel = sig.row_size() / sensors::kNumMics;
    for (std::size_t c = 0; c < sensors::kNumMics; ++c) {
      if ((*healthy)[c]) continue;
      for (std::size_t k = c * per_channel; k < (c + 1) * per_channel; ++k)
        sig[k] = feat_mean_[k];
    }
  }
  standardize(sig);
  return sig;
}

std::vector<TimedPrediction> SensoryMapper::predict_prepared(
    std::span<const ml::Tensor> sigs, std::span<const WindowSpan> spans) const {
  if (!trained_) throw std::logic_error{"SensoryMapper: predict before fit"};
  if (sigs.size() != spans.size())
    throw std::invalid_argument{"predict_prepared: sigs/spans size mismatch"};
  std::vector<TimedPrediction> out;
  if (sigs.empty()) return out;

  const std::size_t n = sigs.size();
  ml::Tensor batch({n, sigs[0].dim(1), sigs[0].dim(2), sigs[0].dim(3)});
  const std::size_t row = batch.row_size();
  for (std::size_t i = 0; i < n; ++i) {
    if (sigs[i].numel() != row)
      throw std::invalid_argument{"predict_prepared: ragged signature batch"};
    std::copy(sigs[i].flat().begin(), sigs[i].flat().end(),
              batch.data() + i * row);
  }
  const ml::Tensor pred = serving_forward(batch);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::array<double, kLabelDim> y{};
    for (std::size_t d = 0; d < kLabelDim; ++d)
      y[d] = calib_a_[d] * static_cast<double>(pred[i * kLabelDim + d]) +
             calib_b_[d];
    out.push_back({spans[i].t0, spans[i].t1, Vec3{y[0], y[1], y[2]},
                   Vec3{y[3], y[4], y[5]}});
  }
  return out;
}

std::vector<TimedPrediction> SensoryMapper::predict_windows(
    std::span<const WindowAudio> windows, const PredictionHooks& hooks,
    faults::HealthReport* health) const {
  obs::ScopedSpan span{"predict_windows", obs::Stage::kPredict};
  if (!trained_) throw std::logic_error{"SensoryMapper: predict before fit"};

  // Signature extraction (the expensive part) is independent per window and
  // runs in parallel; see PredictionHooks for the concurrency contract.
  // Channel diagnosis writes only its own window's slot; the health tally
  // and obs counters are reduced serially after the loop.
  std::vector<ml::Tensor> sigs(windows.size());
  std::vector<std::array<bool, sensors::kNumMics>> healthy;
  if (health) healthy.assign(windows.size(), {});
  util::parallel_for(windows.size(), [&](std::size_t i) {
    sigs[i] = prepare_signature(windows[i].audio, hooks,
                                health ? &healthy[i] : nullptr);
  });

  if (health) {
    std::size_t masked_total = 0;
    std::size_t degraded = 0;
    for (const auto& h : healthy) {
      bool any = false;
      for (std::size_t c = 0; c < sensors::kNumMics; ++c)
        if (!h[c]) {
          ++health->mic_windows_masked[c];
          ++masked_total;
          any = true;
        }
      if (any) ++degraded;
    }
    health->windows_total += windows.size();
    health->windows_degraded += degraded;
    if (masked_total > 0) {
      static obs::Counter& masked =
          obs::Registry::instance().counter("faults.mic_windows_masked");
      masked.add(masked_total);
    }
  }

  // The model keeps per-layer forward caches, so inference stays single-file
  // (never concurrent forwards); windows batch along the leading dim in
  // grid-order chunks — bitwise identical to per-window forwards because
  // every op processes batch rows independently (pinned by ml_test).
  std::vector<TimedPrediction> out;
  out.reserve(windows.size());
  constexpr std::size_t kInferBatch = 64;
  for (std::size_t start = 0; start < windows.size(); start += kInferBatch) {
    const std::size_t end = std::min(start + kInferBatch, windows.size());
    std::vector<WindowSpan> spans(end - start);
    for (std::size_t i = start; i < end; ++i)
      spans[i - start] = {windows[i].t0, windows[i].t1};
    auto chunk = predict_prepared(
        std::span<const ml::Tensor>{sigs.data() + start, end - start}, spans);
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

std::vector<TimedPrediction> SensoryMapper::predict_flight(
    const FlightLab& lab, const Flight& flight, const PredictionHooks& hooks,
    faults::HealthReport* health) const {
  return predict_windows(synthesize_windows(lab, flight), hooks, health);
}

namespace {

// Framed format: magic, format version, payload size, CRC-32 of the
// payload, then the payload itself.  The frame is validated before any
// payload field is parsed, so truncation and bit flips are caught up front
// instead of surfacing as a silently mis-sized model.
constexpr std::uint64_t kModelMagic = 0x53424d4150463032ULL;   // "SBMAPF02"
constexpr std::uint64_t kLegacyModelMagic = 0x53424d4150313032ULL;  // "SBMAP102"
constexpr std::uint32_t kFormatVersion = 2;
// magic + version + payload size + crc32.
constexpr std::uint64_t kFrameHeaderBytes = 8 + 4 + 8 + 4;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool read_pod(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return static_cast<bool>(is);
}

void reject(const std::string& path, const char* why) {
  obs::logf(obs::LogLevel::kWarn, "io", "rejecting model file %s: %s",
            path.c_str(), why);
}

}  // namespace

std::string model_format_tag() {
  return "SBMAPF02v" + std::to_string(kFormatVersion);
}

bool SensoryMapper::save(const std::string& path) const {
  std::ofstream file{path, std::ios::binary};
  if (!file) return false;
  return save(file);
}

bool SensoryMapper::save(std::ostream& out) const {
  if (!trained_) return false;
  std::ostringstream os{std::ios::binary};
  write_pod(os, static_cast<std::uint32_t>(config_.model));

  const auto params = model_->params();
  write_pod(os, static_cast<std::uint64_t>(params.size()));
  for (const ml::Param* p : params) {
    write_pod(os, static_cast<std::uint64_t>(p->value.numel()));
    os.write(reinterpret_cast<const char*>(p->value.data()),
             static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
  }

  // Persistent non-learnable state (batch-norm running statistics).
  const auto state = model_->state();
  write_pod(os, static_cast<std::uint64_t>(state.size()));
  for (const ml::Tensor* t : state) {
    write_pod(os, static_cast<std::uint64_t>(t->numel()));
    os.write(reinterpret_cast<const char*>(t->data()),
             static_cast<std::streamsize>(t->numel() * sizeof(float)));
  }

  write_pod(os, static_cast<std::uint64_t>(feat_mean_.size()));
  os.write(reinterpret_cast<const char*>(feat_mean_.data()),
           static_cast<std::streamsize>(feat_mean_.size() * sizeof(float)));
  os.write(reinterpret_cast<const char*>(feat_inv_std_.data()),
           static_cast<std::streamsize>(feat_inv_std_.size() * sizeof(float)));
  for (double a : calib_a_) write_pod(os, a);
  for (double b : calib_b_) write_pod(os, b);
  if (!os) return false;

  const std::string payload = os.str();
  write_pod(out, kModelMagic);
  write_pod(out, kFormatVersion);
  write_pod(out, static_cast<std::uint64_t>(payload.size()));
  write_pod(out, util::crc32(payload.data(), payload.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  return static_cast<bool>(out);
}

bool SensoryMapper::load(const std::string& path) {
  std::ifstream file{path, std::ios::binary};
  if (!file) return false;
  return load(file, path);
}

bool SensoryMapper::load(std::istream& file, const std::string& path) {
  std::uint64_t magic = 0;
  if (!read_pod(file, magic)) return false;
  if (magic == kLegacyModelMagic) {
    reject(path, "pre-framing format (no integrity checksum) — retrain and re-save");
    return false;
  }
  if (magic != kModelMagic) {
    reject(path, "unrecognized magic");
    return false;
  }
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t crc = 0;
  if (!read_pod(file, version) || !read_pod(file, payload_size) ||
      !read_pod(file, crc)) {
    reject(path, "truncated frame header");
    return false;
  }
  if (version != kFormatVersion) {
    reject(path, "unsupported format version");
    return false;
  }
  // The declared payload must match the bytes actually present — this both
  // catches truncation early and bounds the allocation below.  The frame
  // starts wherever this stream was positioned on entry (byte 0 for a model
  // file; mid-stream for an embedded frame).
  const auto frame_start = static_cast<std::uint64_t>(
      static_cast<std::streamoff>(file.tellg()) -
      static_cast<std::streamoff>(kFrameHeaderBytes));
  file.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(file.tellg());
  file.seekg(static_cast<std::streamoff>(frame_start + kFrameHeaderBytes),
             std::ios::beg);
  if (file_size < frame_start + kFrameHeaderBytes ||
      payload_size != file_size - frame_start - kFrameHeaderBytes) {
    reject(path, "payload size mismatch (truncated or corrupt)");
    return false;
  }
  std::string payload(payload_size, '\0');
  file.read(payload.data(), static_cast<std::streamsize>(payload_size));
  if (!file) {
    reject(path, "short read");
    return false;
  }
  if (util::crc32(payload.data(), payload.size()) != crc) {
    reject(path, "checksum mismatch (bit-flipped or corrupt)");
    return false;
  }

  std::istringstream is{payload, std::ios::binary};
  std::uint32_t kind = 0;
  if (!read_pod(is, kind) || kind != static_cast<std::uint32_t>(config_.model))
    return false;

  const auto params = model_->params();
  std::uint64_t count = 0;
  if (!read_pod(is, count) || count != params.size()) return false;
  for (ml::Param* p : params) {
    std::uint64_t numel = 0;
    if (!read_pod(is, numel) || numel != p->value.numel()) return false;
    is.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(numel * sizeof(float)));
    if (!is) return false;
    // New weights under the same Param: invalidate packed backward operands
    // keyed on the version stamp (ml::Conv2D's weight^T pack).
    p->bump();
  }

  const auto state = model_->state();
  std::uint64_t state_count = 0;
  if (!read_pod(is, state_count) || state_count != state.size()) return false;
  for (ml::Tensor* t : state) {
    std::uint64_t numel = 0;
    if (!read_pod(is, numel) || numel != t->numel()) return false;
    is.read(reinterpret_cast<char*>(t->data()),
            static_cast<std::streamsize>(numel * sizeof(float)));
    if (!is) return false;
  }

  std::uint64_t feat = 0;
  if (!read_pod(is, feat)) return false;
  feat_mean_.resize(feat);
  feat_inv_std_.resize(feat);
  is.read(reinterpret_cast<char*>(feat_mean_.data()),
          static_cast<std::streamsize>(feat * sizeof(float)));
  is.read(reinterpret_cast<char*>(feat_inv_std_.data()),
          static_cast<std::streamsize>(feat * sizeof(float)));
  for (double& a : calib_a_)
    if (!read_pod(is, a)) return false;
  for (double& b : calib_b_)
    if (!read_pod(is, b)) return false;
  trained_ = static_cast<bool>(is);
  // Loaded weights differ from whatever the plan packed; recompile lazily.
  plan_.reset();
  return trained_;
}

double SensoryMapper::test_mse(const FlightLab& lab, std::span<const Flight> flights,
                               const PredictionHooks& hooks) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Flight& f : flights) {
    const auto preds = predict_flight(lab, f, hooks);
    for (const auto& p : preds) {
      const Vec3 d = p.accel - f.log.mean_imu_accel(p.t0, p.t1);
      sum += d.norm_sq();
      n += 3;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double SensoryMapper::test_vel_mse(const FlightLab& lab,
                                   std::span<const Flight> flights,
                                   const PredictionHooks& hooks) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Flight& f : flights) {
    const auto preds = predict_flight(lab, f, hooks);
    for (const auto& p : preds) {
      const Vec3 d = p.vel - f.log.mean_nav_vel(p.t0, p.t1);
      sum += d.norm_sq();
      n += 3;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace sb::core
