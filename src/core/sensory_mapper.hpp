// Sensory mapping (paper §III-B): trains a DL model that maps acoustic
// signatures to the UAV's NED acceleration vector, and serves predictions
// over recorded flights.
#pragma once

#include <array>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/flight_lab.hpp"
#include "core/signature.hpp"
#include "faults/health.hpp"
#include "ml/models.hpp"
#include "ml/plan.hpp"
#include "ml/trainer.hpp"

namespace sb::core {

// Provenance tag of the model-file format this build writes and reads
// ("SBMAPF02" magic + format version).  Anything that caches trained model
// files (e.g. the bench fixtures under $SB_CACHE_DIR) keys its filenames on
// this tag, so a format bump simply misses the cache and retrains instead
// of tripping over a stale file mid-run.
std::string model_format_tag();

struct SensoryMapperConfig {
  ml::ModelKind model = ml::ModelKind::kMobileNetLite;
  DatasetConfig dataset;  // signature window, stride, augmentation
  ml::TrainConfig train;
  double val_fraction = 0.15;
  std::uint64_t model_seed = 7;
};

// One prediction with its source window.
struct TimedPrediction {
  double t0 = 0.0;
  double t1 = 0.0;
  Vec3 accel;  // NED, m/s^2
  Vec3 vel;    // NED, m/s — the audio-derived velocity (KF measurement)
};

// Optional hooks for the adversarial and ablation experiments.
// Concurrency contract: predict_windows may invoke a hook from several pool
// threads at once (one window each), so hooks must be pure transforms of
// their argument — no mutable captured state, no rng draws.
struct PredictionHooks {
  // Mutates the raw microphone audio before signature extraction
  // (sound-spoofing attacks, Tab. III).
  std::function<void(acoustics::MultiChannelAudio&)> audio_transform;
  // Mutates the signature tensor before inference (counterfactual
  // frequency-group removal, §IV-A).
  std::function<void(ml::Tensor&)> signature_transform;
};

class SensoryMapper {
 public:
  explicit SensoryMapper(const SensoryMapperConfig& config);

  // Builds the training corpus from the given benign flights and trains the
  // model.  Returns per-epoch train/val MSE.
  ml::TrainResult fit(const FlightLab& lab, std::span<const Flight> flights);

  // Trains on a pre-built dataset (used by the augmentation sweep).
  ml::TrainResult fit_dataset(const ml::RegressionDataset& data);

  // One synthesized analysis window of a flight.
  struct WindowAudio {
    double t0 = 0.0;
    double t1 = 0.0;
    acoustics::MultiChannelAudio audio;
  };

  // Synthesizes all analysis windows of a flight once; the result can be fed
  // to predict_windows repeatedly (e.g. under different sound-attack
  // transforms) without re-synthesizing.
  std::vector<WindowAudio> synthesize_windows(const FlightLab& lab,
                                              const Flight& flight) const;

  // Predictions from pre-synthesized windows.  With `health`, every window's
  // channels are diagnosed (faults::analyze_channel on the audio actually
  // analyzed, i.e. after audio_transform) and unhealthy channels are masked
  // to the training-corpus feature mean — the same neutral imputation as
  // neutralize_frequency_group — instead of feeding a dead/clipped channel's
  // garbage to the model; the masking tally accumulates into `health`.
  // Without `health` the diagnosis is skipped entirely and the output is
  // bit-identical to previous behavior.
  std::vector<TimedPrediction> predict_windows(
      std::span<const WindowAudio> windows, const PredictionHooks& hooks = {},
      faults::HealthReport* health = nullptr) const;

  // Extracts, transforms, optionally health-masks and standardizes ONE
  // window's signature — the single implementation behind both the offline
  // predict_windows path and the streaming runtime (stream::RcaSession).
  // With `healthy`, the channels of the (post-transform) audio are diagnosed
  // and unhealthy ones masked to the corpus mean; the mask is written out.
  // Safe to call from several pool threads at once (subject to the
  // PredictionHooks concurrency contract); it never touches the model.
  ml::Tensor prepare_signature(
      const acoustics::MultiChannelAudio& audio, const PredictionHooks& hooks = {},
      std::array<bool, sensors::kNumMics>* healthy = nullptr) const;

  // Batched inference over prepared signatures: stacks the [1,C,H,W] rows
  // into one [N,C,H,W] tensor and runs ONE model forward (model forwards are
  // not reentrant — batching happens inside the forward).  Every op
  // processes batch rows independently with a fixed accumulation order, so
  // the result is bitwise identical to N single-window forwards (pinned by
  // ml_test).  NaN rows are passed through as NaN predictions.
  std::vector<TimedPrediction> predict_prepared(
      std::span<const ml::Tensor> sigs, std::span<const WindowSpan> spans) const;

  // Acceleration predictions at `stride` spacing across a flight.
  std::vector<TimedPrediction> predict_flight(
      const FlightLab& lab, const Flight& flight,
      const PredictionHooks& hooks = {},
      faults::HealthReport* health = nullptr) const;

  // Test acceleration MSE of the model against the (intact) IMU labels of
  // the flights — the quantity Tab. I reports.
  double test_mse(const FlightLab& lab, std::span<const Flight> flights,
                  const PredictionHooks& hooks = {}) const;

  // Velocity-head test MSE against the benign navigation velocity.
  double test_vel_mse(const FlightLab& lab, std::span<const Flight> flights,
                      const PredictionHooks& hooks = {}) const;

  const SensoryMapperConfig& config() const { return config_; }
  ml::Layer& model() { return *model_; }
  bool trained() const { return trained_; }

  // Pays serving's one-time costs up front so the first window of a stream
  // doesn't spike p99: warms the FFT plan cache and STFT window
  // coefficients for this mapper's signature config, and (when the process
  // serving precision isn't off) compiles the inference plan.  Called by
  // stream::RcaSession at construction; safe to call repeatedly.
  void warm_serving() const;

  // The compiled plan predictions currently route through (null when the
  // precision is off or nothing has been served/warmed yet).
  const ml::InferencePlan* serving_plan() const { return plan_.get(); }

  // Counterfactual feature-importance helper (§IV-A): replaces every
  // feature of `group` with its TRAINING-CORPUS MEAN (neutral imputation).
  // Unlike hard silencing, this measures information loss without pushing
  // the signature far out of the training distribution.
  void neutralize_frequency_group(ml::Tensor& sig, dsp::FreqGroup group) const;

  // Persistence: serializes the trained weights, feature standardization and
  // output calibration inside an integrity frame (magic, format version,
  // payload size, CRC-32).  `load` verifies the frame first — truncated or
  // bit-flipped files are rejected with an obs warning before any field is
  // parsed — then validates that the stored model matches this mapper's
  // configuration (model kind + parameter shapes).  Returns false on any
  // mismatch or I/O failure, leaving the mapper untrained.  Files written
  // before the integrity frame existed are recognized and rejected loudly
  // (retrain and re-save) instead of being misparsed.
  bool save(const std::string& path) const;
  bool load(const std::string& path);

  // Stream forms of the same framed format, for in-memory clones (a fleet
  // shard round-trips the trained mapper through a stringstream to get a
  // bitwise-identical private copy — model forwards are not reentrant, so
  // concurrent shards each need their own).  `label` only names the source
  // in rejection log lines.
  bool save(std::ostream& os) const;
  bool load(std::istream& is, const std::string& label = "<stream>");

 private:
  // Applies the training-set feature standardization in place.
  void standardize(ml::Tensor& x) const;

  // Fits the per-output affine recalibration on the (standardized) corpus.
  void fit_output_calibration(const ml::RegressionDataset& data);

  // Eval forward for serving: routes through the compiled inference plan at
  // the process precision (ml::plan_precision()), building or rebuilding it
  // lazily.
  ml::Tensor serving_forward(const ml::Tensor& batch) const;
  void ensure_plan(ml::PlanPrecision precision) const;

  SensoryMapperConfig config_;
  std::unique_ptr<ml::Layer> model_;
  // Compiled lazily from the frozen model; invalidated by fit/load.
  mutable std::unique_ptr<ml::InferencePlan> plan_;
  bool trained_ = false;
  // Per-feature standardization fitted on the training corpus.
  std::vector<float> feat_mean_;
  std::vector<float> feat_inv_std_;
  // Per-output linear recalibration (label ~ a*pred + b) fitted on the
  // training corpus after training.  MSE regressors compress extreme
  // targets toward the mean; the affine correction undoes that bias.
  std::array<double, kLabelDim> calib_a_{};
  std::array<double, kLabelDim> calib_b_{};
};

}  // namespace sb::core
