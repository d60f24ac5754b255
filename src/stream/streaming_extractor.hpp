// Ring-buffered incremental window slicing for the online serving runtime.
//
// The offline pipeline cuts its analysis windows from a flight's whole
// recording; a live deployment sees the same kind of continuous
// multi-channel stream, but arriving chunk by chunk.
// StreamingFeatureExtractor buffers that stream and emits an analysis window
// the moment its last sample arrives, enumerating exactly the
// core::window_grid the offline path analyzes and cutting each window with
// the same core::window_samples rule.  The emitted audio is a verbatim slice
// of the stream, so downstream signature extraction
// (SensoryMapper::prepare_signature) is bit-identical to the offline path
// whenever the stream is the flight's recording — pinned by stream_test and,
// on the pipeline mapper at its default stride, by the integration
// equivalence suite.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "acoustics/propagation.hpp"
#include "core/sensory_mapper.hpp"

namespace sb::stream {

struct StreamingExtractorConfig {
  double sample_rate = 16000.0;
  double settle = 2.0;          // grid origin: takeoff transient skipped
  double stride = 0.5;          // grid step
  double window_seconds = 0.5;  // window length
};

class StreamingFeatureExtractor {
 public:
  explicit StreamingFeatureExtractor(const StreamingExtractorConfig& config);

  // Appends one chunk (all channels the same length; t = 0 is the first
  // sample ever pushed) and returns the analysis windows it completed, in
  // grid order.  Chunk boundaries are irrelevant: the emitted windows depend
  // only on the concatenated stream (chunk-size invariance is pinned by
  // stream_test).
  std::vector<core::SensoryMapper::WindowAudio> push(
      const acoustics::MultiChannelAudio& chunk);

  // Window k covers the samples core::window_samples(t0_k, window_seconds,
  // fs) of the stream — the rule the offline path cuts a flight's recording
  // with.
  std::size_t window_length() const { return window_len_; }

  std::size_t samples_pushed() const { return next_abs_; }
  std::size_t windows_emitted() const { return next_window_; }
  // Per-channel samples currently held — stays O(window + stride + chunk)
  // however long the stream runs (pinned by stream_test).
  std::size_t buffered_samples() const { return buffer_[0].size(); }
  const StreamingExtractorConfig& config() const { return config_; }

  // Bitwise checkpoint of the ring state: buffered tail samples, cursors
  // and the float-accumulated next_t0_ (the accumulated double itself is
  // persisted — recomputing settle + k*stride would NOT reproduce it).
  // load_state expects an extractor constructed with the SAME config and
  // returns false on malformed bytes or a config mismatch.
  void save_state(std::ostream& os) const;
  bool load_state(std::istream& is);

 private:
  std::size_t window_begin(double t0) const;
  void trim();

  StreamingExtractorConfig config_;
  std::size_t window_len_ = 0;
  std::array<std::vector<double>, sensors::kNumMics> buffer_;
  std::size_t base_ = 0;      // absolute stream index of buffer_[c][0]
  std::size_t next_abs_ = 0;  // absolute stream index of the next new sample
  std::size_t next_window_ = 0;
  double next_t0_ = 0.0;  // advances by repeated `+= stride` to mirror the
                          // float accumulation of core::window_grid exactly
};

}  // namespace sb::stream
