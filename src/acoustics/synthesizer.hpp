// Flight-audio synthesizer: turns a FlightLog's rotor-speed timeline into
// the 4-channel microphone recording SoundBoost analyzes.
#pragma once

#include <cstdint>

#include "acoustics/propagation.hpp"
#include "acoustics/rotor_sound.hpp"
#include "sensors/mic_array.hpp"
#include "sim/simulator.hpp"

namespace sb::acoustics {

struct SynthesizerConfig {
  RotorSoundConfig rotor;
  sensors::MicArrayConfig mic_array;
  double sample_rate = 16000.0;
  // Airflow directivity coefficient per (m/s) of body-frame air velocity;
  // see mix_to_mics.
  double flow_directivity = 0.10;
  // Per-rotor detune offsets added to rotor.detune (one entry per rotor of
  // the airframe; the scenario catalog derives them via motor_unit_detune).
  // EMPTY keeps the legacy measured X500 table {-0.10, -0.035, 0.035, 0.10}
  // (indexed rotor % 4) — the pre-scenario default, bitwise identical for the
  // default quad.
  std::vector<double> rotor_detune;
  // Ground-effect reflection (environment profiles): amplitude coefficient of
  // the ground-bounced image source (0 = off, bitwise identical to the
  // no-reflection path) and the above-ground altitude the bounce path is
  // computed for.
  double ground_reflect = 0.0;
  double ground_altitude_m = 0.0;
};

class AudioSynthesizer {
 public:
  AudioSynthesizer(const SynthesizerConfig& config, const sim::QuadrotorParams& quad,
                   std::uint64_t seed);

  // Synthesizes the microphone recording for flight time [t0, t1):
  // llround((t1 - t0) * fs) samples per channel.  Deterministic given
  // (seed, t0): the same span always produces the same audio.  The pipeline
  // renders a flight once, from t = 0 to the end of its log
  // (core::FlightLab::recording), and cuts every analysis window from that
  // one recording.  Rendering runs in fixed blocks with the rotor state
  // carried across them, so memory is O(recording + rotors x block) and the
  // output does not depend on the block size.
  MultiChannelAudio synthesize(const sim::FlightLog& log, double t0, double t1) const;

  const sensors::MicGeometry& geometry() const { return geometry_; }
  const SynthesizerConfig& config() const { return config_; }

 private:
  SynthesizerConfig config_;
  sim::QuadrotorParams quad_;
  sensors::MicGeometry geometry_;
  std::uint64_t seed_;
};

}  // namespace sb::acoustics
