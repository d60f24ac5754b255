// FlightLab: the closed-loop experiment rig.  Wires the quadrotor physics,
// wind, sensors, attacks, navigation estimator and cascaded controller into
// one deterministic simulation, and produces the FlightLog + audio seed that
// the rest of the pipeline consumes.  This substitutes for the paper's
// Holybro X500 + PX4 testbed.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "acoustics/synthesizer.hpp"
#include "attacks/actuator_attack.hpp"
#include "attacks/gps_spoofing.hpp"
#include "attacks/imu_attack.hpp"
#include "sensors/gps.hpp"
#include "sensors/imu.hpp"
#include "sim/controller.hpp"
#include "sim/mission.hpp"
#include "sim/simulator.hpp"
#include "sim/wind.hpp"

namespace sb::core {

struct FlightScenario {
  sim::Mission mission = sim::Mission::hover({0, 0, -10}, 30.0);
  sim::WindConfig wind;
  std::optional<attacks::ImuAttackConfig> imu_attack;
  std::optional<attacks::GpsSpoofConfig> gps_spoof;
  std::optional<attacks::ActuatorDosConfig> actuator_attack;
  std::uint64_t seed = 1;
  // Motor efficiency multiplier (<1 models a degraded/low-battery vehicle —
  // the source of the paper's single benign false positive in §IV-B).
  double motor_health = 1.0;
};

struct Flight {
  sim::FlightLog log;
  std::uint64_t audio_seed = 0;
};

class FlightLab {
 public:
  struct Config {
    sim::QuadrotorParams quad;
    acoustics::SynthesizerConfig synth;
    sim::SimRates rates;
    sensors::ImuConfig imu;
    sensors::GpsConfig gps;
    sim::CascadedController::Config controller;
    sim::StateEstimator::Config estimator;
  };

  explicit FlightLab(const Config& config);
  FlightLab() : FlightLab(Config{}) {}

  // Runs one closed-loop flight.  Deterministic in scenario.seed.
  Flight fly(const FlightScenario& scenario) const;

  // Runs a batch of flights, one per scenario, in parallel.  Each flight is
  // deterministic in its own seed, so the result is identical to calling
  // fly() serially in order.
  std::vector<Flight> fly_all(std::span<const FlightScenario> scenarios) const;

  // Audio synthesizer bound to a specific flight's seed.
  acoustics::AudioSynthesizer synthesizer(const Flight& flight) const;

  // The flight's microphone recording: one continuous capture from t = 0 to
  // the end of the log, synthesizer(flight).synthesize(log, 0, duration).
  // Offline consumers cut every analysis window from it (core::cut_window),
  // and it is the stream a live deployment pushes, so both paths see the
  // same audio at every instant.
  acoustics::MultiChannelAudio recording(const Flight& flight) const;

  const Config& config() const { return config_; }

  // The 6 training scenario families of §IV-A (hover, ascent/descent,
  // forward line, square, figure-8, mixed waypoints), `per_family` seeds
  // each, under varied wind.  36 flights with per_family = 6.
  std::vector<FlightScenario> training_scenarios(int per_family,
                                                 double duration) const;

 private:
  Config config_;
};

}  // namespace sb::core
