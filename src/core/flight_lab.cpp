#include "core/flight_lab.hpp"

#include <cmath>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace sb::core {

FlightLab::FlightLab(const Config& config) : config_(config) {}

Flight FlightLab::fly(const FlightScenario& scenario) const {
  obs::ScopedSpan span{"fly", obs::Stage::kCorpus};
  Rng rng{scenario.seed};

  sim::QuadrotorParams quad_params = config_.quad;
  // Motor degradation lowers thrust per rad/s^2, forcing higher RPM for the
  // same thrust and shifting the acoustic signature.
  quad_params.kf *= scenario.motor_health;

  sim::Quadrotor quad{quad_params};
  const Vec3 start = scenario.mission.setpoint(0.0);
  quad.mutable_state().pos = start;

  sim::WindModel wind{scenario.wind, rng.split()};
  sensors::Imu imu{config_.imu, rng.split()};
  sensors::Gps gps{config_.gps, rng.split()};

  std::optional<attacks::ImuBiasAttack> imu_attack;
  if (scenario.imu_attack) imu_attack.emplace(*scenario.imu_attack, rng.split());
  std::optional<attacks::GpsSpoofAttack> gps_attack;
  if (scenario.gps_spoof) gps_attack.emplace(*scenario.gps_spoof, rng.split());
  std::optional<attacks::ActuatorDosAttack> actuator_attack;
  if (scenario.actuator_attack) actuator_attack.emplace(*scenario.actuator_attack);

  sim::NavState nav0;
  nav0.pos = start;
  sim::StateEstimator estimator{config_.estimator, nav0};
  sim::CascadedController controller{config_.controller, quad_params};

  Flight flight;
  flight.audio_seed = rng.next_u64();
  sim::FlightLog& log = flight.log;
  log.mission_name = scenario.mission.name();
  log.rates = config_.rates;
  log.num_rotors = quad_params.num_rotors;
  if (scenario.imu_attack) {
    log.imu_attacked = true;
    log.attack_start = scenario.imu_attack->start;
    log.attack_end = scenario.imu_attack->end;
  }
  if (scenario.gps_spoof) {
    log.gps_attacked = true;
    log.attack_start = scenario.gps_spoof->start;
    log.attack_end = scenario.gps_spoof->end;
  }

  const double dt = config_.rates.physics_dt();
  const auto steps =
      static_cast<std::size_t>(scenario.mission.duration() / dt);
  const std::size_t imu_every = config_.rates.imu_decimation();
  const std::size_t gps_every = config_.rates.gps_decimation();
  const double imu_dt = 1.0 / config_.rates.imu_hz;

  log.t.reserve(steps);
  log.true_pos.reserve(steps);
  log.true_vel.reserve(steps);
  log.true_accel.reserve(steps);
  log.true_euler.reserve(steps);
  log.rotor_omega.reserve(steps);

  for (std::size_t k = 0; k < steps; ++k) {
    const double t = static_cast<double>(k) * dt;
    const sim::QuadState& truth = quad.state();

    // Log ground truth at t.
    log.t.push_back(t);
    log.true_pos.push_back(truth.pos);
    log.true_vel.push_back(truth.vel);
    log.true_accel.push_back(truth.accel);
    log.true_euler.push_back(truth.euler);
    log.rotor_omega.push_back(truth.omega);

    // Sensors (possibly falsified) -> navigation estimator.
    if (k % imu_every == 0) {
      sim::ImuSample s = imu.sample(t, truth, quad.specific_force_body());
      if (imu_attack) imu_attack->apply(s);
      estimator.on_imu(s.gyro, s.specific_force, imu_dt);
      // The NED acceleration is what the autopilot derives: the body-frame
      // reading rotated by the NAVIGATION attitude.  A gyro biasing attack
      // therefore corrupts it indirectly (the attitude estimate integrates
      // the falsified gyro), exactly as on real hardware.
      s.accel_ned =
          sensors::Imu::to_accel_ned(s.specific_force, estimator.state().euler);
      log.imu.push_back(s);
    }
    if (k % gps_every == 0) {
      sim::GpsSample s = gps.sample(t, truth);
      if (gps_attack) gps_attack->apply(s, truth.pos, truth.vel);
      log.gps.push_back(s);
      estimator.on_gps(s.pos, s.vel);
      const sim::NavState& est = estimator.state();
      log.nav.push_back({t, est.pos, est.vel, est.euler});
    }

    const Vec3 sp = scenario.mission.setpoint(t);
    log.setpoint.push_back(sp);
    sim::RotorCommand cmd = controller.update(estimator.state(), sp, 0.0, dt);
    if (actuator_attack)
      actuator_attack->apply(t, cmd, config_.quad.omega_min);
    quad.step(cmd, wind.current(), dt);
    wind.step(dt);
  }
  return flight;
}

std::vector<Flight> FlightLab::fly_all(
    std::span<const FlightScenario> scenarios) const {
  obs::ScopedSpan span{"fly_all", obs::Stage::kCorpus};
  std::vector<Flight> out(scenarios.size());
  util::parallel_for(
      scenarios.size(), [&](std::size_t i) { out[i] = fly(scenarios[i]); }, 1);
  return out;
}

acoustics::AudioSynthesizer FlightLab::synthesizer(const Flight& flight) const {
  return acoustics::AudioSynthesizer{config_.synth, config_.quad, flight.audio_seed};
}

acoustics::MultiChannelAudio FlightLab::recording(const Flight& flight) const {
  return synthesizer(flight).synthesize(flight.log, 0.0, flight.log.duration());
}

std::vector<FlightScenario> FlightLab::training_scenarios(int per_family,
                                                          double duration) const {
  std::vector<FlightScenario> out;
  std::uint64_t seed = 1000;
  for (int i = 0; i < per_family; ++i) {
    const double f = static_cast<double>(i);
    // Wind varies across repetitions of each family: calm to gusty.
    sim::WindConfig wind;
    wind.mean = Vec3{0.8 * f - 2.0, 0.5 * f - 1.2, 0.0};
    wind.gust_stddev = 0.3 + 0.25 * f;

    auto push = [&](sim::Mission m) {
      FlightScenario s;
      s.mission = std::move(m);
      s.wind = wind;
      s.seed = seed++;
      out.push_back(std::move(s));
    };

    push(sim::Mission::hover({0, 0, -10}, duration));
    push(sim::Mission::waypoints(
        {{{0, 0, -8}, 2.0}, {{0, 0, -18 - f}, 1.5 + 0.2 * f}, {{0, 0, -8}, 2.0}},
        duration));  // ascent/descent
    push(sim::Mission::line({0, 0, -10}, {28 + 3 * f, 0, -10}, 3.0 + 0.5 * f,
                            duration));
    push(sim::Mission::square({0, 0, 0}, 16 + 2 * f, 10, 2.5 + 0.3 * f, duration));
    push(sim::Mission::figure_eight({0, 0, -12}, 10 + f, 3.0 + 0.4 * f, duration));
    push(sim::Mission::waypoints({{{0, 0, -10}, 2.0},
                                  {{12, 6, -14}, 2.0 + 0.3 * f},
                                  {{-4, 10, -9}, 2.5},
                                  {{0, 0, -10}, 3.0}},
                                 duration));  // mixed maneuvers
  }
  return out;
}

}  // namespace sb::core
