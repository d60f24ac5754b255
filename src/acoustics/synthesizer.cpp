#include "acoustics/synthesizer.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace sb::acoustics {
namespace {

// Output samples rendered per block (about 1 s at 16 kHz).
constexpr std::size_t kRenderBlock = 16384;

}  // namespace

AudioSynthesizer::AudioSynthesizer(const SynthesizerConfig& config,
                                   const sim::QuadrotorParams& quad,
                                   std::uint64_t seed)
    : config_(config),
      quad_(quad),
      geometry_(sensors::compute_geometry(config.mic_array, quad)),
      seed_(seed) {}

MultiChannelAudio AudioSynthesizer::synthesize(const sim::FlightLog& log, double t0,
                                               double t1) const {
  obs::ScopedSpan span{"synthesize", obs::Stage::kSynthesis};
  const double fs = config_.sample_rate;
  const double physics_dt = log.rates.physics_dt();

  const int num_rotors = quad_.num_rotors;

  // Ground-effect reflection (environment profiles): one image-source tap per
  // mic/rotor pair, delayed by the extra bounce path (~2x altitude) and
  // scaled by the profile coefficient times the spreading loss of the longer
  // path relative to a typical on-frame direct distance (0.25 m).
  GroundReflection ground;
  if (config_.ground_reflect != 0.0 && config_.ground_altitude_m > 0.0) {
    const double extra_path = 2.0 * config_.ground_altitude_m;
    ground.delay_samples = static_cast<std::size_t>(
        std::llround(extra_path / sensors::kSpeedOfSound * fs));
    ground.gain_scale = config_.ground_reflect * 0.25 / (0.25 + extra_path);
  }

  // Pre-roll long enough to cover the largest mic/rotor delay (plus the
  // reflected tap's extra delay when ground effect is on).
  double max_delay = 0.0;
  for (const auto& per_mic : geometry_.delay_s)
    for (double d : per_mic) max_delay = std::max(max_delay, d);
  const auto lead = static_cast<std::size_t>(std::ceil(max_delay * fs)) + 1 +
                    (ground.gain_scale != 0.0 ? ground.delay_samples : 0);

  const auto n = static_cast<std::size_t>(std::llround((t1 - t0) * fs));
  const double start_t = t0 - static_cast<double>(lead) / fs;

  // Seed deterministically per (flight, window-start).
  const auto window_tag =
      static_cast<std::uint64_t>(std::llround(std::max(start_t, 0.0) * 1e6));
  Rng base{seed_ ^ (window_tag * 0x2545F4914F6CDD1DULL + 0x9E3779B9ULL)};

  // Per-rotor tone detuning (manufacturing spread); see RotorSoundConfig.
  // The legacy table is the measured X500 fingerprint and stays the default
  // when the config carries no explicit per-rotor offsets.
  static constexpr std::array<double, sim::kNumRotors> kDetune{-0.10, -0.035, 0.035,
                                                               0.10};
  // Split the per-rotor rngs up front, in rotor order, so the parallel
  // synthesis below consumes exactly the streams the serial loop would.
  std::vector<RotorSound> rotors;
  rotors.reserve(static_cast<std::size_t>(num_rotors));
  for (int r = 0; r < num_rotors; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    RotorSoundConfig rotor_cfg = config_.rotor;
    rotor_cfg.detune += config_.rotor_detune.empty() ? kDetune[ri % kDetune.size()]
                                                     : config_.rotor_detune[ri];
    rotors.emplace_back(rotor_cfg, fs, quad_.hover_omega(), base.split());
  }
  Rng ambient_rng = base.split();

  // Rendered in fixed blocks of output samples so memory stays
  // O(recording + rotors x block) however long the span.  Each rotor buffer
  // holds the source samples [o0, o0 + lead + len) of block [o0, o0 + len):
  // its first `lead` samples are the previous block's tail, so every delayed
  // tap reads exactly the sample a one-shot render would, and each rotor's
  // RotorSound advances through the same sample sequence — the block size
  // changes memory, never bits.
  std::array<std::vector<double>, sim::kMaxRotors> rotor_buf;
  std::vector<Vec3> flow;
  Rng no_ambient;  // the per-block mix draws nothing; noise is added below
  MultiChannelAudio out;
  out.sample_rate = fs;
  for (auto& ch : out.channels) ch.reserve(n);
  for (std::size_t o0 = 0; o0 < n; o0 += kRenderBlock) {
    const std::size_t len = std::min(kRenderBlock, n - o0);
    util::parallel_for(static_cast<std::size_t>(num_rotors), [&](std::size_t ri) {
      // Worker-local copy of the oscillator/filter state: neighbouring
      // rotors' states share cache lines, and per-sample writes to them from
      // several workers would false-share.
      RotorSound synth = rotors[ri];
      auto& buf = rotor_buf[ri];
      std::size_t k = 0;
      if (o0 > 0) {
        std::copy(buf.end() - static_cast<std::ptrdiff_t>(lead), buf.end(),
                  buf.begin());
        k = lead;
      }
      buf.resize(lead + len);
      for (; k < lead + len; ++k) {
        const double t = start_t + static_cast<double>(o0 + k) / fs;
        // Sample-and-hold rotor speed from the physics-rate timeline.
        double omega = quad_.hover_omega();
        if (!log.rotor_omega.empty()) {
          const auto idx = static_cast<std::size_t>(
              std::clamp(t / physics_dt, 0.0,
                         static_cast<double>(log.rotor_omega.size() - 1)));
          omega = log.rotor_omega[idx][ri];
        }
        buf[k] = synth.sample(omega);
      }
      rotors[ri] = synth;
    }, 1);

    // Body-frame air velocity per output sample, for airflow directivity.
    flow.assign(len, Vec3{});
    util::parallel_for_ranges(len, [&](std::size_t i0, std::size_t i1) {
      if (log.t.empty()) return;
      for (std::size_t i = i0; i < i1; ++i) {
        const double t = t0 + static_cast<double>(o0 + i) / fs;
        const auto idx = static_cast<std::size_t>(std::clamp(
            t / physics_dt, 0.0, static_cast<double>(log.t.size() - 1)));
        const Vec3& e = log.true_euler[idx];
        const Mat3 r = rotation_from_euler(e.x, e.y, e.z);
        flow[i] = r.transposed() * log.true_vel[idx];
      }
    });

    const auto block = mix_to_mics(
        std::span<const std::vector<double>>{rotor_buf.data(),
                                             static_cast<std::size_t>(num_rotors)},
        lead, geometry_, fs, 0.0, no_ambient, flow, config_.flow_directivity,
        ground);
    for (std::size_t c = 0; c < sensors::kNumMics; ++c)
      out.channels[c].insert(out.channels[c].end(), block.channels[c].begin(),
                             block.channels[c].end());
  }

  // Ambient noise is drawn after the whole mix, over whole channels in mic
  // order — the draw order of a one-shot mix_to_mics, so the noise does not
  // depend on the block size either.
  const double ambient = config_.mic_array.ambient_noise;
  if (ambient > 0.0)
    for (auto& ch : out.channels)
      for (auto& x : ch) x += ambient_rng.normal(0.0, ambient);
  return out;
}

}  // namespace sb::acoustics
