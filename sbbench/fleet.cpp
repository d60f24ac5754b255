// fleet-x500: online RCA of live x500 streams through a sharded
// stream::FleetServer.
//
// Set-up trains the fleet's model, calibrates both detectors and renders a
// small set of feeds (benign / GPS drag-spoof / IMU bias) that every session
// replays read-only.  The measured phases then touch only ingestion,
// signature preparation, micro-batched plan forwards and the IMU/GPS
// monitors.  Each measured cycle runs
//   1. a lock-step replay of the whole flight as fast as possible (closed
//      loop, kTick rounds), pausing its clock at mid-flight for
//   2. checkpoint_all + restore into a fresh fleet of the same layout; the
//      last restored fleet later serves the second half;
//   3. an open loop paced at 1x flight time with seeded per-session start
//      offsets; every session is polled right after each pump.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/flight_lab.hpp"
#include "core/gps_rca.hpp"
#include "core/imu_rca.hpp"
#include "core/rca_engine.hpp"
#include "core/sensory_mapper.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "serving.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sbbench {
namespace {

using namespace sb;

struct FleetSize {
  int sessions;
  int feeds;           // divides sessions: every feed serves equally many
  double duration;     // flight seconds per session
  int train_per_family;
  double train_duration;
  std::size_t epochs;
  int calib_flights;
  int setups;          // set-up repetitions (setup_s is their median)
  double paced_from, paced_to;  // flight-time span served at 1x
  int cycles;          // minimum measured cycles
};

FleetSize fleet_size(Size s) {
  if (s == Size::kTiny) return {8, 4, 12.0, 1, 8.0, 1, 2, 2, 5.0, 8.0, 2};
  return {64, 8, 20.0, 2, 15.0, 8, 6, 3, 5.0, 13.0, 3};
}

// ---- Feeds -----------------------------------------------------------------

core::FlightScenario feed_scenario(int i, double d, bool& imu, bool& gps) {
  core::FlightScenario s;
  const double f = static_cast<double>(i % 8);
  imu = gps = false;
  switch (i % 3) {
    case 0:  // benign, mission mix
      switch ((i / 3) % 4) {
        case 0: s.mission = sim::Mission::hover({2, 1, -11 - 0.3 * f}, d); break;
        case 1:
          s.mission = sim::Mission::line({0, 0, -10}, {18 + f, 8, -12},
                                         2.5 + 0.1 * f, d);
          break;
        case 2:
          s.mission = sim::Mission::figure_eight({0, 3, -12}, 8 + 0.3 * f,
                                                 2.4 + 0.1 * f, d);
          break;
        default:
          s.mission = sim::Mission::square({0, 0, 0}, 13 + f, 11,
                                           2.0 + 0.1 * f, d);
          break;
      }
      break;
    case 1: {  // GPS drag spoof from 40% of the flight to its end
      gps = true;
      s.mission = i % 2 == 0 ? sim::Mission::hover({0, 0, -10}, d)
                             : sim::Mission::line({0, 0, -10}, {22, 4, -10},
                                                  2.2, d);
      attacks::GpsSpoofConfig g;
      g.start = 0.4 * d;
      g.end = d;
      const double ang = 0.7 * static_cast<double>(i);
      g.drag_direction = {std::cos(ang), std::sin(ang), 0.0};
      g.drag_rate = 1.5 + 0.1 * static_cast<double>(i % 4);
      s.gps_spoof = g;
      break;
    }
    default: {  // IMU bias (Side-Swing / accel DoS) over the middle
      imu = true;
      s.mission = sim::Mission::hover({0, 0, -10}, d);
      attacks::ImuAttackConfig a;
      a.type = i % 2 == 0 ? attacks::ImuAttackType::kSideSwing
                          : attacks::ImuAttackType::kAccelDos;
      a.start = 0.4 * d;
      a.end = 0.9 * d;
      a.axis = i % 3 == 2 ? 1 : 0;
      s.imu_attack = a;
      break;
    }
  }
  s.wind.mean = {0.3 * (f - 4.0), 0.2 * (f - 3.0), 0.0};
  s.wind.gust_stddev = 0.3 + 0.05 * static_cast<double>(i % 4);
  s.seed = 70000 + static_cast<std::uint64_t>(i);
  return s;
}

// ---- Set-up ----------------------------------------------------------------

// Everything the measured phases share, plus the per-layer timings of how
// it was built.
struct Rig {
  core::FlightLab lab;
  std::unique_ptr<core::SensoryMapper> mapper;
  core::ImuRcaDetector imu{core::ImuRcaConfig{}};
  core::GpsRcaDetector gps{core::GpsRcaConfig{}};
  std::vector<Feed> feeds;
  std::string model_bytes;  // serialized model, for the determinism gate
  double val_mse = 0.0;     // final validation MSE of the fit

  double fly_s = 0.0, flown_s = 0.0;        // FlightLab::fly_all
  double render_s = 0.0, rendered_s = 0.0;  // AudioSynthesizer::synthesize
  double dataset_s = 0.0;                   // DatasetBuilder over the corpus
  double fit_s = 0.0;                       // SensoryMapper::fit_dataset
  double calibrate_s = 0.0;                 // calibration flights + fits
  std::size_t corpus_windows = 0;
  std::vector<double> epoch_s;              // per-epoch spans (traced only)

  Serving serving(double duration) const {
    return {*mapper, imu, gps, feeds, duration};
  }
};

double flight_seconds(std::span<const core::Flight> flights) {
  double s = 0.0;
  for (const auto& f : flights) s += f.log.duration();
  return s;
}

std::unique_ptr<Rig> build_rig(const FleetSize& z) {
  auto rig = std::make_unique<Rig>();
  const core::FlightLab& lab = rig->lab;

  // Training corpus and model.
  Stopwatch fly_timer;
  const auto train_flights =
      lab.fly_all(lab.training_scenarios(z.train_per_family, z.train_duration));
  rig->fly_s += fly_timer.seconds();
  rig->flown_s += flight_seconds(train_flights);

  const auto cfg = mapper_config(z.epochs);
  rig->mapper = std::make_unique<core::SensoryMapper>(cfg);
  Stopwatch dataset_timer;
  core::DatasetBuilder builder{cfg.dataset, lab};
  for (const auto& f : train_flights) builder.add_flight(f);
  const auto data = builder.build();
  rig->dataset_s = dataset_timer.seconds();
  rig->corpus_windows = builder.size();
  if (obs::enabled()) obs::Trace::instance().clear();
  Stopwatch fit_timer;
  rig->val_mse = rig->mapper->fit_dataset(data).final_val_mse;
  rig->fit_s = fit_timer.seconds();
  if (obs::enabled()) rig->epoch_s = epoch_span_seconds();

  // Detector calibration on dedicated benign flights.
  Stopwatch calibrate_timer;
  std::vector<core::FlightScenario> cal;
  for (int i = 0; i < z.calib_flights; ++i) {
    bool imu = false, gps = false;
    auto s = feed_scenario(3 * i, z.duration, imu, gps);
    s.seed += 500000;  // disjoint from the served feeds
    cal.push_back(s);
  }
  fly_timer = Stopwatch{};
  const auto cal_flights = lab.fly_all(cal);
  rig->fly_s += fly_timer.seconds();
  rig->flown_s += flight_seconds(cal_flights);
  std::vector<core::WindowResiduals> imu_cal;
  std::vector<core::GpsRcaDetector::Result> audio_only, fused;
  for (const auto& flight : cal_flights) {
    const auto preds = rig->mapper->predict_flight(lab, flight);
    const auto w = core::ImuRcaDetector::residuals(flight, preds);
    imu_cal.insert(imu_cal.end(), w.begin(), w.end());
    audio_only.push_back(
        rig->gps.analyze(flight, preds, core::GpsDetectorMode::kAudioOnly));
    fused.push_back(
        rig->gps.analyze(flight, preds, core::GpsDetectorMode::kAudioImu));
  }
  rig->imu.calibrate(imu_cal);
  rig->gps.calibrate(audio_only, core::GpsDetectorMode::kAudioOnly);
  rig->gps.calibrate(fused, core::GpsDetectorMode::kAudioImu);
  rig->calibrate_s = calibrate_timer.seconds();

  // Shared feeds, rendered once.
  std::vector<core::FlightScenario> feed_scenarios;
  rig->feeds.resize(static_cast<std::size_t>(z.feeds));
  for (int i = 0; i < z.feeds; ++i) {
    auto& feed = rig->feeds[static_cast<std::size_t>(i)];
    feed_scenarios.push_back(
        feed_scenario(i, z.duration, feed.imu_attack, feed.gps_attack));
  }
  fly_timer = Stopwatch{};
  auto feed_flights = lab.fly_all(feed_scenarios);
  rig->fly_s += fly_timer.seconds();
  rig->flown_s += flight_seconds(feed_flights);
  for (int i = 0; i < z.feeds; ++i) {
    auto& feed = rig->feeds[static_cast<std::size_t>(i)];
    feed.flight = std::move(feed_flights[static_cast<std::size_t>(i)]);
    Stopwatch render_timer;
    feed.audio = lab.synthesizer(feed.flight)
                     .synthesize(feed.flight.log, 0.0, z.duration);
    rig->render_s += render_timer.seconds();
    rig->rendered_s += z.duration;
  }

  std::ostringstream model;
  rig->mapper->save(model);
  rig->model_bytes = model.str();
  rig->mapper->warm_serving();
  return rig;
}

// ---- Workload --------------------------------------------------------------

// Session -> feed assignment: a seeded permutation, every feed serving
// sessions/feeds sessions.
std::vector<std::size_t> assign_feeds(const FleetSize& z, Rng& rng) {
  const auto perm = rng.permutation(static_cast<std::size_t>(z.sessions));
  std::vector<std::size_t> feed_of;
  for (std::size_t p : perm)
    feed_of.push_back(p % static_cast<std::size_t>(z.feeds));
  return feed_of;
}

}  // namespace

Result run_fleet(const Options& opt) {
  const auto process_start = Clock::now();
  const FleetSize z = fleet_size(opt.size);
  Result res;
  Rng rng{0x5EED0000ULL + opt.seed};
  const auto feed_of = assign_feeds(z, rng);
  const auto offset = paced_offsets(feed_of.size(), rng);

  // Set-up, repeated: setup_s and train_fold_s are medians.  Every
  // repetition must build a bit-identical model.
  std::unique_ptr<Rig> rig;
  std::vector<double> setup_s, train_s;
  for (int s = 0; s < (opt.trace ? 1 : z.setups); ++s) {
    const auto t0 = s == 0 ? process_start : Clock::now();
    std::string prev_model;
    if (rig) prev_model = std::move(rig->model_bytes);
    rig.reset();
    rig = build_rig(z);
    res.gate(s == 0 || rig->model_bytes == prev_model,
             "set-up repetitions trained different models");
    // Warm-up: one untimed short serve warms plans, FFT plans and every
    // pool thread's scratch.
    Stopwatch warm_timer;
    LiveFleet warm = admit_fleet(rig->serving(z.duration), feed_of);
    serve_lockstep(warm, rig->serving(z.duration), 0, std::lround(3.0 / kTick));
    setup_s.push_back(seconds_since(t0));
    train_s.push_back(rig->dataset_s + rig->fit_s);
    std::fprintf(stderr,
                 "sbbench: set-up %d: %.2f s (fly %.2f, dataset %.2f, fit "
                 "%.2f, calibrate %.2f, render %.2f, warm-up %.2f)\n",
                 s + 1, setup_s.back(), rig->fly_s, rig->dataset_s, rig->fit_s,
                 rig->calibrate_s, rig->render_s, warm_timer.seconds());
  }
  const Serving sv = rig->serving(z.duration);
  const double streamed = z.sessions * z.duration;  // flight-s per replay
  std::printf("sbbench: fleet-x500 sessions=%d shards=%zu feeds=%d "
              "flight=%.0fs threads=%zu seed=%llu\n",
              z.sessions, kShards, z.feeds, z.duration,
              util::ThreadPool::threads(),
              static_cast<unsigned long long>(opt.seed));

  if (!opt.trace) {
    // Measured cycles, interleaved so that every metric samples the whole
    // run: a replay round with a migration at its mid-point (off the
    // replay's clock), then a paced round.
    const int cycles =
        std::max(z.cycles, static_cast<int>(std::lround(opt.seconds / 13.0)));
    const long ticks = total_ticks(sv);
    const std::string dir = opt.tmp_dir + "/ckpt";
    std::string reference;
    std::size_t correct = 0;
    std::vector<double> realtime, seg_p50, lat;
    MigrateStats mig;
    LiveFleet restored;
    for (int c = 0; c < cycles; ++c) {
      const auto round = replay_round(sv, feed_of, nullptr, [&](LiveFleet& lf) {
        restored = migrate(sv, lf, 1, dir, mig);
      });
      gate_windows(res, round.windows, round.rejected, feed_of.size(), "replay");
      if (c == 0) {
        reference = round.reports.digest;
        correct = round.reports.correct;
      }
      res.gate(round.reports.digest == reference, "replay rounds disagree");
      realtime.push_back(streamed / round.serve_s);

      const auto paced = paced_phase(sv, feed_of, offset, z.paced_from, z.paced_to);
      gate_windows(res, paced.windows, paced.rejected, feed_of.size(), "paced");
      seg_p50.insert(seg_p50.end(), paced.seg_p50.begin(), paced.seg_p50.end());
      lat.insert(lat.end(), paced.latency_ms.begin(), paced.latency_ms.end());
      std::fprintf(stderr, "sbbench: cycle %d: replay %.1f flight-s/s, paced p50 %.3f ms\n",
                   c + 1, realtime.back(), quantile(paced.latency_ms, 0.5));
    }
    res.gate(!seg_p50.empty(), "paced: no verdict latency sampled");

    // The last migrated fleet serves the second half of the flight and must
    // end with the uninterrupted fleet's reports.
    res.ops(mig.restore_attempts, mig.restore_failures);
    res.gate(mig.written == feed_of.size(), "migrate: checkpoints missing");
    res.gate(mig.restored == feed_of.size(), "migrate: restores rejected");
    serve_lockstep(restored, sv, ticks / 2, ticks);
    gate_windows(res, tally(*restored.fleet), 0, 0, "migrated serve");
    res.gate(finish_all(restored, sv).digest == reference,
             "migrated fleet's reports differ from the uninterrupted fleet");

    std::printf("sbbench: replay %.1fx realtime over %d rounds; paced "
                "verdict latency p50 %.3f p90 %.3f p99 %.3f max %.3f ms "
                "(n=%zu, %zu segments); migrate %.3f ms/session; train "
                "%.3f s, val mse %.6g\n",
                median(realtime), cycles, quantile(lat, 0.5),
                quantile(lat, 0.9), quantile(lat, 0.99), quantile(lat, 1.0),
                lat.size(), seg_p50.size(), median(mig.ms_per_session),
                median(train_s), rig->val_mse);
    res.metric("setup_s", median(setup_s), "s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
    res.metric("rca_flight_s_per_s", median(realtime), "flight-s/s");
    res.metric("verdict_p50_ms", median(seg_p50), "ms");
    res.metric("verdict_accuracy",
               static_cast<double>(correct) / static_cast<double>(z.sessions),
               "frac");
    res.metric("train_fold_s", median(train_s), "s");
    res.metric("train_val_mse", rig->val_mse, "mse");
    return res;
  }

  // ---- Traced run: per-layer metrics ------------------------------------
  res.metric("sim.fly_ms_per_flight_s", 1e3 * rig->fly_s / rig->flown_s,
             "ms/flight-s");
  res.metric("acoustics.render_ms_per_flight_s",
             1e3 * rig->render_s / rig->rendered_s, "ms/flight-s");
  res.metric("core.dataset_build_s", rig->dataset_s, "s");
  res.metric("ml.train_epoch_s", median(rig->epoch_s), "s");
  res.metric("ml.train_samples_per_s",
             static_cast<double>(rig->corpus_windows * z.epochs) / rig->fit_s,
             "samples/s");
  trace_model_clone(res, *rig->mapper);

  // The workload's main phase is the replay: its totals are the workload's.
  const auto tot = trace_stream_layers(res, sv, feed_of, offset, z.paced_from,
                                       z.paced_to, opt.tmp_dir + "/ckpt");
  res.metric("ml.gemm_flops", static_cast<double>(tot.gemm_flops), "count");
  res.metric("ml.gemm_calls", static_cast<double>(tot.gemm_calls), "count");
  res.metric("dsp.fft_calls", static_cast<double>(tot.fft_calls), "count");
  res.metric("ml.windows_inferred", static_cast<double>(tot.windows), "count");
  res.metric("faults.masked_windows", static_cast<double>(tot.masked), "windows");
  res.metric("util.pool_queue_wait_us.p50", tot.pool_queue_wait_us, "us");
  res.metric("util.pool_task_run_us.p50", tot.pool_task_run_us, "us");
  res.metric("util.pool_tasks", static_cast<double>(tot.pool_tasks), "count");
  res.metric("obs.trace_overhead_frac", tot.plain_x / tot.traced_x - 1.0, "frac");

  // The offline stages of the same model, detectors and feeds.
  const core::RcaEngine engine{*rig->mapper, rig->imu, rig->gps};
  std::vector<OfflineFlight> offline;
  for (const auto& feed : rig->feeds)
    offline.push_back({&rig->lab, &feed.flight, nullptr,
                       engine.analyze(rig->lab, feed.flight)});
  obs::Trace::instance().clear();
  trace_offline_layers(res, *rig->mapper, rig->imu, rig->gps, offline);
  return res;
}

}  // namespace sbbench
