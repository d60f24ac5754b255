// eval-octo: the paper's post-incident protocol on the octo-900 airframe.
//
// Set-up flies every cell of a scenario::ScenarioSet (octo-900 across the
// three environment profiles) and applies seeded mic/GPS fault plans to a
// share of the eval cells.  The measured phases then train a fresh mapper on
// the flight-disjoint train fold (dataset build + fit), calibrate both
// detectors on the calibration fold and run RcaEngine::analyze over the eval
// fold.  stream/ is never called in the measured phases; the traced run
// also serves the eval flights as live streams, for the stream layer's
// per-layer metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/rca_engine.hpp"
#include "faults/fault_injector.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario_set.hpp"
#include "serving.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sbbench {
namespace {

using namespace sb;

// Flight-time span the traced run's stream probe serves at 1x.
constexpr double kPacedFrom = 5.0, kPacedTo = 13.0;

struct EvalSize {
  int environments;
  int train_repeats, calib_repeats, eval_benign_repeats, eval_attack_repeats;
  double train_duration, eval_duration;
  std::size_t epochs;
  int setups;
};

EvalSize eval_size(Size s) {
  if (s == Size::kTiny) return {1, 2, 1, 1, 1, 8.0, 24.0, 1, 2};
  return {3, 3, 2, 2, 1, 12.0, 30.0, 15, 21};
}

scenario::ScenarioSetConfig set_config(const EvalSize& z) {
  scenario::ScenarioSetConfig cfg;
  cfg.airframes = {*scenario::find_airframe("octo-900")};
  cfg.environments = scenario::environment_catalog();
  cfg.environments.resize(static_cast<std::size_t>(z.environments));
  cfg.train_repeats = z.train_repeats;
  cfg.calib_repeats = z.calib_repeats;
  cfg.eval_benign_repeats = z.eval_benign_repeats;
  cfg.eval_attack_repeats = z.eval_attack_repeats;
  cfg.train_duration = z.train_duration;
  cfg.eval_duration = z.eval_duration;
  cfg.seed = 1;
  return cfg;
}

// One scored eval flight: the (possibly faulted) recording, the mic-fault
// hook and the ground truth.
struct EvalFlight {
  const scenario::ScenarioCell* cell = nullptr;
  core::Flight flight;
  core::PredictionHooks hooks;
  faults::FaultPlan plan;  // applied when faulted
  bool faulted = false;
  bool imu_attack = false;
  bool gps_attack = false;
};

// Seeded fault plan for one eval cell: one dead mic channel over the whole
// recording plus GPS latency jitter from 6 s on.  Both degrade the evidence
// (masked windows, delayed fixes) without taking a verdict's whole basis
// away.  Mic faults apply to each synthesized analysis window as an
// audio_transform hook; they are active from t = 0, so the window's start
// time, which the hook does not see, cannot change their effect.
faults::FaultPlan fault_plan(Rng& rng) {
  faults::FaultPlan plan;
  plan.seed = rng.next_u64();
  plan.mic.push_back({faults::MicFaultType::kChannelDead,
                      rng.uniform_int(0, sensors::kNumMics - 1), 1.0, 0.0, 1e9});
  plan.gps.push_back({faults::GpsFaultType::kLatencyJitter,
                      rng.uniform(0.2, 0.6), 6.0, 1e9});
  return plan;
}

struct World {
  std::unique_ptr<scenario::ScenarioSet> set;
  scenario::TrainEvalSplit split;
  std::vector<core::Flight> flights;  // by flight id
  std::vector<EvalFlight> eval;
  double fly_s = 0.0, flown_s = 0.0;
};

std::unique_ptr<World> build_world(const EvalSize& z, std::uint64_t seed) {
  auto w = std::make_unique<World>();
  w->set = std::make_unique<scenario::ScenarioSet>(set_config(z));
  w->split = w->set->flight_disjoint_split();
  Stopwatch fly_timer;
  w->flights = w->set->fly(w->set->cells());
  w->fly_s = fly_timer.seconds();
  for (const auto& f : w->flights) w->flown_s += f.log.duration();

  // A third of the eval cells (at least one), chosen by the seed, carry
  // faults.
  Rng rng{0xFA0170000ULL + seed};
  const std::size_t n = w->split.eval.size();
  const auto perm = rng.permutation(n);
  const std::size_t n_faulted = std::max<std::size_t>(1, n / 3);
  std::vector<bool> faulted(n, false);
  for (std::size_t i = 0; i < n_faulted; ++i) faulted[perm[i]] = true;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& cell = w->split.eval[i];
    EvalFlight ef;
    ef.cell = &cell;
    ef.flight = w->flights[static_cast<std::size_t>(cell.flight_id)];
    ef.imu_attack = cell.attack == scenario::AttackKind::kImuBias;
    ef.gps_attack = cell.attack == scenario::AttackKind::kGpsSpoof;
    if (faulted[i]) {
      ef.plan = fault_plan(rng);
      faults::apply_to_log(ef.flight.log, ef.plan);
      ef.hooks.audio_transform = [plan = ef.plan](acoustics::MultiChannelAudio& audio) {
        faults::apply_to_audio(audio, 0.0, plan);
      };
      ef.faulted = true;
    }
    w->eval.push_back(std::move(ef));
  }
  return w;
}

// A fold's model plus the per-layer timings of training it.
struct Fold {
  std::unique_ptr<core::SensoryMapper> mapper;
  double build_s = 0.0, fit_s = 0.0;
  std::size_t windows = 0;
  double val_mse = 0.0;
  std::vector<double> epoch_s;
};

// Trains a fresh mapper on the train fold; the leakage guard runs before
// fitting.
Fold train_fold(const World& w, const EvalSize& z) {
  Fold fold;
  const auto cfg = mapper_config(z.epochs);
  fold.mapper = std::make_unique<core::SensoryMapper>(cfg);
  Stopwatch build_timer;
  core::DatasetBuilder builder{cfg.dataset, w.set->lab(w.split.train.front())};
  for (const auto& cell : w.split.train)
    builder.add_flight(w.flights[static_cast<std::size_t>(cell.flight_id)],
                       scenario::ScenarioSet::cell_id(cell, w.split.mode),
                       w.set->lab(cell));
  scenario::enforce_split(builder.window_flight_ids(), w.split);
  const auto data = builder.build();
  fold.build_s = build_timer.seconds();
  fold.windows = builder.size();
  if (obs::enabled()) obs::Trace::instance().clear();
  Stopwatch fit_timer;
  fold.val_mse = fold.mapper->fit_dataset(data).final_val_mse;
  fold.fit_s = fit_timer.seconds();
  if (obs::enabled()) fold.epoch_s = epoch_span_seconds();
  return fold;
}

struct Detectors {
  core::ImuRcaDetector imu{core::ImuRcaConfig{}};
  core::GpsRcaDetector gps{core::GpsRcaConfig{}};
};

std::unique_ptr<Detectors> calibrate(const World& w,
                                     const core::SensoryMapper& mapper) {
  auto det = std::make_unique<Detectors>();
  std::vector<core::WindowResiduals> imu_cal;
  std::vector<core::GpsRcaDetector::Result> audio_only, fused;
  for (const auto& cell : w.split.calibration) {
    const auto& flight = w.flights[static_cast<std::size_t>(cell.flight_id)];
    const auto preds = mapper.predict_flight(w.set->lab(cell), flight);
    const auto r = core::ImuRcaDetector::residuals(flight, preds);
    imu_cal.insert(imu_cal.end(), r.begin(), r.end());
    audio_only.push_back(
        det->gps.analyze(flight, preds, core::GpsDetectorMode::kAudioOnly));
    fused.push_back(
        det->gps.analyze(flight, preds, core::GpsDetectorMode::kAudioImu));
  }
  det->imu.calibrate(imu_cal);
  det->gps.calibrate(audio_only, core::GpsDetectorMode::kAudioOnly);
  det->gps.calibrate(fused, core::GpsDetectorMode::kAudioImu);
  return det;
}

struct AnalyzeRound {
  double seconds = 0.0;
  std::vector<double> flight_ms;  // one analyze() call each
  std::vector<core::RcaReport> reports;
  std::size_t errored = 0;  // analyses that threw
};

AnalyzeRound analyze_all(const World& w, const core::RcaEngine& engine) {
  AnalyzeRound out;
  Stopwatch timer;
  for (const auto& ef : w.eval) {
    Stopwatch flight_timer;
    try {
      out.reports.push_back(
          engine.analyze(w.set->lab(*ef.cell), ef.flight, ef.hooks));
      out.flight_ms.push_back(flight_timer.ms());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sbbench: analyze failed: %s\n", e.what());
      out.reports.emplace_back();
      ++out.errored;
    }
  }
  out.seconds = timer.seconds();
  return out;
}

void gate_round(Result& res, const AnalyzeRound& round) {
  res.ops(round.reports.size(), round.errored);
  res.gate(round.errored == 0, "analyze() threw");
}

double eval_flight_seconds(const World& w) {
  double s = 0.0;
  for (const auto& ef : w.eval) s += ef.flight.log.duration();
  return s;
}

std::size_t correct_verdicts(const World& w,
                             const std::vector<core::RcaReport>& reports) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < reports.size(); ++i)
    if (reports[i].imu_attacked == w.eval[i].imu_attack &&
        reports[i].gps_attacked == w.eval[i].gps_attack)
      ++correct;
  return correct;
}

}  // namespace

Result run_eval(const Options& opt) {
  const auto process_start = Clock::now();
  const EvalSize z = eval_size(opt.size);
  Result res;

  std::unique_ptr<World> world;
  std::vector<double> setup_s;
  for (int s = 0; s < (opt.trace ? 1 : z.setups); ++s) {
    const auto t0 = s == 0 ? process_start : Clock::now();
    world.reset();
    world = build_world(z, opt.seed);
    setup_s.push_back(seconds_since(t0));
  }
  const World& w = *world;
  const double eval_s = eval_flight_seconds(w);
  std::size_t n_faulted = 0;
  for (const auto& ef : w.eval) n_faulted += ef.faulted ? 1 : 0;
  std::printf("sbbench: eval-octo cells=%zu train=%zu calibration=%zu "
              "eval=%zu (faulted %zu) threads=%zu seed=%llu\n",
              w.set->cells().size(), w.split.train.size(),
              w.split.calibration.size(), w.eval.size(), n_faulted,
              util::ThreadPool::threads(),
              static_cast<unsigned long long>(opt.seed));

  if (!opt.trace) {
    // Measured cycles, interleaved so that both metrics sample the whole
    // run: train a fresh model on the fold, then analyze every eval cell
    // with the first cycle's model.  Every cycle must reproduce the first
    // bit for bit.
    const int cycles =
        std::max(3, static_cast<int>(std::lround(opt.seconds / 7.0)));
    Fold fold;
    std::unique_ptr<Detectors> det;
    std::unique_ptr<core::RcaEngine> engine;
    std::vector<core::RcaReport> reference;
    std::vector<double> train_s, rate, flight_ms;
    for (int c = 0; c < cycles; ++c) {
      Fold next = train_fold(w, z);
      train_s.push_back(next.build_s + next.fit_s);
      if (c == 0) {
        fold = std::move(next);
        det = calibrate(w, *fold.mapper);
        engine = std::make_unique<core::RcaEngine>(*fold.mapper, det->imu,
                                                   det->gps);
        // Warm-up: one untimed analysis compiles the serving plan and fills
        // the FFT plan cache and scratch pools.
        engine->analyze(w.set->lab(*w.eval.front().cell), w.eval.front().flight);
      } else {
        res.gate(same_bits(next.val_mse, fold.val_mse), "training rounds disagree");
      }

      auto round = analyze_all(w, *engine);
      gate_round(res, round);
      if (c == 0) reference = round.reports;
      bool same = round.reports.size() == reference.size();
      for (std::size_t i = 0; same && i < reference.size(); ++i)
        same = same_report(round.reports[i], reference[i]);
      res.gate(same, "analysis rounds disagree");
      rate.push_back(round.seconds);
      std::fprintf(stderr, "sbbench: cycle %d: train %.3f s, analyze %.2f flight-s/s\n",
                   c + 1, train_s.back(), eval_s / round.seconds);
      flight_ms.insert(flight_ms.end(), round.flight_ms.begin(),
                       round.flight_ms.end());
    }
    for (double& s : rate) s = eval_s / s;
    const std::size_t correct = correct_verdicts(w, reference);
    std::printf("sbbench: train %.3f s (median of %zu), val mse %.6g; "
                "analyze %.2f flight-s/s over %zu rounds, %.1f ms per "
                "flight; %zu/%zu verdicts correct\n",
                median(train_s), train_s.size(), fold.val_mse, median(rate),
                rate.size(), median(flight_ms), correct, reference.size());
    res.metric("setup_s", median(setup_s), "s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
    res.metric("train_fold_s", median(train_s), "s");
    res.metric("train_val_mse", fold.val_mse, "mse");
    res.metric("rca_flight_s_per_s", median(rate), "flight-s/s");
    res.metric("verdict_p50_ms", median(flight_ms), "ms");
    res.metric("verdict_accuracy",
               static_cast<double>(correct) / static_cast<double>(reference.size()),
               "frac");
    return res;
  }

  // ---- Traced run: per-layer metrics ------------------------------------
  res.metric("sim.fly_ms_per_flight_s", 1e3 * w.fly_s / w.flown_s,
             "ms/flight-s");
  const Fold fold = train_fold(w, z);
  trace_model_clone(res, *fold.mapper);
  res.metric("core.dataset_build_s", fold.build_s, "s");
  res.metric("ml.train_epoch_s", median(fold.epoch_s), "s");
  res.metric("ml.train_samples_per_s",
             static_cast<double>(fold.windows * z.epochs) / fold.fit_s,
             "samples/s");
  const auto det = calibrate(w, *fold.mapper);
  const core::RcaEngine engine{*fold.mapper, det->imu, det->gps};
  engine.analyze(w.set->lab(*w.eval.front().cell), w.eval.front().flight);

  // Untraced vs traced analysis rounds, interleaved, for the overhead ratio;
  // the exact work counts come from the last traced round.
  auto& reg = obs::Registry::instance();
  std::vector<double> plain_rate, traced_rate;
  AnalyzeRound traced;
  std::uint64_t flops = 0, gemm_calls = 0, fft_calls = 0;
  for (int r = 0; r < 2; ++r) {
    obs::set_enabled(false);
    plain_rate.push_back(eval_s / analyze_all(w, engine).seconds);
    obs::set_enabled(true);
    for (const char* h : {"pool.queue_wait_seconds", "pool.task_run_seconds"})
      reg.histogram(h).reset();
    reg.counter("pool.tasks").reset();
    const std::uint64_t flops0 = counter("gemm.flops");
    const std::uint64_t calls0 = counter("gemm.calls");
    const std::uint64_t fft0 = counter("fft.plan_hits") + counter("fft.plan_misses");
    traced = analyze_all(w, engine);
    traced_rate.push_back(eval_s / traced.seconds);
    flops = counter("gemm.flops") - flops0;
    gemm_calls = counter("gemm.calls") - calls0;
    fft_calls = counter("fft.plan_hits") + counter("fft.plan_misses") - fft0;
    obs::Trace::instance().clear();
  }
  gate_round(res, traced);
  std::size_t masked = 0, windows = 0;
  for (const auto& r : traced.reports) {
    masked += r.health.windows_degraded;
    windows += r.health.windows_total;
  }
  res.metric("faults.masked_windows", static_cast<double>(masked), "windows");
  res.metric("ml.windows_inferred", static_cast<double>(windows), "count");
  res.metric("ml.gemm_flops", static_cast<double>(flops), "count");
  res.metric("ml.gemm_calls", static_cast<double>(gemm_calls), "count");
  res.metric("dsp.fft_calls", static_cast<double>(fft_calls), "count");
  res.metric("util.pool_queue_wait_us.p50",
             1e6 * reg.histogram("pool.queue_wait_seconds").percentile(50), "us");
  res.metric("util.pool_task_run_us.p50",
             1e6 * reg.histogram("pool.task_run_seconds").percentile(50), "us");
  res.metric("util.pool_tasks", static_cast<double>(counter("pool.tasks")),
             "count");
  res.metric("obs.trace_overhead_frac",
             median(plain_rate) / median(traced_rate) - 1.0, "frac");

  // The offline stages, flight by flight; analyze's reports are the
  // reference.
  std::vector<OfflineFlight> offline;
  for (std::size_t i = 0; i < w.eval.size(); ++i)
    offline.push_back({&w.set->lab(*w.eval[i].cell), &w.eval[i].flight,
                       &w.eval[i].hooks, traced.reports[i]});
  trace_offline_layers(res, *fold.mapper, det->imu, det->gps, offline);

  // The stream layer on this workload's model and flights: every eval
  // flight, rendered with its mic faults, served as one live session.
  std::vector<Feed> feeds;
  double render_s = 0.0;
  for (const auto& ef : w.eval) {
    Feed feed;
    feed.flight = ef.flight;
    Stopwatch render_timer;
    feed.audio = w.set->lab(*ef.cell)
                     .synthesizer(ef.flight)
                     .synthesize(ef.flight.log, 0.0, z.eval_duration);
    render_s += render_timer.seconds();
    if (ef.faulted) faults::apply_to_audio(feed.audio, 0.0, ef.plan);
    feed.imu_attack = ef.imu_attack;
    feed.gps_attack = ef.gps_attack;
    feeds.push_back(std::move(feed));
  }
  res.metric("acoustics.render_ms_per_flight_s",
             1e3 * render_s / (z.eval_duration * static_cast<double>(feeds.size())),
             "ms/flight-s");
  fold.mapper->warm_serving();
  std::vector<std::size_t> feed_of(feeds.size());
  for (std::size_t i = 0; i < feed_of.size(); ++i) feed_of[i] = i;
  Rng rng{0x5EED0000ULL + opt.seed};
  const auto offset = paced_offsets(feed_of.size(), rng);
  trace_stream_layers(res, Serving{*fold.mapper, det->imu, det->gps, feeds,
                                   z.eval_duration},
                      feed_of, offset, kPacedFrom, kPacedTo, opt.tmp_dir + "/ckpt");
  return res;
}

}  // namespace sbbench
