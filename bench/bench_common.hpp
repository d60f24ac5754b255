// Shared experiment rig for the bench harnesses: the standard training
// corpus, the benign/attack test flight sets, the calibrated detectors, the
// workload env knobs and the streaming-feed helpers of the serving bench.
//
// Workload scale note: the paper's flights are 1-3 minutes on a physical
// testbed; the benches use 25-60 s simulated flights so the whole suite runs
// in tens of minutes on one CPU core.  Durations scale the absolute delays,
// not the comparative shape of the results.
//
// The trained acoustic model is cached on disk (after the first bench that
// needs it trains it) so every bench binary does not pay the training cost
// again.  Delete the cache file to force retraining.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/flight_lab.hpp"
#include "core/gps_rca.hpp"
#include "core/imu_rca.hpp"
#include "core/rca_engine.hpp"
#include "core/sensory_mapper.hpp"
#include "ml/plan.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "stream/rca_session.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace sb::bench {

// Process-wide bench options, settable from every bench binary's command
// line via bench_init(argc, argv):
//   --seed N      offset added to every scenario seed (variance studies)
//   --threads N   worker count (same effect as SB_THREADS=N)
//   --repeat N    run the measured phase N times; reports carry the median
//                 wall clock (benches that support it call repeat_median)
//   --plan P      serving inference-plan precision: f64 (exact compiled
//                 plan, the default) or f32 (folded fast plan) — same
//                 switch as SB_PRECISION
//   --out-dir D   directory for BENCH_/TRACE_ JSON reports (default: next
//                 to the binary)
//   --help        usage
struct BenchArgs {
  std::uint64_t seed_offset = 0;
  int repeats = 1;
  std::filesystem::path out_dir;  // empty = bench binary's directory
};

inline BenchArgs& bench_args() {
  static BenchArgs args;
  return args;
}

// Parses the shared flags, removing them from argv (argc is updated) so a
// bench that layers another parser on top (bench_runtime_overhead hands the
// remainder to google-benchmark) sees only the flags it owns.  Unknown
// arguments are an error unless `allow_unknown` — then they stay in argv.
inline void bench_init(int& argc, char** argv, bool allow_unknown = false) {
  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: missing value for %s\n", argv[0], argv[i]);
      std::exit(2);
    }
    return argv[i + 1];
  };
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--seed N] [--threads N] [--repeat N] [--plan P] "
          "[--out-dir DIR]\n"
          "  --seed N     offset added to every scenario seed\n"
          "  --threads N  worker threads (equivalent to SB_THREADS=N)\n"
          "  --repeat N   repeat the measured phase N times, report the median\n"
          "  --plan P     serving plan precision: f64|f32 (same as "
          "SB_PRECISION)\n"
          "  --out-dir D  directory for BENCH_*/TRACE_* reports\n",
          argv[0]);
      std::exit(0);
    } else if (arg == "--repeat") {
      const long n = std::strtol(need_value(i), nullptr, 10);
      if (n < 1) {
        std::fprintf(stderr, "%s: --repeat must be >= 1\n", argv[0]);
        std::exit(2);
      }
      bench_args().repeats = static_cast<int>(n);
      ++i;
    } else if (arg == "--seed") {
      bench_args().seed_offset = std::strtoull(need_value(i), nullptr, 10);
      ++i;
    } else if (arg == "--threads") {
      const long n = std::strtol(need_value(i), nullptr, 10);
      if (n < 1) {
        std::fprintf(stderr, "%s: --threads must be >= 1\n", argv[0]);
        std::exit(2);
      }
      // Same switch SB_THREADS flips, through the same entry point, so a
      // CLI override and the env var can never disagree mid-process.
      util::ThreadPool::set_threads(static_cast<std::size_t>(n));
      ++i;
    } else if (arg == "--plan") {
      const char* value = need_value(i);
      ml::PlanPrecision precision{};
      if (!ml::parse_plan_precision(value, precision)) {
        std::fprintf(stderr, "%s: --plan must be f64 or f32 (got '%s')\n",
                     argv[0], value);
        std::exit(2);
      }
      // Same switch SB_PRECISION flips, so the CLI and env can't disagree.
      ml::set_plan_precision(precision);
      ++i;
    } else if (arg == "--out-dir") {
      bench_args().out_dir = need_value(i);
      std::error_code ec;
      std::filesystem::create_directories(bench_args().out_dir, ec);
      ++i;
    } else if (allow_unknown) {
      argv[out++] = argv[i];
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s' (see --help)\n", argv[0],
                   arg.c_str());
      std::exit(2);
    }
  }
  argc = out;
  argv[argc] = nullptr;
}

// Workload knobs read from the environment, so a CI smoke job can shrink a
// run without recompiling.  SB_BENCH_TINY=1 selects the tiny model and short
// flights.
inline bool tiny_mode() {
  const char* v = std::getenv("SB_BENCH_TINY");
  return v != nullptr && *v && *v != '0';
}

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v ? std::strtod(v, nullptr) : fallback;
}

// A count knob (sessions, shards, a grid entry): an integer >= 1, or the
// bench exits 2 with a message — like --threads — before doing any work.
inline std::size_t parse_count(const char* what, const std::string& text) {
  char* end = nullptr;
  const long long n = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || n < 1) {
    std::fprintf(stderr, "%s must be an integer >= 1 (got '%s')\n", what,
                 text.c_str());
    std::exit(2);
  }
  return static_cast<std::size_t>(n);
}

inline std::size_t env_count(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v ? parse_count(name, v) : fallback;
}

// Wall-clock stopwatch for the bench reports.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }
  void reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Directory the BENCH_/TRACE_ reports land in: --out-dir when given,
// otherwise next to the running bench binary.
inline std::filesystem::path bench_output_dir() {
  if (!bench_args().out_dir.empty()) return bench_args().out_dir;
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::filesystem::current_path() : exe.parent_path();
}

// Trained-model cache directory: SB_CACHE_DIR when set (created on demand),
// /tmp otherwise.
inline std::filesystem::path cache_dir() {
  if (const char* env = std::getenv("SB_CACHE_DIR"); env != nullptr && *env) {
    std::filesystem::path dir{env};
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return dir;
  }
  return "/tmp";
}

// Collects per-bench wall-clock and workload metadata, and writes
// BENCH_<name>.json next to the bench binary on destruction (or flush()).
// Instantiate once at the top of a bench main.
//
// All string values are JSON-escaped and non-finite doubles serialize as
// null (obs/json.hpp is the single serializer).  While tracing is enabled
// (SB_TRACE=1) the report additionally carries the pipeline stage breakdown
// accumulated over the report's lifetime — per-stage exclusive wall-clock
// deltas against the construction-time snapshot, so several reports in one
// process don't double-count — plus the full metrics registry, and the
// Chrome timeline is exported to TRACE_<name>.json alongside.
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)),
        stage_baseline_(obs::Trace::instance().stage_totals()) {}
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;
  ~BenchReport() { flush(); }

  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }
  void note(const std::string& key, const std::string& value) {
    notes_.emplace_back(key, value);
  }
  // Overrides the destructor-measured wall clock — used by benches that run
  // their measured phase --repeat times and report the median.
  void wall_seconds(double s) { wall_override_ = s; }

  void flush() {
    if (flushed_) return;
    flushed_ = true;
    // Close the telemetry series with one final (forced) sample so the last
    // partial interval's deltas are not lost.
    obs::telemetry_flush();
    const double wall = wall_override_ >= 0.0 ? wall_override_ : timer_.seconds();
    const auto path = bench_output_dir() / ("BENCH_" + name_ + ".json");
    std::ofstream os{path};
    if (!os) return;

    obs::JsonWriter w;
    w.begin_object();
    w.kv("name", name_);
    w.kv("wall_seconds", wall);
    w.kv("threads", static_cast<std::uint64_t>(util::ThreadPool::threads()));
    // SIMD provenance: the ISA compiled in, whether the vector backend was
    // active, and the float lane width — so perf numbers are comparable
    // across builds and SB_SIMD settings.
    w.kv("simd_isa", std::string_view{util::simd_isa_name()});
    w.kv("simd_backend",
         std::string_view{util::simd_enabled() ? "vector" : "scalar"});
    w.kv("simd_float_lanes",
         static_cast<std::uint64_t>(util::simd::kFloatLanes));
    // Serving-plan provenance next to the SIMD block: the precision mode
    // plus the process-wide compile tallies, so a perf delta can always be
    // traced to "what inference path actually ran".
    {
      const ml::PlanBuildStats plan = ml::plan_build_stats();
      w.key("plan");
      w.begin_object();
      w.kv("precision", std::string_view{ml::to_string(ml::plan_precision())});
      w.kv("plans_built", static_cast<std::uint64_t>(plan.plans_built));
      w.kv("folded_batchnorms",
           static_cast<std::uint64_t>(plan.folded_batchnorms));
      w.kv("fused_kernels",
           static_cast<std::uint64_t>(plan.fused_activations));
      w.kv("packed_panels", static_cast<std::uint64_t>(plan.packed_panels));
      w.end_object();
    }
    w.kv("repeats", static_cast<std::uint64_t>(bench_args().repeats));
    for (const auto& [k, v] : metrics_) w.kv(k, v);
    for (const auto& [k, v] : notes_) w.kv(k, std::string_view{v});
    if (obs::enabled()) {
      const auto totals = obs::Trace::instance().stage_totals();
      double staged = 0.0;
      w.key("stages");
      w.begin_object();
      for (std::size_t i = 1; i < obs::kNumStages; ++i) {  // skip kNone
        const double seconds =
            totals[i].seconds - stage_baseline_[i].seconds;
        const std::uint64_t spans = totals[i].count - stage_baseline_[i].count;
        staged += seconds;
        w.key(obs::stage_name(static_cast<obs::Stage>(i)));
        w.begin_object();
        w.kv("seconds", seconds);
        w.kv("spans", spans);
        w.end_object();
      }
      w.end_object();
      // Coverage is always against the full report lifetime — stages accrue
      // across every --repeat rep, so dividing by a median-of-reps override
      // would break the <= 1 invariant.
      const double total_wall = timer_.seconds();
      w.kv("stage_coverage", total_wall > 0.0 ? staged / total_wall : 0.0);
      obs::Trace::instance().write_chrome_json(
          (bench_output_dir() / ("TRACE_" + name_ + ".json")).string());
    }
    // Latency SLOs (targets, attained quantiles, breach counts) get their
    // own top-level block so dashboards need not dig through `metrics`.
    w.key("slo");
    obs::Registry::instance().write_slo_json(w);
    w.key("metrics");
    obs::Registry::instance().write_json(w);
    w.end_object();
    w.write_to(os);
    os << '\n';
    obs::logf(obs::LogLevel::kInfo, "bench", "wrote %s (%.2f s)", path.c_str(),
              wall);
  }

 private:
  std::string name_;
  Stopwatch timer_;
  obs::Trace::StageTotals stage_baseline_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  double wall_override_ = -1.0;
  bool flushed_ = false;
};

// Runs `body` bench_args().repeats times and returns the median of the
// per-rep wall-clock seconds it returns (mean of the middle pair for even
// N).  The body times its own measured phase, so per-rep setup/teardown —
// rebuilding sessions, resetting feed cursors — stays out of the number.
template <typename Fn>
inline double repeat_median(Fn&& body) {
  std::vector<double> times;
  const int n = bench_args().repeats;
  times.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    times.push_back(body(r));
    obs::logf(obs::LogLevel::kInfo, "bench", "repeat %d/%d: %.3f s", r + 1, n,
              times.back());
  }
  std::sort(times.begin(), times.end());
  const std::size_t mid = times.size() / 2;
  return times.size() % 2 == 1 ? times[mid]
                               : 0.5 * (times[mid - 1] + times[mid]);
}

inline const core::FlightLab& lab() {
  static const core::FlightLab kLab;
  return kLab;
}

// The standard mapper configuration shared by the detection benches.
inline core::SensoryMapperConfig standard_mapper_config() {
  core::SensoryMapperConfig cfg;
  cfg.model = ml::ModelKind::kMobileNetLite;
  cfg.dataset.stride = 0.25;
  cfg.train.epochs = 15;
  cfg.train.lr = 2e-3;
  cfg.train.lr_decay = 0.92;
  return cfg;
}

// Cache filenames carry the model-file format tag AND the trainer schema
// tag, so either a format bump (which would make load() reject the file
// anyway) or a training-math change simply misses the cache and retrains —
// loudly, via the standard "training ..." log line — instead of serving
// weights trained under superseded math as current results.
inline std::string cache_tag() {
  return std::string{core::model_format_tag()} + ml::trainer_schema_tag();
}

inline std::string cache_path(const core::SensoryMapperConfig& cfg) {
  return (cache_dir() / ("soundboost_bench_" + ml::to_string(cfg.model) + "_" +
                         cache_tag() + ".bin"))
      .string();
}

// Simulates the paper's 36-flight training campaign (6 maneuver families x
// 6 wind conditions) at bench scale, trains the acoustic model (or loads it
// from the cache) and returns the ready mapper.
inline core::SensoryMapper standard_mapper(
    core::SensoryMapperConfig cfg = standard_mapper_config(),
    int flights_per_family = 4, double flight_duration = 25.0) {
  core::SensoryMapper mapper{cfg};
  const std::string cache = cache_path(cfg);
  if (mapper.load(cache)) {
    obs::logf(obs::LogLevel::kInfo, "setup", "loaded trained model from %s",
              cache.c_str());
    return mapper;
  }
  obs::logf(obs::LogLevel::kInfo, "setup", "training %s on %d flights (cache: %s)...",
            ml::to_string(cfg.model).c_str(), flights_per_family * 6, cache.c_str());
  // Cold-cache training is the headline perf workload: record it.
  BenchReport report{"standard_mapper_train_" + ml::to_string(cfg.model)};
  Stopwatch fly_timer;
  const auto scenarios = lab().training_scenarios(flights_per_family, flight_duration);
  const auto flights = lab().fly_all(scenarios);
  report.metric("flights", static_cast<double>(flights.size()));
  report.metric("flight_seconds", fly_timer.seconds());
  Stopwatch fit_timer;
  const auto result = mapper.fit(lab(), flights);
  report.metric("fit_seconds", fit_timer.seconds());
  report.metric("train_mse", result.final_train_mse);
  report.metric("val_mse", result.final_val_mse);
  obs::logf(obs::LogLevel::kInfo, "setup", "trained: train MSE %.4f, val MSE %.4f",
            result.final_train_mse, result.final_val_mse);
  if (mapper.save(cache))
    obs::logf(obs::LogLevel::kInfo, "setup", "cached model to %s", cache.c_str());
  return mapper;
}

// Fits a mapper on the given flights unless a cached model tagged `tag`
// exists.  Used by the sweep benches (Tab. I, model selection, window size)
// so re-running the suite does not retrain every variant.  The training-time
// train/val MSE is persisted in a sidecar so cached runs can still report it.
struct FitMse {
  double train = 0.0;
  double val = 0.0;
};

inline FitMse fit_cached(core::SensoryMapper& mapper, const std::string& tag,
                         std::span<const core::Flight> flights,
                         const core::FlightLab& flight_lab = lab()) {
  const std::string path =
      (cache_dir() / ("soundboost_bench_" + tag + "_" + cache_tag() + ".bin"))
          .string();
  const std::string sidecar = path + ".mse";
  if (mapper.load(path)) {
    FitMse mse;
    if (std::FILE* f = std::fopen(sidecar.c_str(), "r")) {
      if (std::fscanf(f, "%lf %lf", &mse.train, &mse.val) != 2) mse = {};
      std::fclose(f);
    }
    obs::logf(obs::LogLevel::kInfo, "cache", "%s", tag.c_str());
    return mse;
  }
  const auto result = mapper.fit(flight_lab, flights);
  mapper.save(path);
  if (std::FILE* f = std::fopen(sidecar.c_str(), "w")) {
    std::fprintf(f, "%.6f %.6f\n", result.final_train_mse, result.final_val_mse);
    std::fclose(f);
  }
  return {result.final_train_mse, result.final_val_mse};
}

// Benign evaluation flights: a mission mix matching the training families
// but with unseen trajectories, speeds and winds (paper §IV-A).
inline core::FlightScenario benign_scenario(int i, double duration = 40.0) {
  core::FlightScenario s;
  // Mission/wind magnitudes cycle within the training envelope; only the
  // seed grows with i, so large test sets stay in-distribution.
  const double f = static_cast<double>(i % 8);
  switch (i % 4) {
    case 0:
      s.mission = sim::Mission::hover({2, 1, -11 - 0.3 * f}, duration);
      break;
    case 1:
      s.mission = sim::Mission::line({0, 0, -10}, {18 + f, 8, -12}, 2.5 + 0.1 * f,
                                     duration);
      break;
    case 2:
      s.mission = sim::Mission::figure_eight({0, 3, -12}, 8 + 0.3 * f, 2.4 + 0.1 * f,
                                             duration);
      break;
    default:
      s.mission = sim::Mission::square({0, 0, 0}, 13 + f, 11, 2.0 + 0.1 * f, duration);
      break;
  }
  s.wind.mean = {0.4 * (f - 4.0), 0.25 * (f - 3.0), 0.0};
  s.wind.gust_stddev = 0.3 + 0.07 * static_cast<double>(i % 5);
  s.seed = 20000 + static_cast<std::uint64_t>(i) + bench_args().seed_offset;
  return s;
}

// GPS drag-spoofing attack flights (§IV-C): hover and en-route missions,
// varied drag direction/rate, spoof periods filling most of the flight.
inline core::FlightScenario gps_attack_scenario(int i, double duration = 60.0) {
  core::FlightScenario s;
  const double f = static_cast<double>(i);
  if (i % 2 == 0) {
    s.mission = sim::Mission::hover({0, 0, -10 - 0.2 * (f < 8 ? f : 8.0)}, duration);
  } else {
    s.mission = sim::Mission::line({0, 0, -10}, {22, 4, -10}, 2.2, duration);
  }
  attacks::GpsSpoofConfig g;
  g.start = 12.0 + static_cast<double>(i % 3);
  g.end = duration - 10.0;
  const double ang = 0.7 * f;
  g.drag_direction = {std::cos(ang), std::sin(ang), 0.0};
  g.drag_rate = 0.9 + 0.08 * static_cast<double>(i % 6);
  s.gps_spoof = g;
  s.wind.mean = {0.3 * (static_cast<double>(i % 8) - 4.0),
                 0.2 * (static_cast<double>(i % 7) - 3.0), 0.0};
  s.wind.gust_stddev = 0.3 + 0.05 * static_cast<double>(i % 4);
  s.seed = 30000 + static_cast<std::uint64_t>(i) + bench_args().seed_offset;
  return s;
}

// IMU biasing attack flights (§IV-B): hover missions, 10 s spoof windows,
// alternating Side-Swing and accelerometer-DoS.
inline core::FlightScenario imu_attack_scenario(int i, double duration = 40.0) {
  core::FlightScenario s;
  s.mission = sim::Mission::hover({0, 0, -10}, duration);
  attacks::ImuAttackConfig a;
  a.type = i % 2 == 0 ? attacks::ImuAttackType::kSideSwing
                      : attacks::ImuAttackType::kAccelDos;
  a.start = 14.0 + static_cast<double>(i % 4);
  a.end = a.start + 10.0;
  a.axis = i % 3 == 2 ? 1 : 0;
  s.imu_attack = a;
  s.wind.gust_stddev = 0.3 + 0.05 * static_cast<double>(i % 4);
  s.seed = 40000 + static_cast<std::uint64_t>(i) + bench_args().seed_offset;
  return s;
}

struct CalibratedDetectors {
  core::ImuRcaDetector imu{core::ImuRcaConfig{}};
  core::GpsRcaDetector gps{core::GpsRcaConfig{}};
};

// Calibrates both detector stages on `n_benign` dedicated benign flights.
inline CalibratedDetectors calibrate_detectors(const core::SensoryMapper& mapper,
                                               int n_benign = 10,
                                               double duration = 40.0) {
  CalibratedDetectors det;
  std::vector<core::WindowResiduals> imu_cal;
  std::vector<core::GpsRcaDetector::Result> audio_results, fused_results;
  std::vector<core::FlightScenario> scenarios;
  for (int i = 0; i < n_benign; ++i) {
    auto scenario = benign_scenario(i, duration);
    scenario.seed += 500000;  // calibration set is disjoint from test benign
    scenarios.push_back(scenario);
  }
  const auto flights = lab().fly_all(scenarios);
  for (const auto& flight : flights) {
    const auto preds = mapper.predict_flight(lab(), flight);
    const auto w = core::ImuRcaDetector::residuals(flight, preds);
    imu_cal.insert(imu_cal.end(), w.begin(), w.end());
    audio_results.push_back(
        det.gps.analyze(flight, preds, core::GpsDetectorMode::kAudioOnly));
    fused_results.push_back(
        det.gps.analyze(flight, preds, core::GpsDetectorMode::kAudioImu));
  }
  det.imu.calibrate(imu_cal);
  det.gps.calibrate(audio_results, core::GpsDetectorMode::kAudioOnly);
  det.gps.calibrate(fused_results, core::GpsDetectorMode::kAudioImu);
  return det;
}

// The tiny serving model: an MLP trained for two epochs on a handful of
// short flights — enough to exercise every serving code path in seconds,
// cached under its own tag.
inline core::SensoryMapper tiny_serving_mapper() {
  core::SensoryMapperConfig cfg;
  cfg.model = ml::ModelKind::kMlp;
  cfg.train.epochs = 2;
  core::SensoryMapper m{cfg};
  const auto flights = lab().fly_all(lab().training_scenarios(1, 12.0));
  fit_cached(m, "stream_tiny", flights);
  return m;
}

// A pre-rendered flight feed (the whole continuous capture) and one
// session's read cursors into it: many sessions can share one feed.
struct Feed {
  core::Flight flight;
  acoustics::MultiChannelAudio audio;
};

struct FeedCursor {
  std::size_t feed = 0;
  std::size_t audio = 0;
  std::size_t imu = 0;
  std::size_t gps = 0;
};

inline acoustics::MultiChannelAudio slice_audio(
    const acoustics::MultiChannelAudio& full, std::size_t begin,
    std::size_t end) {
  acoustics::MultiChannelAudio chunk;
  chunk.sample_rate = full.sample_rate;
  for (std::size_t c = 0; c < sensors::kNumMics; ++c)
    chunk.channels[c].assign(full.channels[c].begin() + begin,
                             full.channels[c].begin() + end);
  return chunk;
}

// Pushes everything with t < until (audio by sample index) and advances the
// cursor — the "what arrived since the last tick" slice of each stream.
inline void push_until(stream::RcaSession& session, const Feed& feed,
                       FeedCursor& cur, double until) {
  const auto upto = static_cast<std::size_t>(
      std::min(until * feed.audio.sample_rate,
               static_cast<double>(feed.audio.num_samples())));
  if (upto > cur.audio) {
    session.push_audio(slice_audio(feed.audio, cur.audio, upto));
    cur.audio = upto;
  }
  const auto& imu = feed.flight.log.imu;
  std::size_t i = cur.imu;
  while (i < imu.size() && imu[i].t < until) ++i;
  session.push_imu(std::span{imu}.subspan(cur.imu, i - cur.imu));
  cur.imu = i;
  const auto& gps = feed.flight.log.gps;
  std::size_t g = cur.gps;
  while (g < gps.size() && gps[g].t < until) ++g;
  session.push_gps(std::span{gps}.subspan(cur.gps, g - cur.gps));
  cur.gps = g;
}

// Self-check of an emitted report: valid JSON whose metrics objects are
// well formed.  Benches gate their exit code on it.
inline bool validate_json_file(const std::filesystem::path& path) {
  std::ifstream is{path};
  if (!is) {
    std::fprintf(stderr, "cannot reopen %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  if (!obs::json_valid(ss.str()) || !obs::metrics_json_wellformed(ss.str())) {
    std::fprintf(stderr, "%s is not valid JSON\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace sb::bench
