// Shared helpers for the sbbench workloads: run options, timing, order
// statistics, obs counter deltas and the result record every workload fills.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/sensory_mapper.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace sbbench {

// Pool workers of every run, both workloads: pinned, never the host's core
// count, so every machine runs the same pool.
inline constexpr std::size_t kThreads = 4;

constexpr double kStride = 0.25;  // analysis window stride, s

// Workload size.  kFull is what BENCHMARK.json measures; kTiny is the
// seconds-long smoke used by the benchmark's own tests.
enum class Size { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  // measuring budget of one run
  bool trace = false;     // traced per-layer run instead of end-to-end
  Size size = Size::kFull;
  std::string tmp_dir;  // per-run scratch (checkpoints); removed by run.py
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports.  `failed` counts failed operations among
// `attempted`; `errors` lists every violated correctness gate.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // A correctness gate: records `what` when `ok` is false.
  void gate(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  // Counts `n` attempted operations of which `bad` failed.
  void ops(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Stopwatch {
 public:
  double seconds() const { return seconds_since(start_); }
  double ms() const { return 1e3 * seconds(); }
  double us() const { return 1e6 * seconds(); }

 private:
  Clock::time_point start_ = Clock::now();
};

// Quantile (q in [0, 1]) of a sample, interpolated as sb::percentile
// does; NaN when empty, so the finiteness gate catches a metric with no
// samples behind it.
inline double quantile(const std::vector<double>& v, double q) {
  return v.empty() ? std::nan("") : sb::percentile(v, 100.0 * q);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Value of a process-wide obs counter (created on first use, so a counter
// no producer has touched yet reads 0).
inline std::uint64_t counter(const char* name) {
  return sb::obs::Registry::instance().counter(name).value();
}

// Peak resident set size of this process (VmHWM), in MB.
inline double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
  return std::nan("");
}

// Durations (s) of the trainer's "epoch" spans recorded since the last
// Trace::clear(), read back from the Chrome export.
inline std::vector<double> epoch_span_seconds() {
  const std::string json = sb::obs::Trace::instance().chrome_json();
  std::vector<double> out;
  for (std::size_t pos = json.find("\"epoch\""); pos != std::string::npos;
       pos = json.find("\"epoch\"", pos + 1)) {
    const std::size_t end = json.find('}', pos);
    const std::size_t dur = json.find("\"dur\"", pos);
    if (dur == std::string::npos || dur > end) continue;
    const std::size_t colon = json.find(':', dur);
    out.push_back(std::strtod(json.c_str() + colon + 1, nullptr) * 1e-6);
  }
  return out;
}

// The serving model of both workloads: the repository's standard
// MobileNet-lite mapper on the 4 Hz analysis grid, trained `epochs` epochs.
inline sb::core::SensoryMapperConfig mapper_config(std::size_t epochs) {
  sb::core::SensoryMapperConfig cfg;
  cfg.model = sb::ml::ModelKind::kMobileNetLite;
  cfg.dataset.stride = kStride;
  cfg.train.epochs = epochs;
  cfg.train.lr = 2e-3;
  cfg.train.lr_decay = 0.92;
  return cfg;
}

Result run_fleet(const Options& opt);
Result run_eval(const Options& opt);

}  // namespace sbbench
