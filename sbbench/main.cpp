// sbbench: end-to-end and per-layer benchmark of the SoundBoost pipeline.
//
//   sbbench --workload fleet-x500|eval-octo --seed N --seconds S --trace 0|1
//           [--size full|tiny] --tmp-dir DIR
//
// Prints progress lines, then as its last stdout line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the metrics are every end-to-end metric; with --trace 1
// (run under SB_TRACE=1) every per-layer metric.  Both workloads report the
// same metric names, each measured on the workload's own phases.  Exits 1 when any
// correctness gate fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace {

using sbbench::Options;

int usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload fleet-x500|eval-octo --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] --tmp-dir DIR\n",
               argv0, why.c_str(), argv0);
  return 2;
}

void print_json(const sbbench::Result& res) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    char value[32] = "null";  // JSON has no NaN/inf; the gates flag them
    if (std::isfinite(m.value)) std::snprintf(value, sizeof value, "%.17g", m.value);
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0], "missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = opt.seconds > 0.0;
    } else if (arg == "--trace") {
      opt.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--size") {
      if (value != "full" && value != "tiny")
        return usage(argv[0], "--size must be full or tiny");
      opt.size = value == "tiny" ? sbbench::Size::kTiny : sbbench::Size::kFull;
    } else if (arg == "--tmp-dir") {
      opt.tmp_dir = value;
    } else {
      return usage(argv[0], "unknown argument " + arg);
    }
  }
  if (opt.workload != "fleet-x500" && opt.workload != "eval-octo")
    return usage(argv[0], "unknown workload '" + opt.workload + "'");
  if (!have_seed || !have_seconds || !have_trace)
    return usage(argv[0], "--seed, --seconds and --trace are required");
  if (opt.tmp_dir.empty()) return usage(argv[0], "--tmp-dir is required");

  sb::util::ThreadPool::set_threads(sbbench::kThreads);
  // The traced run reads the program's counters; the end-to-end run keeps
  // tracing off whatever the environment says.
  sb::obs::set_enabled(opt.trace);

  sbbench::Result res;
  try {
    res = opt.workload == "fleet-x500" ? sbbench::run_fleet(opt)
                                       : sbbench::run_eval(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sbbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const auto& m : res.metrics)
    res.gate(std::isfinite(m.value), "metric " + m.name + " is not finite");
  res.gate(res.attempted > 0, "no operation attempted");
  for (const auto& e : res.errors)
    std::fprintf(stderr, "sbbench: GATE FAILED: %s\n", e.c_str());
  std::fflush(stderr);
  print_json(res);
  return res.errors.empty() ? 0 : 1;
}
