// Fleet serving bench (DESIGN.md "Fleet architecture"): N concurrent flight
// sessions sharded across per-shard inference schedulers (FleetServer), each
// shard pumping its own mapper clone in parallel.  Every session streams its
// microphone/IMU/GPS feed chunk by chunk in 100 ms ticks.
//
//   * Grid: per fleet size N, sessions-per-core at realtime, window->verdict
//     latency, the shed/thinned rates under deliberate overload (the
//     per-shard queue bound is fixed while N grows), admission verdict
//     counts and the steady-state heap discipline.
//   * Checkpoint/restore round trip on the first grid size: every session is
//     checkpointed, restored into a SECOND fleet, and both fleets' final
//     reports are compared field for field — any divergence fails the bench.
//   * Single-shard row (served first): 8 sessions on one shard with no
//     degrade watermark — the realtime factor one serving loop sustains,
//     its own window->verdict p50/p99 and SLO breaches, and its
//     steady-state heap allocations.
//   * Under --plan f32 the run is gated on the folded plan's prediction drift
//     against the exact plan.
//
// Workload knobs (environment, so the CI smoke job can shrink the run
// without recompiling; the shared --seed/--threads/--repeat/--plan/--out-dir
// flags apply).  Counts must be integers >= 1, else the bench exits 2:
//   SB_BENCH_TINY=1            tiny model + short flights (CI smoke)
//   SB_BENCH_FLEET_GRID=CSV    fleet sizes      (default "64,256,1024,4096",
//                              tiny "8,24")
//   SB_BENCH_FLEET_SHARDS=K    shards           (default 4)
//   SB_BENCH_FLIGHT_SECONDS=S  per-flight duration (default 20, tiny 8)
//   SB_BENCH_FLEET_MODE=checkpoint|restore + SB_BENCH_FLEET_DIR=DIR
//     restart-recovery smoke: `checkpoint` serves the first half, dumps
//     every session + a verdict digest into DIR, then finishes the flight;
//     `restore` (a fresh process) restores from DIR, serves the identical
//     second half and fails on any digest divergence.  Both serve
//     SB_BENCH_SESSIONS sessions (default 64, tiny 8).
//
// Every JSON artifact of the run is self-checked before exit, and a
// malformed one fails the run: BENCH_fleet_serving.json, the TRACE file
// under SB_TRACE, the BLACKBOX_<session>.jsonl dumps under SB_RECORDER and
// the telemetry JSONL under SB_TELEMETRY.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/recorder.hpp"
#include "stream/fleet_server.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sb;
using bench::Feed;
using bench::FeedCursor;

constexpr std::size_t kSingleShardSessions = 8;

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v ? std::string{v} : fallback;
}

std::vector<std::size_t> parse_grid(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss{csv};
  std::string tok;
  while (std::getline(ss, tok, ','))
    if (!tok.empty())
      out.push_back(bench::parse_count("SB_BENCH_FLEET_GRID entry", tok));
  if (out.empty()) {
    std::fprintf(stderr, "SB_BENCH_FLEET_GRID has no entries (got '%s')\n",
                 csv.c_str());
    std::exit(2);
  }
  return out;
}

// Cursor state as if push_until had been called up to `until` — used by the
// restore smoke to resume feeds without replaying the first half.
FeedCursor cursor_at(const Feed& feed, std::size_t feed_idx, double until) {
  FeedCursor cur;
  cur.feed = feed_idx;
  cur.audio = static_cast<std::size_t>(
      std::min(until * feed.audio.sample_rate,
               static_cast<double>(feed.audio.num_samples())));
  while (cur.imu < feed.flight.log.imu.size() &&
         feed.flight.log.imu[cur.imu].t < until)
    ++cur.imu;
  while (cur.gps < feed.flight.log.gps.size() &&
         feed.flight.log.gps[cur.gps].t < until)
    ++cur.gps;
  return cur;
}

// One line per session, every field printed with round-trip precision, so
// string equality == bitwise verdict equality.
std::string digest_report(std::uint64_t id, const core::RcaReport& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"id\": %llu, \"imu_attacked\": %d, \"gps_attacked\": %d, "
                "\"imu_detect_time\": %.17g, \"gps_detect_time\": %.17g, "
                "\"windows_total\": %zu, \"imu_windows_skipped\": %zu}",
                static_cast<unsigned long long>(id), r.imu_attacked ? 1 : 0,
                r.gps_attacked ? 1 : 0, r.imu_detect_time, r.gps_detect_time,
                r.health.windows_total, r.health.imu_windows_skipped);
  return buf;
}

// JSONL artifacts (black boxes, telemetry): every nonempty line must be one
// well-formed JSON object that also passes the strict metrics check.
bool validate_jsonl_file(const std::filesystem::path& path) {
  std::ifstream is{path};
  if (!is) {
    std::fprintf(stderr, "fleet_serving: cannot reopen %s\n", path.c_str());
    return false;
  }
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    if (!obs::json_valid(line) || !obs::metrics_json_wellformed(line)) {
      std::fprintf(stderr, "fleet_serving: %s line %zu is not valid JSON\n",
                   path.c_str(), lines);
      return false;
    }
  }
  if (lines == 0) {
    std::fprintf(stderr, "fleet_serving: %s is empty\n", path.c_str());
    return false;
  }
  return true;
}

// When serving ran on the folded float32 plan, gate the run on its drift
// against the exact pipeline: the same windows go end to end — f32 STFT
// signatures into the folded plan vs exact signatures into the exact plan —
// and predictions are compared component-wise.  Both stages round at float
// level, so the tolerance has orders-of-magnitude headroom — a violation
// means the fold or f32-STFT math (not float noise) is wrong.
bool f32_drift_within_tolerance(const core::SensoryMapper& mapper,
                                const core::Flight& flight,
                                bench::BenchReport& report) {
  const auto windows = mapper.synthesize_windows(bench::lab(), flight);
  const std::size_t n_check = std::min<std::size_t>(windows.size(), 32);
  std::vector<core::WindowSpan> spans;
  spans.reserve(n_check);
  for (std::size_t i = 0; i < n_check; ++i)
    spans.push_back({windows[i].t0, windows[i].t1});
  auto predict_at = [&](ml::PlanPrecision precision) {
    ml::set_plan_precision(precision);
    std::vector<ml::Tensor> sigs;
    sigs.reserve(n_check);
    for (std::size_t i = 0; i < n_check; ++i)
      sigs.push_back(mapper.prepare_signature(windows[i].audio));
    return mapper.predict_prepared(sigs, spans);
  };
  const auto ref = predict_at(ml::PlanPrecision::kF64);
  const auto fast = predict_at(ml::PlanPrecision::kF32);
  double drift_sq = 0.0, drift_max = 0.0;
  std::size_t n_comp = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double diffs[6] = {
        fast[i].accel.x - ref[i].accel.x, fast[i].accel.y - ref[i].accel.y,
        fast[i].accel.z - ref[i].accel.z, fast[i].vel.x - ref[i].vel.x,
        fast[i].vel.y - ref[i].vel.y,     fast[i].vel.z - ref[i].vel.z};
    for (double d : diffs) {
      drift_sq += d * d;
      drift_max = std::max(drift_max, std::abs(d));
      ++n_comp;
    }
  }
  const double drift_mse =
      n_comp > 0 ? drift_sq / static_cast<double>(n_comp) : 0.0;
  constexpr double kMseTol = 1e-8;
  constexpr double kMaxTol = 1e-3;
  const bool ok = drift_mse <= kMseTol && drift_max <= kMaxTol &&
                  std::isfinite(drift_mse) && n_comp > 0;
  report.metric("f32_drift_mse", drift_mse);
  report.metric("f32_drift_max", drift_max);
  if (!ok)
    std::fprintf(stderr,
                 "fleet_serving: f32 plan drift out of tolerance "
                 "(mse %.3e > %.0e or max %.3e > %.0e)\n",
                 drift_mse, kMseTol, drift_max, kMaxTol);
  return ok;
}

constexpr double kTick = 0.1;

struct ServeStats {
  double wall = 0.0;
  std::size_t verdicts = 0;
  std::uint64_t steady_heap_allocs = 0;
};

// Advances every live session in lock-step kTick rounds over the half-open
// tick range (k_begin, k_end], pumping the fleet once per round.  Tick times
// are k * kTick (multiplication, not accumulation) so a restored process
// reproduces the checkpointing process's push boundaries exactly.
ServeStats serve_phase(stream::FleetServer& fleet,
                       std::vector<stream::RcaSession*>& sessions,
                       const std::vector<Feed>& feeds,
                       std::vector<FeedCursor>& cursors, long k_begin,
                       long k_end, double duration) {
  ServeStats stats;
  obs::Counter& heap_allocs =
      obs::Registry::instance().counter("ml.workspace.heap_allocs");
  // Baseline at mid-phase: the GPS monitors only seed a few seconds into
  // the flight, and their first windows legitimately warm new scratch sizes.
  // Under SB_THREADS>1 the counter can still tick after the baseline when a
  // shard first lands on a pool thread whose scratch pool hasn't served it
  // yet (chunk->thread claiming is not deterministic; results are) — that is
  // warm-up attribution, not a steady-state allocation.  The zero-alloc
  // contract is pinned at one thread, where this reads exactly 0.
  const long warm_k = k_begin + (k_end - k_begin) / 2;
  std::uint64_t heap_baseline = 0;
  bench::Stopwatch timer;
  for (long k = k_begin + 1; k <= k_end; ++k) {
    const double t = static_cast<double>(k) * kTick;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      if (sessions[i] == nullptr) continue;
      bench::push_until(*sessions[i], feeds[cursors[i].feed], cursors[i],
                        std::min(t, duration));
      stats.verdicts += sessions[i]->poll_verdicts().size();
    }
    fleet.pump();
    if (k == warm_k) heap_baseline = heap_allocs.value();
  }
  fleet.drain();
  stats.steady_heap_allocs = heap_allocs.value() - heap_baseline;
  stats.wall = timer.seconds();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bench::bench_init(argc, argv);
  const bool tiny = bench::tiny_mode();
  const double duration =
      bench::env_double("SB_BENCH_FLIGHT_SECONDS", tiny ? 8.0 : 20.0);
  const std::size_t shards = bench::env_count("SB_BENCH_FLEET_SHARDS", 4);
  const std::string mode = env_string("SB_BENCH_FLEET_MODE", "");
  const std::string ckpt_dir = env_string("SB_BENCH_FLEET_DIR", "");
  std::vector<std::size_t> grid = parse_grid(env_string(
      "SB_BENCH_FLEET_GRID", tiny ? "8,24" : "64,256,1024,4096"));
  if (!mode.empty()) {
    // Restart-recovery smoke serves one fixed fleet size.
    grid = {bench::env_count("SB_BENCH_SESSIONS", tiny ? 8 : 64)};
    if (ckpt_dir.empty()) {
      std::fprintf(stderr, "fleet_serving: SB_BENCH_FLEET_MODE needs "
                           "SB_BENCH_FLEET_DIR\n");
      return 1;
    }
  }
  const long total_ticks = std::lround(duration / kTick);
  const long half_ticks = total_ticks / 2;

  core::SensoryMapper mapper =
      tiny ? bench::tiny_serving_mapper() : bench::standard_mapper();
  const auto det = bench::calibrate_detectors(mapper, tiny ? 2 : 10,
                                              tiny ? 12.0 : 40.0);

  // Shared feeds: benign / GPS-spoof / IMU-attack mix, one render each.
  std::size_t max_n = *std::max_element(grid.begin(), grid.end());
  if (mode.empty()) max_n = std::max(max_n, kSingleShardSessions);
  const std::size_t n_feeds = std::min<std::size_t>(max_n, tiny ? 6 : 12);
  obs::logf(obs::LogLevel::kInfo, "setup",
            "rendering %zu shared feeds (%.0f s each) for fleets up to %zu",
            n_feeds, duration, max_n);
  std::vector<Feed> feeds(n_feeds);
  for (std::size_t i = 0; i < n_feeds; ++i) {
    const int idx = static_cast<int>(i);
    core::FlightScenario s;
    switch (i % 3) {
      case 0: s = bench::benign_scenario(idx, duration); break;
      case 1: s = bench::gps_attack_scenario(idx, duration); break;
      default: s = bench::imu_attack_scenario(idx, duration); break;
    }
    feeds[i].flight = bench::lab().fly(s);
    feeds[i].audio = bench::lab()
                         .synthesizer(feeds[i].flight)
                         .synthesize(feeds[i].flight.log, 0.0, duration);
  }

  bench::BenchReport report{"fleet_serving"};
  report.note("mode", mode.empty() ? (tiny ? "tiny" : "standard") : mode);
  report.metric("shards", static_cast<double>(shards));
  report.metric("flight_seconds", duration);
  const double cores = static_cast<double>(util::ThreadPool::threads());

  auto fleet_config = [&](std::size_t n) {
    stream::FleetServerConfig fc;
    fc.num_shards = shards;
    // Degrade watermark at 3/4 of the expected per-shard occupancy: the last
    // quarter of admissions at each N serve with thinned evidence, so the
    // grid exercises every admission verdict and the thinning path.
    fc.degrade_sessions_per_shard =
        std::max<std::size_t>(1, (3 * n) / (4 * shards));
    fc.degraded_evidence_stride = 2;
    fc.session.recorder.out_dir = bench::bench_output_dir().string();
    return fc;
  };
  auto make_cursors = [&](std::size_t n) {
    std::vector<FeedCursor> cursors(n);
    for (std::size_t i = 0; i < n; ++i) cursors[i].feed = i % n_feeds;
    return cursors;
  };
  auto finish_digest = [&](stream::FleetServer& fleet,
                           const std::vector<stream::RcaSession*>& sessions) {
    std::string digest = "{\"sessions\": [\n";
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      if (sessions[i] == nullptr) continue;
      const auto id = static_cast<std::uint64_t>(i);
      digest += digest_report(id, fleet.finish(id));
      digest += i + 1 < sessions.size() ? ",\n" : "\n";
    }
    return digest + "]}\n";
  };

  bool ok = true;
  double total_wall = 0.0;

  // Serves one fleet row --repeat times against fresh fleets and reports
  // its metrics under `tag`; returns the median serve wall clock.  With
  // `split` (checkpoint smoke) the first half is checkpointed into ckpt_dir
  // and the continuation digest written next to it.
  auto serve_row = [&](const std::string& tag, std::size_t n,
                       const stream::FleetServerConfig& fc, bool split) {
    ServeStats stats;
    std::size_t shed = 0, thinned = 0, inferred = 0, admitted = 0,
                degraded = 0;
    const double wall = bench::repeat_median([&](int) {
      stream::FleetServer fleet{mapper, det.imu, det.gps, fc};
      std::vector<stream::RcaSession*> sessions(n, nullptr);
      auto cursors = make_cursors(n);
      admitted = degraded = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const auto res = fleet.admit(static_cast<std::uint64_t>(i));
        sessions[i] = res.session;
        if (res.verdict == stream::Admission::kAdmitted) ++admitted;
        if (res.verdict == stream::Admission::kDegraded) ++degraded;
      }

      const long mid = split ? half_ticks : total_ticks;
      stats = serve_phase(fleet, sessions, feeds, cursors, 0, mid, duration);

      if (split) {
        // Dump every session + the continuation digest, then keep serving
        // to the end of the flight in THIS process too — the digest is
        // what the restored process must reproduce bit for bit.
        std::filesystem::create_directories(ckpt_dir);
        bench::Stopwatch ckpt_timer;
        const std::size_t written = fleet.checkpoint_all(ckpt_dir);
        report.metric("checkpoint_wall_seconds", ckpt_timer.seconds());
        report.metric("checkpoints_written", static_cast<double>(written));
        if (written != n) {
          std::fprintf(stderr, "fleet_serving: wrote %zu of %zu session "
                               "checkpoints to %s\n",
                       written, n, ckpt_dir.c_str());
          ok = false;
        }
        const auto tail = serve_phase(fleet, sessions, feeds, cursors,
                                      half_ticks, total_ticks, duration);
        stats.wall += tail.wall;
        stats.verdicts += tail.verdicts;
      }
      shed = fleet.windows_shed();
      thinned = fleet.windows_thinned();
      inferred = fleet.windows_inferred();

      // One validating black box per run regardless of verdict mix (force
      // bypasses the rate-limit gap, not the per-session dump bound).
      for (auto* s : sessions)
        if (s != nullptr && s->recorder() != nullptr) {
          s->recorder()->trigger("bench_snapshot", /*force=*/true);
          break;
        }

      const std::string digest = finish_digest(fleet, sessions);
      if (split) {
        std::ofstream os{ckpt_dir + "/FLEET_DIGEST.json"};
        os << digest;
      }
      return stats.wall;
    });
    total_wall += wall;

    const double streamed = static_cast<double>(n) * duration;
    const double realtime = wall > 0.0 ? streamed / wall : 0.0;
    const double staged = static_cast<double>(inferred + shed + thinned);
    report.metric(tag + "sessions", static_cast<double>(n));
    report.metric(tag + "serve_wall_seconds", wall);
    report.metric(tag + "realtime_factor", realtime);
    report.metric(tag + "sessions_per_core",
                  cores > 0.0 ? realtime / cores : realtime);
    report.metric(tag + "admitted", static_cast<double>(admitted));
    report.metric(tag + "degraded", static_cast<double>(degraded));
    report.metric(tag + "windows_inferred", static_cast<double>(inferred));
    report.metric(tag + "windows_shed", static_cast<double>(shed));
    report.metric(tag + "windows_thinned", static_cast<double>(thinned));
    report.metric(tag + "shed_rate",
                  staged > 0.0 ? static_cast<double>(shed) / staged : 0.0);
    report.metric(tag + "steady_state_heap_allocs",
                  static_cast<double>(stats.steady_heap_allocs));
    report.metric(tag + "verdict_events", static_cast<double>(stats.verdicts));
    std::printf(
        "fleet_serving: N=%zu on %zu shards: %.2f s wall -> %.1fx realtime "
        "(%.1f sessions/core), shed %zu thinned %zu, heap +%llu\n",
        n, fc.num_shards, wall, realtime,
        cores > 0.0 ? realtime / cores : realtime, shed, thinned,
        static_cast<unsigned long long>(stats.steady_heap_allocs));
  };

  if (mode == "restore") {
    // ---- Restart-recovery smoke, phase 2: restore + serve second half ----
    const std::size_t n = grid[0];
    stream::FleetServer fleet{mapper, det.imu, det.gps, fleet_config(n)};
    std::vector<stream::RcaSession*> sessions(n, nullptr);
    auto cursors = make_cursors(n);
    const double half = static_cast<double>(half_ticks) * kTick;
    std::size_t restored = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto path =
          ckpt_dir + "/SESSION_" + std::to_string(i) + ".sbsess";
      const auto res = fleet.restore(path);
      if (res.session == nullptr) {
        std::fprintf(stderr, "fleet_serving: restore of %s failed\n",
                     path.c_str());
        ok = false;
        continue;
      }
      sessions[i] = res.session;
      cursors[i] = cursor_at(feeds[i % n_feeds], i % n_feeds, half);
      ++restored;
    }
    report.metric("sessions", static_cast<double>(n));
    report.metric("sessions_restored", static_cast<double>(restored));
    const auto stats = serve_phase(fleet, sessions, feeds, cursors, half_ticks,
                                   total_ticks, duration);
    total_wall += stats.wall;
    const std::string digest = finish_digest(fleet, sessions);
    std::ifstream ref_is{ckpt_dir + "/FLEET_DIGEST.json"};
    std::ostringstream ref;
    ref << ref_is.rdbuf();
    const bool identical = ref_is && ref.str() == digest;
    report.metric("restored_verdict_divergence", identical ? 0.0 : 1.0);
    if (!identical) {
      std::fprintf(stderr,
                   "fleet_serving: restored fleet verdicts DIVERGE from the "
                   "checkpointing process\n");
      ok = false;
    } else {
      std::printf("fleet_serving: %zu restored sessions, second half served, "
                  "verdict digest identical\n", restored);
    }
  } else {
    if (mode.empty()) {
      // ---- Single-shard row: one serving loop, no degradation ----
      // Served first, so the latency histogram and SLO tracker hold this
      // row alone when they are read here.
      stream::FleetServerConfig single = fleet_config(kSingleShardSessions);
      single.num_shards = 1;
      single.degrade_sessions_per_shard = 0;
      serve_row("single_shard.", kSingleShardSessions, single, false);
      auto& registry = obs::Registry::instance();
      const auto latency =
          registry.histogram("stream.window_to_verdict_seconds").snapshot();
      const auto slo =
          registry.slo("stream.window_to_verdict_seconds").snapshot();
      report.metric("single_shard.latency_p50_seconds", latency.p50);
      report.metric("single_shard.latency_p99_seconds", latency.p99);
      report.metric("single_shard.latency_max_seconds", latency.max);
      report.metric("single_shard.slo_breaches",
                    static_cast<double>(slo.breaches));
      report.metric("single_shard.slo_met", slo.met ? 1.0 : 0.0);
    }
    // ---- Grid (and checkpoint-mode first half) ----
    for (std::size_t gi = 0; gi < grid.size(); ++gi) {
      const std::size_t n = grid[gi];
      const std::string tag = "n" + std::to_string(n) + ".";
      serve_row(tag, n, fleet_config(n), mode == "checkpoint" && gi == 0);
      // Cumulative across rows (one process-wide histogram): the largest N
      // dominates the mass, earlier snapshots show the trend.
      const auto latency = obs::Registry::instance()
                               .histogram("stream.window_to_verdict_seconds")
                               .snapshot();
      report.metric(tag + "latency_p50_cumulative", latency.p50);
      report.metric(tag + "latency_p99_cumulative", latency.p99);
    }
  }

  if (mode.empty()) {
    // ---- Checkpoint/restore round trip on a fresh small fleet ----
    const std::size_t n = grid[0];
    const auto dir = bench::bench_output_dir() / "fleet_ckpt";
    std::filesystem::create_directories(dir);
    stream::FleetServer fleet{mapper, det.imu, det.gps, fleet_config(n)};
    std::vector<stream::RcaSession*> sessions(n, nullptr);
    auto cursors = make_cursors(n);
    for (std::size_t i = 0; i < n; ++i)
      sessions[i] = fleet.admit(static_cast<std::uint64_t>(i)).session;
    serve_phase(fleet, sessions, feeds, cursors, 0, half_ticks, duration);

    bench::Stopwatch ckpt_timer;
    const std::size_t written = fleet.checkpoint_all(dir.string());
    const double ckpt_wall = ckpt_timer.seconds();
    stream::FleetServer fleet2{mapper, det.imu, det.gps, fleet_config(n)};
    bench::Stopwatch restore_timer;
    std::size_t restored = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (fleet2
              .restore((dir / ("SESSION_" + std::to_string(i) + ".sbsess"))
                           .string())
              .session != nullptr)
        ++restored;
    const double restore_wall = restore_timer.seconds();
    const double ckpt_ms =
        written > 0 ? 1e3 * ckpt_wall / static_cast<double>(written) : 0.0;
    const double restore_ms =
        restored > 0 ? 1e3 * restore_wall / static_cast<double>(restored)
                     : 0.0;
    report.metric("checkpoint_sessions", static_cast<double>(written));
    report.metric("checkpoint_ms_per_session", ckpt_ms);
    report.metric("restore_ms_per_session", restore_ms);
    // Serve both fleets to the end of the flight and require bitwise
    // identical final reports — the restored fleet must be indistinguishable.
    auto cursors2 = cursors;
    std::vector<stream::RcaSession*> sessions2(n);
    for (std::size_t i = 0; i < n; ++i)
      sessions2[i] = fleet2.find(static_cast<std::uint64_t>(i));
    serve_phase(fleet, sessions, feeds, cursors, half_ticks, total_ticks,
                duration);
    serve_phase(fleet2, sessions2, feeds, cursors2, half_ticks, total_ticks,
                duration);
    std::size_t divergent = written == n && restored == written ? 0 : 1;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<std::uint64_t>(i);
      if (digest_report(id, fleet.finish(id)) !=
          digest_report(id, fleet2.finish(id)))
        ++divergent;
    }
    report.metric("restored_verdict_divergence",
                  static_cast<double>(divergent));
    if (divergent > 0) {
      std::fprintf(stderr,
                   "fleet_serving: checkpoint/restore round trip diverged "
                   "on %zu sessions\n", divergent);
      ok = false;
    } else {
      std::printf("fleet_serving: checkpoint/restore round trip: %zu "
                  "sessions, %.2f ms save / %.2f ms load per session, "
                  "0 divergent verdicts\n",
                  written, ckpt_ms, restore_ms);
    }

  }

  if (ml::plan_precision() == ml::PlanPrecision::kF32)
    ok = f32_drift_within_tolerance(mapper, feeds[0].flight, report) && ok;

  report.wall_seconds(total_wall);
  report.flush();

  // Self-check every JSON artifact this run produced (CI gates on this).
  const auto out = bench::bench_output_dir();
  ok = bench::validate_json_file(out / "BENCH_fleet_serving.json") && ok;
  if (obs::enabled())
    ok = bench::validate_json_file(out / "TRACE_fleet_serving.json") && ok;
  if (obs::recorder_enabled()) {
    // Every serving row force-dumps its first session, so session 0's black
    // box is mandatory wherever a row ran; further incident dumps that exist
    // must validate too.
    for (std::size_t i = 0; i < max_n; ++i) {
      const auto path = out / ("BLACKBOX_" + std::to_string(i) + ".jsonl");
      if ((i == 0 && mode != "restore") || std::filesystem::exists(path))
        ok = validate_jsonl_file(path) && ok;
    }
  }
  if (obs::telemetry_enabled())
    ok = validate_jsonl_file(obs::telemetry_path()) && ok;
  return ok ? 0 : 1;
}
