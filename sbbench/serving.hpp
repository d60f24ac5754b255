// Stream serving shared by both workloads: feeds replayed as live sessions
// through a sharded stream::FleetServer, lock-step or paced at 1x flight
// time, checkpoint/restore, and the traced per-layer probe of the stream
// layer.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/flight_lab.hpp"
#include "core/gps_rca.hpp"
#include "core/imu_rca.hpp"
#include "core/sensory_mapper.hpp"
#include "stream/fleet_server.hpp"
#include "util/rng.hpp"

namespace sbbench {

constexpr double kTick = 0.1;         // lock-step round, flight seconds
constexpr double kPacedChunk = 0.05;  // open-loop release granularity, s
constexpr std::size_t kShards = 4;

// One recorded flight, rendered, that sessions replay read-only.
struct Feed {
  sb::core::Flight flight;
  sb::acoustics::MultiChannelAudio audio;
  bool imu_attack = false;
  bool gps_attack = false;
};

// What a fleet serves: the model, the calibrated detectors and the feeds.
// Non-owning; everything must outlive the fleets built from it.
struct Serving {
  const sb::core::SensoryMapper& mapper;
  const sb::core::ImuRcaDetector& imu;
  const sb::core::GpsRcaDetector& gps;
  std::span<const Feed> feeds;
  double duration;  // flight seconds served per session
};

struct Cursor {
  std::size_t feed = 0;
  std::size_t audio = 0;
  std::size_t imu = 0;
  std::size_t gps = 0;
};

// A fleet with every session admitted, plus the per-session feed cursors.
struct LiveFleet {
  std::unique_ptr<sb::stream::FleetServer> fleet;
  std::vector<sb::stream::RcaSession*> sessions;
  std::vector<Cursor> cursors;
  std::size_t rejected = 0;
};

LiveFleet admit_fleet(const Serving& sv, const std::vector<std::size_t>& feed_of);

// Per-layer probes of a lock-step serve (null = untimed).
struct ServeProbe {
  std::vector<double> pump_ms;
  double push_us = 0.0;
  std::size_t push_ticks = 0;
  std::size_t backlog_max = 0;
};

// Lock-step rounds over ticks (k_begin, k_end]: every live session is pushed
// up to k*kTick and polled, then the fleet pumps once; drains at the end.
void serve_lockstep(LiveFleet& lf, const Serving& sv, long k_begin, long k_end,
                    ServeProbe* probe = nullptr);

inline long total_ticks(const Serving& sv) { return std::lround(sv.duration / kTick); }

struct WindowTally {
  std::size_t inferred = 0, shed = 0, thinned = 0, batches = 0;
};

WindowTally tally(const sb::stream::FleetServer& fleet);

// Final reports of every session: a digest whose equality is bitwise report
// equality, the sessions whose verdicts match their feed's ground truth and
// the windows the reports count as degraded.
struct Finished {
  std::string digest;
  std::size_t correct = 0;
  std::size_t masked = 0;
};

Finished finish_all(LiveFleet& lf, const Serving& sv);

struct ReplayRound {
  double serve_s = 0.0;
  Finished reports;
  std::size_t rejected = 0;
  WindowTally windows;
};

// One full lock-step replay round on a fresh fleet, served in two halves
// (the fleet drains at mid-flight).  `at_mid`, when set, runs off the clock
// between the halves with the quiescent fleet.
ReplayRound replay_round(const Serving& sv, const std::vector<std::size_t>& feed_of,
                         ServeProbe* probe = nullptr,
                         const std::function<void(LiveFleet&)>& at_mid = {});

struct PacedResult {
  std::vector<double> latency_ms;  // every verdict event
  std::vector<double> seg_p50, seg_p90;  // per 1 s schedule segment
  std::vector<double> late_ms;     // generator lateness per release
  std::size_t rejected = 0;
  WindowTally windows;
};

// Serves a fresh fleet lock-step up to flight time `from`, then releases
// [from, to) in kPacedChunk chunks at 1x flight time, session i offset by
// offset[i] seconds; every session is polled right after each pump.
PacedResult paced_phase(const Serving& sv, const std::vector<std::size_t>& feed_of,
                        const std::vector<double>& offset, double from, double to);

// Open-loop start offsets for `n` sessions, seeded: sessions launch in
// cross-shard pairs whose window completions are evenly spaced over the
// window stride.
std::vector<double> paced_offsets(std::size_t n, sb::Rng& rng);

struct MigrateStats {
  std::vector<double> ms_per_session;            // one value per call
  double checkpoint_ms = 0.0, restore_ms = 0.0;  // totals over every rep
  std::size_t written = 0, restored = 0;  // by the last repetition
  std::size_t restore_attempts = 0, restore_failures = 0;
  std::uint64_t checkpoint_bytes = 0;  // one checkpoint_all
};

// Checkpoints the quiescent fleet `src` (checkpoint_all) and restores every
// session into a fresh fleet of the same layout, `reps` times; returns the
// last restored fleet, positioned where `src` is.
LiveFleet migrate(const Serving& sv, const LiveFleet& src, int reps,
                  const std::string& dir, MigrateStats& st);

// Counts a phase's windows and admissions as operations and gates zero
// shed, thinned and rejected.
void gate_windows(Result& res, const WindowTally& w, std::size_t rejected,
                  std::size_t sessions, const char* phase);

// Totals of the traced replay round, for a workload whose main phase is
// that replay.
struct StreamTotals {
  double plain_x = 0.0, traced_x = 0.0;  // median replay flight-s/s
  std::uint64_t gemm_flops = 0, gemm_calls = 0, fft_calls = 0;
  std::size_t windows = 0, masked = 0;
  double pool_queue_wait_us = 0.0, pool_task_run_us = 0.0;
  std::uint64_t pool_tasks = 0;
};

// Traced run: reports every stream.* per-layer metric, plus
// ml.forward_us_per_window.b16 and ml.steady_heap_allocs, from replay,
// single-shard, paced, migration and one-thread rounds over `sv`.
StreamTotals trace_stream_layers(Result& res, const Serving& sv,
                                 const std::vector<std::size_t>& feed_of,
                                 const std::vector<double>& offset,
                                 double paced_from, double paced_to,
                                 const std::string& dir);

}  // namespace sbbench
