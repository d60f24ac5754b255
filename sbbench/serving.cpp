#include "serving.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace sbbench {
namespace {

using namespace sb;

// Pushes everything of `feed` recorded before flight time `until`.
void push_until(stream::RcaSession& session, const Feed& feed, Cursor& cur,
                double until) {
  const auto upto = static_cast<std::size_t>(
      std::min(until * feed.audio.sample_rate,
               static_cast<double>(feed.audio.num_samples())));
  if (upto > cur.audio) {
    acoustics::MultiChannelAudio chunk;
    chunk.sample_rate = feed.audio.sample_rate;
    for (std::size_t c = 0; c < sensors::kNumMics; ++c)
      chunk.channels[c].assign(feed.audio.channels[c].begin() + cur.audio,
                               feed.audio.channels[c].begin() + upto);
    session.push_audio(chunk);
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

// One line per session with round-trip precision: string equality is
// bitwise report equality.
std::string digest_line(std::uint64_t id, const core::RcaReport& r) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "%llu %d %d %.17g %.17g %zu %zu %zu\n",
                static_cast<unsigned long long>(id), r.imu_attacked ? 1 : 0,
                r.gps_attacked ? 1 : 0, r.imu_detect_time, r.gps_detect_time,
                r.health.windows_total, r.health.windows_degraded,
                r.health.imu_windows_skipped);
  return buf;
}

stream::FleetServerConfig fleet_config(const Serving& sv) {
  stream::FleetServerConfig fc;
  fc.num_shards = kShards;
  fc.session.sample_rate = sv.feeds.front().audio.sample_rate;
  return fc;
}

std::size_t backlog(const stream::FleetServer& fleet) {
  std::size_t n = 0;
  for (std::size_t s = 0; s < fleet.num_shards(); ++s)
    n += fleet.scheduler(s).backlog();
  return n;
}

// ---- Benchmark-driven single-shard replay (traced run) --------------------

struct ShardProbe {
  double take_us = 0.0;     // RcaSession::take_ready (signature prep)
  double forward_us = 0.0;  // SensoryMapper::predict_prepared
  double monitor_us = 0.0;  // RcaSession::deliver + poll_verdicts
  std::size_t windows = 0;
};

// Replays `feed_of` through sessions the benchmark drives itself:
// take_ready, batches of 16 through predict_prepared, deliver in seq order.
ShardProbe single_shard_replay(const Serving& sv,
                               const std::vector<std::size_t>& feed_of) {
  constexpr std::size_t kBatch = 16;
  ShardProbe p;
  const auto cfg = fleet_config(sv);
  std::vector<std::unique_ptr<stream::RcaSession>> sessions;
  std::vector<Cursor> cursors;
  for (std::size_t i = 0; i < feed_of.size(); ++i) {
    sessions.push_back(std::make_unique<stream::RcaSession>(
        i, sv.mapper, sv.imu, sv.gps, cfg.session));
    cursors.push_back({feed_of[i], 0, 0, 0});
  }
  std::vector<stream::RcaSession::ReadyWindow> ready;
  std::vector<std::size_t> owner;
  for (long k = 1; k <= total_ticks(sv); ++k) {
    const double t = std::min(static_cast<double>(k) * kTick, sv.duration);
    ready.clear();
    owner.clear();
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      push_until(*sessions[i], sv.feeds[cursors[i].feed], cursors[i], t);
      Stopwatch take_timer;
      auto windows = sessions[i]->take_ready();
      p.take_us += take_timer.us();
      for (auto& w : windows) {
        ready.push_back(std::move(w));
        owner.push_back(i);
      }
    }
    for (std::size_t b = 0; b < ready.size(); b += kBatch) {
      const std::size_t e = std::min(b + kBatch, ready.size());
      std::vector<ml::Tensor> sigs;
      std::vector<core::WindowSpan> spans;
      for (std::size_t w = b; w < e; ++w) {
        sigs.push_back(ready[w].signature);
        spans.push_back(ready[w].span);
      }
      Stopwatch fwd_timer;
      const auto preds = sv.mapper.predict_prepared(sigs, spans);
      p.forward_us += fwd_timer.us();
      Stopwatch mon_timer;
      for (std::size_t w = b; w < e; ++w) {
        sessions[owner[w]]->deliver(preds[w - b]);
        sessions[owner[w]]->poll_verdicts();
      }
      p.monitor_us += mon_timer.us();
      p.windows += e - b;
    }
  }
  return p;
}

}  // namespace

LiveFleet admit_fleet(const Serving& sv, const std::vector<std::size_t>& feed_of) {
  LiveFleet lf;
  lf.fleet = std::make_unique<stream::FleetServer>(sv.mapper, sv.imu, sv.gps,
                                                   fleet_config(sv));
  for (std::size_t i = 0; i < feed_of.size(); ++i) {
    const auto res = lf.fleet->admit(i);
    if (res.verdict != stream::Admission::kAdmitted) ++lf.rejected;
    lf.sessions.push_back(res.session);
    lf.cursors.push_back({feed_of[i], 0, 0, 0});
  }
  return lf;
}

// Tick times are k*kTick (never accumulated) so a restored fleet resumes on
// exactly the push boundaries of the fleet that checkpointed.
void serve_lockstep(LiveFleet& lf, const Serving& sv, long k_begin, long k_end,
                    ServeProbe* probe) {
  for (long k = k_begin + 1; k <= k_end; ++k) {
    const double t = std::min(static_cast<double>(k) * kTick, sv.duration);
    for (std::size_t i = 0; i < lf.sessions.size(); ++i) {
      if (lf.sessions[i] == nullptr) continue;
      Stopwatch push_timer;
      push_until(*lf.sessions[i], sv.feeds[lf.cursors[i].feed], lf.cursors[i], t);
      if (probe) {
        probe->push_us += push_timer.us();
        ++probe->push_ticks;
      }
      lf.sessions[i]->poll_verdicts();
    }
    Stopwatch pump_timer;
    lf.fleet->pump();
    if (probe) {
      probe->pump_ms.push_back(pump_timer.ms());
      probe->backlog_max = std::max(probe->backlog_max, backlog(*lf.fleet));
    }
  }
  lf.fleet->drain();
}

WindowTally tally(const stream::FleetServer& fleet) {
  WindowTally t{fleet.windows_inferred(), fleet.windows_shed(),
                fleet.windows_thinned(), 0};
  for (std::size_t s = 0; s < fleet.num_shards(); ++s)
    t.batches += fleet.scheduler(s).batches_run();
  return t;
}

Finished finish_all(LiveFleet& lf, const Serving& sv) {
  Finished out;
  for (std::size_t i = 0; i < lf.sessions.size(); ++i) {
    if (lf.sessions[i] == nullptr) continue;
    const auto r = lf.fleet->finish(i);
    out.digest += digest_line(i, r);
    out.masked += r.health.windows_degraded;
    const Feed& feed = sv.feeds[lf.cursors[i].feed];
    if (r.imu_attacked == feed.imu_attack && r.gps_attacked == feed.gps_attack)
      ++out.correct;
  }
  return out;
}

ReplayRound replay_round(const Serving& sv, const std::vector<std::size_t>& feed_of,
                         ServeProbe* probe,
                         const std::function<void(LiveFleet&)>& at_mid) {
  ReplayRound out;
  LiveFleet lf = admit_fleet(sv, feed_of);
  out.rejected = lf.rejected;
  const long ticks = total_ticks(sv);
  Stopwatch first_half;
  serve_lockstep(lf, sv, 0, ticks / 2, probe);
  out.serve_s = first_half.seconds();
  if (at_mid) at_mid(lf);
  Stopwatch second_half;
  serve_lockstep(lf, sv, ticks / 2, ticks, probe);
  out.windows = tally(*lf.fleet);
  out.reports = finish_all(lf, sv);
  out.serve_s += second_half.seconds();
  return out;
}

// The fleet is served lock-step up to `from` so the detectors' baselines and
// warm-ups fill before the paced span.
PacedResult paced_phase(const Serving& sv, const std::vector<std::size_t>& feed_of,
                        const std::vector<double>& offset, double from, double to) {
  PacedResult out;
  LiveFleet lf = admit_fleet(sv, feed_of);
  out.rejected = lf.rejected;
  const std::size_t n = lf.sessions.size();
  serve_lockstep(lf, sv, 0, std::lround(from / kTick));
  for (auto* s : lf.sessions) s->poll_verdicts();

  const long first_chunk = std::lround(from / kPacedChunk);
  const long last_chunk = std::lround(std::min(to, sv.duration) / kPacedChunk);
  std::vector<long> next(n, first_chunk + 1);  // next chunk, per session
  constexpr double kSegment = 1.0;  // latency rounds, s of schedule time
  std::vector<std::vector<double>> segments;

  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  // Scheduled release of chunk j (the one ending at flight time j * chunk).
  auto due = [&](std::size_t i, long j) {
    return offset[i] + static_cast<double>(j - first_chunk) * kPacedChunk;
  };
  auto poll_all = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      const auto events = lf.sessions[i]->poll_verdicts();
      if (events.empty()) continue;
      const double now = seconds_since(t0);
      for (const auto& e : events) {
        // The chunk whose release completed the deciding window.
        const long j = static_cast<long>(
            std::ceil(e.decided_at / kPacedChunk - 1e-9));
        const double released = due(i, j);
        out.latency_ms.push_back(1e3 * (now - released));
        const auto seg = static_cast<std::size_t>(std::max(0.0, released) / kSegment);
        if (segments.size() <= seg) segments.resize(seg + 1);
        segments[seg].push_back(out.latency_ms.back());
      }
    }
  };

  for (;;) {
    const double now = seconds_since(t0);
    bool pushed = false, pending = false;
    double next_due = 1e300;
    for (std::size_t i = 0; i < n; ++i) {
      long j = next[i];
      while (j <= last_chunk && due(i, j) <= now) {
        out.late_ms.push_back(1e3 * (now - due(i, j)));
        ++j;
      }
      if (j > next[i]) {
        push_until(*lf.sessions[i], sv.feeds[lf.cursors[i].feed], lf.cursors[i],
                   std::min(static_cast<double>(j - 1) * kPacedChunk, sv.duration));
        next[i] = j;
        pushed = true;
      }
      if (j <= last_chunk) {
        pending = true;
        next_due = std::min(next_due, due(i, j));
      }
    }
    if (pushed) {
      // Serve until the queues are empty; poll every session after each
      // pump.
      do {
        lf.fleet->pump();
        poll_all();
      } while (backlog(*lf.fleet) != 0);
    }
    if (!pending) break;
    // Sleep to within a millisecond of the next release, then spin, so the
    // OS timer slack stays out of the measured latency.
    for (double wait = next_due - seconds_since(t0); wait > 0.0;
         wait = next_due - seconds_since(t0)) {
      if (wait > 1e-3)
        std::this_thread::sleep_for(std::chrono::duration<double>(wait - 1e-3));
      else
        std::this_thread::yield();
    }
  }
  lf.fleet->drain();
  poll_all();
  out.windows = tally(*lf.fleet);
  for (const auto& seg : segments)
    if (seg.size() >= 20) {
      out.seg_p50.push_back(quantile(seg, 0.5));
      out.seg_p90.push_back(quantile(seg, 0.9));
    }
  return out;
}

// The n/2 cohorts' window completions are evenly spaced across the window
// stride, and sessions are dealt to cohorts in shard order, so the two
// sessions of a cohort sit on different shards and one pump serves them in
// parallel.  The cohort shape is the same for every seed; the seed decides
// which session joins which cohort.  (One singleton cohort per session would
// keep the single serving thread of a 64-session fleet about 3/4 busy, since
// each pump would carry one window: near saturation, where latency measures
// queueing noise.)
std::vector<double> paced_offsets(std::size_t n, Rng& rng) {
  std::vector<double> offset(n);
  const std::size_t cohorts = std::max<std::size_t>(1, n / 2);
  std::vector<std::vector<std::size_t>> by_shard(kShards);
  for (std::size_t i : rng.permutation(n))
    by_shard[stream::FleetServer::shard_of(i, kShards)].push_back(i);
  std::size_t k = 0;
  for (const auto& ids : by_shard)
    for (std::size_t i : ids) {
      const std::size_t cohort = k % cohorts;
      offset[i] = kStride * (static_cast<double>(cohort) /
                                 static_cast<double>(cohorts) +
                             static_cast<double>(cohort % 4));
      ++k;
    }
  return offset;
}

LiveFleet migrate(const Serving& sv, const LiveFleet& src, int reps,
                  const std::string& dir, MigrateStats& st) {
  const std::size_t n = src.sessions.size();
  std::filesystem::create_directories(dir);
  LiveFleet dst;
  double spent_s = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch ckpt_timer;
    st.written = src.fleet->checkpoint_all(dir);
    const double ckpt_s = ckpt_timer.seconds();
    dst = LiveFleet{};
    dst.fleet = std::make_unique<stream::FleetServer>(sv.mapper, sv.imu, sv.gps,
                                                      fleet_config(sv));
    dst.sessions.assign(n, nullptr);
    dst.cursors = src.cursors;
    st.restored = 0;
    Stopwatch restore_timer;
    for (std::size_t i = 0; i < n; ++i) {
      const auto res =
          dst.fleet->restore(dir + "/SESSION_" + std::to_string(i) + ".sbsess");
      dst.sessions[i] = res.session;
      if (res.session != nullptr) ++st.restored;
    }
    const double restore_s = restore_timer.seconds();
    st.restore_attempts += n;
    st.restore_failures += n - st.restored;
    st.checkpoint_ms += 1e3 * ckpt_s;
    st.restore_ms += 1e3 * restore_s;
    spent_s += ckpt_s + restore_s;
  }
  st.ms_per_session.push_back(1e3 * spent_s /
                              (static_cast<double>(reps) * static_cast<double>(n)));
  st.checkpoint_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    st.checkpoint_bytes += entry.file_size();
  return dst;
}

void gate_windows(Result& res, const WindowTally& w, std::size_t rejected,
                  std::size_t sessions, const char* phase) {
  const std::size_t staged = w.inferred + w.shed + w.thinned;
  res.ops(staged, w.shed + w.thinned);
  res.ops(sessions, rejected);
  res.gate(w.shed == 0, std::string{phase} + ": windows shed");
  res.gate(w.thinned == 0, std::string{phase} + ": windows thinned");
  res.gate(rejected == 0, std::string{phase} + ": sessions rejected");
  res.gate(w.inferred > 0, std::string{phase} + ": no window inferred");
}

StreamTotals trace_stream_layers(Result& res, const Serving& sv,
                                 const std::vector<std::size_t>& feed_of,
                                 const std::vector<double>& offset,
                                 double paced_from, double paced_to,
                                 const std::string& dir) {
  StreamTotals tot;
  const double streamed = static_cast<double>(feed_of.size()) * sv.duration;
  const double n = static_cast<double>(feed_of.size());
  const long ticks = total_ticks(sv);

  // Untraced vs traced replay rounds, interleaved, for the overhead ratio;
  // the counters and histograms are read over the last traced round.
  auto& reg = obs::Registry::instance();
  std::vector<double> plain_x, traced_x;
  ServeProbe probe;
  ReplayRound traced;
  for (int r = 0; r < 2; ++r) {
    obs::set_enabled(false);
    plain_x.push_back(streamed / replay_round(sv, feed_of).serve_s);
    obs::set_enabled(true);
    for (const char* h : {"stream.window_to_verdict_seconds",
                          "pool.queue_wait_seconds", "pool.task_run_seconds"})
      reg.histogram(h).reset();
    reg.counter("pool.tasks").reset();
    const std::uint64_t flops0 = counter("gemm.flops");
    const std::uint64_t calls0 = counter("gemm.calls");
    const std::uint64_t fft0 = counter("fft.plan_hits") + counter("fft.plan_misses");
    probe = ServeProbe{};
    traced = replay_round(sv, feed_of, &probe);
    traced_x.push_back(streamed / traced.serve_s);
    tot.gemm_flops = counter("gemm.flops") - flops0;
    tot.gemm_calls = counter("gemm.calls") - calls0;
    tot.fft_calls = counter("fft.plan_hits") + counter("fft.plan_misses") - fft0;
    obs::Trace::instance().clear();
  }
  gate_windows(res, traced.windows, traced.rejected, feed_of.size(),
               "traced replay");
  tot.plain_x = median(plain_x);
  tot.traced_x = median(traced_x);
  tot.windows = traced.windows.inferred;
  tot.masked = traced.reports.masked;
  tot.pool_queue_wait_us =
      1e6 * reg.histogram("pool.queue_wait_seconds").percentile(50);
  tot.pool_task_run_us = 1e6 * reg.histogram("pool.task_run_seconds").percentile(50);
  tot.pool_tasks = counter("pool.tasks");

  const auto& w = traced.windows;
  const double inferred = static_cast<double>(w.inferred);
  const double staged = static_cast<double>(w.inferred + w.shed + w.thinned);
  res.metric("stream.pump_ms.p50", quantile(probe.pump_ms, 0.5), "ms");
  res.metric("stream.pump_ms.p90", quantile(probe.pump_ms, 0.9), "ms");
  res.metric("stream.push_us_per_tick",
             probe.push_us / static_cast<double>(probe.push_ticks), "us");
  res.metric("stream.queue_wait_ms.p50",
             1e3 * reg.histogram("stream.window_to_verdict_seconds").percentile(50),
             "ms");
  res.metric("stream.backlog_max", static_cast<double>(probe.backlog_max),
             "windows");
  res.metric("stream.batch_fill",
             inferred / (static_cast<double>(w.batches) *
                         static_cast<double>(stream::InferenceSchedulerConfig{}.max_batch)),
             "frac");
  res.metric("stream.shed_frac", static_cast<double>(w.shed) / staged, "frac");
  res.metric("stream.thinned_frac", static_cast<double>(w.thinned) / staged,
             "frac");
  res.metric("stream.batches_run", static_cast<double>(w.batches), "count");

  // The layers a pump hides, split by a replay the benchmark drives itself
  // over one shard's worth of sessions.
  {
    const std::size_t shard_sessions = std::max<std::size_t>(1, feed_of.size() / kShards);
    const std::vector<std::size_t> shard_feeds(
        feed_of.begin(), feed_of.begin() + static_cast<std::ptrdiff_t>(shard_sessions));
    const auto sp = single_shard_replay(sv, shard_feeds);
    obs::Trace::instance().clear();
    const double nw = static_cast<double>(sp.windows);
    res.gate(sp.windows > 0, "single-shard replay inferred nothing");
    res.metric("stream.take_ready_us_per_window", sp.take_us / nw, "us");
    res.metric("ml.forward_us_per_window.b16", sp.forward_us / nw, "us");
    res.metric("stream.monitor_us_per_window", sp.monitor_us / nw, "us");
  }

  // Open-loop generator lateness and the latency tail, on one untraced paced
  // round.  The tail is reported here, unbounded, because it tracks the host
  // more than the program: on a 4-vCPU VM its 1 s segments flip between
  // ~3 ms and 5-9 ms as the host's load changes within a run.  A fleet too
  // small to fill a 1 s segment with 20 verdicts reports the pooled p90.
  {
    obs::set_enabled(false);
    const auto paced = paced_phase(sv, feed_of, offset, paced_from, paced_to);
    obs::set_enabled(true);
    gate_windows(res, paced.windows, paced.rejected, feed_of.size(), "paced");
    res.metric("stream.gen_late_ms.p99", quantile(paced.late_ms, 0.99), "ms");
    res.metric("stream.verdict_p90_ms",
               paced.seg_p90.empty() ? quantile(paced.latency_ms, 0.9)
                                     : median(paced.seg_p90),
               "ms");
  }

  // Migration round trip at mid-flight; the restored fleet serves the
  // second half and must end with the original fleet's reports.
  {
    MigrateStats mig;
    LiveFleet restored;
    const auto round = replay_round(sv, feed_of, nullptr, [&](LiveFleet& lf) {
      restored = migrate(sv, lf, 1, dir, mig);
    });
    serve_lockstep(restored, sv, ticks / 2, ticks);
    res.gate(finish_all(restored, sv).digest == round.reports.digest,
             "migrated fleet's reports differ from the uninterrupted fleet");
    obs::Trace::instance().clear();
    res.ops(mig.restore_attempts, mig.restore_failures);
    res.gate(mig.restored == feed_of.size(), "migrate: restores rejected");
    res.metric("stream.checkpoint_bytes", static_cast<double>(mig.checkpoint_bytes),
               "bytes");
    res.metric("stream.checkpoint_bytes_per_session",
               static_cast<double>(mig.checkpoint_bytes) / n, "bytes");
    res.metric("stream.checkpoint_ms_per_session", mig.checkpoint_ms / n, "ms");
    res.metric("stream.restore_ms_per_session", mig.restore_ms / n, "ms");
  }

  // Scaling baseline and steady-state heap discipline at one thread: heap
  // fetches over the second half of a replay (the GPS monitors warm their
  // first scratch sizes a few seconds in).
  {
    obs::set_enabled(false);
    util::ThreadPool::set_threads(1);
    LiveFleet lf = admit_fleet(sv, feed_of);
    Stopwatch t;
    serve_lockstep(lf, sv, 0, ticks / 2);
    const std::uint64_t heap0 = counter("ml.workspace.heap_allocs");
    serve_lockstep(lf, sv, ticks / 2, ticks);
    const std::uint64_t heap = counter("ml.workspace.heap_allocs") - heap0;
    finish_all(lf, sv);
    res.metric("stream.replay_realtime_x.t1", streamed / t.seconds(),
               "stream-s/s");
    res.metric("ml.steady_heap_allocs", static_cast<double>(heap), "count");
    util::ThreadPool::set_threads(kThreads);
    obs::set_enabled(true);
  }
  return tot;
}

}  // namespace sbbench
