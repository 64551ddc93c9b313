// Open-loop load generation: requests go out on a fixed schedule whatever
// the system under test does, and each is timed from the moment it was DUE,
// so a stall is charged to every request it delays.
//
// Each generator thread sends its share of the schedule one request at a
// time.  Before a request it sleeps until the due time; the wake-up
// overshoot of that sleep is the generator's own lateness, recorded apart
// from the request latency.  A request that is already overdue when the
// previous answer lands goes out at once and records no lateness (the delay
// is the system's, and it is inside the request latency).
//
// Linux pads every timed sleep by the thread's timer slack (50 us by
// default).  The generator threads set theirs to 1 ns, and only theirs.
// An in-process generator busy-waits for each due time instead
// (OpenLoopPlan::busy_wait), so a request of a few us is not timed mostly as
// the thread's own wake-up; it then holds one core for the whole phase.
//
// Latency is also kept per block of the phase, so a caller can summarize
// the blocks (median or lowest block) instead of pooling every request: a
// burst of load from outside the program then spoils a few blocks, not the
// figure.
#ifndef PERFBENCH_OPENLOOP_H
#define PERFBENCH_OPENLOOP_H

#include <sys/prctl.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "server/latency_histogram.h"
#include "trace.h"

namespace perfbench {

/// Minimal timer slack for the calling thread only.
inline void set_minimal_timer_slack() {
  if (::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL) != 0) {
    throw std::runtime_error("prctl(PR_SET_TIMERSLACK) failed");
  }
}

struct LoadStats {
  rtr::LatencyHistogram latency;   ///< due time -> answer, ns
  rtr::LatencyHistogram lateness;  ///< sleep overshoot, ns
  /// `latency` split by due time into consecutive blocks of the phase.
  std::vector<rtr::LatencyHistogram> blocks;
  std::int64_t attempted = 0;
  std::int64_t delivered = 0;
  double offered_qps = 0;
  /// From the first due time to the end of the phase (the deadline, or the
  /// last answer if that came later).
  double wall_s = 0;

  [[nodiscard]] double achieved_qps() const {
    return wall_s > 0 ? static_cast<double>(attempted) / wall_s : 0.0;
  }

  /// Adds a later phase at the same offered rate: its blocks follow ours.
  void append(const LoadStats& later) {
    latency.merge(later.latency);
    lateness.merge(later.lateness);
    blocks.insert(blocks.end(), later.blocks.begin(), later.blocks.end());
    attempted += later.attempted;
    delivered += later.delivered;
    offered_qps = later.offered_qps;
    wall_s += later.wall_s;
  }

  /// Quantile p of each block with at least `min_count` answers (a cut
  /// block at a phase's edge is left out), in ns.
  [[nodiscard]] std::vector<std::int64_t> block_quantiles(
      double p, std::int64_t min_count) const {
    std::vector<std::int64_t> v;
    for (const auto& b : blocks) {
      if (b.count() >= min_count) v.push_back(b.percentile(p));
    }
    if (v.empty()) throw std::runtime_error("open loop: no complete block");
    return v;
  }

  /// Median over blocks of each block's quantile p, in ns.
  [[nodiscard]] double block_median(double p, std::int64_t min_count) const {
    std::vector<std::int64_t> v = block_quantiles(p, min_count);
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? static_cast<double>(v[m])
                             : (static_cast<double>(v[m - 1]) +
                                static_cast<double>(v[m])) / 2.0;
  }

  /// The lowest block's quantile p, in ns: the latency in the quietest
  /// stretch of the host.
  [[nodiscard]] double block_best(double p, std::int64_t min_count) const {
    const std::vector<std::int64_t> v = block_quantiles(p, min_count);
    return static_cast<double>(*std::min_element(v.begin(), v.end()));
  }
};

/// One request of a generator thread: (thread index, request index within
/// that thread) -> delivered.  Throwing aborts the whole phase.
using IssueFn = std::function<bool(int thread, std::int64_t index)>;

struct OpenLoopPlan {
  int threads = 1;
  double total_qps = 0;
  double seconds = 0;
  /// Length of one latency block (LoadStats::blocks).
  double block_seconds = 0.5;
  /// Busy-wait for each due time instead of sleeping.
  bool busy_wait = false;
};

/// Runs plan.threads generator threads that together offer plan.total_qps
/// for plan.seconds.  Thread t's k-th request is due at
///   start + (k + t / threads) * threads / total_qps,
/// so the merged schedule is evenly spaced.
inline LoadStats run_open_loop(const OpenLoopPlan& plan, const IssueFn& issue) {
  const int threads = plan.threads;
  if (threads < 1 || plan.total_qps <= 0 || plan.seconds <= 0 ||
      plan.block_seconds <= 0) {
    throw std::invalid_argument("run_open_loop: bad rate, threads or length");
  }
  const std::uint64_t parent = t_open_span;
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 * threads / plan.total_qps));
  const auto block = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 * plan.block_seconds));
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto deadline =
      start + std::chrono::nanoseconds(
                  static_cast<std::int64_t>(plan.seconds * 1e9));

  std::vector<LoadStats> per_thread(static_cast<std::size_t>(threads));
  // When each thread's part of the phase ended: its deadline, or the last
  // answer if that landed later.
  std::vector<Clock::time_point> ended(static_cast<std::size_t>(threads),
                                       start);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const auto ti = static_cast<std::size_t>(t);
      try {
        set_minimal_timer_slack();
        const AdoptParent adopt(parent);
        LoadStats& stats = per_thread[ti];
        const auto offset = interval * t / threads;
        for (std::int64_t k = 0;; ++k) {
          const Clock::time_point due = start + offset + interval * k;
          if (due >= deadline) {
            ended[ti] = std::max(ended[ti], deadline);
            break;
          }
          if (Clock::now() < due) {
            if (plan.busy_wait) {
              while (Clock::now() < due) {
              }
            } else {
              std::this_thread::sleep_until(due);
            }
            stats.lateness.record((Clock::now() - due).count());
          }
          const bool ok = issue(t, k);
          const Clock::time_point done = Clock::now();
          const std::int64_t latency = (done - due).count();
          stats.latency.record(latency);
          const auto b = static_cast<std::size_t>((due - start) / block);
          if (stats.blocks.size() <= b) stats.blocks.resize(b + 1);
          stats.blocks[b].record(latency);
          ++stats.attempted;
          if (ok) ++stats.delivered;
          ended[ti] = done;
        }
      } catch (...) {
        errors[ti] = std::current_exception();
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // Threads share the block grid: block i of every thread covers the same
  // stretch of the schedule.
  LoadStats total;
  for (const auto& s : per_thread) {
    total.latency.merge(s.latency);
    total.lateness.merge(s.lateness);
    if (total.blocks.size() < s.blocks.size()) {
      total.blocks.resize(s.blocks.size());
    }
    for (std::size_t i = 0; i < s.blocks.size(); ++i) {
      total.blocks[i].merge(s.blocks[i]);
    }
    total.attempted += s.attempted;
    total.delivered += s.delivered;
  }
  total.offered_qps = plan.total_qps;
  total.wall_s = std::chrono::duration<double>(
                     *std::max_element(ended.begin(), ended.end()) - start)
                     .count();
  return total;
}

}  // namespace perfbench

#endif  // PERFBENCH_OPENLOOP_H
