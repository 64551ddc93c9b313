// Batched, parallel execution of roundtrip queries against one built scheme.
//
// The serving model the ROADMAP aims at: a scheme is preprocessed once, then
// answers heavy streams of (src, dst) roundtrip queries.  The engine shards a
// batch across a std::thread worker pool (scheme tables are immutable after
// construction, so forwarding is embarrassingly parallel), gives every worker
// its own deterministic Rng for pair sampling, and folds the per-worker
// stretch summaries into one StretchReport.
//
// Every batch entry point takes one BatchOptions knob bag (pair budget,
// sampling seed, per-call worker cap):
//
//   * run_batch(queries, opts)  -- explicit batch; result independent of the
//                                  worker count (static sharding).
//   * run_sampled(opts)         -- samples `opts.pair_budget` ordered pairs,
//                                  exhaustive when the budget covers all
//                                  n(n-1) pairs.  The pair list is drawn from
//                                  Rng(opts.seed) before sharding, so the
//                                  report is a function of (budget, seed)
//                                  alone -- identical for every worker count
//                                  (the determinism regression test pins it).
//   * serve(src, dst)           -- one query on the caller's thread, typed
//                                  ServingResult, never throws; the serving
//                                  stack's entry point.
//
// Every entry point walks through Scheme::simulate, the one forwarding walk.
// All members are const; one engine may be shared by many caller threads.
#ifndef RTR_NET_QUERY_ENGINE_H
#define RTR_NET_QUERY_ENGINE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/names.h"
#include "net/scheme.h"
#include "net/serving.h"
#include "net/simulator.h"
#include "rt/metric.h"

namespace rtr {

/// Aggregated stretch measurements for one batch of roundtrip queries.
struct StretchReport {
  std::int64_t pairs = 0;
  std::int64_t failures = 0;
  /// Queries rejected before simulation (src == dst, or a NodeId outside
  /// [0, n)).  Also counted in `failures`, so failures == 0 still means
  /// "everything routed".
  std::int64_t invalid = 0;
  double mean_stretch = 0;
  double p99_stretch = 0;
  double max_stretch = 0;
  std::int64_t max_header_bits = 0;
  double wall_seconds = 0;  // batch execution time (excludes preprocessing)
  /// Message of the earliest failure in the batch (lowest query index, so it
  /// is independent of the worker count); empty when failures == 0.  This is
  /// how scheme bugs surface in bench/CLI output instead of being an
  /// anonymous failure count.
  std::string first_error;
};

struct RoundtripQuery {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
};

struct QueryEngineOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency() (min 1).
  int threads = 0;
};

/// The one knob bag every batch entry point shares.  Replaces the former
/// loose (budget, seed) parameter overloads.
struct BatchOptions {
  /// Pairs run_sampled draws; ignored by run_batch (the caller's batch is
  /// the pair list there).
  std::int64_t pair_budget = 0;
  /// Sampling seed for run_sampled's pair list.
  std::uint64_t seed = 0;
  /// Per-call worker cap; 0 uses the engine's configured width.  The report
  /// never depends on this (static sharding), only the wall time does.
  int threads = 0;
};

class QueryEngine {
 public:
  /// The metric is optional (stretch denominators); without it reports carry
  /// delivery/failure counts and header sizes but zero stretch figures.
  QueryEngine(std::shared_ptr<const Digraph> graph,
              std::shared_ptr<const RoundtripMetric> metric,
              NameAssignment names, std::shared_ptr<const Scheme> scheme,
              QueryEngineOptions options = {});

  /// Builds the named scheme from the registry over ctx and binds an engine.
  static QueryEngine from_registry(const SchemeRegistry& registry,
                                   const std::string& scheme_name,
                                   const BuildContext& ctx,
                                   QueryEngineOptions options = {});

  [[nodiscard]] const Scheme& scheme() const { return *scheme_; }
  [[nodiscard]] const std::shared_ptr<const Scheme>& scheme_ptr() const {
    return scheme_;
  }
  [[nodiscard]] const Digraph& graph() const { return *graph_; }
  [[nodiscard]] const NameAssignment& names() const { return names_; }
  [[nodiscard]] int worker_count() const { return threads_; }

  /// The pair list run_sampled routes: every ordered pair once when the
  /// budget covers all n(n-1) of them, otherwise `pair_budget` pairs drawn
  /// from Rng(seed) by rejection sampling (a draw with s == t is redrawn
  /// whole, so every ordered pair s != t is equally likely -- remapping the
  /// collision to a neighbour would double-weight the pairs (s, s+1 mod n)).
  [[nodiscard]] static std::vector<RoundtripQuery> sample_pairs(
      NodeId n, std::int64_t pair_budget, std::uint64_t seed);

  /// One roundtrip as a typed ServingResult; never throws.  Out-of-range ids
  /// and src == dst come back kInvalidQuery, a scheme exception
  /// kSchemeFailure (message = e.what()), an undelivered leg kUnreachable.
  /// `epoch` is left 0 -- the serving layer that pinned an epoch fills it in.
  [[nodiscard]] ServingResult serve(NodeId src, NodeId dst) const;

  /// Executes the batch across the worker pool.
  ///
  /// Layout: a serial prepass validates every query once and transposes the
  /// batch into structure-of-arrays form (src / dst / resolved destination
  /// name in separate contiguous arrays), so the worker hot loop runs the
  /// simulator back-to-back with no per-query validation branches, no name
  /// lookups, and sequential operand reads.  The report is identical to the
  /// reference loop for any worker count.
  [[nodiscard]] StretchReport run_batch(
      const std::vector<RoundtripQuery>& queries,
      const BatchOptions& options = {}) const;

  /// Test oracle: a plain single-thread loop over the same batch in
  /// array-of-structs layout (per-query validate + name lookup inline) over
  /// the same Scheme::simulate walk.  The tests compare run_batch's report
  /// against it, which pins run_batch's prepass and sharding.
  [[nodiscard]] StretchReport run_serial(
      const std::vector<RoundtripQuery>& queries) const;

  /// Samples `options.pair_budget` ordered pairs (exhaustive if the budget
  /// covers all of them).  The sample is drawn from Rng(options.seed) up
  /// front and sharded via run_batch, so the report does not depend on the
  /// worker count.
  [[nodiscard]] StretchReport run_sampled(const BatchOptions& options) const;

 private:
  struct WorkerTally;
  struct BatchPlan;

  void run_range(const std::vector<RoundtripQuery>& queries, std::size_t begin,
                 std::size_t end, WorkerTally& tally) const;
  void run_one(std::size_t index, NodeId src, NodeId dst,
               WorkerTally& tally) const;
  void run_one_resolved(std::size_t index, NodeId src, NodeId dst,
                        NodeName dst_name, WorkerTally& tally) const;
  void run_span(const BatchPlan& plan, std::size_t begin, std::size_t end,
                WorkerTally& tally) const;
  [[nodiscard]] StretchReport finalize(std::vector<WorkerTally> tallies,
                                       double wall_seconds) const;
  /// Worker count for a batch of `work` items under a per-call cap.
  [[nodiscard]] int effective_workers(int cap, std::size_t work) const;

  std::shared_ptr<const Digraph> graph_;
  std::shared_ptr<const RoundtripMetric> metric_;
  NameAssignment names_;
  std::shared_ptr<const Scheme> scheme_;
  int threads_;
};

}  // namespace rtr

#endif  // RTR_NET_QUERY_ENGINE_H
