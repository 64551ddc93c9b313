#include "net/query_engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "util/stats.h"

namespace rtr {

namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

struct QueryEngine::WorkerTally {
  std::int64_t pairs = 0;
  std::int64_t failures = 0;
  std::int64_t invalid = 0;
  std::int64_t max_header_bits = 0;
  Summary stretch;
  // Earliest failure this worker saw, keyed by the query's batch index so
  // finalize() can pick the batch-wide first deterministically regardless of
  // how the batch was sharded.
  std::size_t first_error_index = SIZE_MAX;
  std::string first_error;

  /// `make_message` is only invoked when this failure is the earliest the
  /// worker has seen, so an all-fail batch does not allocate a message
  /// string per query.
  template <typename MakeMessage>
  void note_failure(std::size_t index, MakeMessage&& make_message) {
    ++failures;
    if (index < first_error_index) {
      first_error_index = index;
      first_error = make_message();
    }
  }
};

QueryEngine::QueryEngine(std::shared_ptr<const Digraph> graph,
                         std::shared_ptr<const RoundtripMetric> metric,
                         NameAssignment names,
                         std::shared_ptr<const Scheme> scheme,
                         QueryEngineOptions options)
    : graph_(std::move(graph)),
      metric_(std::move(metric)),
      names_(std::move(names)),
      scheme_(std::move(scheme)) {
  if (graph_ == nullptr || scheme_ == nullptr) {
    throw std::invalid_argument("QueryEngine: null graph or scheme");
  }
  if (names_.node_count() != graph_->node_count()) {
    throw std::invalid_argument("QueryEngine: names do not match the graph");
  }
  threads_ = options.threads > 0
                 ? options.threads
                 : std::max(1, static_cast<int>(
                                   std::thread::hardware_concurrency()));
}

QueryEngine QueryEngine::from_registry(const SchemeRegistry& registry,
                                       const std::string& scheme_name,
                                       const BuildContext& ctx,
                                       QueryEngineOptions options) {
  auto scheme = registry.build(scheme_name, ctx);
  return QueryEngine(ctx.graph, ctx.metric, ctx.names, std::move(scheme),
                     options);
}

void QueryEngine::run_one(std::size_t index, NodeId src, NodeId dst,
                          WorkerTally& tally) const {
  // Validate before touching names_/the simulator: an out-of-range id would
  // index past the name table (UB), and src == dst is not a roundtrip.  Both
  // are the caller's data, so they count as typed failures, never UB/throw.
  const NodeId n = graph_->node_count();
  if (src < 0 || src >= n || dst < 0 || dst >= n || src == dst) {
    ++tally.pairs;
    ++tally.invalid;
    tally.note_failure(index, [&] {
      return "invalid query (" + std::to_string(src) + ", " +
             std::to_string(dst) + "): " +
             (src == dst ? "src == dst" : "node id out of range");
    });
    return;
  }
  run_one_resolved(index, src, dst, names_.name_of(dst), tally);
}

void QueryEngine::run_one_resolved(std::size_t index, NodeId src, NodeId dst,
                                   NodeName dst_name,
                                   WorkerTally& tally) const {
  ++tally.pairs;
  RouteResult res;
  try {
    res = scheme_->simulate(*graph_, src, dst, dst_name);
  } catch (const std::exception& e) {
    // Scheme bug (unknown port, dishonest size hint): a failed query, never
    // an exception escaping a worker thread.  The message is kept so the
    // batch report can surface what broke.
    tally.note_failure(index, [&] { return std::string(e.what()); });
    return;
  }
  if (!res.ok()) {
    tally.note_failure(index, [&] {
      return "roundtrip (" + std::to_string(src) + ", " + std::to_string(dst) +
             ") undelivered (out " + (res.delivered_out ? "ok" : "lost") +
             ", back " + (res.delivered_back ? "ok" : "lost") + ")";
    });
    return;
  }
  tally.max_header_bits = std::max(tally.max_header_bits, res.max_header_bits);
  if (metric_ != nullptr) {
    const auto r = metric_->r(src, dst);
    if (r > 0) {
      tally.stretch.add(static_cast<double>(res.roundtrip_length()) /
                        static_cast<double>(r));
    }
  }
}

void QueryEngine::run_range(const std::vector<RoundtripQuery>& queries,
                            std::size_t begin, std::size_t end,
                            WorkerTally& tally) const {
  for (std::size_t i = begin; i < end; ++i) {
    run_one(i, queries[i].src, queries[i].dst, tally);
  }
}

StretchReport QueryEngine::finalize(std::vector<WorkerTally> tallies,
                                    double wall_seconds) const {
  StretchReport report;
  report.wall_seconds = wall_seconds;
  Summary stretch;
  std::size_t first_error_index = SIZE_MAX;
  for (auto& t : tallies) {
    report.pairs += t.pairs;
    report.failures += t.failures;
    report.invalid += t.invalid;
    report.max_header_bits = std::max(report.max_header_bits, t.max_header_bits);
    stretch.merge(t.stretch);
    if (t.first_error_index < first_error_index) {
      first_error_index = t.first_error_index;
      report.first_error = std::move(t.first_error);
    }
  }
  if (stretch.count() > 0) {
    report.mean_stretch = stretch.stable_mean();
    report.p99_stretch = stretch.percentile(0.99);
    report.max_stretch = stretch.max();
  }
  return report;
}

// The batch transposed to structure-of-arrays form by the run_batch prepass:
// parallel contiguous arrays the worker hot loop streams through.  `index`
// keeps each entry's position in the caller's batch so first_error stays
// deterministic (lowest batch index) after invalid entries are compacted out.
struct QueryEngine::BatchPlan {
  std::vector<NodeId> src;
  std::vector<NodeId> dst;
  std::vector<NodeName> dst_name;
  std::vector<std::size_t> index;

  [[nodiscard]] std::size_t size() const { return src.size(); }
};

void QueryEngine::run_span(const BatchPlan& plan, std::size_t begin,
                           std::size_t end, WorkerTally& tally) const {
  tally.stretch.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    run_one_resolved(plan.index[i], plan.src[i], plan.dst[i], plan.dst_name[i],
                     tally);
  }
}

int QueryEngine::effective_workers(int cap, std::size_t work) const {
  const int width = cap > 0 ? cap : threads_;
  return static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(std::max(width, 1)),
      std::max<std::size_t>(work, 1)));
}

ServingResult QueryEngine::serve(NodeId src, NodeId dst) const {
  const NodeId n = graph_->node_count();
  if (src < 0 || src >= n || dst < 0 || dst >= n || src == dst) {
    return ServingResult::failure(
        ServingError::kInvalidQuery,
        "invalid query (" + std::to_string(src) + ", " + std::to_string(dst) +
            "): " + (src == dst ? "src == dst" : "node id out of range"));
  }
  RouteResult res;
  try {
    res = scheme_->simulate(*graph_, src, dst, names_.name_of(dst));
  } catch (const std::exception& e) {
    // A scheme that throws mid-walk is broken, not an unreachable pair; the
    // distinction is exactly what ServingError exists to carry.
    return ServingResult::failure(ServingError::kSchemeFailure, e.what());
  }
  if (!res.ok()) {
    return ServingResult::failure(
        ServingError::kUnreachable,
        "roundtrip (" + std::to_string(src) + ", " + std::to_string(dst) +
            ") undelivered (out " + (res.delivered_out ? "ok" : "lost") +
            ", back " + (res.delivered_back ? "ok" : "lost") + ")");
  }
  return ServingResult::success(std::move(res), /*epoch_seq=*/0);
}

StretchReport QueryEngine::run_batch(const std::vector<RoundtripQuery>& queries,
                                     const BatchOptions& options) const {
  const auto start = std::chrono::steady_clock::now();

  // Serial prepass: validate each query once and transpose the survivors
  // into the SoA plan.  Invalid entries are tallied here (typed failures,
  // keyed by their batch index) and never reach a worker.
  const NodeId n = graph_->node_count();
  BatchPlan plan;
  plan.src.reserve(queries.size());
  plan.dst.reserve(queries.size());
  plan.dst_name.reserve(queries.size());
  plan.index.reserve(queries.size());
  WorkerTally prepass;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const NodeId src = queries[i].src;
    const NodeId dst = queries[i].dst;
    if (src < 0 || src >= n || dst < 0 || dst >= n || src == dst) {
      ++prepass.pairs;
      ++prepass.invalid;
      prepass.note_failure(i, [&] {
        return "invalid query (" + std::to_string(src) + ", " +
               std::to_string(dst) + "): " +
               (src == dst ? "src == dst" : "node id out of range");
      });
      continue;
    }
    plan.src.push_back(src);
    plan.dst.push_back(dst);
    plan.dst_name.push_back(names_.name_of(dst));
    plan.index.push_back(i);
  }

  const int workers = effective_workers(options.threads, plan.size());
  std::vector<WorkerTally> tallies(static_cast<std::size_t>(workers) + 1);
  tallies.back() = std::move(prepass);
  if (workers <= 1) {
    run_span(plan, 0, plan.size(), tallies[0]);
    return finalize(std::move(tallies), elapsed_seconds(start));
  }
  // Static sharding: contiguous slices, so the aggregate is independent of
  // the worker count and no queue synchronization touches the hot loop.
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  const std::size_t per = plan.size() / static_cast<std::size_t>(workers);
  const std::size_t extra = plan.size() % static_cast<std::size_t>(workers);
  std::size_t begin = 0;
  for (int w = 0; w < workers; ++w) {
    const std::size_t share = per + (static_cast<std::size_t>(w) < extra ? 1 : 0);
    const std::size_t end = begin + share;
    pool.emplace_back([this, &plan, begin, end,
                       &tally = tallies[static_cast<std::size_t>(w)]] {
      run_span(plan, begin, end, tally);
    });
    begin = end;
  }
  for (auto& t : pool) t.join();
  return finalize(std::move(tallies), elapsed_seconds(start));
}

StretchReport QueryEngine::run_serial(
    const std::vector<RoundtripQuery>& queries) const {
  const auto start = std::chrono::steady_clock::now();
  std::vector<WorkerTally> tallies(1);
  run_range(queries, 0, queries.size(), tallies[0]);
  return finalize(std::move(tallies), elapsed_seconds(start));
}

std::vector<RoundtripQuery> QueryEngine::sample_pairs(NodeId n,
                                                      std::int64_t pair_budget,
                                                      std::uint64_t seed) {
  std::vector<RoundtripQuery> queries;
  const auto nodes = static_cast<std::int64_t>(n);
  if (nodes < 2 || pair_budget <= 0) return queries;
  const std::int64_t all = nodes * (nodes - 1);
  if (all <= pair_budget) {
    // Exhaustive: enumerate every ordered pair once.
    queries.reserve(static_cast<std::size_t>(all));
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        if (s != t) queries.push_back({s, t});
      }
    }
    return queries;
  }
  // Rejection sampling: a draw that collides (s == t) is thrown away and the
  // whole pair redrawn, so the sample is uniform over ordered pairs.  (The
  // previous remap `t = (t + 1) % n` double-weighted every pair
  // (s, s+1 mod n).)  Expected redraws per pair are 1/(n-1), negligible next
  // to routing the packet.
  queries.reserve(static_cast<std::size_t>(pair_budget));
  Rng rng(seed);
  for (std::int64_t i = 0; i < pair_budget; ++i) {
    NodeId s, t;
    do {
      s = static_cast<NodeId>(rng.index(nodes));
      t = static_cast<NodeId>(rng.index(nodes));
    } while (s == t);
    queries.push_back({s, t});
  }
  return queries;
}

StretchReport QueryEngine::run_sampled(const BatchOptions& options) const {
  // The pair list is drawn from one Rng(seed) up front, then sharded like
  // any explicit batch.  Sampling this way is what makes the report a
  // function of (budget, seed) alone -- the same pairs are routed no matter
  // how many workers the pool has.
  return run_batch(
      sample_pairs(graph_->node_count(), options.pair_budget, options.seed),
      options);
}

}  // namespace rtr
