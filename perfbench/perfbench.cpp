// perfbench_run: the layered benchmark.  One process runs one named workload
// and reports every metric by name with its unit, checking every answer.
//
//   perfbench_run --workload net-serve|churn-repair|snapshot-batch
//                 --seed N --seconds S --trace 0|1
//                 --work-dir DIR --result FILE [--spans FILE]
//
// Each workload loads one serving layer heavily and leaves the others idle:
//
//   net-serve       rtz3 on random n=4096, saved and mapped (native arena),
//                   served by an in-process RouteServer over loopback to
//                   closed-loop clients on the server's one CPU and to two
//                   open-loop rtr-wire/1 connections.  Loads `server`.
//   churn-repair    rtz3 on random n=4096 + 5% shadowed links under an
//                   EpochManager with incremental repair: a seeded churn
//                   script of slack-jitter deltas (repair path) and, every
//                   fourth step, a rewire with port relabel (full rebuild),
//                   while one closed-loop reader queries by name.  Loads
//                   `serve`, `rtz`, `rt`, `graph`.
//   snapshot-batch  polystretch on scale-free n=1024: build, save (a v1
//                   blob inside v2), map, then single-worker batch passes
//                   and QueryEngine::serve calls.  Loads `io` and
//                   `net`/`core` forwarding.
//
// Every layer is timed from outside, around calls into its public
// functions.  Progress (the config, then one line per phase with its
// attempted, succeeded and failed query counts) goes to stdout; the result
// is one JSON object written to the --result file:
//   {"correct", "attempted", "failed", "e2e": {...}, "layers": {...},
//    "config": {...}}
// where each metric is [value, unit].  A phase that throws fails the run
// with the phase's name and writes no result; a failed output check writes
// the result with "correct": false and exits 1.
//
// The host is shared: other tenants slow this process up to twofold for
// seconds at a time.  So set-up repeats, batch and open-loop phases are cut
// into slices interleaved over the run, and each figure is a median, or,
// where interference can only slow the work, the best slice (see
// BatchPasses, BlockSummary and PassFloor).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/apsp.h"
#include "graph/churn.h"
#include "graph/churn_delta.h"
#include "graph/generators.h"
#include "io/snapshot.h"
#include "net/query_engine.h"
#include "net/scheme.h"
#include "rt/metric.h"
#include "serve/epoch_manager.h"
#include "server/route_server.h"
#include "util/json.h"
#include "util/rng.h"
#include "netclient.h"
#include "openloop.h"
#include "trace.h"

namespace perfbench {
namespace {

using rtr::NodeId;
using rtr::NodeName;

// Thread widths: pinned, printed with the config, never taken from the host.
constexpr int kApspThreads = 2;         ///< set_default_apsp_threads
constexpr int kEngineThreads = 1;       ///< QueryEngineOptions::threads
constexpr int kServerBatchThreads = 1;  ///< RouteServerOptions::batch_threads
constexpr int kEpochQueryThreads = 1;   ///< EpochManagerOptions::query_threads
constexpr int kNetConnections = 2;      ///< open-loop rtr-wire/1 sessions

constexpr int kSetupRepeats = 5;  ///< set-ups per run; setup_s is the median
constexpr int kRounds = 6;        ///< interleaved measurement slices per run
constexpr rtr::Weight kMaxWeight = 8;
/// Graph, naming and scheme randomness.  The instance is the same on every
/// run, so runs compare the program rather than instances; --seed draws the
/// query pairs, the stretch sample, the span sample and the churn script.
constexpr std::uint64_t kInstanceSeed = 1;
/// Queries per batch pass: a pass of a few ms, so the fastest pass can fall
/// in a quiet moment of the host.
constexpr std::int64_t kBatchQueries = 1000;
constexpr std::int64_t kQualityPairs = 2000;  ///< pairs of the stretch check
/// Open-loop latency blocks.  Over the network a block is long and the
/// figure is the median block (see report_open_loop); in process a block is
/// short and the figure is the quietest block.
constexpr double kNetBlockSeconds = 0.25;
constexpr double kInProcessBlockSeconds = 0.05;
/// Request-span sampling: one request in kSpanSampleEvery carries spans.
constexpr std::uint64_t kSpanSampleEvery = 8;

/// The highest-numbered CPU this process may run on: net-serve's serving
/// side and its closed-loop clients share it (CpuPin).
int serving_cpu() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) return cpu;
  }
  throw std::runtime_error("no CPU to run on");
}

/// Confines the calling thread to one CPU while it lives, then gives back
/// its previous CPU set.  Threads started meanwhile keep the one CPU.
class CpuPin {
 public:
  explicit CpuPin(int cpu) {
    if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
  }
  ~CpuPin() { (void)::sched_setaffinity(0, sizeof(saved_), &saved_); }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string result_path;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--result") {
      a.result_path = value;
    } else if (key == "--spans") {
      a.spans_path = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || !have_seed || a.work_dir.empty() ||
      a.result_path.empty() || a.seconds <= 0) {
    throw std::invalid_argument(
        "usage: perfbench_run --workload W --seed N --seconds S --trace 0|1 "
        "--work-dir DIR --result FILE [--spans FILE]");
  }
  return a;
}

// ------------------------------------------------------------------ results --

/// A failed output check: the run completes its report, marked incorrect.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// An exception inside a phase, renamed after the phase.  It unwinds the
/// workload (joining every thread it started) and ends the run with no
/// result.
struct PhaseFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit) {
    e2e_.set(name, metric(value, unit));
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers_.set(name, metric(value, unit));
  }
  void config(const std::string& key, rtr::Json value) {
    config_.set(key, std::move(value));
  }

  /// Counts queries against the whole workload (delivered_share's base).
  void count(std::int64_t attempted, std::int64_t delivered) {
    attempted_ += attempted;
    delivered_ += delivered;
  }
  [[nodiscard]] double delivered_share() const {
    return attempted_ > 0 ? static_cast<double>(delivered_) /
                                static_cast<double>(attempted_)
                          : 0.0;
  }

  void fail_check(const std::string& what) { check_failures_.push_back(what); }
  [[nodiscard]] bool correct() const { return check_failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& check_failures() const {
    return check_failures_;
  }

  [[nodiscard]] std::string config_dump() const { return config_.dump(); }

  [[nodiscard]] std::string dump() const {
    rtr::Json doc{rtr::JsonObject{}};
    doc.set("correct", correct());
    doc.set("attempted", attempted_);
    doc.set("failed", attempted_ - delivered_);
    doc.set("e2e", e2e_);
    doc.set("layers", layers_);
    doc.set("config", config_);
    return doc.dump();
  }

 private:
  static rtr::Json metric(double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      throw std::logic_error("metric value is not finite");
    }
    return rtr::Json(rtr::JsonArray{rtr::Json(value), rtr::Json(unit)});
  }

  rtr::Json e2e_{rtr::JsonObject{}};
  rtr::Json layers_{rtr::JsonObject{}};
  rtr::Json config_{rtr::JsonObject{}};
  std::int64_t attempted_ = 0;
  std::int64_t delivered_ = 0;
  std::vector<std::string> check_failures_;
};

/// Runs named phases (a phase may run as several slices) and keeps their
/// query counts; print() lists them once the workload is done.
class Phases {
 public:
  explicit Phases(Report& report) : report_(report) {}

  template <class F>
  void run(const std::string& name, F&& body) {
    if (std::find(order_.begin(), order_.end(), name) == order_.end()) {
      order_.push_back(name);
    }
    current_ = name;
    try {
      body();
    } catch (const CheckFailure& e) {
      report_.fail_check(name + ": " + e.what());
    } catch (const PhaseFailed&) {
      throw;
    } catch (const std::exception& e) {
      throw PhaseFailed("phase " + name + " failed: " + e.what());
    }
    ++counts_[name].slices;
  }

  /// Counts queries for the running phase and the workload.
  void count(std::int64_t attempted, std::int64_t delivered) {
    counts_[current_].attempted += attempted;
    counts_[current_].delivered += delivered;
    report_.count(attempted, delivered);
  }

  void print() const {
    for (const std::string& name : order_) {
      const Counts& c = counts_.at(name);
      std::printf("phase %-18s slices=%-3d attempted=%lld succeeded=%lld "
                  "failed=%lld\n",
                  name.c_str(), c.slices, static_cast<long long>(c.attempted),
                  static_cast<long long>(c.delivered),
                  static_cast<long long>(c.attempted - c.delivered));
    }
  }

 private:
  struct Counts {
    int slices = 0;
    std::int64_t attempted = 0;
    std::int64_t delivered = 0;
  };
  Report& report_;
  std::string current_;
  std::vector<std::string> order_;
  std::map<std::string, Counts> counts_;
};

// ------------------------------------------------------------------ helpers --

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <class F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0) * 1e3;
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of nothing");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

[[nodiscard]] double us(std::int64_t ns) {
  return static_cast<double>(ns) / 1e3;
}

[[nodiscard]] double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Whether request `index` of a stream carries spans (seeded sample).
[[nodiscard]] bool sampled(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t x =
      (seed + 0x9E3779B97F4A7C15ULL) ^ (index * 0xBF58476D1CE4E5B9ULL);
  x ^= x >> 31;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 29;
  return x % kSpanSampleEvery == 0;
}

/// The span of request `index` of a stream: named when sampled, else inert.
[[nodiscard]] const char* request_span(std::uint64_t seed, std::uint64_t index,
                                       const char* name) {
  return sampled(seed, index) ? name : nullptr;
}

/// A graph instance with names and (optionally) its roundtrip metric.
struct Instance {
  std::shared_ptr<const rtr::Digraph> graph;
  rtr::NameAssignment names = rtr::NameAssignment::identity(0);
  std::shared_ptr<const rtr::RoundtripMetric> metric;
  double gen_ms = 0;
  double metric_ms = 0;
};

Instance make_instance(rtr::Family family, NodeId n, double shadow_fraction,
                       bool with_metric) {
  Instance inst;
  rtr::Rng rng(kInstanceSeed);
  inst.gen_ms = time_ms([&] {
    const Span span("graph.gen");
    rtr::GraphBuilder builder = rtr::make_family(family, n, kMaxWeight, rng);
    builder.assign_adversarial_ports(rng);
    rtr::Digraph g = builder.freeze();
    if (shadow_fraction > 0) {
      g = rtr::add_shadowed_links(g, shadow_fraction, rng);
    }
    inst.graph = std::make_shared<const rtr::Digraph>(std::move(g));
  });
  inst.names = rtr::NameAssignment::random(inst.graph->node_count(), rng);
  if (with_metric) {
    inst.metric_ms = time_ms([&] {
      const Span span("rt.metric");
      inst.metric = rtr::make_roundtrip_metric(inst.graph);
    });
  }
  return inst;
}

/// A seeded uniform pair of distinct names.
std::pair<NodeName, NodeName> random_names(rtr::Rng& rng, NodeId n) {
  NodeName src = 0;
  NodeName dst = 0;
  do {
    src = static_cast<NodeName>(rng.index(n));
    dst = static_cast<NodeName>(rng.index(n));
  } while (src == dst);
  return {src, dst};
}

/// A single-worker engine over a handle's tables, with no metric (no
/// stretch denominators): the shape every workload serves from.
std::shared_ptr<const rtr::QueryEngine> make_engine(
    const rtr::SchemeHandle& handle) {
  rtr::QueryEngineOptions options;
  options.threads = kEngineThreads;
  return std::make_shared<const rtr::QueryEngine>(
      handle.graph_ptr(), nullptr, handle.names(), handle.scheme_ptr(),
      options);
}

/// Route quality on a seeded sample: every delivered pair's stretch must
/// lie in [1, stretch_bound]; reports mean stretch, hops and table size.
void check_quality(Phases& phases, Report& report,
                   const rtr::QueryEngine& engine,
                   const rtr::RoundtripMetric& metric,
                   const std::vector<rtr::RoundtripQuery>& sample,
                   const rtr::SchemeHandle& handle) {
  const double bound = engine.scheme().stretch_bound();
  double stretch_sum = 0;
  double hops_sum = 0;
  std::int64_t delivered = 0;
  std::int64_t header_bits_max = 0;
  for (const auto& q : sample) {
    const rtr::ServingResult r = engine.serve(q.src, q.dst);
    if (!r.ok()) continue;
    ++delivered;
    const double stretch = static_cast<double>(r.route.roundtrip_length()) /
                           static_cast<double>(metric.r(q.src, q.dst));
    if (!(stretch >= 1.0 - 1e-9 && stretch <= bound + 1e-9)) {
      throw CheckFailure("stretch " + std::to_string(stretch) + " of pair (" +
                         std::to_string(q.src) + ", " + std::to_string(q.dst) +
                         ") outside [1, " + std::to_string(bound) + "]");
    }
    stretch_sum += stretch;
    hops_sum += static_cast<double>(r.route.out_hops + r.route.back_hops);
    header_bits_max = std::max(header_bits_max, r.route.max_header_bits);
  }
  phases.count(static_cast<std::int64_t>(sample.size()), delivered);
  if (delivered == 0) throw CheckFailure("no sample pair was delivered");
  const auto d = static_cast<double>(delivered);
  report.e2e("stretch_mean", stretch_sum / d, "ratio");
  report.e2e("table_bytes_per_node", handle.table_stats().mean_bits() / 8.0,
             "B");
  report.layer("net.hops_mean", hops_sum / d, "count");
  report.layer("net.header_bits_max", static_cast<double>(header_bits_max),
               "bits");
}

/// Single-worker run_batch passes over one fixed query list, run in slices
/// spread over the workload.  batch_qps is the fastest pass: other tenants
/// only ever slow a pass, so the best of some thousand short passes taken
/// across the run is the steady figure.  The median pass is reported too.
class BatchPasses {
 public:
  BatchPasses(Phases& phases, std::shared_ptr<const rtr::QueryEngine> engine,
              std::vector<rtr::RoundtripQuery> queries)
      : phases_(phases),
        engine_(std::move(engine)),
        queries_(std::move(queries)) {}

  /// The first pass: pays lazy page-in of mapped tables.  Returns its ms.
  double warm_up() { return time_ms([&] { pass(); }); }

  /// Passes for `seconds` (at least one).
  void run_for(double seconds) {
    const auto t0 = Clock::now();
    do {
      pass_s_.push_back(time_ms([&] { pass(); }) / 1e3);
    } while (seconds_since(t0) < seconds);
  }

  [[nodiscard]] double best_qps() const {
    return static_cast<double>(queries_.size()) /
           *std::min_element(pass_s_.begin(), pass_s_.end());
  }

  void report(Report& report) const {
    const auto n = static_cast<double>(queries_.size());
    report.e2e("batch_qps", best_qps(), "1/s");
    report.layer("net.batch_median_qps", n / median(pass_s_), "1/s");
    report.layer("net.engine_ns_per_query", 1e9 / best_qps(), "ns");
    report.layer("net.batch_passes", static_cast<double>(pass_s_.size()),
                 "count");
  }

 private:
  void pass() {
    rtr::BatchOptions options;
    options.threads = 1;
    const Span span("net.run_batch");
    const rtr::StretchReport r = engine_->run_batch(queries_, options);
    phases_.count(r.pairs, r.pairs - r.failures);
    if (r.failures != 0) {
      throw CheckFailure("run_batch: " + std::to_string(r.failures) +
                         " failed queries, first: " + r.first_error);
    }
  }

  Phases& phases_;
  std::shared_ptr<const rtr::QueryEngine> engine_;
  std::vector<rtr::RoundtripQuery> queries_;
  std::vector<double> pass_s_;
};

/// How net.p50_us/net.p90_us summarize the blocks of an open-loop phase.
///   kMedianBlock: the median block.  For network round trips, which are
///     mostly thread wake-ups: a busier host wakes threads faster, so the
///     host moves these both ways and only a median is steady.
///   kQuietestBlock: the lowest block.  For in-process requests of a few us
///     with nothing else of ours running, which other tenants' cache
///     pressure only ever slows (up to twofold, for seconds at a time); a
///     short quiet block occurs in every run.
enum class BlockSummary { kMedianBlock, kQuietestBlock };

/// An open-loop phase: p50/p90 summarized from its blocks and reported
/// under `prefix`, the pooled tail with its sample count, and how late the
/// generator ran.
void report_open_loop(Report& report, const std::string& prefix,
                      const LoadStats& s, BlockSummary summary,
                      double block_seconds) {
  // A block counts when it holds most of its share of the schedule.
  const auto min_count =
      static_cast<std::int64_t>(0.8 * s.offered_qps * block_seconds);
  auto at = [&](double p) {
    return (summary == BlockSummary::kMedianBlock
                ? s.block_median(p, min_count)
                : s.block_best(p, min_count)) /
           1e3;
  };
  report.layer(prefix + "p50_us", at(0.50), "us");
  report.layer(prefix + "p90_us", at(0.90), "us");
  report.layer(prefix + "p99_us", us(s.latency.percentile(0.99)), "us");
  report.layer(prefix + "p999_us", us(s.latency.percentile(0.999)), "us");
  report.layer(prefix + "samples", static_cast<double>(s.latency.count()),
               "count");
  report.layer("load.blocks", static_cast<double>(s.blocks.size()), "count");
  report.layer("load.achieved_qps", s.achieved_qps(), "1/s");
  report.layer("gen.lateness_p50_us", us(s.lateness.percentile(0.50)), "us");
  report.layer("gen.lateness_p99_us", us(s.lateness.percentile(0.99)), "us");
  report.layer("gen.lateness_samples", static_cast<double>(s.lateness.count()),
               "count");
}

/// The lowest p50 and p90 over passes of closed-loop calls, and every call
/// pooled.  Used where the call's latency moves by a third from run to run
/// with the host but never drops below a floor, as for batch_qps: the
/// lowest short pass over a run is the steady figure.
class PassFloor {
 public:
  void add(const rtr::LatencyHistogram& pass) {
    pooled_.merge(pass);
    p50_ = std::min(p50_, pass.percentile(0.50));
    p90_ = std::min(p90_, pass.percentile(0.90));
  }

  /// query_p50/p90 from the passes; the pooled p50..p99.9 under `prefix`.
  void report(Report& report, const std::string& prefix) const {
    report.e2e("query_p50_us", us(p50_), "us");
    report.e2e("query_p90_us", us(p90_), "us");
    report.layer(prefix + "p50_us", us(pooled_.percentile(0.50)), "us");
    report.layer(prefix + "p90_us", us(pooled_.percentile(0.90)), "us");
    report.layer(prefix + "p99_us", us(pooled_.percentile(0.99)), "us");
    report.layer(prefix + "p999_us", us(pooled_.percentile(0.999)), "us");
    report.layer(prefix + "samples", static_cast<double>(pooled_.count()),
                 "count");
  }

 private:
  rtr::LatencyHistogram pooled_;
  std::int64_t p50_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t p90_ = std::numeric_limits<std::int64_t>::max();
};

/// Calls per closed-loop pass (PassFloor): round trips over the network,
/// and in-process reads under churn, a few ms either way.
constexpr int kPassCalls = 256;
constexpr int kReaderPassCalls = 1024;

/// Median of `count` closed-loop calls of `call(i)`, in us; each call is a
/// sampled request span named `span_name`.
double closed_loop_median_us(std::uint64_t seed, int count,
                             const char* span_name,
                             const std::function<void(int)>& call) {
  rtr::LatencyHistogram h;
  for (int i = 0; i < count; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    const auto t0 = Clock::now();
    {
      const Span span(request_span(seed, idx, span_name), idx + 1,
                      static_cast<double>(kSpanSampleEvery));
      call(i);
    }
    h.record((Clock::now() - t0).count());
  }
  return us(h.percentile(0.5));
}

/// A closed-loop probe run untraced and traced in turn, after one warm-up
/// run: the tracing overhead is the relative change of the median of its
/// medians.  A no-op on untraced runs.
void measure_trace_overhead(Report& report, bool trace,
                            const std::function<double()>& probe_median) {
  if (!trace) return;
  (void)probe_median();
  std::vector<double> off;
  std::vector<double> on;
  for (int i = 0; i < 5; ++i) {
    Tracer::global().set_enabled(false);
    off.push_back(probe_median());
    Tracer::global().set_enabled(true);
    on.push_back(probe_median());
  }
  const double untraced = median(off);
  const double traced = median(on);
  report.layer("trace.probe_untraced_us", untraced, "us");
  report.layer("trace.probe_traced_us", traced, "us");
  report.layer("trace.overhead_pct", (traced / untraced - 1.0) * 100.0, "%");
}

/// Repeats `one_setup` kSetupRepeats times; setup_s is the median, and
/// each named per-layer time the median of what the repeats recorded.
void repeat_setup(Phases& phases, Report& report,
                  const std::function<void(std::map<std::string, double>&)>&
                      one_setup) {
  phases.run("setup", [&] {
    std::vector<double> total;
    std::map<std::string, std::vector<double>> layers;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      const Span span("bench.setup");
      std::map<std::string, double> ms;
      const auto t0 = Clock::now();
      one_setup(ms);
      total.push_back(seconds_since(t0));
      for (const auto& [name, v] : ms) layers[name].push_back(v);
    }
    report.e2e("setup_s", median(total), "s");
    for (const auto& [name, v] : layers) report.layer(name, median(v), "ms");
  });
}

// --------------------------------------------------------------- net-serve --

struct NetServeState {
  Instance inst;
  std::optional<rtr::SchemeHandle> mapped;
  std::shared_ptr<const rtr::QueryEngine> engine;
  std::unique_ptr<rtr::StaticServingSource> source;
  std::unique_ptr<rtr::RouteServer> server;  // declared last: stops first
};

void run_net_serve(const Args& args, Report& report, Phases& phases) {
  constexpr NodeId kNodes = 4096;
  // Half the server's capacity at most: a host stall that triples round
  // trips for a while must not tip the fixed-rate phase into overload.
  constexpr double kFixedQps = 8000;
  // Geometric rate ladder (x1.2 per rung) and its p90 limit.
  const std::vector<double> kLadder = {16000, 19200, 23040, 27648,
                                       33178, 39813, 47776, 57331};
  constexpr double kSloP90Us = 250;
  constexpr int kClosedRequests = 3000;
  // The server's threads and the echo's run on one CPU, and so does every
  // closed-loop client: each round trip then costs the program's syscalls,
  // loopback TCP, locking and hand-offs between its threads.  Spread over
  // CPUs, a round trip was mostly the wake-up of an idle virtual CPU, which
  // moved by up to a third between runs with the load on the host.
  const int cpu = serving_cpu();
  report.config("serving_cpu", cpu);
  std::printf("serving_cpu: %d\n", cpu);

  const std::string path = args.work_dir + "/net-serve.rtrsnap";
  std::unique_ptr<NetServeState> st;
  repeat_setup(phases, report, [&](std::map<std::string, double>& ms) {
    st.reset();
    auto s = std::make_unique<NetServeState>();
    s->inst = make_instance(rtr::Family::kRandom, kNodes, 0, true);
    ms["graph.gen_ms"] = s->inst.gen_ms;
    ms["rt.metric_ms"] = s->inst.metric_ms;
    std::shared_ptr<const rtr::Scheme> scheme;
    ms["rtz.build_ms"] = time_ms([&] {
      const Span b("rtz.build");
      scheme = rtr::SchemeRegistry::global().build(
          "rtz3", rtr::BuildContext::wrap(s->inst.graph, s->inst.metric,
                                          s->inst.names, kInstanceSeed));
    });
    ms["io.save_ms"] = time_ms([&] {
      const Span b("io.save");
      rtr::save_snapshot(
          path, "rtz3",
          rtr::SchemeHandle(s->inst.graph, s->inst.names, scheme));
    });
    ms["io.map_ms"] = time_ms([&] {
      const Span b("io.map");
      s->mapped.emplace(rtr::map_snapshot(path, "rtz3"));
    });
    ms["server.bind_ms"] = time_ms([&] {
      const Span b("server.bind");
      s->engine = make_engine(*s->mapped);
      auto epoch = std::make_shared<const rtr::Epoch>(0, *s->mapped, nullptr,
                                                      s->engine, true, 0.0);
      s->source =
          std::make_unique<rtr::StaticServingSource>(std::move(epoch), "rtz3");
      rtr::RouteServerOptions so;
      so.batch_threads = kServerBatchThreads;
      const CpuPin pin(cpu);
      s->server = std::make_unique<rtr::RouteServer>(*s->source, so);
    });
    st = std::move(s);
  });
  report.layer("io.snapshot_bytes_per_node",
               static_cast<double>(std::filesystem::file_size(path)) / kNodes,
               "B");
  std::filesystem::remove(path);

  const rtr::QueryEngine& engine = *st->engine;
  const rtr::NameAssignment& names = st->mapped->names();
  const int port = st->server->port();
  const auto sample =
      rtr::QueryEngine::sample_pairs(kNodes, kQualityPairs, args.seed + 1);
  BatchPasses batch(
      phases, st->engine,
      rtr::QueryEngine::sample_pairs(kNodes, kBatchQueries, args.seed + 2));

  phases.run("check.quality", [&] {
    check_quality(phases, report, engine, *st->inst.metric, sample,
                  *st->mapped);
  });
  phases.run("net.batch", [&] {
    report.layer("io.first_pass_ms", batch.warm_up(), "ms");
  });

  // The three depths of one answer: the engine alone (in process, the
  // batch passes), the socket path alone (a loopback echo), and the full
  // RouteServer path.
  double echo_floor_us = 0;
  double closed_rtt_us = 0;
  phases.run("server.echo", [&] {
    const CpuPin pin(cpu);
    const EchoServer echo;
    WireClient client(echo.port());
    echo_floor_us =
        closed_loop_median_us(args.seed, kClosedRequests, "bench.echo_request",
                              [&](int) { (void)client.request(1, 2); });
    if (echo.failed()) throw std::runtime_error("echo server failed");
    phases.count(kClosedRequests, kClosedRequests);
  });

  // Full depth, closed loop: every answer is compared with the engine's on
  // the same epoch.
  phases.run("server.closed", [&] {
    const CpuPin pin(cpu);
    WireClient client(port);
    std::int64_t delivered = 0;
    closed_rtt_us = closed_loop_median_us(
        args.seed, kClosedRequests, "server.request", [&](int i) {
          const auto& q = sample[static_cast<std::size_t>(i) % sample.size()];
          const rtr::WireResponse got =
              client.request(names.name_of(q.src), names.name_of(q.dst));
          const rtr::ServingResult want = engine.serve(q.src, q.dst);
          if (got.error != static_cast<std::uint32_t>(want.error) ||
              got.out_hops != want.route.out_hops ||
              got.back_hops != want.route.back_hops ||
              got.roundtrip_length != want.route.roundtrip_length()) {
            throw CheckFailure("network answer for pair (" +
                               std::to_string(q.src) + ", " +
                               std::to_string(q.dst) +
                               ") differs from QueryEngine::serve");
          }
          if (got.ok()) ++delivered;
        });
    phases.count(kClosedRequests, delivered);
  });

  phases.run("server.http", [&] {
    const CpuPin pin(cpu);
    HttpClient client(port);
    std::int64_t delivered = 0;
    report.layer(
        "server.http_rtt_p50_us",
        closed_loop_median_us(args.seed, 1000, "server.http_request",
                              [&](int i) {
                                const auto& q = sample[static_cast<std::size_t>(
                                                           i) % sample.size()];
                                if (client.route(names.name_of(q.src),
                                                 names.name_of(q.dst)) == 200) {
                                  ++delivered;
                                }
                              }),
        "us");
    phases.count(1000, delivered);
  });

  // Open loop over kNetConnections sessions; each draws its pairs from its
  // own seeded stream, and `base` keeps request ids distinct across calls.
  std::uint64_t base = 0;
  auto open_loop = [&](double qps, double seconds, double block_seconds) {
    std::vector<std::unique_ptr<WireClient>> clients;
    std::vector<rtr::Rng> rngs;
    for (int c = 0; c < kNetConnections; ++c) {
      clients.push_back(std::make_unique<WireClient>(port));
      rngs.emplace_back(args.seed * 1000 + base +
                        static_cast<std::uint64_t>(c));
    }
    OpenLoopPlan plan;
    plan.threads = kNetConnections;
    plan.total_qps = qps;
    plan.seconds = seconds;
    plan.block_seconds = block_seconds;
    const LoadStats s = run_open_loop(plan, [&](int t, std::int64_t k) {
      const auto [src, dst] =
          random_names(rngs[static_cast<std::size_t>(t)], kNodes);
      const auto idx = base + static_cast<std::uint64_t>(k) * kNetConnections +
                       static_cast<std::uint64_t>(t);
      const Span span(request_span(args.seed, idx, "server.request"), idx + 1,
                      static_cast<double>(kSpanSampleEvery));
      return clients[static_cast<std::size_t>(t)]->request(src, dst).ok();
    });
    base += static_cast<std::uint64_t>(s.attempted) + kNetConnections;
    phases.count(s.attempted, s.delivered);
    return s;
  };

  // Closed-loop rtr-wire/1 passes on one session, on the server's CPU.  A
  // few minutes of stolen CPU tipped the open loop into a backlog of
  // hundreds of ms, so query_p50/p90 are pass floors (PassFloor); the open
  // loop's figures are per-layer.
  PassFloor floor;
  WireClient pass_client(port);
  rtr::Rng pass_rng(args.seed + 5);
  auto closed_passes = [&](double seconds) {
    const CpuPin pin(cpu);
    const auto t0 = Clock::now();
    do {
      rtr::LatencyHistogram pass;
      std::int64_t delivered = 0;
      for (int j = 0; j < kPassCalls; ++j) {
        const auto [src, dst] = random_names(pass_rng, kNodes);
        const auto t = Clock::now();
        if (pass_client.request(src, dst).ok()) ++delivered;
        pass.record((Clock::now() - t).count());
      }
      phases.count(kPassCalls, delivered);
      floor.add(pass);
    } while (seconds_since(t0) < seconds);
  };

  // Batch slices, closed-loop passes and fixed-rate open-loop slices,
  // interleaved.
  LoadStats fixed;
  for (int round = 0; round < kRounds; ++round) {
    phases.run("net.batch",
               [&] { batch.run_for(0.15 * args.seconds / kRounds); });
    phases.run("server.passes",
               [&] { closed_passes(0.15 * args.seconds / kRounds); });
    phases.run("server.openloop", [&] {
      fixed.append(open_loop(kFixedQps, 0.3 * args.seconds / kRounds,
                             kNetBlockSeconds));
    });
  }
  batch.report(report);
  floor.report(report, "server.pass_");
  report_open_loop(report, "net.", fixed, BlockSummary::kMedianBlock,
                   kNetBlockSeconds);
  report.layer("server.loopback_floor_us", echo_floor_us, "us");
  report.layer("server.rtt_closed_p50_us", closed_rtt_us, "us");
  report.layer("server.overhead_us",
               closed_rtt_us - echo_floor_us - 1e6 / batch.best_qps(), "us");

  phases.run("server.ladder", [&] {
    double best = 0;
    const double rung_s =
        0.2 * args.seconds / static_cast<double>(kLadder.size());
    for (const double qps : kLadder) {
      const LoadStats s = open_loop(qps, rung_s, rung_s);
      if (us(s.latency.percentile(0.90)) > kSloP90Us ||
          s.achieved_qps() < 0.99 * s.offered_qps) {
        break;
      }
      best = qps;
    }
    report.layer("server.slo_qps", best, "1/s");
  });

  phases.run("server.stats", [&] {
    const rtr::RouteServerStats s = st->server->stats();
    if (s.protocol_errors != 0) {
      throw CheckFailure(std::to_string(s.protocol_errors) +
                         " protocol errors at the server");
    }
    report.layer("server.mean_batch",
                 s.batches > 0 ? static_cast<double>(s.batched_queries) /
                                     static_cast<double>(s.batches)
                               : 0.0,
                 "count");
    report.layer("server.protocol_errors",
                 static_cast<double>(s.protocol_errors), "count");
  });

  phases.run("trace.overhead", [&] {
    const CpuPin pin(cpu);
    WireClient client(port);
    measure_trace_overhead(report, args.trace, [&] {
      return closed_loop_median_us(
          args.seed, 2000, "server.request", [&](int i) {
            const auto& q = sample[static_cast<std::size_t>(i) % sample.size()];
            (void)client.request(names.name_of(q.src), names.name_of(q.dst));
          });
    });
  });
}

// ------------------------------------------------------------ churn-repair --

/// The churn script: slack-jitter deltas (the repair path) with every fourth
/// step a rewire under a fresh adversarial port relabel (every edge changes
/// port: a full rebuild).
[[nodiscard]] bool is_rebuild_step(std::size_t step) { return step % 4 == 3; }

std::vector<rtr::Digraph> make_churn_script(Report& report,
                                            const rtr::Digraph& initial,
                                            int steps, std::uint64_t seed) {
  constexpr double kJitterFraction = 0.005;
  std::vector<rtr::Digraph> script;
  script.reserve(static_cast<std::size_t>(steps));
  rtr::Rng rng(seed);
  const double gen_ms = time_ms([&] {
    const rtr::Digraph* prev = &initial;
    for (int i = 0; i < steps; ++i) {
      const Span span("graph.churn_step");
      if (is_rebuild_step(static_cast<std::size_t>(i))) {
        rtr::ChurnOptions co;
        co.rewire_fraction = 0.01;
        co.perturb_fraction = 0.0;
        co.reassign_ports = true;
        script.push_back(rtr::churn_step(*prev, co, rng));
      } else {
        script.push_back(rtr::slack_jitter_step(*prev, kJitterFraction, rng));
      }
      prev = &script.back();
    }
  });
  std::vector<double> diff_ms;
  const rtr::Digraph* prev = &initial;
  for (const rtr::Digraph& g : script) {
    diff_ms.push_back(time_ms([&] {
      const Span span("graph.diff");
      if (rtr::diff_graphs(*prev, g).empty()) {
        throw std::runtime_error("churn script step is empty");
      }
    }));
    prev = &g;
  }
  report.layer("graph.churn_gen_ms", gen_ms, "ms");
  report.layer("graph.diff_ms", median(diff_ms), "ms");
  return script;
}

void run_churn_repair(const Args& args, Report& report, Phases& phases) {
  constexpr NodeId kNodes = 4096;
  constexpr double kShadowFraction = 0.05;

  rtr::EpochManagerOptions mo;
  mo.query_threads = kEpochQueryThreads;
  mo.scheme_seed = kInstanceSeed;
  mo.metric_mode = rtr::MetricMode::kSparse;
  mo.enable_repair = true;

  std::unique_ptr<rtr::EpochManager> manager;
  std::optional<rtr::Digraph> initial;
  repeat_setup(phases, report, [&](std::map<std::string, double>& ms) {
    manager.reset();
    const Instance inst =
        make_instance(rtr::Family::kRandom, kNodes, kShadowFraction, false);
    ms["graph.gen_ms"] = inst.gen_ms;
    ms["serve.epoch0_ms"] = time_ms([&] {
      const Span b("serve.epoch0");
      manager = std::make_unique<rtr::EpochManager>(
          "rtz3", inst.names, rtr::Digraph(*inst.graph), mo);
    });
    initial.emplace(*inst.graph);
  });

  // The stretch check uses a dense metric of epoch 0's graph: exact
  // denominators for uniform pairs, at a fixed memory cost (the epoch's
  // sparse metric would grow a row per sampled source).
  const std::shared_ptr<const rtr::Epoch> epoch0 = manager->current();
  const auto sample =
      rtr::QueryEngine::sample_pairs(kNodes, kQualityPairs, args.seed + 1);
  phases.run("check.quality", [&] {
    const auto dense = rtr::make_roundtrip_metric(
        epoch0->handle.graph_ptr(), rtr::MetricMode::kDense);
    check_quality(phases, report, *epoch0->engine, *dense, sample,
                  epoch0->handle);
  });

  // Batch passes on epoch 0's tables, before and after the churn.
  BatchPasses batch(
      phases, make_engine(epoch0->handle),
      rtr::QueryEngine::sample_pairs(kNodes, kBatchQueries, args.seed + 2));
  phases.run("net.batch", [&] {
    (void)batch.warm_up();
    batch.run_for(0.075 * args.seconds);
  });

  const int steps =
      4 * std::max(1, static_cast<int>(std::lround(args.seconds / 8)));
  std::vector<rtr::Digraph> script;
  phases.run("graph.churn_script", [&] {
    script = make_churn_script(report, *initial, steps, args.seed + 3);
  });

  // One reader queries by name throughout, closed loop, in passes.  Its
  // latency while epochs build and swap moved by 20-40% from run to run,
  // open loop or closed, whatever the blocks, so query_p50/p90 are pass
  // floors (PassFloor).  Every pass replays the same pairs, so passes
  // differ only in the epoch they read and what the host did meanwhile.
  std::vector<std::pair<NodeName, NodeName>> reader_pairs;
  {
    rtr::Rng rng(args.seed + 4);
    for (int j = 0; j < kReaderPassCalls; ++j) {
      reader_pairs.push_back(random_names(rng, kNodes));
    }
  }
  phases.run("serve.churn", [&] {
    std::atomic<bool> stop{false};
    std::uint64_t last_epoch = 0;
    std::int64_t regressions = 0;
    std::int64_t attempted = 0;
    std::int64_t delivered = 0;
    PassFloor floor;
    std::exception_ptr reader_error;
    const std::uint64_t parent = t_open_span;
    std::thread reader_thread([&] {
      try {
        const AdoptParent adopt(parent);
        while (!stop.load(std::memory_order_relaxed)) {
          rtr::LatencyHistogram pass;
          for (const auto& [src, dst] : reader_pairs) {
            const auto idx = static_cast<std::uint64_t>(attempted);
            const auto t0 = Clock::now();
            rtr::ServingResult r;
            {
              const Span span(request_span(args.seed, idx, "serve.by_name"),
                              idx + 1, static_cast<double>(kSpanSampleEvery));
              r = manager->roundtrip_by_name(src, dst);
            }
            pass.record((Clock::now() - t0).count());
            ++attempted;
            if (!r.ok()) continue;
            ++delivered;
            if (r.epoch < last_epoch) ++regressions;
            last_epoch = r.epoch;
          }
          floor.add(pass);
        }
      } catch (...) {
        reader_error = std::current_exception();
      }
    });

    std::vector<double> repair_lag, rebuild_lag, repair_ms, rebuild_ms;
    try {
      for (std::size_t i = 0; i < script.size(); ++i) {
        const rtr::EpochManager::Counters before = manager->counters();
        const std::uint64_t seq = manager->epoch();
        const double lag = time_ms([&] {
          const Span span("serve.epoch");
          if (!manager->begin_rebuild(rtr::Digraph(script[i]))) {
            throw std::runtime_error("begin_rebuild refused: one in flight");
          }
          manager->wait_for_rebuild();
        });
        if (!manager->last_error().empty()) {
          throw std::runtime_error("rebuild failed: " + manager->last_error());
        }
        if (manager->epoch() != seq + 1) {
          throw CheckFailure("epoch did not advance by one after a delta");
        }
        const rtr::EpochManager::Counters after = manager->counters();
        if (after.repairs > before.repairs) {
          repair_lag.push_back(lag);
          repair_ms.push_back(after.last_repair_ms);
        } else {
          rebuild_lag.push_back(lag);
          rebuild_ms.push_back(after.last_rebuild_ms);
        }
      }
    } catch (...) {
      stop.store(true);
      reader_thread.join();
      throw;
    }
    stop.store(true);
    reader_thread.join();
    if (reader_error) std::rethrow_exception(reader_error);
    phases.count(attempted, delivered);
    floor.report(report, "churn.reader_");
    if (regressions != 0) {
      throw CheckFailure(std::to_string(regressions) +
                         " reader answers carried an older epoch than the "
                         "answer before them");
    }
    if (repair_lag.empty() || rebuild_lag.empty()) {
      throw CheckFailure(
          "the churn script did not exercise both repair and rebuild");
    }
    const rtr::EpochManager::Counters c = manager->counters();
    report.layer("serve.repair_lag_ms", median(repair_lag), "ms");
    report.layer("serve.rebuild_lag_ms", median(rebuild_lag), "ms");
    report.layer("serve.repair_ms", median(repair_ms), "ms");
    report.layer("serve.rebuild_ms", median(rebuild_ms), "ms");
    report.layer("serve.repair_share",
                 static_cast<double>(c.repairs) /
                     static_cast<double>(script.size()),
                 "ratio");
    report.layer("serve.repair_fallbacks",
                 static_cast<double>(c.repair_fallbacks), "count");
    report.layer("serve.epochs", static_cast<double>(script.size()), "count");
  });

  phases.run("net.batch", [&] { batch.run_for(0.075 * args.seconds); });
  batch.report(report);

  phases.run("trace.overhead", [&] {
    const rtr::NameAssignment& names = manager->names();
    measure_trace_overhead(report, args.trace, [&] {
      return closed_loop_median_us(
          args.seed, 2000, "serve.by_name", [&](int i) {
            const auto& q = sample[static_cast<std::size_t>(i) % sample.size()];
            (void)manager->roundtrip_by_name(names.name_of(q.src),
                                             names.name_of(q.dst));
          });
    });
  });
}

// ---------------------------------------------------------- snapshot-batch --

void run_snapshot_batch(const Args& args, Report& report, Phases& phases) {
  constexpr NodeId kNodes = 1024;
  constexpr double kServeQps = 20000;

  const std::string path = args.work_dir + "/snapshot-batch.rtrsnap";
  Instance inst;
  std::optional<rtr::SchemeHandle> mapped;
  repeat_setup(phases, report, [&](std::map<std::string, double>& ms) {
    mapped.reset();
    inst = make_instance(rtr::Family::kScaleFree, kNodes, 0, true);
    ms["graph.gen_ms"] = inst.gen_ms;
    ms["rt.metric_ms"] = inst.metric_ms;
    std::shared_ptr<const rtr::Scheme> scheme;
    ms["core.build_ms"] = time_ms([&] {
      const Span b("core.build");
      scheme = rtr::SchemeRegistry::global().build(
          "polystretch", rtr::BuildContext::wrap(inst.graph, inst.metric,
                                                 inst.names, kInstanceSeed));
    });
    ms["io.save_ms"] = time_ms([&] {
      const Span b("io.save");
      rtr::save_snapshot(path, "polystretch",
                         rtr::SchemeHandle(inst.graph, inst.names, scheme));
    });
    ms["io.map_ms"] = time_ms([&] {
      const Span b("io.map");
      mapped.emplace(rtr::map_snapshot(path, "polystretch"));
    });
  });
  report.layer("io.snapshot_bytes_per_node",
               static_cast<double>(std::filesystem::file_size(path)) / kNodes,
               "B");

  const auto engine = make_engine(*mapped);
  const auto sample =
      rtr::QueryEngine::sample_pairs(kNodes, kQualityPairs, args.seed + 1);
  BatchPasses batch(
      phases, engine,
      rtr::QueryEngine::sample_pairs(kNodes, kBatchQueries, args.seed + 2));

  phases.run("net.batch", [&] {
    report.layer("io.first_pass_ms", batch.warm_up(), "ms");
  });
  phases.run("check.quality", [&] {
    check_quality(phases, report, *engine, *inst.metric, sample, *mapped);
  });

  // Batch slices, in-process open-loop slices and closed-loop passes,
  // interleaved.  Every block of the open loop, and every pass, replays the
  // same pairs in the same order, so they differ only in what the host did
  // meanwhile.  Idle between requests, the open loop's figures moved by
  // 10-15% between runs with the load on the host, so query_p50/p90 are
  // pass floors of back-to-back calls (PassFloor), and the open loop's are
  // per-layer.
  const auto pairs_per_block =
      static_cast<std::int64_t>(kServeQps * kInProcessBlockSeconds);
  if (pairs_per_block > static_cast<std::int64_t>(sample.size())) {
    throw std::logic_error("fewer sampled pairs than requests in a block");
  }
  PassFloor floor;
  auto closed_passes = [&](double seconds) {
    const auto t0 = Clock::now();
    do {
      rtr::LatencyHistogram pass;
      std::int64_t delivered = 0;
      for (std::int64_t j = 0; j < pairs_per_block; ++j) {
        const auto& q = sample[static_cast<std::size_t>(j)];
        const auto t = Clock::now();
        if (engine->serve(q.src, q.dst).ok()) ++delivered;
        pass.record((Clock::now() - t).count());
      }
      phases.count(pairs_per_block, delivered);
      floor.add(pass);
    } while (seconds_since(t0) < seconds);
  };
  std::uint64_t base = 0;
  LoadStats serve;
  for (int round = 0; round < kRounds; ++round) {
    phases.run("net.batch",
               [&] { batch.run_for(0.3 * args.seconds / kRounds); });
    phases.run("net.passes",
               [&] { closed_passes(0.2 * args.seconds / kRounds); });
    phases.run("net.openloop", [&] {
      OpenLoopPlan plan;
      plan.total_qps = kServeQps;
      plan.seconds = 0.25 * args.seconds / kRounds;
      plan.block_seconds = kInProcessBlockSeconds;
      plan.busy_wait = true;
      const LoadStats s = run_open_loop(plan, [&](int, std::int64_t k) {
        const auto& q = sample[static_cast<std::size_t>(k % pairs_per_block)];
        const auto idx = base + static_cast<std::uint64_t>(k);
        const Span span(request_span(args.seed, idx, "net.serve"), idx + 1,
                        static_cast<double>(kSpanSampleEvery));
        return engine->serve(q.src, q.dst).ok();
      });
      base += static_cast<std::uint64_t>(s.attempted) + 1;
      phases.count(s.attempted, s.delivered);
      serve.append(s);
    });
  }
  batch.report(report);
  floor.report(report, "net.pass_");
  report_open_loop(report, "net.", serve, BlockSummary::kQuietestBlock,
                   kInProcessBlockSeconds);

  phases.run("trace.overhead", [&] {
    measure_trace_overhead(report, args.trace, [&] {
      return closed_loop_median_us(
          args.seed, 2000, "net.serve", [&](int i) {
            const auto& q = sample[static_cast<std::size_t>(i) % sample.size()];
            (void)engine->serve(q.src, q.dst);
          });
    });
  });

  mapped.reset();
  std::filesystem::remove(path);
}

int run(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 2;
  }
  const std::map<std::string,
                 std::function<void(const Args&, Report&, Phases&)>>
      workloads = {{"net-serve", run_net_serve},
                   {"churn-repair", run_churn_repair},
                   {"snapshot-batch", run_snapshot_batch}};
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "perfbench_run: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  rtr::set_default_apsp_threads(kApspThreads);
  Tracer::global().set_enabled(args.trace);

  Report report;
  report.config("workload", args.workload);
  report.config("seed", static_cast<std::int64_t>(args.seed));
  report.config("seconds", args.seconds);
  report.config("trace", args.trace);
  report.config("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  report.config("apsp_threads", kApspThreads);
  report.config("engine_threads", kEngineThreads);
  report.config("server_batch_threads", kServerBatchThreads);
  report.config("epoch_query_threads", kEpochQueryThreads);
  report.config("net_connections", kNetConnections);
  report.config("setup_repeats", kSetupRepeats);
  report.config("rounds", kRounds);
  std::printf("config: %s\n", report.config_dump().c_str());
  std::fflush(stdout);

  Phases phases(report);
  try {
    const Span span("bench.workload");
    it->second(args, report, phases);
  } catch (const PhaseFailed& e) {
    phases.print();
    std::printf("%s\n", e.what());
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }
  phases.print();
  report.e2e("delivered_share", report.delivered_share(), "ratio");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");

  if (args.trace && !args.spans_path.empty()) {
    Tracer::global().write(args.spans_path);
  }
  for (const std::string& f : report.check_failures()) {
    std::printf("check failed: %s\n", f.c_str());
  }
  std::ofstream out(args.result_path);
  out << report.dump() << '\n';
  if (!out) {
    std::fprintf(stderr, "perfbench_run: cannot write %s\n",
                 args.result_path.c_str());
    return 1;
  }
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
