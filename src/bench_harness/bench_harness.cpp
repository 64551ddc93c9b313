#include "bench_harness/bench_harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "core/names.h"
#include "graph/apsp.h"
#include "graph/churn.h"
#include "io/snapshot.h"
#include "net/scheme.h"
#include "rt/metric.h"
#include "serve/epoch_manager.h"
#include "server/loadgen.h"
#include "server/route_server.h"
#include "util/rng.h"

namespace rtr::bench_harness {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

// ----------------------------------------------------------------- timing --

TimedPhase run_timed(const IterationPolicy& policy,
                     const std::function<void()>& fn) {
  double warm_ms = -1;
  for (int i = 0; i < policy.warmup_reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    warm_ms = ms_since(t0);
  }
  TimedPhase out;
  if (policy.min_rep_ms > 0 && warm_ms >= 0 && warm_ms < policy.min_rep_ms) {
    constexpr int kMaxInner = 64;
    out.inner_iterations = warm_ms <= policy.min_rep_ms / kMaxInner
                               ? kMaxInner
                               : static_cast<int>(policy.min_rep_ms / warm_ms) + 1;
  }
  std::vector<double> times;
  const int min_reps = std::max(1, policy.min_reps);
  const int max_reps = std::max(min_reps, policy.max_reps);
  const int window = std::max(2, policy.window);
  while (static_cast<int>(times.size()) < max_reps) {
    const auto t0 = Clock::now();
    for (int k = 0; k < out.inner_iterations; ++k) fn();
    times.push_back(ms_since(t0) / out.inner_iterations);
    if (static_cast<int>(times.size()) < min_reps) continue;
    if (static_cast<int>(times.size()) >= window) {
      const auto tail = times.end() - window;
      const double lo = *std::min_element(tail, times.end());
      const double hi = *std::max_element(tail, times.end());
      if (lo > 0 && (hi - lo) / lo <= policy.steady_rel_spread) {
        out.steady = true;
        break;
      }
    }
  }
  out.reps = static_cast<int>(times.size());
  out.best_ms = *std::min_element(times.begin(), times.end());
  double sum = 0;
  for (const double t : times) sum += t;
  out.mean_ms = sum / static_cast<double>(times.size());
  return out;
}

std::string host_cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (cpuinfo && std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string normalize_cpu_model(std::string_view model) {
  // Whitespace runs collapse to one space, and the ends are trimmed.
  std::string out;
  for (const char c : model) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) {
      out.push_back(c);
    } else if (!out.empty() && out.back() != ' ') {
      out.push_back(' ');
    }
  }
  if (!out.empty() && out.back() == ' ') out.pop_back();
  // Then a trailing clock suffix: "@ 2.10GHz", "@2.10 GHz".
  const auto at = out.rfind('@');
  if (at != std::string::npos && out.ends_with("GHz")) {
    std::string_view clock(out);
    clock = clock.substr(at + 1, clock.size() - at - 4);
    if (clock.starts_with(' ')) clock.remove_prefix(1);
    if (clock.ends_with(' ')) clock.remove_suffix(1);
    if (!clock.empty() && std::all_of(clock.begin(), clock.end(), [](char c) {
          return std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.';
        })) {
      out.erase(at);
      if (!out.empty() && out.back() == ' ') out.pop_back();
    }
  }
  return out;
}

std::int64_t current_rss_kb() {
  std::ifstream status("/proc/self/status");
  if (!status) return -1;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::int64_t kb = -1;
      if (std::sscanf(line.c_str(), "VmRSS: %" SCNd64, &kb) == 1) return kb;
      return -1;
    }
  }
  return -1;
}

bool reset_peak_rss() {
  // Writing "5" to clear_refs resets the VmHWM watermark to the current RSS
  // (Linux >= 4.0); after that, VmHWM reads as the peak of just the phase
  // since the reset.  Without the reset VmHWM is a process-lifetime maximum,
  // which would make per-cell peaks monotone garbage -- so failure here must
  // be reported, not ignored.
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs) return false;
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

std::int64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  if (!status) return -1;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::int64_t kb = -1;
      if (std::sscanf(line.c_str(), "VmHWM: %" SCNd64, &kb) == 1) return kb;
      return -1;
    }
  }
  return -1;
}

// ------------------------------------------------------------------ suite --

BenchConfig BenchConfig::quick() {
  BenchConfig c;
  c.families = {Family::kRandom, Family::kGrid, Family::kRing};
  c.sizes = {128, 256};
  // Each timed rep must be tens of milliseconds, not single-digit: on a
  // noisy (shared CI) host, sub-5ms reps make best-of qps swing by 2x and
  // trip the regression gate spuriously.  12k pairs x ~2us keeps one rep
  // around 25-50ms while the whole quick sweep stays in CI-smoke territory.
  c.pair_budget = 12000;
  c.latency_sample = 500;
  c.iterations.warmup_reps = 1;
  c.iterations.min_reps = 3;
  c.iterations.max_reps = 8;
  c.iterations.min_rep_ms = 25;
  c.net_serving = true;
  return c;
}

BenchConfig BenchConfig::full() {
  BenchConfig c;
  c.families = {Family::kRandom, Family::kScaleFree, Family::kGrid,
                Family::kRing};
  c.sizes = {128, 256, 512, 1024, 2048, 4096};
  c.pair_budget = 6000;
  c.latency_sample = 2000;
  c.net_serving = true;
  return c;
}

namespace {

std::vector<std::string> resolve_schemes(const BenchConfig& config) {
  if (!config.schemes.empty()) return config.schemes;
  return SchemeRegistry::global().names();
}

/// Everything shared by the cells of one (family, n) instance.
struct Instance {
  std::shared_ptr<const Digraph> graph;
  std::shared_ptr<const RoundtripMetric> metric;  // kDense only
  NameAssignment names = NameAssignment::identity(0);
  double apsp_ms = 0;
};

Instance build_instance(Family family, NodeId n, Weight max_weight,
                        std::uint64_t seed,
                        MetricMode metric_mode = MetricMode::kAuto,
                        int threads = 0) {
  Instance inst;
  Rng rng(seed);
  GraphBuilder builder = make_family(family, n, max_weight, rng);
  builder.assign_adversarial_ports(rng);
  inst.names = NameAssignment::random(builder.node_count(), rng);
  inst.graph = std::make_shared<const Digraph>(builder.freeze());
  // Only kDense's matrix is built once here and shared by every cell: it is
  // immutable.  kAuto's roundtrip table (and the neighborhood hint) fill
  // during a scheme build, so a shared metric would let a cell's build_ms
  // reuse what earlier cells made; run_cell makes each cell its own instead.
  if (metric_mode == MetricMode::kDense) {
    const auto t0 = Clock::now();
    inst.metric = make_roundtrip_metric(inst.graph, metric_mode, threads);
    inst.apsp_ms = ms_since(t0);
  }
  return inst;
}

double percentile_ns(std::vector<double>& ns, double q) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(ns.size() - 1) + 0.5);
  return ns[std::min(rank, ns.size() - 1)];
}

CellResult run_cell(const Instance& inst, const std::string& scheme_name,
                    Family family, NodeId n, const BenchConfig& config) {
  CellResult cell;
  cell.scheme = scheme_name;
  cell.family = family_name(family);
  cell.n = inst.graph->node_count();
  cell.apsp_ms = inst.apsp_ms;
  std::shared_ptr<const RoundtripMetric> metric = inst.metric;
  if (metric == nullptr) {
    // A fresh sparse metric costs O(m): one reversal and one SCC check.
    const auto t0 = Clock::now();
    metric = make_roundtrip_metric(inst.graph, config.metric_mode,
                                   config.threads);
    cell.apsp_ms = ms_since(t0);
  }

  BuildContext ctx = BuildContext::wrap(
      inst.graph, metric, inst.names,
      config.seed + static_cast<std::uint64_t>(n),
      {{"threads", std::to_string(config.threads)}});

  // --- construction phase -------------------------------------------------
#ifdef __GLIBC__
  // Hand the pages earlier cells freed back first: the reset sets the
  // watermark to the current RSS, which would otherwise include them.
  malloc_trim(0);
#endif
  const bool peak_armed = reset_peak_rss();
  const std::int64_t rss_before = current_rss_kb();
  const auto build_t0 = Clock::now();
  std::shared_ptr<const Scheme> scheme =
      SchemeRegistry::global().build(scheme_name, ctx);
  cell.build_ms = ms_since(build_t0);
  const std::int64_t rss_after = current_rss_kb();
  if (rss_before >= 0 && rss_after >= 0) {
    cell.build_rss_delta_kb = std::max<std::int64_t>(0, rss_after - rss_before);
  }
  if (peak_armed) cell.peak_rss_kb = peak_rss_kb();

  const TableStats stats = scheme->table_stats();
  cell.table_entries_max = stats.max_entries();
  cell.bytes_per_node = stats.mean_bits() / 8.0;

  // --- batch query phase --------------------------------------------------
  // qps times the routes alone: the engine carries no metric, so no stretch
  // denominator r(s,t) runs inside the timed loop.  The stretch figures come
  // from one untimed pass over the same pairs with the metric.
  QueryEngineOptions opts;
  opts.threads = config.threads;
  QueryEngine engine(inst.graph, nullptr, inst.names, scheme, opts);
  const auto pairs = QueryEngine::sample_pairs(
      cell.n, config.pair_budget, config.seed + 1);
  const TimedPhase query = run_timed(
      config.iterations, [&] { (void)engine.run_batch(pairs); });
  const StretchReport report =
      QueryEngine(inst.graph, metric, inst.names, scheme, opts)
          .run_batch(pairs);
  cell.query_reps = query.reps;
  cell.query_steady = query.steady;
  cell.pairs = report.pairs;
  cell.failures = report.failures;
  cell.invalid = report.invalid;
  cell.mean_stretch = report.mean_stretch;
  cell.p99_stretch = report.p99_stretch;
  cell.max_stretch = report.max_stretch;
  cell.max_header_bits = report.max_header_bits;
  cell.first_error = report.first_error;
  cell.qps = query.best_ms > 0
                 ? static_cast<double>(report.pairs) / (query.best_ms / 1e3)
                 : 0;

  // --- per-query latency distribution -------------------------------------
  const auto sample = static_cast<std::size_t>(std::min<std::int64_t>(
      config.latency_sample, static_cast<std::int64_t>(pairs.size())));
  std::vector<double> latencies_ns;
  latencies_ns.reserve(sample);
  for (std::size_t i = 0; i < sample; ++i) {
    const auto t0 = Clock::now();
    const ServingResult answer = engine.serve(pairs[i].src, pairs[i].dst);
    const double ns = ms_since(t0) * 1e6;
    // A failed query is already counted by the batch phase; its latency is
    // not a serving latency.
    if (answer.ok()) latencies_ns.push_back(ns);
  }
  cell.p50_query_ns = percentile_ns(latencies_ns, 0.50);
  cell.p99_query_ns = percentile_ns(latencies_ns, 0.99);

  // --- snapshot load phase ------------------------------------------------
  if (config.snapshot_phase &&
      SchemeRegistry::global().snapshot_supported(scheme_name)) {
    namespace fs = std::filesystem;
    const fs::path path =
        fs::temp_directory_path() /
        ("rtr_bench_" + scheme_name + "_" + cell.family + "_" +
         std::to_string(cell.n) + ".rtrsnap");
    SchemeHandle handle(inst.graph, inst.names, scheme);
    try {
      save_snapshot(path.string(), scheme_name, handle);
      const auto t0 = Clock::now();
      SchemeHandle loaded = load_snapshot(path.string(), scheme_name);
      cell.snapshot_load_ms = ms_since(t0);
      const auto t1 = Clock::now();
      SchemeHandle mapped = map_snapshot(path.string(), scheme_name);
      cell.snapshot_map_ms = ms_since(t1);
    } catch (const SnapshotError& e) {
      // A scheme with hooks must save, load, and map: a failure fails the
      // cell (and the run) like a failed query, with the reason attached.
      cell.failures += 1;
      if (cell.first_error.empty()) {
        cell.first_error = std::string("snapshot phase: ") + e.what();
      }
    }
    std::error_code ec;
    fs::remove(path, ec);
  }
  return cell;
}

// ------------------------------------------------------- net serving cell --

/// The end-to-end serving measurement: the rtr_routed core (RouteServer over
/// an EpochManager) driven by the loadgen across loopback TCP, with one live
/// epoch swap deliberately overlapping the measured load.  qps and the
/// latency percentiles are socket-to-socket, so this column prices the whole
/// front end (parse, serve, format) rather than the bare engine.
/// `failures` is the availability gate: every request must come back with a
/// definitive answer even while the next epoch builds and publishes.
CellResult run_net_serving_cell(const BenchConfig& config,
                                const std::string& scheme) {
  CellResult cell;
  cell.scheme = scheme;
  cell.family = "net_serving";
  const NodeId n =
      config.sizes.empty()
          ? 128
          : *std::max_element(config.sizes.begin(), config.sizes.end());
  cell.n = n;
  try {
    Rng rng(config.seed + 9001);
    GraphBuilder builder =
        make_family(Family::kRandom, n, config.max_weight, rng);
    builder.assign_adversarial_ports(rng);
    NameAssignment names = NameAssignment::random(builder.node_count(), rng);
    Digraph graph = builder.freeze();

    EpochManagerOptions manager_options;
    manager_options.query_threads = config.threads;
    manager_options.scheme_seed = config.seed;
    manager_options.metric_mode = config.metric_mode;
    const auto t0 = Clock::now();
    EpochManager manager(scheme, std::move(names), Digraph(graph),
                         manager_options);
    cell.build_ms = ms_since(t0);

    ManagerServingSource source(manager);
    RouteServer server(source);

    Rng churn_rng(config.seed + 9002);
    ChurnOptions churn;
    Digraph next = churn_step(graph, churn, churn_rng);

    LoadgenOptions load;
    load.port = server.port();
    load.connections = 2;
    load.requests = config.pair_budget;
    load.name_count = static_cast<NodeName>(n);
    load.seed = config.seed + 9003;

    // The swap races the whole measured window: rebuild in the background,
    // drive the closed-loop workload, then require the swap to have landed.
    manager.begin_rebuild(std::move(next));
    const LoadgenResult result = run_loadgen(load);
    manager.wait_for_rebuild();
    server.stop();

    cell.qps = result.qps;
    cell.p50_query_ns = result.latency.percentile(0.50);
    cell.p99_query_ns = result.latency.percentile(0.99);
    cell.query_reps = 1;
    cell.query_steady = true;
    cell.pairs = result.requests;
    cell.failures = result.failures;
    if (result.availability < 1.0) {
      cell.first_error = "availability " +
                         std::to_string(result.availability) +
                         " under live epoch swap";
    } else if (manager.epoch() == 0) {
      cell.failures += 1;
      cell.first_error = "epoch swap did not publish during the run: " +
                         manager.last_error();
    }
  } catch (const std::exception& e) {
    cell.failures = config.pair_budget > 0 ? config.pair_budget : 1;
    cell.first_error = e.what();
  }
  return cell;
}

}  // namespace

SuiteResult run_suite(const BenchConfig& config, std::ostream* progress) {
  SuiteResult result;
  const std::vector<std::string> schemes = resolve_schemes(config);
  for (const Family family : config.families) {
    for (const NodeId n : config.sizes) {
      const Instance inst = build_instance(
          family, n, config.max_weight,
          config.seed + static_cast<std::uint64_t>(n) * 31 +
              static_cast<std::uint64_t>(family),
          config.metric_mode, config.threads);
      for (const std::string& scheme : schemes) {
        CellResult cell = run_cell(inst, scheme, family, n, config);
        if (progress != nullptr) {
          *progress << cell.scheme << " " << cell.family << " n=" << cell.n
                    << " build_ms=" << cell.build_ms << " qps=" << cell.qps
                    << " mean_stretch=" << cell.mean_stretch
                    << " failures=" << cell.failures
                    << (cell.first_error.empty() ? ""
                                                 : " error=" + cell.first_error)
                    << "\n";
        }
        result.cells.push_back(std::move(cell));
      }
    }
  }
  if (config.net_serving && !schemes.empty()) {
    // One serving cell on the front scheme (stretch6 when registered -- the
    // paper's flagship), at the sweep's largest size.
    const std::string serving_scheme =
        std::find(schemes.begin(), schemes.end(), "stretch6") != schemes.end()
            ? std::string("stretch6")
            : schemes.front();
    CellResult cell = run_net_serving_cell(config, serving_scheme);
    if (progress != nullptr) {
      *progress << cell.scheme << " " << cell.family << " n=" << cell.n
                << " qps=" << cell.qps << " p99_ns=" << cell.p99_query_ns
                << " failures=" << cell.failures
                << (cell.first_error.empty() ? "" : " error=" + cell.first_error)
                << "\n";
    }
    result.cells.push_back(std::move(cell));
  }
  return result;
}

// ------------------------------------------------------------------- json --

Json cell_to_json(const CellResult& c) {
  Json j{JsonObject{}};
  j.set("scheme", c.scheme);
  j.set("family", c.family);
  j.set("n", static_cast<std::int64_t>(c.n));
  j.set("apsp_ms", c.apsp_ms);
  j.set("build_ms", c.build_ms);
  j.set("snapshot_load_ms", c.snapshot_load_ms);
  j.set("snapshot_map_ms", c.snapshot_map_ms);
  j.set("repair_ms", c.repair_ms);
  j.set("full_rebuild_ms", c.full_rebuild_ms);
  j.set("qps", c.qps);
  j.set("p50_query_ns", c.p50_query_ns);
  j.set("p99_query_ns", c.p99_query_ns);
  j.set("query_reps", static_cast<std::int64_t>(c.query_reps));
  j.set("query_steady", c.query_steady);
  j.set("build_rss_delta_kb", c.build_rss_delta_kb);
  j.set("peak_rss_kb", c.peak_rss_kb);
  j.set("pairs", c.pairs);
  j.set("failures", c.failures);
  j.set("invalid", c.invalid);
  j.set("mean_stretch", c.mean_stretch);
  j.set("p99_stretch", c.p99_stretch);
  j.set("max_stretch", c.max_stretch);
  j.set("max_header_bits", c.max_header_bits);
  j.set("table_entries_max", c.table_entries_max);
  j.set("bytes_per_node", c.bytes_per_node);
  j.set("first_error", c.first_error);
  return j;
}

CellResult cell_from_json(const Json& j) {
  CellResult c;
  c.scheme = j.at("scheme").as_string();
  c.family = j.at("family").as_string();
  c.n = static_cast<NodeId>(j.at("n").as_int());
  c.apsp_ms = j.at("apsp_ms").as_double();
  c.build_ms = j.at("build_ms").as_double();
  c.snapshot_load_ms = j.at("snapshot_load_ms").as_double();
  // Tolerant read: documents from before the mmap column parse as "phase
  // not measured", exactly like peak_rss_kb below.
  c.snapshot_map_ms =
      j.has("snapshot_map_ms") ? j.at("snapshot_map_ms").as_double() : -1;
  c.repair_ms = j.has("repair_ms") ? j.at("repair_ms").as_double() : -1;
  c.full_rebuild_ms =
      j.has("full_rebuild_ms") ? j.at("full_rebuild_ms").as_double() : -1;
  c.qps = j.at("qps").as_double();
  c.p50_query_ns = j.at("p50_query_ns").as_double();
  c.p99_query_ns = j.at("p99_query_ns").as_double();
  c.query_reps = static_cast<int>(j.at("query_reps").as_int());
  c.query_steady = j.at("query_steady").as_bool();
  c.build_rss_delta_kb = j.at("build_rss_delta_kb").as_int();
  // Tolerant read: documents from before the peak-RSS column (older
  // baselines) parse as "not measured", same as a host without clear_refs.
  c.peak_rss_kb = j.has("peak_rss_kb") ? j.at("peak_rss_kb").as_int() : -1;
  c.pairs = j.at("pairs").as_int();
  c.failures = j.at("failures").as_int();
  c.invalid = j.at("invalid").as_int();
  c.mean_stretch = j.at("mean_stretch").as_double();
  c.p99_stretch = j.at("p99_stretch").as_double();
  c.max_stretch = j.at("max_stretch").as_double();
  c.max_header_bits = j.at("max_header_bits").as_int();
  c.table_entries_max = j.at("table_entries_max").as_int();
  c.bytes_per_node = j.at("bytes_per_node").as_double();
  c.first_error = j.at("first_error").as_string();
  return c;
}

namespace {

void check_schema(const Json& doc) {
  if (!doc.is_object() || !doc.has("schema") ||
      doc.at("schema").as_string() != kSchemaVersion) {
    throw JsonError(std::string("BENCH document is not ") +
                               kSchemaVersion);
  }
}

}  // namespace

// GCC 12 mis-models the moved-from Json variant's inlined vector members
// and reports spurious -Wmaybe-uninitialized on the std::move()s below (same
// class of false positive as snapshot_format.h's -Wstringop-overflow, GCC
// PR 105329 family); suppress just that diagnostic for this function.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
Json suite_to_json(const SuiteResult& result, const BenchConfig& config,
                   const std::string& rev) {
  Json doc{JsonObject{}};
  doc.set("schema", kSchemaVersion);
  doc.set("rev", rev);
  Json cfg{JsonObject{}};
  {
    JsonArray fams;
    for (const Family f : config.families) fams.push_back(family_name(f));
    cfg.set("families", std::move(fams));
    JsonArray sizes;
    for (const NodeId n : config.sizes) {
      sizes.push_back(static_cast<std::int64_t>(n));
    }
    cfg.set("sizes", std::move(sizes));
    cfg.set("pair_budget", config.pair_budget);
    cfg.set("latency_sample", config.latency_sample);
    cfg.set("threads", static_cast<std::int64_t>(config.threads));
    cfg.set("seed", static_cast<std::int64_t>(config.seed));
    cfg.set("metric", std::string(metric_mode_name(config.metric_mode)));
    cfg.set("max_weight", static_cast<std::int64_t>(config.max_weight));
    cfg.set("net_serving", config.net_serving);
  }
  doc.set("config", std::move(cfg));
  Json host{JsonObject{}};
  host.set("cpu", host_cpu_model());
  host.set("threads",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  // The resolved --threads value the run actually used (engine workers and
  // APSP pool width), so baselines from differently-threaded runs are
  // distinguishable even though both documents echo the same config shape.
  host.set("threads_configured",
           static_cast<std::int64_t>(resolve_apsp_threads(config.threads)));
  doc.set("host", std::move(host));
  JsonArray cells;
  for (const CellResult& c : result.cells) cells.push_back(cell_to_json(c));
  doc.set("cells", std::move(cells));
  return doc;
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

std::vector<CellResult> cells_from_json(const Json& doc) {
  check_schema(doc);
  std::vector<CellResult> out;
  for (const Json& j : doc.at("cells").as_array()) {
    out.push_back(cell_from_json(j));
  }
  return out;
}

std::string default_output_name(const std::string& rev) {
  return "BENCH_" + rev + ".json";
}

void write_text_file(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + tmp + " for writing");
    out << content;
    if (!out.flush()) throw std::runtime_error("short write to " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ------------------------------------------------------------------- gate --

std::vector<std::string> check_growth_budgets(const Json& doc,
                                              const GrowthGateOptions& options) {
  std::vector<std::string> violations;
  const std::vector<CellResult> cells = cells_from_json(doc);
  // Count (scheme, family) series the gate actually evaluated: a document
  // that produces zero evaluations (wrong schemes, single-size sweep) must
  // be a typed failure, or a misconfigured nightly job would green forever.
  int gated_series = 0;
  for (const std::string& scheme : options.schemes) {
    // Group this scheme's cells by family, sorted by n.
    std::vector<std::string> families;
    for (const CellResult& c : cells) {
      // "net_serving" is a single-point end-to-end measurement, not a size
      // series; it carries no table/memory columns for a growth ratio.
      if (c.family == "net_serving") continue;
      if (c.scheme == scheme &&
          std::find(families.begin(), families.end(), c.family) ==
              families.end()) {
        families.push_back(c.family);
      }
    }
    for (const std::string& family : families) {
      std::vector<const CellResult*> series;
      for (const CellResult& c : cells) {
        if (c.scheme == scheme && c.family == family) series.push_back(&c);
      }
      std::sort(series.begin(), series.end(),
                [](const CellResult* a, const CellResult* b) {
                  return a->n < b->n;
                });
      const auto key = scheme + "|" + family;
      if (series.size() < 2) {
        throw GrowthGateError(
            "check_growth_budgets: " + key + " has only " +
            std::to_string(series.size()) +
            " size(s); a growth gate needs a multi-size sweep (pass at least "
            "two --sizes)");
      }
      // Gate the series ENDPOINTS, not consecutive steps: over one doubling
      // the sqrt-budget-with-slack still admits linear growth (2x actual vs
      // ~2.1x allowed), while over the full sweep range (n ratio 32) the
      // separation is unambiguous -- sqrt budget ~5.7x * polylog vs 32x for
      // a linear regression.
      const CellResult& lo = *series.front();
      const CellResult& hi = *series.back();
      if (hi.n <= lo.n) {
        throw GrowthGateError("check_growth_budgets: " + key +
                              " endpoints are both n=" + std::to_string(lo.n) +
                              "; duplicate sizes cannot support a growth "
                              "ratio (pass distinct --sizes)");
      }
      const double size_ratio =
          static_cast<double>(hi.n) / static_cast<double>(lo.n);
      const double log_ratio = std::log2(static_cast<double>(hi.n)) /
                               std::log2(static_cast<double>(lo.n));
      ++gated_series;
      if (!(lo.bytes_per_node > 0) || !std::isfinite(lo.bytes_per_node) ||
          !std::isfinite(hi.bytes_per_node)) {
        // bytes_per_node is deterministic and positive for every real build;
        // zero or non-finite means a truncated/corrupt document, and dividing
        // by it would turn the gate into NaN/inf comparisons that never fire.
        throw GrowthGateError(
            "check_growth_budgets: " + key + " has non-positive or " +
            "non-finite bytes_per_node at an endpoint (lo=" +
            std::to_string(lo.bytes_per_node) + ", hi=" +
            std::to_string(hi.bytes_per_node) + "); document is malformed");
      }
      {
        const double allowed =
            std::sqrt(size_ratio) * log_ratio * log_ratio * options.bytes_slack;
        const double actual = hi.bytes_per_node / lo.bytes_per_node;
        if (actual > allowed) {
          char buf[200];
          std::snprintf(buf, sizeof buf,
                        "%s: bytes/node grew %.2fx from n=%d to n=%d "
                        "(O~(sqrt n) budget allows %.2fx)",
                        key.c_str(), actual, lo.n, hi.n, allowed);
          violations.emplace_back(buf);
        }
      }
      if (lo.peak_rss_kb >= options.min_peak_rss_kb &&
          hi.peak_rss_kb >= options.min_peak_rss_kb) {
        // Total-memory budget: graph + metric rows + tables in O~(n sqrt n).
        // Only armed when both endpoints cleared the floor (below it,
        // allocator round-off dominates) and the kernel reported a peak.
        const double allowed = size_ratio * std::sqrt(size_ratio) * log_ratio *
                               log_ratio * options.rss_slack;
        const double actual = static_cast<double>(hi.peak_rss_kb) /
                              static_cast<double>(lo.peak_rss_kb);
        if (actual > allowed) {
          char buf[220];
          std::snprintf(buf, sizeof buf,
                        "%s: peak RSS grew %.2fx from n=%d (%lld KiB) to n=%d "
                        "(%lld KiB); O~(n sqrt n) memory budget allows %.2fx",
                        key.c_str(), actual, lo.n,
                        static_cast<long long>(lo.peak_rss_kb), hi.n,
                        static_cast<long long>(hi.peak_rss_kb), allowed);
          violations.emplace_back(buf);
        }
      }
      if (lo.build_ms > options.min_build_ms &&
          hi.build_ms > options.min_build_ms) {
        const double allowed = size_ratio * std::sqrt(size_ratio) *
                               log_ratio * log_ratio * options.build_slack;
        const double actual = hi.build_ms / lo.build_ms;
        if (actual > allowed) {
          char buf[200];
          std::snprintf(buf, sizeof buf,
                        "%s: build_ms grew %.2fx from n=%d to n=%d "
                        "(O~(n sqrt n) budget allows %.2fx)",
                        key.c_str(), actual, lo.n, hi.n, allowed);
          violations.emplace_back(buf);
        }
      }
      // An owned snapshot load reads and checksums the same O~(n sqrt n)
      // table bytes, so it shares the build budget.  A negative value at
      // either endpoint is the "phase skipped" sentinel (scheme without
      // snapshot hooks, phase disabled, old document) -- explicitly skipped,
      // never fed into a ratio; the min_build_ms floor then drops sub-noise
      // times.
      if (lo.snapshot_load_ms >= 0 && hi.snapshot_load_ms >= 0 &&
          lo.snapshot_load_ms > options.min_build_ms &&
          hi.snapshot_load_ms > options.min_build_ms) {
        const double allowed = size_ratio * std::sqrt(size_ratio) *
                               log_ratio * log_ratio * options.build_slack;
        const double actual = hi.snapshot_load_ms / lo.snapshot_load_ms;
        if (actual > allowed) {
          char buf[200];
          std::snprintf(buf, sizeof buf,
                        "%s: snapshot_load_ms grew %.2fx from n=%d to n=%d "
                        "(O~(n sqrt n) budget allows %.2fx)",
                        key.c_str(), actual, lo.n, hi.n, allowed);
          violations.emplace_back(buf);
        }
      }
    }
  }
  if (gated_series == 0) {
    throw GrowthGateError(
        "check_growth_budgets: no gated scheme/family series found in the "
        "document; the gate would pass vacuously (check --schemes against "
        "the gated set and sweep at least two sizes)");
  }
  return violations;
}

std::vector<std::string> compare_to_baseline(const Json& baseline,
                                             const Json& current,
                                             const GateOptions& options,
                                             std::vector<std::string>* notes) {
  std::vector<std::string> violations;
  const std::vector<CellResult> base = cells_from_json(baseline);
  const std::vector<CellResult> cur = cells_from_json(current);
  const auto key = [](const CellResult& c) {
    return c.scheme + "|" + c.family + "|" + std::to_string(c.n);
  };
  // Throughput is only comparable when BOTH the CPU model and the
  // configured thread count match (each fingerprint is skipped when either
  // document predates its stamp).  Models compare normalised: the same part
  // reports "... Processor @ 2.10GHz" on one kernel and "... Processor" on
  // another.
  const auto host_of = [](const Json& doc) -> std::string {
    if (doc.has("host") && doc.at("host").has("cpu")) {
      return doc.at("host").at("cpu").as_string();
    }
    return "";
  };
  const auto threads_of = [](const Json& doc) -> std::int64_t {
    if (doc.has("host") && doc.at("host").has("threads_configured")) {
      return doc.at("host").at("threads_configured").as_int();
    }
    // Unstamped documents predate the stamp, when the engine default was a
    // fixed threads=1 -- the only value they could have been measured with.
    return 1;
  };
  const std::string base_host = host_of(baseline);
  const std::string cur_host = host_of(current);
  const std::int64_t base_threads = threads_of(baseline);
  const std::int64_t cur_threads = threads_of(current);
  const bool hosts_match = base_host.empty() || cur_host.empty() ||
                           normalize_cpu_model(base_host) ==
                               normalize_cpu_model(cur_host);
  const bool threads_match = base_threads == cur_threads;
  const bool qps_comparable = hosts_match && threads_match;
  if (!qps_comparable && notes != nullptr) {
    if (!hosts_match) {
      notes->push_back("qps gate skipped: baseline host \"" + base_host +
                       "\" != current host \"" + cur_host +
                       "\"; refresh BENCH_baseline.json from a run on this "
                       "hardware to arm it");
    } else {
      notes->push_back(
          "qps gate skipped: baseline ran with threads_configured=" +
          std::to_string(base_threads) + " but current ran with " +
          std::to_string(cur_threads) +
          "; rerun with matching --threads to arm it");
    }
  }
  for (const CellResult& b : base) {
    const auto it = std::find_if(cur.begin(), cur.end(), [&](const CellResult& c) {
      return key(c) == key(b);
    });
    if (it == cur.end()) {
      violations.push_back("missing cell vs baseline: " + key(b));
      continue;
    }
    const CellResult& c = *it;
    if (c.failures > 0) {
      violations.push_back(key(b) + ": " + std::to_string(c.failures) +
                           " failed queries (" + c.first_error + ")");
    }
    // net_serving qps is a single socket-to-socket pass with an epoch swap
    // deliberately landing mid-run (no best-of reps to steady it), so its
    // throughput is not gateable; the cell's contract is the failures ==
    // 0 availability check above.
    const bool qps_gated = c.family != "net_serving";
    if (qps_comparable && qps_gated && b.qps > 0 &&
        c.qps < b.qps * (1.0 - options.qps_drop_tolerance)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s: qps regressed %.0f -> %.0f (more than %.0f%%)",
                    key(b).c_str(), b.qps, c.qps,
                    options.qps_drop_tolerance * 100);
      violations.emplace_back(buf);
    }
    if (c.mean_stretch > b.mean_stretch + options.stretch_epsilon) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s: avg stretch increased %.6f -> %.6f",
                    key(b).c_str(), b.mean_stretch, c.mean_stretch);
      violations.emplace_back(buf);
    }
    // Snapshot-phase regressions.  A -1 on EITHER side means "phase skipped
    // or not measured" (an old baseline, a scheme without snapshot hooks, a
    // failed save) -- a sentinel, not a time -- so it is never compared;
    // likewise sub-floor times, where single-shot measurement noise
    // dominates.  Timing comparability follows the qps rule (same host CPU
    // and thread count).
    const auto check_phase = [&](const char* label, double base_ms,
                                 double cur_ms) {
      if (!qps_comparable) return;
      if (base_ms < 0 || cur_ms < 0) return;  // sentinel: skip, never compare
      if (base_ms <= options.min_snapshot_phase_ms ||
          cur_ms <= options.min_snapshot_phase_ms) {
        return;
      }
      if (cur_ms > base_ms * (1.0 + options.snapshot_regression_tolerance)) {
        char buf[180];
        std::snprintf(buf, sizeof buf,
                      "%s: %s regressed %.2fms -> %.2fms (more than %.0f%%)",
                      key(b).c_str(), label, base_ms, cur_ms,
                      options.snapshot_regression_tolerance * 100);
        violations.emplace_back(buf);
      }
    };
    check_phase("snapshot_load_ms", b.snapshot_load_ms, c.snapshot_load_ms);
    check_phase("snapshot_map_ms", b.snapshot_map_ms, c.snapshot_map_ms);
    // Rebuild-latency rows from the churn_serving bench: the incremental
    // repair must not regress, and neither may the full rebuild it replaces.
    check_phase("repair_ms", b.repair_ms, c.repair_ms);
    check_phase("full_rebuild_ms", b.full_rebuild_ms, c.full_rebuild_ms);
  }
  return violations;
}

}  // namespace rtr::bench_harness
