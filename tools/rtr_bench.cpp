// rtr_bench -- the unified benchmark orchestrator.
//
//   rtr_bench [--quick|--full] [--out FILE] [--rev REV]
//             [--families a,b,...] [--sizes 128,256,...]
//             [--schemes s1,s2,...] [--pairs N] [--threads N] [--seed S]
//             [--metric auto|dense|sparse]
//             [--no-snapshot-phase] [--no-net-serving]
//       Sweeps schemes x graph families x sizes, measures the construction /
//       batch-query / snapshot-load phases plus table and memory accounting
//       (the paper's stretch and per-node table size columns), runs the
//       end-to-end net_serving cell (RouteServer + loadgen over loopback TCP
//       across a live epoch swap), and writes a schema-versioned
//       BENCH_<rev>.json.
//
//   rtr_bench --check BASELINE CURRENT [--qps-tolerance 0.25]
//       The CI perf gate: exits non-zero when CURRENT misses a baseline cell,
//       reports failed queries, increases any cell's avg stretch, regresses
//       qps by more than the tolerance, or regresses a snapshot/repair phase
//       time (timings only gated when host and thread count match).
//
//   rtr_bench --check-growth FILE
//       The nightly full-sweep gate: exits non-zero when a sqrt-n scheme's
//       bytes/node or build_ms grows faster across the document's sizes than
//       its O~(sqrt n) / O~(n sqrt n) budget allows (growth RATES, so no
//       committed full baseline is needed and hardware drops out).
//
//   rtr_bench --audit [--families ...] [--sizes ...] [--schemes ...]
//             [--rev REV] [--out FILE] [--seed S]
//       Builds every configured scheme x family x size cell, runs the deep
//       invariant auditor over each built artifact, and writes the combined
//       AUDIT_<rev>.json (per-invariant pass/fail plus measured-vs-budget
//       numbers, so CI can archive invariant headroom next to the perf
//       documents).  Non-zero exit when any cell violates any invariant.
//
// Families: random | grid | ring | scale-free | bidirected.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "bench_harness/bench_harness.h"
#include "graph/apsp.h"
#include "graph/generators.h"
#include "net/scheme.h"

namespace {

using namespace rtr;
using namespace rtr::bench_harness;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick|--full] [--out FILE] [--rev REV]\n"
               "          [--families f1,f2] [--sizes n1,n2] [--schemes s1,s2]\n"
               "          [--pairs N] [--threads N (0 = hardware)] [--seed S]\n"
               "          [--metric auto|dense|sparse]\n"
               "          [--no-snapshot-phase] [--no-net-serving]\n"
               "       %s --check BASELINE CURRENT [--qps-tolerance T]\n"
               "       %s --check-growth FILE\n"
               "       %s --audit [--families ...] [--sizes ...] "
               "[--schemes ...] [--rev REV] [--out FILE]\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

Family family_by_name(const std::string& name) {
  for (const Family f : all_families()) {
    if (family_name(f) == name) return f;
  }
  // Accept the common aliases used in the ISSUE/README.
  if (name == "power-law" || name == "scale_free") return Family::kScaleFree;
  if (name == "ring+chords") return Family::kRing;
  throw std::invalid_argument("unknown family: " + name);
}

int run_growth_check(const std::string& path) {
  const auto doc = Json::parse(read_text_file(path));
  std::vector<std::string> violations;
  try {
    violations = check_growth_budgets(doc);
  } catch (const GrowthGateError& e) {
    // Malformed input (single-size sweep, zero-valued baseline cell):
    // distinct exit code so CI can tell "budget exceeded" (1) from "the gate
    // never ran" (2).
    std::fprintf(stderr, "growth gate INVALID: %s\n", e.what());
    return 2;
  }
  if (violations.empty()) {
    std::printf("growth gate OK: %zu cells in %s within the O~(sqrt n) budgets\n",
                cells_from_json(doc).size(), path.c_str());
    return 0;
  }
  std::fprintf(stderr, "growth gate FAILED (%zu violations):\n",
               violations.size());
  for (const std::string& v : violations) {
    std::fprintf(stderr, "  %s\n", v.c_str());
  }
  return 1;
}

/// `--audit`: one auditor run per configured cell, all folded into one
/// schema-versioned document next to the perf BENCH_*.json artifacts.
int run_audit(const BenchConfig& config, const std::string& rev,
              const std::string& out_path) {

  std::vector<std::string> schemes = config.schemes;
  if (schemes.empty()) schemes = SchemeRegistry::global().names();

  Json doc{JsonObject{}};
  doc.set("schema", "rtr-audit-suite/1");
  doc.set("rev", rev);
  JsonArray cells;
  bool all_ok = true;
  std::int64_t failed_cells = 0;
  for (const Family family : config.families) {
    for (const NodeId n : config.sizes) {
      Rng rng(config.seed);
      BuildContext ctx = BuildContext::for_graph(
          make_family(family, n, 4, rng), config.seed);
      for (const std::string& scheme_name : schemes) {
        SchemeHandle handle(ctx.graph, ctx.names,
                            SchemeRegistry::global().build(scheme_name, ctx));
        AuditReport report;
        audit_handle(handle, report);
        std::cerr << "audit " << scheme_name << " x " << family_name(family)
                  << " n=" << n << ": "
                  << (report.ok() ? "ok" : "FAILED") << " ("
                  << report.total_count() << " invariants)\n";
        if (!report.ok()) {
          std::cerr << report.summary(false);
          ++failed_cells;
          all_ok = false;
        }
        Json cell = Json::parse(report.to_json_string());
        cell.set("scheme", scheme_name);
        cell.set("family", std::string(family_name(family)));
        cell.set("n", static_cast<std::int64_t>(n));
        cells.push_back(std::move(cell));
      }
    }
  }
  doc.set("ok", all_ok);
  doc.set("cells", std::move(cells));
  const std::string path =
      out_path.empty() ? "AUDIT_" + rev + ".json" : out_path;
  write_text_file(path, doc.dump());
  std::printf("wrote %s (%zu cells, %lld failed)\n", path.c_str(),
              config.families.size() * config.sizes.size() * schemes.size(),
              static_cast<long long>(failed_cells));
  return all_ok ? 0 : 1;
}

int run_check(const std::string& baseline_path, const std::string& current_path,
              const GateOptions& options) {
  const auto baseline =
      Json::parse(read_text_file(baseline_path));
  const auto current = Json::parse(read_text_file(current_path));
  std::vector<std::string> notes;
  const std::vector<std::string> violations =
      compare_to_baseline(baseline, current, options, &notes);
  for (const std::string& n : notes) {
    std::fprintf(stderr, "note: %s\n", n.c_str());
  }
  if (violations.empty()) {
    std::printf("perf gate OK: %zu baseline cells checked against %s\n",
                cells_from_json(baseline).size(), current_path.c_str());
    return 0;
  }
  std::fprintf(stderr, "perf gate FAILED (%zu violations):\n",
               violations.size());
  for (const std::string& v : violations) {
    std::fprintf(stderr, "  %s\n", v.c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    BenchConfig config = BenchConfig::quick();
    std::string out_path;
    std::string rev = "dev";
    std::string check_baseline, check_current, check_growth;
    bool audit_mode = false;
    GateOptions gate;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--quick") {
        config = BenchConfig::quick();
      } else if (arg == "--full") {
        config = BenchConfig::full();
      } else if (arg == "--out") {
        out_path = next();
      } else if (arg == "--rev") {
        rev = next();
      } else if (arg == "--families") {
        config.families.clear();
        for (const auto& f : split_csv(next())) {
          config.families.push_back(family_by_name(f));
        }
      } else if (arg == "--sizes") {
        config.sizes.clear();
        for (const auto& s : split_csv(next())) {
          config.sizes.push_back(static_cast<rtr::NodeId>(std::stol(s)));
        }
      } else if (arg == "--schemes") {
        config.schemes = split_csv(next());
      } else if (arg == "--pairs") {
        config.pair_budget = std::stoll(next());
      } else if (arg == "--threads") {
        config.threads = std::stoi(next());
      } else if (arg == "--seed") {
        config.seed = std::stoull(next());
      } else if (arg == "--metric") {
        config.metric_mode = rtr::parse_metric_mode(next());
      } else if (arg == "--no-snapshot-phase") {
        config.snapshot_phase = false;
      } else if (arg == "--no-net-serving") {
        config.net_serving = false;
      } else if (arg == "--check") {
        check_baseline = next();
        check_current = next();
      } else if (arg == "--check-growth") {
        check_growth = next();
      } else if (arg == "--audit") {
        audit_mode = true;
      } else if (arg == "--qps-tolerance") {
        gate.qps_drop_tolerance = std::stod(next());
      } else if (arg == "--help" || arg == "-h") {
        return usage(argv[0]);
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        return usage(argv[0]);
      }
    }

    if (!check_growth.empty()) {
      return run_growth_check(check_growth);
    }
    if (!check_baseline.empty()) {
      return run_check(check_baseline, check_current, gate);
    }

    for (const std::string& s : config.schemes) {
      if (!SchemeRegistry::global().contains(s)) {
        std::fprintf(stderr, "unknown scheme: %s\n", s.c_str());
        return 2;
      }
    }

    if (audit_mode) {
      set_default_apsp_threads(config.threads);
      return run_audit(config, rev, out_path);
    }

    // --threads (default: hardware concurrency) drives the QueryEngine
    // worker pool and -- via the process default -- every
    // all_pairs_shortest_paths call the sweep makes.  The resolved
    // value lands in the document's host block.
    set_default_apsp_threads(config.threads);

    const SuiteResult result = run_suite(config, &std::cerr);
    const std::string path =
        out_path.empty() ? default_output_name(rev) : out_path;
    write_text_file(path, suite_to_json(result, config, rev).dump());
    std::int64_t failures = 0;
    for (const auto& cell : result.cells) failures += cell.failures;
    std::printf("wrote %s (%zu cells, %lld failed queries)\n", path.c_str(),
                result.cells.size(), static_cast<long long>(failures));
    // The orchestrator itself gates on correctness: a failed roundtrip in any
    // cell is an error exit, so smoke jobs cannot silently pass on a broken
    // scheme.
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtr_bench: %s\n", e.what());
    return 1;
  }
}
