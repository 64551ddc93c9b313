// rtr_cli -- command-line front end for the library.
//
//   rtr_cli list
//       Print every scheme registered with the global SchemeRegistry.
//   rtr_cli generate <family> <n> <max_weight> <seed>
//       Emit an edge list for a synthetic strongly connected digraph.
//   rtr_cli route <scheme> <src> <dst> [seed]  < graph.edges
//       Build a scheme over the edge list on stdin and run one roundtrip
//       (src/dst are internal node ids; the packet is addressed by the
//       node's TINN name).
//   rtr_cli stats <scheme> [seed]  < graph.edges
//       Print per-node table statistics for the scheme.
//   rtr_cli bench <scheme> <family> <n> [pairs] [threads] [seed]
//       Generate an instance, run a sampled batch through the QueryEngine,
//       and emit a one-line JSON report.
//   rtr_cli snapshot save <scheme> <path> <family> <n> [seed]
//       Build the scheme over a generated instance and freeze it (graph,
//       names, tables) into a versioned binary snapshot at <path>.
//   rtr_cli snapshot load <path> [src dst]
//       Load a snapshot into a ready-to-serve handle; optionally run one
//       roundtrip query against it.
//   rtr_cli snapshot info <path>
//       Check framing and per-section checksums; print the header and the
//       section table with each section's CRC status.  Non-zero exit when
//       the framing or any section is damaged.
//   rtr_cli snapshot map-info <path>
//       mmap(2) the arena in place (the zero-copy serving path), verify
//       every section CRC against the directory, and print the mapped
//       layout: per-section offset, element size/count, and CRC.  Non-zero
//       exit when the file cannot be mapped or any CRC fails.
//   rtr_cli audit <scheme> <family> <n> [seed]
//       Build the scheme over a generated instance and run the deep
//       invariant auditor over the graph, the naming, and every scheme
//       substructure.  Non-zero exit on any violated invariant.
//   rtr_cli audit <file.rtrsnap>
//       Audit a snapshot file in place: framing, per-section CRCs, and
//       cross-section referential integrity, without building the scheme.
//   rtr_cli snapshot bench <scheme> <family> <n> [pairs] [seed]
//       Measure build-vs-load: construct the scheme (timed), save it, load
//       it back (timed), check the loaded handle answers a sampled batch
//       identically, and emit a one-line JSON report with the speedup.
//   rtr_cli churn <scheme> <family> <n> [epochs] [threads] [seed]
//       Live-churn serving: build an EpochManager, then churn the topology
//       through `epochs` background rebuilds while query threads hammer
//       name-keyed roundtrips nonstop.  Emits a one-line JSON report with
//       availability (queries served during rebuilds, failures) and
//       per-epoch stretch continuity.
//
// <scheme> is any registered name (see `rtr_cli list`), e.g. stretch6,
// stretch6-detour, exstretch, polystretch, rtz3, fulltable, hashed64.
//
// Exit status: 0 on success, 1 on routing failure, 2 on usage errors.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "graph/apsp.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "io/snapshot.h"
#include "net/query_engine.h"
#include "net/scheme.h"
#include "rt/metric.h"
#include "serve/churn_harness.h"

namespace {

using namespace rtr;

int usage() {
  std::cerr << "usage: rtr_cli [--threads N] <command> ...\n"
            << "  (--threads: APSP worker pool width; 0/default = hardware "
               "concurrency)\n"
            << "  rtr_cli list\n"
            << "  rtr_cli generate <random|grid|ring|scalefree|bidirected> "
               "<n> <max_weight> <seed>\n"
            << "  rtr_cli route <scheme> <src> <dst> [seed]  < graph.edges\n"
            << "  rtr_cli stats <scheme> [seed]  < graph.edges\n"
            << "  rtr_cli bench <scheme> <family> <n> [pairs] [threads] "
               "[seed]\n"
            << "  rtr_cli snapshot save <scheme> <path> <family> <n> [seed]\n"
            << "  rtr_cli snapshot load <path> [src dst]\n"
            << "  rtr_cli snapshot info <path>\n"
            << "  rtr_cli snapshot map-info <path>\n"
            << "  rtr_cli snapshot bench <scheme> <family> <n> [pairs] "
               "[seed]\n"
            << "  rtr_cli audit <scheme> <family> <n> [seed]\n"
            << "  rtr_cli audit <file.rtrsnap>\n"
            << "  rtr_cli churn <scheme> <family> <n> [epochs] [threads] "
               "[seed]\n"
            << "  scheme:";
  for (const auto& name : SchemeRegistry::global().names()) {
    std::cerr << ' ' << name;
  }
  std::cerr << "\n";
  return 2;
}

Family parse_family(const std::string& s) {
  if (s == "random") return Family::kRandom;
  if (s == "grid") return Family::kGrid;
  if (s == "ring") return Family::kRing;
  if (s == "scalefree") return Family::kScaleFree;
  if (s == "bidirected") return Family::kBidirected;
  throw std::invalid_argument("unknown family: " + s);
}

/// Instance over a generated family graph, shared-ownership pieces as the
/// engine wants them.
BuildContext family_context(Family family, NodeId n, Weight max_weight,
                            std::uint64_t seed) {
  Rng rng(seed);
  return BuildContext::for_graph(make_family(family, n, max_weight, rng), seed);
}

int run_list() {
  const auto& registry = SchemeRegistry::global();
  for (const auto& name : registry.names()) {
    std::cout << name << "\t" << registry.summary(name) << "\n";
  }
  return 0;
}

int run_route(const std::string& scheme_name, NodeId src, NodeId dst,
              std::uint64_t seed) {
  BuildContext ctx = BuildContext::for_graph(read_edge_list(std::cin), seed);
  if (src < 0 || src >= ctx.graph->node_count() || dst < 0 ||
      dst >= ctx.graph->node_count()) {
    std::cerr << "node id out of range\n";
    return 2;
  }
  QueryEngine engine =
      QueryEngine::from_registry(SchemeRegistry::global(), scheme_name, ctx);
  const ServingResult served = engine.serve(src, dst);
  if (!served.ok()) {
    std::cerr << "route failed (" << serving_error_name(served.error)
              << "): " << served.message << "\n";
    return 1;
  }
  const RouteResult& res = served.route;
  const Dist r = ctx.metric->r(src, dst);
  std::cout << "scheme:     " << engine.scheme().name() << "\n"
            << "delivered:  yes\n"
            << "out:        " << res.out_length << " (" << res.out_hops
            << " hops)\n"
            << "back:       " << res.back_length << " (" << res.back_hops
            << " hops)\n"
            << "optimal r:  " << r << "\n"
            << "stretch:    "
            << (r > 0 ? static_cast<double>(res.roundtrip_length()) /
                            static_cast<double>(r)
                      : 1.0)
            << "\n"
            << "header bits: " << res.max_header_bits << "\n";
  return 0;
}

int run_stats(const std::string& scheme_name, std::uint64_t seed) {
  BuildContext ctx = BuildContext::for_graph(read_edge_list(std::cin), seed);
  auto scheme = SchemeRegistry::global().build(scheme_name, ctx);
  std::cout << scheme->name() << ": " << scheme->table_stats().brief() << "\n";
  return 0;
}

int run_bench(const std::string& scheme_name, const std::string& family,
              NodeId n, std::int64_t pairs, int threads, std::uint64_t seed) {
  BuildContext ctx = family_context(parse_family(family), n, 4, seed);
  QueryEngineOptions opts;
  opts.threads = threads;
  QueryEngine engine = QueryEngine::from_registry(SchemeRegistry::global(),
                                                  scheme_name, ctx, opts);
  BatchOptions batch;
  batch.pair_budget = pairs;
  batch.seed = seed + 1;
  StretchReport rep = engine.run_sampled(batch);
  std::cout << "{\"scheme\":\"" << scheme_name << "\",\"family\":\"" << family
            << "\",\"n\":" << ctx.graph->node_count() << ",\"pairs\":"
            << rep.pairs << ",\"failures\":" << rep.failures
            << ",\"invalid\":" << rep.invalid << ",\"first_error\":\""
            << json_escape(rep.first_error) << "\""
            << ",\"mean_stretch\":" << rep.mean_stretch
            << ",\"p99_stretch\":" << rep.p99_stretch
            << ",\"max_stretch\":" << rep.max_stretch
            << ",\"max_header_bits\":" << rep.max_header_bits
            << ",\"threads\":" << engine.worker_count()
            << ",\"wall_seconds\":" << rep.wall_seconds << "}\n";
  return rep.failures == 0 ? 0 : 1;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void print_snapshot_info(const SnapshotInfo& info) {
  std::cout << "scheme:   " << info.scheme << "\n"
            << "version:  " << info.version << "\n"
            << "nodes:    " << info.node_count << "\n"
            << "edges:    " << info.edge_count << "\n"
            << "bytes:    " << info.file_bytes << "\n"
            << "sections:\n";
  for (const auto& s : info.sections) {
    std::printf("  %-31s %12llu bytes  crc32 %08x\n", s.name.c_str(),
                static_cast<unsigned long long>(s.bytes), s.crc);
  }
}

/// `snapshot info`: prints the header and every section with its CRC
/// health; returns non-zero when the file is damaged anywhere.  Damaged
/// framing stops the walk; a damaged section does not hide the others.
int run_snapshot_info(const std::string& path) {
  const std::shared_ptr<const ArenaStorage> storage = map_arena_file(path);
  ArenaView view;
  try {
    view = ArenaView(storage);
  } catch (const SnapshotError& e) {
    std::cout << "file:     " << path << "\n"
              << "bytes:    " << storage->size() << "\n"
              << "framing:  BAD (" << e.what() << ")\n";
    return 1;
  }
  std::cout << "scheme:   " << view.scheme() << "\n"
            << "version:  " << kSnapshotVersion << "\n"
            << "nodes:    " << view.header().node_count << "\n"
            << "edges:    " << view.header().edge_count << "\n"
            << "bytes:    " << view.file_bytes() << "\n"
            << "framing:  ok\n"
            << "sections:\n";
  bool all_ok = true;
  for (const ArenaDirEntry& e : view.entries()) {
    const std::uint32_t actual =
        crc32(storage->data() + e.offset,
              static_cast<std::size_t>(e.byte_size()));
    if (actual == e.crc) {
      std::printf("  %-31s %12llu bytes  crc32 %08x  ok\n",
                  e.name_str().c_str(),
                  static_cast<unsigned long long>(e.byte_size()), e.crc);
    } else {
      all_ok = false;
      std::printf("  %-31s %12llu bytes  crc32 %08x  BAD (recomputed %08x)\n",
                  e.name_str().c_str(),
                  static_cast<unsigned long long>(e.byte_size()), e.crc,
                  actual);
    }
  }
  return all_ok ? 0 : 1;
}

/// `snapshot map-info`: the zero-copy path end to end -- mmap, framing
/// validation (ArenaView construction), then the full per-section CRC sweep
/// the mapped serving path deliberately skips.
int run_snapshot_map_info(const std::string& path) {
  const auto start = std::chrono::steady_clock::now();
  const ArenaView view{map_arena_file(path)};
  const double map_seconds = seconds_since(start);
  view.verify_section_crcs();
  std::cout << "scheme:   " << view.scheme() << "\n"
            << "version:  " << kArenaFormatVersion << " (relocatable arena)\n"
            << "nodes:    " << view.header().node_count << "\n"
            << "edges:    " << view.header().edge_count << "\n"
            << "bytes:    " << view.file_bytes() << "\n"
            << "mapped:   in " << map_seconds
            << " s (framing + header/dir CRC)\n"
            << "sections: (all payload CRCs verified ok)\n";
  for (const ArenaDirEntry& e : view.entries()) {
    std::printf("  %-31s @%-10llu %10llu x %2u bytes  crc32 %08x\n",
                e.name_str().c_str(), static_cast<unsigned long long>(e.offset),
                static_cast<unsigned long long>(e.count), e.elem_size, e.crc);
  }
  return 0;
}

int run_audit_build(const std::string& scheme_name, const std::string& family,
                    NodeId n, std::uint64_t seed) {
  BuildContext ctx = family_context(parse_family(family), n, 4, seed);
  SchemeHandle handle(ctx.graph, ctx.names,
                      SchemeRegistry::global().build(scheme_name, ctx));
  AuditReport report;
  audit_handle(handle, report);
  std::cout << handle.name() << "\n" << report.summary(true);
  return report.ok() ? 0 : 1;
}

int run_audit_snapshot(const std::string& path) {
  AuditReport report;
  audit_snapshot_file(path, report);
  std::cout << path << "\n" << report.summary(true);
  return report.ok() ? 0 : 1;
}

int run_snapshot_save(const std::string& scheme_name, const std::string& path,
                      const std::string& family, NodeId n, std::uint64_t seed) {
  BuildContext ctx = family_context(parse_family(family), n, 4, seed);
  SchemeHandle handle(ctx.graph, ctx.names,
                      SchemeRegistry::global().build(scheme_name, ctx));
  save_snapshot(path, scheme_name, handle);
  print_snapshot_info(inspect_snapshot(path));
  return 0;
}

int run_snapshot_load(const std::string& path, NodeId src, NodeId dst) {
  const auto start = std::chrono::steady_clock::now();
  SchemeHandle handle = load_snapshot(path);
  const double load_seconds = seconds_since(start);
  print_snapshot_info(inspect_snapshot(path));
  std::cout << "loaded:   " << handle.name() << " in " << load_seconds
            << " s\n";
  if (src == kNoNode) return 0;
  if (src < 0 || src >= handle.graph().node_count() || dst < 0 ||
      dst >= handle.graph().node_count()) {
    std::cerr << "node id out of range\n";
    return 2;
  }
  auto res = handle.roundtrip(src, dst);
  std::cout << "query:    " << src << " -> " << dst << " -> " << src
            << (res.ok() ? " delivered" : " FAILED") << ", roundtrip length "
            << res.roundtrip_length() << " (" << res.out_hops + res.back_hops
            << " hops)\n";
  return res.ok() ? 0 : 1;
}

int run_snapshot_bench(const std::string& scheme_name,
                       const std::string& family, NodeId n, std::int64_t pairs,
                       std::uint64_t seed) {
  // PID-suffixed so concurrent benches (e.g. parallel CI jobs on one host)
  // never race on the same scratch file.
  const std::string path = "/tmp/rtr_snapshot_bench_" + scheme_name + "_" +
                           std::to_string(n) + "_" +
                           std::to_string(::getpid()) + ".rtrsnap";
  std::remove(path.c_str());

  // Build path, timed end to end the way a cold process would pay it:
  // graph generation is excluded (both paths need a workload), but APSP,
  // naming, and table construction all count.
  Rng graph_rng(seed);
  GraphBuilder g = make_family(parse_family(family), n, 4, graph_rng);
  const auto build_start = std::chrono::steady_clock::now();
  BuildContext ctx = BuildContext::for_graph(std::move(g), seed);
  SchemeHandle built(ctx.graph, ctx.names,
                     SchemeRegistry::global().build(scheme_name, ctx));
  const double build_seconds = seconds_since(build_start);

  const auto save_start = std::chrono::steady_clock::now();
  save_snapshot(path, scheme_name, built);
  const double save_seconds = seconds_since(save_start);

  const auto load_start = std::chrono::steady_clock::now();
  SchemeHandle loaded = load_snapshot(path, scheme_name);
  const double load_seconds = seconds_since(load_start);

  // Differential check: the loaded handle must answer sampled roundtrips
  // route-for-route like the freshly built one.
  std::int64_t failures = 0, mismatches = 0;
  const NodeId nodes = built.graph().node_count();
  const auto queries = QueryEngine::sample_pairs(nodes, pairs, seed + 1);
  pairs = static_cast<std::int64_t>(queries.size());
  for (const RoundtripQuery& q : queries) {
    const auto [s, t] = q;
    auto ra = built.roundtrip(s, t);
    auto rb = loaded.roundtrip(s, t);
    if (!ra.ok() || !rb.ok()) ++failures;
    if (ra.roundtrip_length() != rb.roundtrip_length() ||
        ra.out_hops != rb.out_hops || ra.back_hops != rb.back_hops) {
      ++mismatches;
    }
  }

  const SnapshotInfo info = inspect_snapshot(path);
  const double speedup =
      load_seconds > 0 ? build_seconds / load_seconds : build_seconds / 1e-9;
  std::cout << "{\"scheme\":\"" << scheme_name << "\",\"family\":\"" << family
            << "\",\"n\":" << built.graph().node_count()
            << ",\"build_seconds\":" << build_seconds
            << ",\"save_seconds\":" << save_seconds
            << ",\"load_seconds\":" << load_seconds
            << ",\"speedup\":" << speedup
            << ",\"file_bytes\":" << info.file_bytes << ",\"pairs\":" << pairs
            << ",\"failures\":" << failures
            << ",\"mismatches\":" << mismatches
            << ",\"answers_match\":" << (mismatches == 0 ? "true" : "false")
            << "}\n";
  std::remove(path.c_str());
  return mismatches == 0 && failures == 0 ? 0 : 1;
}

int run_churn(const std::string& scheme_name, const std::string& family,
              NodeId n, int epochs, int hammer_threads, std::uint64_t seed) {
  Rng graph_rng(seed);
  GraphBuilder builder = make_family(parse_family(family), n, 4, graph_rng);
  builder.assign_adversarial_ports(graph_rng);
  Digraph g = builder.freeze();
  Rng name_rng(seed + 1);
  NameAssignment names = NameAssignment::random(g.node_count(), name_rng);

  ChurnRunOptions opts;
  opts.scheme = scheme_name;
  opts.epochs = epochs;
  opts.hammer_threads = hammer_threads;
  opts.seed = seed;
  opts.churn.rehome_nodes = std::max<NodeId>(1, g.node_count() / 50);
  opts.extra_json_fields = "\"family\":\"" + family + "\",";
  ChurnRunResult result =
      run_churn_workload(std::move(g), std::move(names), opts);
  if (!result.last_error.empty()) {
    std::cerr << "churn: " << result.last_error << "\n";
  }
  std::cout << result.json << "\n";
  return result.ok(epochs) ? 0 : 1;
}

int run_snapshot(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string sub = argv[2];
  if (sub == "save") {
    if (argc < 7 || argc > 8) return usage();
    const std::uint64_t seed =
        argc == 8 ? std::stoull(argv[7]) : std::uint64_t{1};
    return run_snapshot_save(argv[3], argv[4], argv[5],
                             static_cast<NodeId>(std::stol(argv[6])), seed);
  }
  if (sub == "load") {
    if (argc != 4 && argc != 6) return usage();
    NodeId src = kNoNode, dst = kNoNode;
    if (argc == 6) {
      src = static_cast<NodeId>(std::stol(argv[4]));
      dst = static_cast<NodeId>(std::stol(argv[5]));
    }
    return run_snapshot_load(argv[3], src, dst);
  }
  if (sub == "info") {
    if (argc != 4) return usage();
    return run_snapshot_info(argv[3]);
  }
  if (sub == "map-info") {
    if (argc != 4) return usage();
    return run_snapshot_map_info(argv[3]);
  }
  if (sub == "bench") {
    if (argc < 6 || argc > 8) return usage();
    const std::int64_t pairs = argc > 6 ? std::stoll(argv[6]) : 2000;
    const std::uint64_t seed =
        argc > 7 ? std::stoull(argv[7]) : std::uint64_t{1};
    return run_snapshot_bench(argv[3], argv[4],
                              static_cast<NodeId>(std::stol(argv[5])), pairs,
                              seed);
  }
  return usage();
}

int main_inner(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  if (cmd == "list") {
    if (argc != 2) return usage();
    return run_list();
  }

  if (cmd == "generate") {
    if (argc != 6) return usage();
    Rng rng(static_cast<std::uint64_t>(std::stoull(argv[5])));
    const Digraph g = make_family(parse_family(argv[2]),
                                  static_cast<NodeId>(std::stol(argv[3])),
                                  static_cast<Weight>(std::stoll(argv[4])), rng)
                          .freeze();
    write_edge_list(std::cout, g);
    return 0;
  }

  if (cmd == "route") {
    if (argc < 5 || argc > 6) return usage();
    const std::uint64_t seed =
        argc == 6 ? std::stoull(argv[5]) : std::uint64_t{1};
    return run_route(argv[2], static_cast<NodeId>(std::stol(argv[3])),
                     static_cast<NodeId>(std::stol(argv[4])), seed);
  }

  if (cmd == "stats") {
    if (argc < 3 || argc > 4) return usage();
    const std::uint64_t seed =
        argc == 4 ? std::stoull(argv[3]) : std::uint64_t{1};
    return run_stats(argv[2], seed);
  }

  if (cmd == "snapshot") {
    return run_snapshot(argc, argv);
  }

  if (cmd == "audit") {
    // One operand: a snapshot file.  Three or four: scheme/family/n/[seed].
    if (argc == 3) return run_audit_snapshot(argv[2]);
    if (argc < 5 || argc > 6) return usage();
    const std::uint64_t seed =
        argc == 6 ? std::stoull(argv[5]) : std::uint64_t{1};
    return run_audit_build(argv[2], argv[3],
                           static_cast<NodeId>(std::stol(argv[4])), seed);
  }

  if (cmd == "churn") {
    if (argc < 5 || argc > 8) return usage();
    const int epochs = argc > 5 ? std::stoi(argv[5]) : 3;
    const int threads = argc > 6 ? std::stoi(argv[6]) : 4;
    const std::uint64_t seed =
        argc > 7 ? std::stoull(argv[7]) : std::uint64_t{1};
    return run_churn(argv[2], argv[3], static_cast<NodeId>(std::stol(argv[4])),
                     epochs, threads, seed);
  }

  if (cmd == "bench") {
    if (argc < 5 || argc > 8) return usage();
    const std::int64_t pairs = argc > 5 ? std::stoll(argv[5]) : 2000;
    const int threads = argc > 6 ? std::stoi(argv[6]) : 0;
    const std::uint64_t seed =
        argc > 7 ? std::stoull(argv[7]) : std::uint64_t{1};
    return run_bench(argv[2], argv[3], static_cast<NodeId>(std::stol(argv[4])),
                     pairs, threads, seed);
  }

  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Global flag, valid before the subcommand: --threads N sets the
    // process-wide APSP pool width (0 = hardware concurrency, the default).
    std::vector<char*> args(argv, argv + argc);
    for (std::size_t i = 1; i + 1 < args.size(); ++i) {
      if (std::string(args[i]) == "--threads") {
        set_default_apsp_threads(std::stoi(args[i + 1]));
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                   args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
        break;
      }
    }
    return main_inner(static_cast<int>(args.size()), args.data());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
