// rtr_routed -- the network serving daemon.
//
//   rtr_routed [--scheme NAME] [--family random|grid|ring|scale-free|
//              bidirected] [--n N] [--max-weight W] [--seed S]
//              [--metric auto|dense|sparse]
//              [--bind ADDR] [--port P] [--port-file PATH]
//              [--duration-s X] [--churn-interval-s X] [--churn-epochs K]
//              [--repair] [--churn-fraction F] [--acceptors A]
//       Builds the scheme over a generated strongly-connected instance,
//       stands up an EpochManager, and serves GET /route, /healthz, /stats
//       (HTTP/1.1 keep-alive) plus the rtr-wire/1 binary framing on one TCP
//       port.  --port 0 binds an ephemeral port; --port-file publishes the
//       bound port for scripts.  With --churn-interval-s the topology churns
//       and the epoch swaps live under load every interval, up to
//       --churn-epochs swaps -- queries keep answering throughout.
//       --repair switches the churn to port-stable and routes small deltas
//       through incremental epoch repair (O(affected region) instead of a
//       full preprocess); /stats reports repairs / repair_fallbacks /
//       last_repair_ms either way.  --churn-fraction caps the per-epoch
//       edge churn rate (default ~30%; keep it under the 5% repair
//       threshold for --repair to actually repair).
//
//   rtr_routed --snapshot FILE [--mapped] [--scheme NAME] ...
//       Serves a prebuilt .rtrsnap dataset instead of building: the OSRM
//       routed-over-prebuilt-dataset mode.  --mapped serves straight off an
//       mmap of the file (v2 snapshots).
//
// On exit (duration elapsed or SIGINT/SIGTERM) the final /stats document is
// printed to stdout.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "graph/churn.h"
#include "graph/generators.h"
#include "io/snapshot.h"
#include "serve/epoch_manager.h"
#include "server/route_server.h"

namespace {

using namespace rtr;

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

struct Args {
  std::string scheme = "stretch6";
  std::string family = "random";
  NodeId n = 256;
  Weight max_weight = 16;
  std::uint64_t seed = 1;
  std::string metric = "auto";
  std::string bind = "127.0.0.1";
  int port = 0;
  std::string port_file;
  double duration_s = 0;  // 0 = run until signal
  double churn_interval_s = 0;
  int churn_epochs = 0;
  bool repair = false;  // incremental epoch repair for small churn deltas
  double churn_fraction = -1;  // <0: the ChurnOptions defaults (~30%/epoch)
  int acceptors = 1;
  std::string snapshot;
  bool mapped = false;
};

Family parse_family_arg(const std::string& s) {
  if (s == "random") return Family::kRandom;
  if (s == "grid") return Family::kGrid;
  if (s == "ring") return Family::kRing;
  if (s == "scale-free") return Family::kScaleFree;
  if (s == "bidirected") return Family::kBidirected;
  throw std::runtime_error("unknown family: " + s);
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--scheme") {
      args.scheme = next();
    } else if (flag == "--family") {
      args.family = next();
    } else if (flag == "--n") {
      args.n = static_cast<NodeId>(std::stol(next()));
    } else if (flag == "--max-weight") {
      args.max_weight = static_cast<Weight>(std::stoll(next()));
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(std::stoull(next()));
    } else if (flag == "--metric") {
      args.metric = next();
    } else if (flag == "--bind") {
      args.bind = next();
    } else if (flag == "--port") {
      args.port = static_cast<int>(std::stol(next()));
    } else if (flag == "--port-file") {
      args.port_file = next();
    } else if (flag == "--duration-s") {
      args.duration_s = std::stod(next());
    } else if (flag == "--churn-interval-s") {
      args.churn_interval_s = std::stod(next());
    } else if (flag == "--churn-epochs") {
      args.churn_epochs = static_cast<int>(std::stol(next()));
    } else if (flag == "--repair") {
      args.repair = true;
    } else if (flag == "--churn-fraction") {
      args.churn_fraction = std::stod(next());
    } else if (flag == "--acceptors") {
      args.acceptors = static_cast<int>(std::stol(next()));
    } else if (flag == "--snapshot") {
      args.snapshot = next();
    } else if (flag == "--mapped") {
      args.mapped = true;
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      throw std::runtime_error("unknown flag: " + flag);
    }
  }
  return true;
}

void write_port_file(const std::string& path, int port) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "%d\n", port);
  std::fclose(f);
}

int serve(const Args& args, const ServingSource& source,
          EpochManager* manager, Digraph* topology) {
  RouteServerOptions server_options;
  server_options.bind_address = args.bind;
  server_options.port = args.port;
  server_options.acceptor_threads = args.acceptors;
  RouteServer server(source, server_options);

  std::cout << "rtr_routed serving " << source.scheme_name() << " over "
            << source.current_epoch()->engine->names().node_count()
            << " nodes on " << args.bind << ":"
            << server.port() << std::endl;
  write_port_file(args.port_file, server.port());

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  Rng churn_rng(args.seed + 1000);
  ChurnOptions churn;
  // Incremental repair only pays off when the adversary is not renumbering
  // every port each epoch (a global relabel touches every edge, so the
  // delta always exceeds the repair threshold); --repair therefore churns
  // port-stable and lets the EpochManager route small deltas through
  // SchemeRegistry::repair().
  churn.reassign_ports = !args.repair;
  if (args.churn_fraction >= 0) {
    // Split the requested per-epoch edge-churn rate between rewires and
    // weight perturbations; a rate under the EpochManager's
    // repair_max_fraction keeps --repair on the repair path instead of
    // falling back (the ChurnOptions defaults churn ~30% of edges).
    churn.rewire_fraction = args.churn_fraction / 2;
    churn.perturb_fraction = args.churn_fraction / 2;
  }
  int swaps = 0;
  double next_churn_at = args.churn_interval_s;
  while (g_stop == 0 &&
         (args.duration_s <= 0 || elapsed() < args.duration_s)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Live epoch swap under load: churn the topology and rebuild while the
    // server keeps answering from the pinned current epoch.
    if (manager != nullptr && topology != nullptr &&
        args.churn_interval_s > 0 &&
        (args.churn_epochs <= 0 || swaps < args.churn_epochs) &&
        elapsed() >= next_churn_at) {
      *topology = churn_step(*topology, churn, churn_rng);
      const std::uint64_t repairs_before = manager->counters().repairs;
      manager->rebuild_now(Digraph(*topology));
      ++swaps;
      next_churn_at += args.churn_interval_s;
      const bool repaired = manager->counters().repairs > repairs_before;
      std::cout << "epoch " << manager->epoch() << " published ("
                << (repaired ? "repair " : "rebuild ")
                << manager->current()->build_seconds << " s)" << std::endl;
    }
  }

  server.stop();
  std::cout << server.stats_json().dump();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  try {
    Args args;
    if (!parse_args(argc, argv, args)) {
      std::cout
          << "usage: rtr_routed [--scheme NAME] [--family F] [--n N]\n"
             "  [--max-weight W] [--seed S] [--metric auto|dense|sparse]\n"
             "  [--bind ADDR] [--port P] [--port-file PATH]\n"
             "  [--duration-s X] [--churn-interval-s X] [--churn-epochs K]\n"
             "  [--repair] [--acceptors A] [--snapshot FILE [--mapped]]\n";
      return 0;
    }

    if (!args.snapshot.empty()) {
      // Prebuilt-dataset mode: one immutable epoch straight from the file.
      SchemeHandle handle =
          args.mapped ? map_snapshot(args.snapshot, args.scheme)
                      : load_snapshot(args.snapshot, args.scheme);
      auto engine = std::make_shared<const QueryEngine>(
          handle.graph_ptr(), nullptr, handle.names(), handle.scheme_ptr());
      const std::string scheme_name = handle.name();
      auto epoch = std::make_shared<const Epoch>(
          0, std::move(handle), nullptr, std::move(engine),
          /*from_cache=*/true, /*build_seconds=*/0.0);
      StaticServingSource source(std::move(epoch), scheme_name);
      return serve(args, source, nullptr, nullptr);
    }

    Rng topo_rng(args.seed);
    GraphBuilder builder =
        make_family(parse_family_arg(args.family), args.n, args.max_weight,
                    topo_rng);
    Digraph graph = builder.freeze();
    Rng name_rng(args.seed + 7);
    NameAssignment names =
        NameAssignment::random(graph.node_count(), name_rng);

    EpochManagerOptions manager_options;
    manager_options.scheme_seed = args.seed;
    manager_options.metric_mode = parse_metric_mode(args.metric);
    manager_options.enable_repair = args.repair;
    EpochManager manager(args.scheme, std::move(names), Digraph(graph),
                         manager_options);
    ManagerServingSource source(manager);
    return serve(args, source, &manager, &graph);
  } catch (const std::exception& e) {
    std::cerr << "rtr_routed: " << e.what() << "\n";
    return 1;
  }
}
