// Shared fixtures/helpers for the test suite.
#ifndef RTR_TESTS_TEST_SUPPORT_H
#define RTR_TESTS_TEST_SUPPORT_H

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/names.h"
#include "graph/apsp.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "graph/scc.h"
#include "io/arena.h"
#include "net/scheme.h"
#include "rt/metric.h"
#include "util/rng.h"

namespace rtr::testing {

/// A generated test instance: graph + adversarial names/ports + metric.
struct Instance {
  Digraph graph{0};
  NameAssignment names = NameAssignment::identity(0);
  std::shared_ptr<const RoundtripMetric> metric;

  [[nodiscard]] NodeId n() const { return graph.node_count(); }

  /// The instance as a registry BuildContext (scheme randomness from
  /// `scheme_seed`).  The graph is copied into shared ownership, so the
  /// context and anything built from it may outlive this Instance.
  [[nodiscard]] BuildContext context(std::uint64_t scheme_seed) const {
    return BuildContext::wrap(std::make_shared<const Digraph>(graph), metric,
                              names, scheme_seed);
  }
};

/// Process-lifetime memoized instance, keyed by the full generation recipe
/// (family, n, max_weight, seed).  Many fixtures across the suite ask for
/// the same instances; the APSP metric is the dominant cost of each, so
/// building every distinct recipe once cuts ctest wall time.  The cached
/// Instance is immutable; tests that mutate take a copy via make_instance.
inline std::shared_ptr<const Instance> shared_instance(Family family, NodeId n,
                                                       Weight max_weight,
                                                       std::uint64_t seed) {
  using Key = std::tuple<int, NodeId, Weight, std::uint64_t>;
  static std::mutex mutex;
  static auto& cache =
      *new std::map<Key, std::shared_ptr<const Instance>>();  // leaked: process-lifetime
  const Key key{static_cast<int>(family), n, max_weight, seed};
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  auto inst = std::make_shared<Instance>();
  Rng rng(seed);
  GraphBuilder builder = make_family(family, n, max_weight, rng);
  builder.assign_adversarial_ports(rng);
  inst->graph = builder.freeze();
  inst->names = NameAssignment::random(inst->graph.node_count(), rng);
  inst->metric = std::make_shared<DenseRoundtripMetric>(inst->graph);
  return cache.emplace(key, std::move(inst)).first->second;
}

/// Builds a family instance with adversarial (random) ports and names.
/// Served from the shared_instance cache; the returned copy is the caller's
/// to mutate (the heavyweight metric stays shared -- it is immutable).
inline Instance make_instance(Family family, NodeId n, Weight max_weight,
                              std::uint64_t seed) {
  return *shared_instance(family, n, max_weight, seed);
}

/// Parameter tuple for family sweeps: (family, n, seed).
using FamilyParam = std::tuple<Family, NodeId, std::uint64_t>;

inline std::string family_param_name(const FamilyParam& p) {
  auto [family, n, seed] = p;
  std::string name = family_name(family);
  for (auto& c : name) {
    if (c == '+' || c == '-') c = '_';
  }
  return name + "_n" + std::to_string(n) + "_s" + std::to_string(seed);
}

/// Streams the sections `fill` adds to an ArenaWriter into an anonymous
/// temporary file, finishes the arena as `scheme`, and returns the file's
/// bytes: the image save_snapshot writes for the same sections.
template <typename Fill>
std::vector<std::uint8_t> arena_image(Fill&& fill, const std::string& scheme,
                                      std::int64_t node_count = 0,
                                      std::int64_t edge_count = 0) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(std::tmpfile(),
                                                            &std::fclose);
  if (file == nullptr) throw std::runtime_error("arena_image: no tmpfile");
  ArenaWriter w(::fileno(file.get()), "tmpfile");
  fill(w);
  w.finish(scheme, node_count, edge_count);
  std::fseek(file.get(), 0, SEEK_END);
  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(std::ftell(file.get())));
  std::rewind(file.get());
  if (std::fread(bytes.data(), 1, bytes.size(), file.get()) != bytes.size()) {
    throw std::runtime_error("arena_image: short read");
  }
  return bytes;
}

/// Lowers this process's file-size limit (RLIMIT_FSIZE) with SIGXFSZ
/// ignored, so a write past `bytes` fails with EFBIG instead of killing the
/// process; both come back on scope exit.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    ::setrlimit(RLIMIT_FSIZE, &lowered);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = SIG_DFL;
};

/// A scheme's snapshot sections (its registry arena hooks, nothing else)
/// framed as one arena image: the canonical encoding makes byte equality the
/// strongest available "same tables" check.
inline std::vector<std::uint8_t> scheme_arena_bytes(
    const std::string& scheme_name, const Scheme& scheme) {
  return arena_image(
      [&](ArenaWriter& w) {
        SchemeRegistry::global().arena_saver(scheme_name)(scheme, w);
      },
      scheme_name);
}

}  // namespace rtr::testing

#endif  // RTR_TESTS_TEST_SUPPORT_H
