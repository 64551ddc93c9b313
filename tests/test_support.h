// Shared fixtures/helpers for the test suite.
#ifndef RTR_TESTS_TEST_SUPPORT_H
#define RTR_TESTS_TEST_SUPPORT_H

#include <map>
#include <memory>
#include <mutex>
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

/// A scheme's snapshot sections (its registry arena hooks, nothing else)
/// framed as one arena image: the canonical encoding makes byte equality the
/// strongest available "same tables" check.
inline std::vector<std::uint8_t> scheme_arena_bytes(
    const std::string& scheme_name, const Scheme& scheme) {
  ArenaWriter w;
  SchemeRegistry::global().arena_saver(scheme_name)(scheme, w);
  return w.finalize(scheme_name, 0, 0);
}

}  // namespace rtr::testing

#endif  // RTR_TESTS_TEST_SUPPORT_H
