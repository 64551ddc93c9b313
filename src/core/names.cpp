#include "core/names.h"

#include <stdexcept>
#include <string>

#include "audit/audit.h"
#include "io/arena.h"

namespace rtr {

void NameAssignment::save_arena(ArenaWriter& w,
                                const std::string& prefix) const {
  w.add(prefix + "name_of", name_of_);
  w.add(prefix + "id_of", id_of_);
}

NameAssignment NameAssignment::from_arena(const ArenaView& a,
                                          const std::string& prefix) {
  const std::uint64_t n = a.header().node_count;
  NameAssignment names;
  names.name_of_ = a.vec<NodeName>(prefix + "name_of", n);
  names.id_of_ = a.vec<NodeId>(prefix + "id_of", n);
  // One linear pass replaces the constructor's inverse rebuild: both arrays
  // must be mutually inverse permutations of [0, n).
  for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
    const NodeName name = names.name_of_[static_cast<std::size_t>(id)];
    if (name < 0 || name >= static_cast<NodeName>(n) ||
        names.id_of_[static_cast<std::size_t>(name)] != id) {
      throw SnapshotArenaError(
          "arena: names sections are not mutually inverse permutations");
    }
  }
  names.arena_ = a.storage();
  return names;
}

NameAssignment NameAssignment::identity(NodeId n) {
  std::vector<NodeName> names(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) names[static_cast<std::size_t>(i)] = i;
  return NameAssignment(std::move(names));
}

NameAssignment NameAssignment::random(NodeId n, Rng& rng) {
  return NameAssignment(rng.permutation(n));
}

NameAssignment::NameAssignment(std::vector<NodeName> name_of_id)
    : name_of_(std::move(name_of_id)) {
  const auto n = static_cast<NodeId>(name_of_.size());
  std::vector<NodeId> id_of(static_cast<std::size_t>(n), kNoNode);
  for (NodeId id = 0; id < n; ++id) {
    NodeName name = name_of_[static_cast<std::size_t>(id)];
    if (name < 0 || name >= n) {
      throw std::invalid_argument("NameAssignment: name out of range");
    }
    if (id_of[static_cast<std::size_t>(name)] != kNoNode) {
      throw std::invalid_argument("NameAssignment: duplicate name");
    }
    id_of[static_cast<std::size_t>(name)] = id;
  }
  id_of_ = std::move(id_of);
}

void NameAssignment::audit(AuditReport& report) const {
  const NodeId n = node_count();
  report.check("inverse-sized", id_of_.size() == name_of_.size(),
               "id_of/name_of size mismatch");
  bool bijective = id_of_.size() == name_of_.size();
  std::string detail;
  for (NodeId id = 0; bijective && id < n; ++id) {
    const NodeName name = name_of_[static_cast<std::size_t>(id)];
    if (name < 0 || name >= n) {
      bijective = false;
      detail = "name " + std::to_string(name) + " of id " + std::to_string(id) +
               " outside [0, " + std::to_string(n) + ")";
    } else if (id_of_[static_cast<std::size_t>(name)] != id) {
      bijective = false;
      detail = "id_of[name_of[" + std::to_string(id) + "]] != " +
               std::to_string(id) + " (not a bijection)";
    }
  }
  report.check("name-bijection", bijective, std::move(detail));
}

}  // namespace rtr
