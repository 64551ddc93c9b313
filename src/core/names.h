// The TINN name layer (Section 1.1.2).
//
// Node names are an adversarial permutation of {0..n-1}, decoupled from
// topology.  Schemes key *all* dictionary structures by name; the permutation
// is only consulted at preprocessing time (a real deployment's node knows its
// own name).  Tests verify routing behaviour is invariant under renaming.
#ifndef RTR_CORE_NAMES_H
#define RTR_CORE_NAMES_H

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/flat_vec.h"
#include "util/rng.h"
#include "util/types.h"

namespace rtr {

class AuditReport;  // audit/audit.h
class ArenaStorage;  // io/arena.h
class ArenaView;
class ArenaWriter;

/// Bijection internal NodeId <-> TINN NodeName.
class NameAssignment {
 public:
  /// Identity naming (name == id).
  static NameAssignment identity(NodeId n);

  /// Adversarial (uniformly random) naming.
  static NameAssignment random(NodeId n, Rng& rng);

  /// From an explicit permutation; throws if not a permutation of [0, n).
  explicit NameAssignment(std::vector<NodeName> name_of_id);

  /// Arena path: both permutation arrays as sections under `prefix` (the
  /// snapshot's own naming lives at "names/"), so a mapped load views them
  /// in place (a cheap linear inverse check replaces the constructor's
  /// rebuild).
  void save_arena(ArenaWriter& w, const std::string& prefix = "names/") const;
  [[nodiscard]] static NameAssignment from_arena(
      const ArenaView& a, const std::string& prefix = "names/");

  [[nodiscard]] NodeId node_count() const {
    return static_cast<NodeId>(name_of_.size());
  }
  [[nodiscard]] NodeName name_of(NodeId id) const {
    return name_of_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] NodeId id_of(NodeName name) const {
    if (name < 0 || name >= node_count()) {
      throw std::out_of_range("NameAssignment::id_of: unknown name");
    }
    return id_of_[static_cast<std::size_t>(name)];
  }
  [[nodiscard]] const FlatVec<NodeName>& names() const { return name_of_; }

  /// Auditable: name_of_/id_of_ are mutually inverse permutations of [0, n)
  /// (the TINN bijection the constructor enforces, re-verified in case the
  /// vectors were rebuilt by a snapshot load or mutated through a peer).
  void audit(AuditReport& report) const;

 private:
  friend struct AuditTestPeer;
  NameAssignment() = default;  // from_arena fills the views
  FlatVec<NodeName> name_of_;
  FlatVec<NodeId> id_of_;
  // Non-null iff the FlatVecs view a mapped/owned arena region.
  std::shared_ptr<const ArenaStorage> arena_;
};

}  // namespace rtr

#endif  // RTR_CORE_NAMES_H
