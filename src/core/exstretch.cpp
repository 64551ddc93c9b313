#include "core/exstretch.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "audit/audit.h"
#include "graph/apsp.h"
#include "io/arena.h"
#include "util/bit_cost.h"
#include "util/parallel.h"

namespace rtr {

namespace {

/// A staged table entry: row key, waypoint name, and the tree R2 to the
/// waypoint runs through (TreeRef{}: the node itself, a default label).
struct StagedEntry {
  std::int32_t key = 0;  // (2): the peer's name; (3): pack(i, p)
  NodeName node = kNoNode;
  TreeRef tree;
};

}  // namespace

void ExStretchScheme::save_arena(ArenaWriter& w,
                                 const std::string& prefix) const {
  cover_.save_arena(w, prefix + "cover/");
  w.add(prefix + "nbr_off", nbr_off_);
  w.add(prefix + "nbr_key", nbr_key_);
  nbr_r2_.save_arena(w, prefix + "nbr_r2_");
  w.add(prefix + "dict_off", dict_off_);
  w.add(prefix + "dict_key", dict_key_);
  w.add(prefix + "dict_node", dict_node_);
  dict_r2_.save_arena(w, prefix + "dict_r2_");
  // The name assignment is NOT embedded: the arena's top-level names
  // sections are the same assignment, and the loader receives them.
  SnapshotWriter meta;
  alphabet_.save(meta);
  save_block_assignment(meta, assignment_);
  meta.i64(node_space_);
  meta.i64(port_space_);
  w.add_bytes(prefix + "meta", meta.bytes().data(), meta.size());
}

ExStretchScheme ExStretchScheme::from_arena(const ArenaView& a,
                                            const std::string& prefix,
                                            const NameAssignment& names) {
  SnapshotReader meta = a.reader(prefix + "meta");
  ExStretchScheme s(names, Alphabet::load(meta));
  s.assignment_ = load_block_assignment(meta);
  s.node_space_ = meta.i64();
  s.port_space_ = meta.i64();
  meta.expect_exhausted("exstretch arena meta");

  const NodeId n = names.node_count();
  const auto rows = static_cast<std::uint64_t>(n) + 1;
  s.cover_ = CoverTable::from_arena(a, prefix + "cover/", n);
  s.nbr_off_ = a.vec<std::int64_t>(prefix + "nbr_off", rows);
  s.nbr_key_ = a.vec<NodeName>(prefix + "nbr_key");
  s.nbr_r2_ =
      PackedR2Labels::from_arena(a, prefix + "nbr_r2_", s.nbr_key_.size());
  s.dict_off_ = a.vec<std::int64_t>(prefix + "dict_off", rows);
  s.dict_key_ = a.vec<std::int32_t>(prefix + "dict_key");
  s.dict_node_ = a.vec<NodeName>(prefix + "dict_node", s.dict_key_.size());
  s.dict_r2_ =
      PackedR2Labels::from_arena(a, prefix + "dict_r2_", s.dict_key_.size());
  check_csr_offsets(s.nbr_off_, s.nbr_key_.size(), prefix + "nbr_off");
  check_csr_offsets(s.dict_off_, s.dict_key_.size(), prefix + "dict_off");
  s.arena_ = a.storage();
  return s;
}

ExStretchScheme::ExStretchScheme(const Digraph& g, const RoundtripMetric& metric,
                                 const NameAssignment& names, Rng& rng,
                                 Options options)
    : names_(names),
      alphabet_(g.node_count(), options.k),
      node_space_(g.node_count()),
      port_space_(g.port_space()) {
  const NodeId n = g.node_count();
  const int k = alphabet_.k();
  const std::int64_t q = alphabet_.q();
  const int threads = resolve_apsp_threads(options.threads);
  // The cover hierarchy and the dictionaries' nearest-holder scans read
  // whole levels of the metric.
  const RoundtripMetric& m = metric.whole_levels();
  const Digraph reversed = g.reversed();
  hierarchy_ =
      std::make_shared<const CoverHierarchy>(g, reversed, m, k, threads);
  cover_ = CoverTable(*hierarchy_);
  if (static_cast<std::int64_t>(k) * alphabet_.power(k) > INT32_MAX) {
    throw std::length_error("exstretch: dictionary keys exceed 32 bits");
  }

  // Lemma 4 and item (2) only read Init_u up to the level-(k-1) neighborhood
  // q^{k-1}, so truncated rows suffice.
  const auto hood_rows = static_cast<NodeId>(
      std::min<std::int64_t>(alphabet_.power(k - 1), n));
  Neighborhoods hoods = compute_neighborhoods(m, names_, hood_rows, threads);
  assignment_ = assign_blocks(alphabet_, hoods, rng, options.blocks);

  // S'_u = S_u + u's own block (Section 3.3).
  std::vector<std::vector<BlockId>> held(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    auto& s = held[static_cast<std::size_t>(u)] =
        assignment_.blocks_of[static_cast<std::size_t>(u)];
    const BlockId own = alphabet_.block_of(names_.name_of(u));
    const auto at = std::lower_bound(s.begin(), s.end(), own);
    if (at == s.end() || *at != own) s.insert(at, own);
  }

  // holders_by_prefix[level l] : prefix value -> sorted list of node ids
  // holding a block whose l-digit prefix equals the value (levels 1..k-1).
  std::vector<std::vector<std::vector<NodeId>>> holders(
      static_cast<std::size_t>(k));
  for (int level = 1; level <= k - 1; ++level) {
    holders[static_cast<std::size_t>(level)].assign(
        static_cast<std::size_t>(alphabet_.realizable_prefix_count(level)), {});
  }
  for (NodeId u = 0; u < n; ++u) {
    for (int level = 1; level <= k - 1; ++level) {
      auto& lists = holders[static_cast<std::size_t>(level)];
      for (BlockId b : held[static_cast<std::size_t>(u)]) {
        const PrefixValue p = alphabet_.block_prefix_value(b, level);
        if (p >= static_cast<PrefixValue>(lists.size())) continue;
        // u lists itself once per prefix it covers at this level.
        auto& list = lists[static_cast<std::size_t>(p)];
        if (list.empty() || list.back() != u) list.push_back(u);
      }
    }
  }

  std::vector<std::vector<StagedEntry>> nbr_rows(static_cast<std::size_t>(n)),
      dict_rows(static_cast<std::size_t>(n));
  // Both per-node table loops write only u's rows, so they fan out over
  // the ticket pool; (2) and (3) fuse into one pass per node, which reads
  // the roundtrip row r(u, .) once.
  parallel_tickets(n, threads, [&] {
    return [&, row = std::vector<Dist>(static_cast<std::size_t>(n))](
               std::int64_t ticket) mutable {
    const auto u = static_cast<NodeId>(ticket);
    auto& nbr = nbr_rows[static_cast<std::size_t>(u)];
    auto& dict = dict_rows[static_cast<std::size_t>(u)];
    m.roundtrip_row(u, row);
    const auto entry = [&](std::int64_t key, NodeId v) {
      return StagedEntry{static_cast<std::int32_t>(key), names_.name_of(v),
                         v == u ? TreeRef{} : r2_tree(*hierarchy_, u, v)};
    };

    // (2): R2 for the immediate neighborhood N_1(u) (first q of Init_u).
    for (NodeId v : hoods.prefix(u, static_cast<NodeId>(q))) {
      if (v != u) nbr.push_back(entry(names_.name_of(v), v));
    }
    std::ranges::sort(nbr, {}, &StagedEntry::key);

    // (3a): per level i < k-1, per held block's i-digit prefix, per digit
    // tau: nearest holder of the extended prefix p; (3b): i = k-1: the exact
    // name p.  held[u] ascends, so skipping repeated prefixes sorts the row.
    for (int i = 0; i <= k - 1; ++i) {
      const std::int64_t realizable = alphabet_.realizable_prefix_count(i + 1);
      PrefixValue previous = -1;
      for (BlockId b : held[static_cast<std::size_t>(u)]) {
        const PrefixValue prefix = alphabet_.block_prefix_value(b, i);
        if (prefix == previous) continue;
        previous = prefix;
        for (int tau = 0; tau < q && prefix * q + tau < realizable; ++tau) {
          const PrefixValue p = prefix * q + tau;
          if (i == k - 1) {
            dict.push_back(
                entry(pack(i, p), names_.id_of(static_cast<NodeName>(p))));
            continue;
          }
          // Nearest holder of a block with (i+1)-prefix p, by (r, name).
          const auto& list =
              holders[static_cast<std::size_t>(i + 1)][static_cast<std::size_t>(p)];
          if (list.empty()) {
            throw std::logic_error("exstretch: realizable prefix without holder");
          }
          NodeId best = kNoNode;
          Dist best_r = kInfDist;
          for (NodeId h : list) {
            const Dist rr = row[static_cast<std::size_t>(h)];
            if (rr < best_r || (rr == best_r && best != kNoNode &&
                                names_.name_of(h) < names_.name_of(best))) {
              best_r = rr;
              best = h;
            }
          }
          dict.push_back(entry(pack(i, p), best));
        }
      }
    }
    };
  });

  // One serial pass packs the sorted rows into CSR, minting each entry's two
  // R2 labels straight into the packed form.
  std::vector<std::int64_t> nbr_off{0}, dict_off{0};
  std::vector<NodeName> nbr_key, dict_node;
  std::vector<std::int32_t> dict_key;
  PackedR2Labels::Builder nbr_r2, dict_r2;
  const auto add_r2 = [&](auto& r2, NodeId u, const StagedEntry& e) {
    if (e.tree == TreeRef{}) return r2.add(e.tree, {}, {});
    const TreeRouter& router = hierarchy_->tree(e.tree).out_router();
    r2.add(e.tree, router.label(u), router.label(names_.id_of(e.node)));
  };
  for (NodeId u = 0; u < n; ++u) {
    for (const StagedEntry& e : nbr_rows[static_cast<std::size_t>(u)]) {
      nbr_key.push_back(e.key);
      add_r2(nbr_r2, u, e);
    }
    nbr_off.push_back(static_cast<std::int64_t>(nbr_key.size()));
    for (const StagedEntry& e : dict_rows[static_cast<std::size_t>(u)]) {
      dict_key.push_back(e.key);
      dict_node.push_back(e.node);
      add_r2(dict_r2, u, e);
    }
    dict_off.push_back(static_cast<std::int64_t>(dict_key.size()));
  }
  nbr_off_ = std::move(nbr_off);
  nbr_key_ = std::move(nbr_key);
  nbr_r2_ = nbr_r2.build();
  dict_off_ = std::move(dict_off);
  dict_key_ = std::move(dict_key);
  dict_node_ = std::move(dict_node);
  dict_r2_ = dict_r2.build();
}

Decision ExStretchScheme::advance(NodeId at, Header& h) const {
  const NodeName at_name = names_.name_of(at);
  const int k = alphabet_.k();
  while (h.hop < k) {
    const int i = h.hop;
    const PrefixValue p = alphabet_.prefix_value(h.dest, i + 1);
    const std::int64_t e = find_in_row(
        dict_off_, dict_key_, at, static_cast<std::int32_t>(pack(i, p)));
    if (e < 0) {
      throw std::logic_error(
          "exstretch: waypoint lacks the dictionary entry its invariant promises");
    }
    const NodeName node = dict_node_[static_cast<std::size_t>(e)];
    if (node == at_name) {
      ++h.hop;  // v_{i+1} == v_i: advance locally at zero cost
      continue;
    }
    // Push the retrace information and launch the leg (Fig. 4's push).
    const R2Label r2 = dict_r2_.at(static_cast<std::size_t>(e));
    h.stack.push_back(StackEntry{r2.tree, r2.label_u});
    h.leg = DtLeg{r2.tree, r2.label_v, true};
    h.waypoint = node;
    ++h.hop;
    DtStep step = dt_step(cover_, at, h.leg);
    if (step.arrived) {
      throw std::logic_error("exstretch: fresh leg arrived instantly");
    }
    return Decision::forward_on(step.port);
  }
  if (at_name != h.dest) {
    throw std::logic_error("exstretch: hop count exhausted away from dest");
  }
  return Decision::deliver_here();
}

Decision ExStretchScheme::forward(NodeId at, Header& h) const {
  const NodeName at_name = names_.name_of(at);
  switch (h.mode) {
    case Mode::kNew: {
      h.src = at_name;
      h.mode = Mode::kOutbound;
      if (at_name == h.dest) return Decision::deliver_here();
      // Storage item (2) shortcut: destination inside N_1(s).
      if (const std::int64_t e = find_in_row(nbr_off_, nbr_key_, at, h.dest);
          e >= 0) {
        const R2Label r2 = nbr_r2_.at(static_cast<std::size_t>(e));
        h.stack.push_back(StackEntry{r2.tree, r2.label_u});
        h.leg = DtLeg{r2.tree, r2.label_v, true};
        h.waypoint = h.dest;
        h.hop = alphabet_.k();
        DtStep step = dt_step(cover_, at, h.leg);
        if (step.arrived) {
          throw std::logic_error("exstretch: neighbor leg arrived instantly");
        }
        return Decision::forward_on(step.port);
      }
      return advance(at, h);
    }
    case Mode::kOutbound: {
      // Mid-leg steps here and in kInbound: dt_step only flips
      // leg.going_up, which no header_bits term reads.
      DtStep step = dt_step(cover_, at, h.leg);
      if (!step.arrived) return Decision::forward_same_size(step.port);
      if (at_name != h.waypoint) {
        throw std::logic_error("exstretch: leg arrived at a non-waypoint");
      }
      if (h.hop >= alphabet_.k()) {
        if (at_name != h.dest) {
          throw std::logic_error("exstretch: final hop is not the destination");
        }
        return Decision::deliver_here();
      }
      return advance(at, h);
    }
    case Mode::kReturn: {
      h.mode = Mode::kInbound;
      if (h.stack.empty()) {
        if (at_name != h.src) {
          throw std::logic_error("exstretch: empty stack away from source");
        }
        return Decision::deliver_here();
      }
      StackEntry e = h.stack.back();
      h.stack.pop_back();
      h.leg = DtLeg{e.tree, e.back_label, true};
      DtStep step = dt_step(cover_, at, h.leg);
      if (step.arrived) {
        throw std::logic_error("exstretch: return leg arrived instantly");
      }
      return Decision::forward_on(step.port);
    }
    case Mode::kInbound: {
      DtStep step = dt_step(cover_, at, h.leg);
      if (!step.arrived) return Decision::forward_same_size(step.port);
      if (h.stack.empty()) {
        if (at_name != h.src) {
          throw std::logic_error("exstretch: return ended away from source");
        }
        return Decision::deliver_here();
      }
      StackEntry e = h.stack.back();
      h.stack.pop_back();
      h.leg = DtLeg{e.tree, e.back_label, true};
      DtStep next = dt_step(cover_, at, h.leg);
      if (next.arrived) {
        throw std::logic_error("exstretch: chained return leg arrived instantly");
      }
      return Decision::forward_on(next.port);
    }
  }
  throw std::logic_error("exstretch: bad mode");
}

std::int64_t ExStretchScheme::header_bits(const Header& h) const {
  std::int64_t bits = 2 /* mode */ + 3 * bits_for(node_space_) +
                      bits_for(alphabet_.k() + 1) /* hop */;
  for (const auto& e : h.stack) {
    bits += bits_for(node_space_) + 8 /* tree ref */ +
            tree_label_bits(e.back_label, node_space_, port_space_);
  }
  bits += bits_for(node_space_) + 8 +
          tree_label_bits(h.leg.target, node_space_, port_space_) + 1;
  return bits;
}

double ExStretchScheme::stretch_bound() const {
  const int k = alphabet_.k();
  return r2_beta(k) * (std::pow(2.0, k) - 1.0);
}

void ExStretchScheme::audit(AuditReport& report) const {
  auto scope = report.scope("exstretch");
  {
    auto names_scope = report.scope("names");
    names_.audit(report);
  }
  alphabet_.audit(report);
  if (hierarchy_ != nullptr) hierarchy_->audit(report);
  cover_.audit(report, hierarchy_.get());
  assignment_.audit(report, alphabet_);

  const auto n = static_cast<std::size_t>(names_.node_count());
  const bool sized = nbr_off_.size() == n + 1 && dict_off_.size() == n + 1 &&
                     cover_.node_count() == static_cast<NodeId>(n);
  report.check("tables-sized", sized, "one table block per node");
  if (!sized) return;

  // Dictionary shape: every key must decode to a valid (level, prefix) pair
  // and every stored waypoint (and neighborhood peer) must be a real name.
  const std::int64_t prefix_space = alphabet_.power(alphabet_.k());
  bool dict_ok = true;
  std::string dict_detail;
  for (std::size_t v = 0; dict_ok && v < n; ++v) {
    for (auto e = static_cast<std::size_t>(nbr_off_[v]);
         e < static_cast<std::size_t>(nbr_off_[v + 1]); ++e) {
      const NodeName name = nbr_key_[e];
      if (name < 0 || static_cast<std::size_t>(name) >= n) {
        dict_ok = false;
        dict_detail = "neighborhood R2 of node " + std::to_string(v) +
                      " keyed by an out-of-range name";
        break;
      }
    }
    for (auto e = static_cast<std::size_t>(dict_off_[v]);
         dict_ok && e < static_cast<std::size_t>(dict_off_[v + 1]); ++e) {
      // Keys are pack(i, p) = i * q^k + p with waypoint level i in [0, k)
      // and p the (i+1)-digit target prefix value.
      const std::int64_t key = dict_key_[e];
      const std::int64_t level = key / prefix_space;
      const std::int64_t prefix = key % prefix_space;
      const NodeName node = dict_node_[e];
      if (key < 0 || level >= alphabet_.k() ||
          prefix >= alphabet_.power(static_cast<int>(level) + 1) ||
          node < 0 || static_cast<std::size_t>(node) >= n) {
        dict_ok = false;
        dict_detail = "dictionary of node " + std::to_string(v) +
                      " has an undecodable key or out-of-range waypoint";
      }
    }
  }
  report.check("dict-keys-decodable", dict_ok, std::move(dict_detail));

  // find_in_row binary-searches every row of both tables.
  const std::int64_t unsorted =
      std::max(first_unsorted_row(nbr_off_, nbr_key_),
               first_unsorted_row(dict_off_, dict_key_));
  report.check("rows-sorted-unique", unsorted < 0,
               unsorted < 0 ? std::string()
                            : "a table row of node " +
                                  std::to_string(unsorted) +
                                  " has unsorted or duplicate keys");
}

TableStats ExStretchScheme::table_stats() const {
  TableStats stats = hierarchy_node_stats(cover_, node_space_, port_space_);
  const NodeId n = cover_.node_count();
  const std::int64_t id_bits = bits_for(node_space_);
  for (NodeId v = 0; v < n; ++v) {
    const auto vz = static_cast<std::size_t>(v);
    std::int64_t entries = 0, bits = 0;
    for (auto e = static_cast<std::size_t>(nbr_off_[vz]);
         e < static_cast<std::size_t>(nbr_off_[vz + 1]); ++e) {
      ++entries;
      bits += id_bits + r2_label_bits(nbr_r2_.at(e), node_space_, port_space_);
    }
    for (auto e = static_cast<std::size_t>(dict_off_[vz]);
         e < static_cast<std::size_t>(dict_off_[vz + 1]); ++e) {
      ++entries;
      bits += 2 * id_bits /* key */ + id_bits +
              r2_label_bits(dict_r2_.at(e), node_space_, port_space_);
    }
    stats.add(v, entries, bits);
  }
  return stats;
}

}  // namespace rtr
