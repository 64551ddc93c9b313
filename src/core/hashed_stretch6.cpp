#include "core/hashed_stretch6.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "audit/audit.h"
#include "graph/apsp.h"
#include "io/arena.h"
#include "util/bit_cost.h"
#include "util/parallel.h"

namespace rtr {

ChosenNames ChosenNames::load(SnapshotReader& r) {
  ChosenNames names;
  names.of_id_ = r.vec_u64();
  names.id_of_.reserve(names.of_id_.size());
  for (NodeId v = 0; v < static_cast<NodeId>(names.of_id_.size()); ++v) {
    auto [it, inserted] =
        names.id_of_.emplace(names.of_id_[static_cast<std::size_t>(v)], v);
    (void)it;
    if (!inserted) {
      throw std::invalid_argument("ChosenNames: duplicate chosen name");
    }
  }
  return names;
}

void ChosenNames::save(SnapshotWriter& w) const { w.vec_u64(of_id_); }

ChosenNames ChosenNames::random(NodeId n, Rng& rng) {
  ChosenNames names;
  names.of_id_.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    ChosenName x = 0;
    do {
      x = (static_cast<std::uint64_t>(rng.uniform(0, (1ll << 62) - 1)) << 1) |
          static_cast<std::uint64_t>(rng.uniform(0, 1));
    } while (x == 0 || names.id_of_.contains(x));
    names.of_id_.push_back(x);
    names.id_of_.emplace(x, v);
  }
  return names;
}

NodeId ChosenNames::id_of(ChosenName x) const {
  auto it = id_of_.find(x);
  if (it == id_of_.end()) {
    throw std::invalid_argument("ChosenNames: unknown chosen name");
  }
  return it->second;
}

void ChosenNames::audit(AuditReport& report) const {
  auto scope = report.scope("chosen-names");
  bool inverse_ok = id_of_.size() == of_id_.size();
  std::string detail = inverse_ok ? "" : "reverse index size mismatch "
                                         "(duplicate chosen names?)";
  for (NodeId v = 0; inverse_ok && v < node_count(); ++v) {
    const ChosenName x = of_id_[static_cast<std::size_t>(v)];
    const auto it = id_of_.find(x);
    if (x == 0 || it == id_of_.end() || it->second != v) {
      inverse_ok = false;
      detail = "chosen name of node " + std::to_string(v) +
               " is zero or not inverted by the reverse index";
    }
  }
  report.check("chosen-names-unique", inverse_ok, std::move(detail));
}

namespace {
// A Mersenne prime comfortably above 2^63 inputs after the initial fold.
constexpr std::uint64_t kPrime = (std::uint64_t{1} << 61) - 1;

std::uint64_t mulmod_p(std::uint64_t x, std::uint64_t y) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(x) * y) % kPrime);
}
}  // namespace

BucketHash::BucketHash(NodeId n, Rng& rng)
    : n_(n),
      a_(static_cast<std::uint64_t>(rng.uniform(1, kPrime - 1))),
      b_(static_cast<std::uint64_t>(rng.uniform(0, kPrime - 1))) {
  if (n < 1) throw std::invalid_argument("BucketHash: n >= 1");
}

BucketHash::BucketHash(SnapshotReader& r) : n_(r.i32()), a_(r.u64()), b_(r.u64()) {
  if (n_ < 1) throw std::invalid_argument("BucketHash: n >= 1");
}

void BucketHash::save(SnapshotWriter& w) const {
  w.i32(n_);
  w.u64(a_);
  w.u64(b_);
}

NodeId BucketHash::bucket(ChosenName x) const {
  const std::uint64_t folded = x % kPrime;
  const std::uint64_t h = (mulmod_p(a_, folded) + b_) % kPrime;
  return static_cast<NodeId>(h % static_cast<std::uint64_t>(n_));
}

HashedStretch6Scheme::HashedStretch6Scheme(const Digraph& g,
                                           const RoundtripMetric& metric,
                                           const ChosenNames& chosen, Rng& rng,
                                           Options options)
    : chosen_(chosen),
      hash_(g.node_count(), rng),
      alphabet_(g.node_count(), 2),
      hood_size_(static_cast<NodeId>(alphabet_.q())),
      node_space_(g.node_count()) {
  const NodeId n = g.node_count();
  // Internal TINN naming for the machinery (Init tie-breaks, substrate):
  // decoupled from the chosen names, as the reduction allows.
  NameAssignment internal = NameAssignment::random(n, rng);
  substrate_ = std::make_shared<Rtz3Scheme>(g, metric, internal, rng,
                                            options.substrate);
  const int threads = resolve_apsp_threads(options.threads);
  // k = 2 over the bucket space: only the first q = hood_size_ positions of
  // Init_u are ever read, so truncated rows suffice.
  Neighborhoods hoods =
      compute_neighborhoods(metric, internal, hood_size_, threads);
  BlockAssignment assignment =
      assign_blocks(alphabet_, hoods, rng, options.blocks);

  // Invert the hash: bucket -> nodes whose chosen name lands there.
  std::vector<std::vector<NodeId>> bucket_members(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    bucket_members[static_cast<std::size_t>(hash_.bucket(chosen_.of_id(v)))]
        .push_back(v);
  }

  const std::int64_t blocks = alphabet_.relevant_block_count();
  block_count_ = blocks;
  std::vector<std::vector<ChosenName>> r3_rows(static_cast<std::size_t>(n));
  std::vector<ChosenName> holders(static_cast<std::size_t>(n) *
                                  static_cast<std::size_t>(blocks));
  parallel_tickets(n, threads, [&] {
    return [&](std::int64_t ticket) {
    const auto u = static_cast<NodeId>(ticket);
    auto& r3_names = r3_rows[static_cast<std::size_t>(u)];
    ChosenName* holder_row = holders.data() + static_cast<std::size_t>(u) *
                                                  static_cast<std::size_t>(blocks);
    const auto hood = hoods.prefix(u, hood_size_);
    // (1) chosen-name -> R3 for the neighborhood.
    for (NodeId v : hood) {
      r3_names.push_back(chosen_.of_id(v));
    }
    // (2) a holder in N(u) per bucket-block.
    for (BlockId b = 0; b < blocks; ++b) {
      ChosenName holder = 0;
      for (NodeId v : hood) {
        if (assignment.holds(v, b)) {
          holder = chosen_.of_id(v);
          break;
        }
      }
      if (holder == 0) {
        throw std::logic_error("hashed-stretch6: Lemma 1 coverage violated");
      }
      holder_row[b] = holder;
    }
    // (3) dictionary: every chosen name hashing into a held block.
    for (BlockId b : assignment.blocks_of[static_cast<std::size_t>(u)]) {
      for (NodeName bucket : alphabet_.block_members(b)) {
        for (NodeId v : bucket_members[static_cast<std::size_t>(bucket)]) {
          r3_names.push_back(chosen_.of_id(v));
        }
      }
    }
    std::sort(r3_names.begin(), r3_names.end());
    r3_names.erase(std::unique(r3_names.begin(), r3_names.end()),
                   r3_names.end());
    };
  });

  std::vector<std::int64_t> off{0};
  std::vector<ChosenName> flat;
  for (const auto& row : r3_rows) {
    flat.insert(flat.end(), row.begin(), row.end());
    off.push_back(static_cast<std::int64_t>(flat.size()));
  }
  r3_off_ = std::move(off);
  r3_names_ = std::move(flat);
  holder_of_ = std::move(holders);
}

const RtzAddress* HashedStretch6Scheme::lookup_r3(NodeId at,
                                                  ChosenName t) const {
  const auto vz = static_cast<std::size_t>(at);
  const ChosenName* base = r3_names_.data();
  if (!std::binary_search(base + r3_off_[vz], base + r3_off_[vz + 1], t)) {
    return nullptr;
  }
  // A stored name is by construction a real chosen name, so id_of cannot
  // throw here.
  return &substrate_->own_address(chosen_.id_of(t));
}

Decision HashedStretch6Scheme::forward(NodeId at, Header& h) const {
  const ChosenName at_name = chosen_.of_id(at);
  switch (h.mode) {
    case Mode::kNew: {
      h.src = at_name;
      h.src_addr = substrate_->own_address(at);
      h.mode = Mode::kOutbound;
      if (at_name == h.dest) return Decision::deliver_here();
      const RtzAddress* direct = lookup_r3(at, h.dest);
      LegStep step;
      if (direct != nullptr) {
        step = substrate_->start_leg(at, *direct, h.leg);
      } else {
        const BlockId block = alphabet_.block_of(hash_.bucket(h.dest));
        const ChosenName w =
            holder_of_[static_cast<std::size_t>(at) *
                           static_cast<std::size_t>(block_count_) +
                       static_cast<std::size_t>(block)];
        h.dict_node = w;
        h.dict_pending = true;
        const RtzAddress* w_addr = lookup_r3(at, w);
        if (w_addr == nullptr) {
          throw std::logic_error("hashed-stretch6: holder missing from (1)");
        }
        step = substrate_->start_leg(at, *w_addr, h.leg);
      }
      if (step.arrived) return forward(at, h);
      return Decision::forward_on(step.port);
    }
    case Mode::kOutbound: {
      if (at_name == h.dest) return Decision::deliver_here();
      if (h.dict_pending && at_name == h.dict_node) {
        h.dict_pending = false;
        const RtzAddress* t_addr = lookup_r3(at, h.dest);
        if (t_addr == nullptr) {
          throw std::logic_error(
              "hashed-stretch6: dictionary node lacks R3(dest)");
        }
        LegStep step = substrate_->start_leg(at, *t_addr, h.leg);
        if (step.arrived) return Decision::deliver_here();
        return Decision::forward_on(step.port);
      }
      // Mid-leg step: the substrate only flips the leg phase here, so the
      // header's encoded size is unchanged (see Rtz3Scheme::forward).
      LegStep step = substrate_->step_leg(at, h.leg);
      if (step.arrived) return forward(at, h);
      return Decision::forward_same_size(step.port);
    }
    case Mode::kReturn: {
      h.mode = Mode::kInbound;
      if (at_name == h.src) return Decision::deliver_here();
      LegStep step = substrate_->start_leg(at, h.src_addr, h.leg);
      if (step.arrived) return Decision::deliver_here();
      return Decision::forward_on(step.port);
    }
    case Mode::kInbound: {
      LegStep step = substrate_->step_leg(at, h.leg);
      if (step.arrived) {
        if (at_name != h.src) {
          throw std::logic_error("hashed-stretch6: inbound arrived off-source");
        }
        return Decision::deliver_here();
      }
      return Decision::forward_same_size(step.port);
    }
  }
  throw std::logic_error("hashed-stretch6: bad mode");
}

std::int64_t HashedStretch6Scheme::header_bits(const Header& h) const {
  return 2 /* mode */ + 1 + 3 * 64 /* three chosen names */ +
         substrate_->address_bits(h.src_addr) +
         substrate_->leg_header_bits(h.leg);
}

void HashedStretch6Scheme::audit(AuditReport& report) const {
  auto scope = report.scope("hashed64");
  substrate_->audit(report);
  chosen_.audit(report);
  alphabet_.audit(report);

  const auto n = static_cast<std::size_t>(chosen_.node_count());
  const auto blocks = static_cast<std::size_t>(block_count_);
  const bool sized = r3_off_.size() == n + 1 && holder_of_.size() == n * blocks;
  report.check("tables-sized", sized, "one table block per node");
  if (!sized) return;

  bool r3_ok = true;
  bool holders_ok = block_count_ == alphabet_.relevant_block_count();
  std::string r3_detail, holder_detail;
  if (!holders_ok) {
    holder_detail = "holder rows do not record one holder per relevant block";
  }
  for (std::size_t v = 0; v < n; ++v) {
    const auto lo = static_cast<std::size_t>(r3_off_[v]);
    const auto hi = static_cast<std::size_t>(r3_off_[v + 1]);
    for (std::size_t i = lo; r3_ok && i < hi; ++i) {
      if ((i > lo && r3_names_[i - 1] >= r3_names_[i]) ||
          !chosen_.contains(r3_names_[i])) {
        r3_ok = false;
        r3_detail = "r3 dictionary of node " + std::to_string(v) +
                    " unsorted or referencing an unknown chosen name";
      }
    }
    for (std::size_t b = 0; holders_ok && b < blocks; ++b) {
      if (!chosen_.contains(holder_of_[v * blocks + b])) {
        holders_ok = false;
        holder_detail = "holder of block " + std::to_string(b) + " at node " +
                        std::to_string(v) + " is not a known chosen name";
      }
    }
  }
  report.check("r3-dicts-sorted", r3_ok, std::move(r3_detail));
  report.check("block-holders-valid", holders_ok, std::move(holder_detail));
}

TableStats HashedStretch6Scheme::table_stats() const {
  const NodeId n = chosen_.node_count();
  TableStats stats = substrate_->table_stats();
  const std::int64_t id_bits = bits_for(node_space_);
  for (NodeId v = 0; v < n; ++v) {
    const auto vz = static_cast<std::size_t>(v);
    std::int64_t entries = 0, bits = 0;
    for (auto i = static_cast<std::size_t>(r3_off_[vz]);
         i < static_cast<std::size_t>(r3_off_[vz + 1]); ++i) {
      ++entries;
      bits += 64 + substrate_->address_bits(
                       substrate_->own_address(chosen_.id_of(r3_names_[i])));
    }
    entries += block_count_;
    bits += block_count_ * (id_bits + 64);
    stats.add(v, entries, bits);
  }
  return stats;
}

// ------------------------------------------------------------------- arena --

void HashedStretch6Scheme::save_arena(ArenaWriter& w,
                                      const std::string& prefix) const {
  substrate_->save_arena(w, prefix + "s/");
  substrate_->names().save_arena(w, prefix + "s/names/");
  w.add(prefix + "r3_off", r3_off_);
  w.add(prefix + "r3_names", r3_names_);
  w.add(prefix + "holders", holder_of_);
  SnapshotWriter meta;
  chosen_.save(meta);
  hash_.save(meta);
  alphabet_.save(meta);
  meta.i32(hood_size_);
  meta.i64(node_space_);
  w.add_bytes(prefix + "meta", meta.bytes().data(), meta.size());
}

HashedStretch6Scheme::HashedStretch6Scheme(SnapshotReader& meta,
                                           const ArenaView& a,
                                           const std::string& prefix,
                                           const Digraph& g)
    : chosen_(ChosenNames::load(meta)),
      hash_(meta),
      alphabet_(Alphabet::load(meta)),
      hood_size_(meta.i32()),
      substrate_(std::make_shared<const Rtz3Scheme>(Rtz3Scheme::from_arena(
          a, prefix + "s/", g,
          NameAssignment::from_arena(a, prefix + "s/names/")))) {
  node_space_ = meta.i64();
  meta.expect_exhausted("hashed64 arena meta");
  const auto n = static_cast<std::size_t>(g.node_count());
  if (static_cast<std::size_t>(chosen_.node_count()) != n) {
    throw SnapshotArenaError(
        "hashed64 arena: chosen-name count does not match the graph");
  }
  block_count_ = alphabet_.relevant_block_count();
  r3_off_ = a.vec<std::int64_t>(prefix + "r3_off", n + 1);
  r3_names_ = a.vec<ChosenName>(prefix + "r3_names");
  holder_of_ = a.vec<ChosenName>(prefix + "holders",
                                 n * static_cast<std::size_t>(block_count_));
  check_csr_offsets(r3_off_, r3_names_.size(), prefix + "r3_off");
  arena_ = a.storage();
}

HashedStretch6Scheme HashedStretch6Scheme::from_arena(const ArenaView& a,
                                                      const std::string& prefix,
                                                      const Digraph& g) {
  SnapshotReader meta = a.reader(prefix + "meta");
  return HashedStretch6Scheme(meta, a, prefix, g);
}

}  // namespace rtr
