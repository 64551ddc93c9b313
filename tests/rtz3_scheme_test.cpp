#include <gtest/gtest.h>

#include <cmath>

#include "io/arena.h"
#include "net/simulator.h"
#include "rtz/rtz3_scheme.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::FamilyParam;
using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;

class Rtz3Test : public ::testing::TestWithParam<FamilyParam> {
 protected:
  void Build() {
    auto [family, n, seed] = GetParam();
    inst_ = make_instance(family, n, 5, seed);
    Rng rng(seed + 31);
    scheme_ = std::make_unique<Rtz3Scheme>(inst_.graph, *inst_.metric,
                                           inst_.names, rng);
  }
  Instance inst_;
  std::unique_ptr<Rtz3Scheme> scheme_;
};

TEST_P(Rtz3Test, AllPairsDeliverWithLemma2Inequality) {
  Build();
  for (NodeId s = 0; s < inst_.n(); ++s) {
    for (NodeId t = 0; t < inst_.n(); ++t) {
      auto res = simulate_roundtrip(inst_.graph, *scheme_, s, t,
                                    inst_.names.name_of(t));
      ASSERT_TRUE(res.ok()) << "undelivered " << s << "->" << t;
      const Dist r = inst_.metric->r(s, t);
      // Lemma 2's per-leg property: p(u,v) <= d(u,v) + r(u,v).
      EXPECT_LE(res.out_length, inst_.metric->d(s, t) + r);
      EXPECT_LE(res.back_length, inst_.metric->d(t, s) + r);
      // Roundtrip stretch 3.
      EXPECT_LE(res.roundtrip_length(), 3 * r);
    }
  }
}

TEST_P(Rtz3Test, TablesAreSublinearNearSqrtN) {
  Build();
  TableStats stats = scheme_->table_stats();
  const double n = static_cast<double>(inst_.n());
  const double budget = std::sqrt(n) * std::pow(std::log2(n) + 1, 2) * 8;
  EXPECT_LE(static_cast<double>(stats.max_entries()), budget)
      << "tables exceed O~(sqrt n) entry budget";
}

TEST_P(Rtz3Test, HeadersStayPolylog) {
  Build();
  const double log_n = std::log2(static_cast<double>(inst_.n())) + 1;
  for (NodeId s = 0; s < inst_.n(); s += 5) {
    for (NodeId t = 0; t < inst_.n(); t += 7) {
      auto res = simulate_roundtrip(inst_.graph, *scheme_, s, t,
                                    inst_.names.name_of(t));
      ASSERT_TRUE(res.ok());
      EXPECT_LE(static_cast<double>(res.max_header_bits), 80 * log_n * log_n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, Rtz3Test,
    ::testing::Values(FamilyParam{Family::kRandom, 48, 1},
                      FamilyParam{Family::kGrid, 36, 2},
                      FamilyParam{Family::kRing, 40, 3},
                      FamilyParam{Family::kScaleFree, 48, 4},
                      FamilyParam{Family::kBidirected, 40, 5},
                      FamilyParam{Family::kRandom, 90, 6}),
    [](const ::testing::TestParamInfo<FamilyParam>& info) {
      return ::rtr::testing::family_param_name(info.param);
    });

TEST(Rtz3, GreedyCentersVariantAlsoDelivers) {
  Instance inst = make_instance(Family::kRandom, 40, 4, 11);
  Rng rng(12);
  Rtz3Scheme::Options opts;
  opts.greedy_centers = true;
  Rtz3Scheme scheme(inst.graph, *inst.metric, inst.names, rng, opts);
  for (NodeId s = 0; s < inst.n(); s += 2) {
    for (NodeId t = 0; t < inst.n(); t += 3) {
      auto res = simulate_roundtrip(inst.graph, scheme, s, t,
                                    inst.names.name_of(t));
      ASSERT_TRUE(res.ok());
      EXPECT_LE(res.roundtrip_length(), 3 * inst.metric->r(s, t));
    }
  }
}

TEST(Rtz3, SelfRoundtripIsZero) {
  Instance inst = make_instance(Family::kRandom, 30, 3, 13);
  Rng rng(14);
  Rtz3Scheme scheme(inst.graph, *inst.metric, inst.names, rng);
  auto res = simulate_roundtrip(inst.graph, scheme, 9, 9, inst.names.name_of(9));
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.roundtrip_length(), 0);
  EXPECT_EQ(res.out_hops + res.back_hops, 0);
}

TEST(Rtz3, AddressLookupMatchesOwnAddress) {
  Instance inst = make_instance(Family::kGrid, 36, 3, 15);
  Rng rng(16);
  Rtz3Scheme scheme(inst.graph, *inst.metric, inst.names, rng);
  for (NodeId v = 0; v < inst.n(); ++v) {
    const RtzAddress& by_name = scheme.address_of_name(inst.names.name_of(v));
    const RtzAddress& own = scheme.own_address(v);
    EXPECT_EQ(by_name.name, own.name);
    EXPECT_EQ(by_name.center_index, own.center_index);
  }
}

// The flat CSR tables must behave identically whether they were built in
// process or viewed in place from arena sections: same routes, same per-hop
// lookup results, same table accounting, same snapshot bytes.  Mapped
// serving (snapshots, shm epochs) relies on this equivalence being airtight.
TEST(Rtz3, ArenaRoundTripPreservesTablesProbeForProbe) {
  Instance inst = make_instance(Family::kRandom, 60, 4, 21);
  Rng rng(22);
  const Rtz3Scheme built(inst.graph, *inst.metric, inst.names, rng);

  const auto arena_bytes = [&inst](const Rtz3Scheme& s) {
    return testing::arena_image(
        [&s](ArenaWriter& w) { s.save_arena(w, "scheme/"); }, "rtz3",
        inst.n(), inst.graph.edge_count());
  };
  const std::vector<std::uint8_t> bytes = arena_bytes(built);
  const Rtz3Scheme loaded = Rtz3Scheme::from_arena(
      ArenaView(make_owned_arena(bytes)), "scheme/", inst.graph, inst.names);

  // Per-hop lookups agree probe for probe (hits and misses).
  for (NodeId at = 0; at < inst.n(); ++at) {
    for (NodeId v = 0; v < inst.n(); v += 3) {
      const NodeName key = inst.names.name_of(v);
      const auto lb = built.find_ball_label(at, key);
      const auto ll = loaded.find_ball_label(at, key);
      ASSERT_EQ(lb.has_value(), ll.has_value());
      if (lb.has_value()) {
        EXPECT_EQ(lb->dfs_in, ll->dfs_in);
        EXPECT_EQ(lb->light_hops, ll->light_hops);
      }
      const Port* pb = built.find_member_up_port(at, key);
      const Port* pl = loaded.find_member_up_port(at, key);
      ASSERT_EQ(pb == nullptr, pl == nullptr);
      if (pb != nullptr) {
        EXPECT_EQ(*pb, *pl);
      }
      const TreeNodeTable* tb = built.find_member_table(at, key);
      const TreeNodeTable* tl = loaded.find_member_table(at, key);
      ASSERT_EQ(tb == nullptr, tl == nullptr);
      if (tb != nullptr) {
        EXPECT_EQ(tb->dfs_in, tl->dfs_in);
        EXPECT_EQ(tb->heavy_port, tl->heavy_port);
      }
    }
  }

  // Routes and table accounting agree.
  for (NodeId s = 0; s < inst.n(); s += 4) {
    for (NodeId t = 0; t < inst.n(); t += 5) {
      auto rb = simulate_roundtrip(inst.graph, built, s, t,
                                   inst.names.name_of(t));
      auto rl = simulate_roundtrip(inst.graph, loaded, s, t,
                                   inst.names.name_of(t));
      ASSERT_TRUE(rb.ok());
      ASSERT_TRUE(rl.ok());
      EXPECT_EQ(rb.roundtrip_length(), rl.roundtrip_length());
      EXPECT_EQ(rb.out_hops + rb.back_hops, rl.out_hops + rl.back_hops);
      EXPECT_EQ(rb.max_header_bits, rl.max_header_bits);
    }
  }
  EXPECT_EQ(built.table_stats().mean_bits(), loaded.table_stats().mean_bits());
  EXPECT_EQ(built.table_stats().max_entries(),
            loaded.table_stats().max_entries());

  // Re-saving the loaded scheme reproduces the arena byte for byte.
  EXPECT_EQ(arena_bytes(loaded), bytes);
}

}  // namespace
}  // namespace rtr
