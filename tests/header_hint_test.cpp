// Decision::header_resized == false is a promise that the hop left the
// header's encoded size alone; simulate_roundtrip then skips re-measuring
// it.  Builds without NDEBUG verify every hint inside the walk, but the
// default RelWithDebInfo build defines NDEBUG, so this suite checks the
// promise itself: every registered scheme, walked one forward() at a time
// over its concrete header (concrete_scheme_visitor.h) on a seeded sample,
// must report the same header_bits after each hinted hop as before it.
// Comparing only a walk's maximum cannot see a hint that hides a shrink or a
// growth below the maximum.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "concrete_scheme_visitor.h"
#include "net/query_engine.h"
#include "net/scheme.h"
#include "net/scheme_adapter.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;
using ::rtr::testing::visit_concrete_scheme;

struct HintTally {
  std::int64_t hops = 0;
  std::int64_t hinted = 0;
};

/// Walks src -> dst -> src one forward() at a time, re-measuring the header
/// after every hop, and fails on the first hinted hop whose size moved.
template <TemplatedScheme S, typename Name>
void expect_honest_hints(const S& scheme, const Digraph& g, NodeId src,
                         NodeId dst, Name dst_name, HintTally& tally) {
  typename S::Header p = scheme.make_packet(dst_name);
  std::int64_t bits = scheme.header_bits(p);
  const std::int64_t budget = 16 * static_cast<std::int64_t>(g.node_count()) + 64;
  for (const bool back : {false, true}) {
    if (back) {
      scheme.prepare_return(p);
      bits = scheme.header_bits(p);
    }
    NodeId at = back ? dst : src;
    const NodeId expect = back ? src : dst;
    bool delivered = false;
    for (std::int64_t step = 0; step <= budget && !delivered; ++step) {
      const Decision d = scheme.forward(at, p);
      const std::int64_t now = scheme.header_bits(p);
      ++tally.hops;
      if (!d.header_resized) {
        ++tally.hinted;
        ASSERT_EQ(now, bits) << scheme.name() << ": " << src << " -> " << dst
                             << (back ? " (return leg)" : " (outbound leg)")
                             << ", hinted hop at node " << at;
      }
      bits = now;
      if (d.deliver) {
        ASSERT_EQ(at, expect) << scheme.name();
        delivered = true;
      } else {
        const Edge* e = g.edge_by_port(at, d.port);
        ASSERT_NE(e, nullptr) << scheme.name() << ": unknown port";
        at = e->to;
      }
    }
    ASSERT_TRUE(delivered) << scheme.name() << ": " << src << " -> " << dst;
  }
}

class HeaderHintTest : public ::testing::TestWithParam<Family> {};

TEST_P(HeaderHintTest, SameSizeHintsAreHonestOnEveryHop) {
  const bool scale_free = GetParam() == Family::kScaleFree;
  const Instance inst = make_instance(GetParam(), scale_free ? 160 : 96, 5,
                                      scale_free ? 71 : 72);
  const auto ctx = inst.context(13);
  for (const std::string& name : SchemeRegistry::global().names()) {
    SCOPED_TRACE(name);
    const auto scheme = SchemeRegistry::global().build(name, ctx);
    HintTally tally;
    visit_concrete_scheme(
        name, *scheme, ctx, [&](const auto& concrete, const auto& name_of) {
          Rng rng(29);
          for (int i = 0; i < 300; ++i) {
            const auto src = static_cast<NodeId>(rng.index(inst.n()));
            const auto dst = static_cast<NodeId>(rng.index(inst.n()));
            if (src == dst) continue;
            expect_honest_hints(concrete, inst.graph, src, dst, name_of(dst),
                                tally);
            if (::testing::Test::HasFatalFailure()) return;
          }
        });
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_GT(tally.hops, 0);
    // The tree-leg schemes hint on mid-leg hops; a sample with none would
    // make this test vacuous for them.
    if (name != "fulltable") {
      EXPECT_GT(tally.hinted, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, HeaderHintTest,
                         ::testing::Values(Family::kRandom,
                                           Family::kScaleFree),
                         [](const auto& info) {
                           return info.param == Family::kRandom ? "random"
                                                                : "scale_free";
                         });

/// Grows its header on every step while promising it kept its size, and
/// delivers wherever it is: a scheme with a dishonest hint.
struct LyingScheme {
  struct Header {
    std::int64_t bits = 8;
  };
  [[nodiscard]] Header make_packet(NodeName) const { return {}; }
  void prepare_return(Header&) const {}
  [[nodiscard]] Decision forward(NodeId, Header& h) const {
    h.bits += 8;
    return Decision{true, kNoPort, false};
  }
  [[nodiscard]] std::int64_t header_bits(const Header& h) const {
    return h.bits;
  }
  [[nodiscard]] TableStats table_stats() const { return {}; }
  [[nodiscard]] std::string name() const { return "lying"; }
};

// Builds without NDEBUG (CI's sanitizer jobs) re-measure after each hint and
// turn a dishonest one into a failed query; release builds trust it, which
// is why the per-scheme suite above must hold.
TEST(HeaderHints, DebugBuildsTurnADishonestHintIntoASchemeFailure) {
  const Instance inst = make_instance(Family::kRing, 8, 4, 5);
  const auto ctx = inst.context(1);
  QueryEngineOptions opts;
  opts.threads = 1;
  const QueryEngine engine(ctx.graph, ctx.metric, ctx.names,
                           make_adapted_scheme<LyingScheme>(), opts);
  // It delivers at the source, so a walk to another node stays undelivered
  // unless the hint check stops it first.
  const ServingResult r = engine.serve(0, 1);
  if constexpr (kVerifyHeaderSizeHints) {
    EXPECT_EQ(r.error, ServingError::kSchemeFailure);
    EXPECT_NE(r.message.find("same-size hop"), std::string::npos) << r.message;
  } else {
    EXPECT_EQ(r.error, ServingError::kUnreachable) << r.message;
  }
}

}  // namespace
}  // namespace rtr
