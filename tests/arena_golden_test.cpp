// Snapshot bytes pinned to a recorded build.
//
// The canonical arena encoding makes byte equality the strongest "same
// tables" check (see testing::scheme_arena_bytes).  The digests below were
// recorded from a build of the cover-tree and rtz3 schemes before their
// double trees and tree routers moved to member-local storage; any change
// to what those structures compute -- tree shapes, heavy-child ties, DFS
// numbers, labels, dictionary choices -- shows up here as a different
// digest.  A deliberate change of the encoding re-records them: the failure
// message prints the digest the build now produces.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "net/scheme.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::make_instance;

/// 64-bit FNV-1a: small, dependency-free and stable across platforms.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct GoldenCase {
  std::string scheme;
  Family family;
  NodeId n;
  std::uint64_t size;    // arena bytes
  std::uint64_t digest;  // fnv1a of the arena bytes
};

class ArenaGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ArenaGoldenTest, ArenaBytesMatchTheRecordedBuild) {
  const GoldenCase& c = GetParam();
  const auto inst = make_instance(c.family, c.n, 5, 23);
  const std::shared_ptr<const Scheme> scheme =
      SchemeRegistry::global().build(c.scheme, inst.context(29));
  const std::vector<std::uint8_t> bytes =
      testing::scheme_arena_bytes(c.scheme, *scheme);
  char got[64];
  std::snprintf(got, sizeof got, "size %zu digest 0x%016llx", bytes.size(),
                static_cast<unsigned long long>(fnv1a(bytes)));
  EXPECT_EQ(bytes.size(), c.size) << got;
  EXPECT_EQ(fnv1a(bytes), c.digest) << got;
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, ArenaGoldenTest,
    ::testing::Values(
        GoldenCase{"polystretch", Family::kRandom, 128, 235472,
                   0x5c2ae37dd7880f64ULL},
        GoldenCase{"polystretch", Family::kScaleFree, 128, 229520,
                   0xfb276b3e4eae1265ULL},
        GoldenCase{"polystretch", Family::kRing, 96, 140880,
                   0x0b75034a42ccaa9cULL},
        GoldenCase{"exstretch", Family::kRandom, 128, 625240,
                   0xf8d7ec72fccc2aa9ULL},
        GoldenCase{"exstretch", Family::kScaleFree, 128, 600144,
                   0xc96c7c69e916f862ULL},
        GoldenCase{"exstretch", Family::kRing, 96, 367288,
                   0xa78372cf490e50b6ULL},
        GoldenCase{"rtz3", Family::kRandom, 128, 67976,
                   0x183431099a059237ULL},
        GoldenCase{"rtz3", Family::kScaleFree, 128, 66736,
                   0xc3a6324ba442ca6dULL},
        GoldenCase{"rtz3", Family::kRing, 96, 41176,
                   0xd66dd8a0db8e216aULL}),
    [](const auto& info) {
      std::string name = info.param.scheme + "_" +
                         family_name(info.param.family) + "_n" +
                         std::to_string(info.param.n);
      for (auto& ch : name) {
        if (ch == '+' || ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace rtr
