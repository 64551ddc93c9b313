// Bit-size accounting helpers.
//
// The paper's space bounds count bits; our tables store machine words.  To
// report honest sizes, every scheme computes an *encoded* size for each table
// entry and header using these helpers: a node name costs ceil(log2 n) bits, a
// port costs ceil(log2 (port namespace size)) bits, and so on.
#ifndef RTR_UTIL_BIT_COST_H
#define RTR_UTIL_BIT_COST_H

#include <bit>
#include <cstdint>

namespace rtr {

/// Number of bits needed to represent values in [0, n).  bits_for(0) and
/// bits_for(1) are 1 (one value still occupies a slot on the wire).  O(1):
/// every header_bits and table_stats call lands here, many times per hop.
[[nodiscard]] constexpr std::int64_t bits_for(std::int64_t n) {
  return n <= 2 ? 1
                : static_cast<std::int64_t>(
                      std::bit_width(static_cast<std::uint64_t>(n - 1)));
}

static_assert(bits_for(2) == 1);
static_assert(bits_for(3) == 2);
static_assert(bits_for(256) == 8);
static_assert(bits_for(257) == 9);
static_assert(bits_for(0) == 1 && bits_for(1) == 1);
static_assert(bits_for(std::int64_t{1} << 62) == 62);

}  // namespace rtr

#endif  // RTR_UTIL_BIT_COST_H
