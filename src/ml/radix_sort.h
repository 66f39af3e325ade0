#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wefr::ml {

/// Stable least-significant-digit radix sort of `items` by the unsigned
/// integer `key_of(item)`, whose set bits all lie below `key_bits`: one
/// `DigitBits`-bit digit per pass. One read of the items counts every
/// pass's digits up front (a pass only permutes the items, so its counts
/// do not depend on the passes before it); each pass then prefix-sums its
/// counters and scatters. A pass whose digit is equal for every item
/// would leave the order as it is and is skipped, so keys that vary only
/// in a few digits cost only those scatters. Ties keep their input
/// order. `scratch` is a reusable buffer.
///
/// Each pass clears and prefix-sums 2^DigitBits counters whatever the
/// item count, so a few dozen items sort faster with narrower digits
/// (64 counters at 6 bits against 256 at 8), at the price of more passes
/// on wide keys.
template <unsigned DigitBits = 8, typename T, typename KeyOf>
void radix_sort(std::vector<T>& items, std::vector<T>& scratch, KeyOf key_of,
                unsigned key_bits) {
  constexpr std::size_t kRadix = std::size_t{1} << DigitBits;
  constexpr std::uint64_t kMask = kRadix - 1;
  constexpr unsigned kMaxPasses = (64 + DigitBits - 1) / DigitBits;
  const std::size_t n = items.size();
  if (n < 2) return;
  const unsigned passes = std::min(kMaxPasses, (key_bits + DigitBits - 1) / DigitBits);
  std::array<std::array<std::uint32_t, kRadix>, kMaxPasses> offsets;
  for (unsigned p = 0; p < passes; ++p) offsets[p].fill(0);
  for (const T& item : items) {
    const std::uint64_t key = key_of(item);
    for (unsigned p = 0; p < passes; ++p) ++offsets[p][(key >> (p * DigitBits)) & kMask];
  }
  scratch.resize(n);
  for (unsigned p = 0; p < passes; ++p) {
    const unsigned shift = p * DigitBits;
    std::array<std::uint32_t, kRadix>& offset = offsets[p];
    if (offset[(key_of(items.front()) >> shift) & kMask] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& o : offset) {
      const std::uint32_t c = o;
      o = sum;
      sum += c;
    }
    for (const T& item : items) scratch[offset[(key_of(item) >> shift) & kMask]++] = item;
    items.swap(scratch);
  }
}

}  // namespace wefr::ml
