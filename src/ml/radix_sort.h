#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wefr::ml {

/// Stable least-significant-digit radix sort of `items` by the unsigned
/// integer `key_of(item)`, whose set bits all lie below `key_bits`: one
/// 8-bit digit per pass. A pass whose digit is equal for every item
/// would leave the order as it is and is skipped, so keys that vary only
/// in a few bytes cost only those passes. Ties keep their input order.
/// `scratch` is a reusable buffer.
template <typename T, typename KeyOf>
void radix_sort(std::vector<T>& items, std::vector<T>& scratch, KeyOf key_of,
                unsigned key_bits) {
  const std::size_t n = items.size();
  if (n < 2) return;
  scratch.resize(n);
  for (unsigned shift = 0; shift < key_bits; shift += 8) {
    std::array<std::uint32_t, 256> offset{};
    for (const T& item : items) ++offset[(key_of(item) >> shift) & 0xffu];
    if (offset[(key_of(items.front()) >> shift) & 0xffu] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& o : offset) {
      const std::uint32_t c = o;
      o = sum;
      sum += c;
    }
    for (const T& item : items) scratch[offset[(key_of(item) >> shift) & 0xffu]++] = item;
    items.swap(scratch);
  }
}

}  // namespace wefr::ml
