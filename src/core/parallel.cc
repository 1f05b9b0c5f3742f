#include "core/parallel.h"

#include <algorithm>
#include <cstring>

#include "util/bits.h"

namespace qppt {

namespace {

// Emits one KeyRange per balanced run of the branching-level fragment
// values [frag_lo, frag_hi]; bound(range, first, last) writes the range's
// bounds for the run of fragments [first, last].
template <typename BoundFn>
std::vector<KeyRange> SplitFragments(uint64_t frag_lo, uint64_t frag_hi,
                                     size_t shards, BoundFn&& bound) {
  std::vector<KeyRange> ranges;
  for (const auto& [begin, end] :
       SplitEvenly(static_cast<size_t>(frag_hi - frag_lo + 1), shards)) {
    ranges.emplace_back();
    bound(&ranges.back(), frag_lo + begin, frag_lo + end - 1);
  }
  return ranges;
}

void SetKeyBit(uint8_t* key, size_t bit, bool value) {
  size_t byte = bit >> 3;
  uint8_t mask = static_cast<uint8_t>(0x80 >> (bit & 7));
  if (value) {
    key[byte] |= mask;
  } else {
    key[byte] &= static_cast<uint8_t>(~mask);
  }
}

// Builds an inclusive range bound: the shared prefix of `prefix_key`
// above `bit_off`, fragment `frag` at [bit_off, bit_off + width), and
// all-zeros (lower bound) or all-ones (upper bound) below.
void BuildBoundKey(uint8_t* out, const uint8_t* prefix_key, size_t key_len,
                   size_t bit_off, size_t width, uint64_t frag,
                   bool fill_ones) {
  std::memcpy(out, prefix_key, key_len);
  for (size_t i = 0; i < width; ++i) {
    SetKeyBit(out, bit_off + i, ((frag >> (width - 1 - i)) & 1) != 0);
  }
  for (size_t bit = bit_off + width; bit < key_len * 8; ++bit) {
    SetKeyBit(out, bit, fill_ones);
  }
}

}  // namespace

std::vector<KeyRange> PartitionKeySpan(const KissTree& tree, uint32_t lo,
                                       uint32_t hi, size_t shards) {
  if (lo > hi || shards == 0) return {};
  const size_t l2 = tree.level2_bits();
  std::vector<KeyRange> ranges = SplitFragments(
      lo >> l2, hi >> l2, shards,
      [&](KeyRange* r, uint64_t first, uint64_t last) {
        r->kiss_lo = static_cast<uint32_t>(first << l2);
        r->kiss_hi = static_cast<uint32_t>(((last + 1) << l2) - 1);
      });
  ranges.front().kiss_lo = lo;
  ranges.back().kiss_hi = hi;
  return ranges;
}

std::vector<KeyRange> PartitionKeySpan(const PrefixTree& tree,
                                       const uint8_t* lo, const uint8_t* hi,
                                       size_t shards,
                                       size_t* branch_bit_off) {
  const size_t key_len = tree.key_len();
  if (shards == 0 || CompareKeys(lo, hi, key_len) > 0) return {};
  const size_t key_bits = key_len * 8;
  size_t bit_off = 0;
  size_t width = 0;
  uint32_t frag_lo = 0;
  uint32_t frag_hi = 0;
  while (bit_off < key_bits) {
    width = std::min(tree.config().kprime, key_bits - bit_off);
    frag_lo = ExtractFragment(lo, key_len, bit_off, width);
    frag_hi = ExtractFragment(hi, key_len, bit_off, width);
    if (frag_lo != frag_hi) break;
    bit_off += width;
  }
  if (branch_bit_off != nullptr) *branch_bit_off = bit_off;
  std::vector<KeyRange> ranges;
  if (bit_off == key_bits) {
    ranges.emplace_back();  // lo == hi: no branching fragment
  } else {
    ranges = SplitFragments(
        frag_lo, frag_hi, shards,
        [&](KeyRange* r, uint64_t first, uint64_t last) {
          BuildBoundKey(r->prefix_lo, lo, key_len, bit_off, width, first,
                        /*fill_ones=*/false);
          BuildBoundKey(r->prefix_hi, lo, key_len, bit_off, width, last,
                        /*fill_ones=*/true);
        });
  }
  std::memcpy(ranges.front().prefix_lo, lo, key_len);
  std::memcpy(ranges.back().prefix_hi, hi, key_len);
  return ranges;
}

}  // namespace qppt
