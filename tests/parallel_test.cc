#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/base_index.h"
#include "core/parallel.h"
#include "core/sync_scan.h"
#include "index/key_encoder.h"
#include "util/rng.h"

namespace qppt {
namespace {

// ---- PartitionKeySpan: KISS trees -------------------------------------------

// Checks the partitioner contract for a KISS span: at most `shards`
// ranges, ascending and gap-free from lo to hi, every inner boundary on
// a level-2 bucket boundary. Returns the ranges for further checks.
std::vector<KeyRange> ExpectKissTiling(const KissTree& tree, uint32_t lo,
                                       uint32_t hi, size_t shards) {
  std::vector<KeyRange> ranges = PartitionKeySpan(tree, lo, hi, shards);
  EXPECT_FALSE(ranges.empty());
  EXPECT_LE(ranges.size(), shards);
  if (ranges.empty()) return ranges;
  EXPECT_EQ(ranges.front().kiss_lo, lo);
  EXPECT_EQ(ranges.back().kiss_hi, hi);
  const uint32_t bucket_mask = (1u << tree.level2_bits()) - 1;
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_LE(ranges[i].kiss_lo, ranges[i].kiss_hi);
    if (i == 0) continue;
    EXPECT_EQ(uint64_t{ranges[i - 1].kiss_hi} + 1, ranges[i].kiss_lo);
    EXPECT_EQ(ranges[i].kiss_lo & bucket_mask, 0u) << "splits a bucket";
  }
  return ranges;
}

TEST(PartitionKeySpanKissTest, TilesTheSpanAndScansEveryKeyOnce) {
  KissTree tree;
  Rng rng(1);
  std::multiset<uint32_t> reference;
  for (int i = 0; i < 20000; ++i) {
    uint32_t key = static_cast<uint32_t>(rng.NextBounded(1 << 20));
    tree.Insert(key, 1);
    reference.insert(key);
  }
  size_t oversubscribed = std::thread::hardware_concurrency() * 4 + 3;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                        size_t{16}, oversubscribed}) {
    auto ranges =
        ExpectKissTiling(tree, tree.min_key(), tree.max_key(), shards);
    std::multiset<uint32_t> scanned;
    for (const KeyRange& r : ranges) {
      tree.ScanRange(r.kiss_lo, r.kiss_hi,
                     [&](uint32_t key, const KissTree::ValueRef& v) {
                       for (size_t n = 0; n < v.size(); ++n) {
                         scanned.insert(key);
                       }
                     });
    }
    EXPECT_EQ(scanned, reference) << shards;
  }
}

TEST(PartitionKeySpanKissTest, EdgeCases) {
  KissTree tree;
  const uint32_t bucket = 1u << tree.level2_bits();
  // Empty span and zero shards: no ranges.
  EXPECT_TRUE(PartitionKeySpan(tree, 10, 9, 4).empty());
  EXPECT_TRUE(PartitionKeySpan(tree, 0, 100, 0).empty());
  // Single key: one range, whatever the shard count.
  for (size_t shards : {1, 2, 1024}) {
    auto one = ExpectKissTiling(tree, 5, 5, shards);
    EXPECT_EQ(one.size(), 1u);
  }
  // A span inside one bucket never splits it.
  EXPECT_EQ(ExpectKissTiling(tree, bucket + 1, 2 * bucket - 2, 64).size(),
            1u);
  // More shards than buckets: one range per bucket.
  EXPECT_EQ(ExpectKissTiling(tree, 3, 3 * bucket - 1, 100).size(), 3u);
  // The whole 32-bit domain, including the top key.
  ExpectKissTiling(tree, 0, 0xFFFFFFFFu, 5);
}

// ---- PartitionKeySpan: prefix trees -----------------------------------------

void PutU32(uint32_t v, uint8_t* out) {
  KeyBuf buf;
  buf.AppendU32(v);
  std::memcpy(out, buf.data(), 4);
}

bool KeyBit(const uint8_t* key, size_t bit) {
  return ((key[bit >> 3] >> (7 - (bit & 7))) & 1) != 0;
}

// Checks the partitioner contract for a prefix span: at most `shards`
// ranges, ascending and gap-free from lo to hi, every inner boundary on
// a whole fragment of the branching level (bits below the fragment all
// zeros in a lower bound, all ones in an upper bound).
std::vector<KeyRange> ExpectPrefixTiling(const PrefixTree& tree,
                                         const uint8_t* lo,
                                         const uint8_t* hi, size_t shards,
                                         size_t* branch = nullptr) {
  const size_t key_len = tree.key_len();
  size_t branch_bit_off = 0;
  std::vector<KeyRange> ranges =
      PartitionKeySpan(tree, lo, hi, shards, &branch_bit_off);
  if (branch != nullptr) *branch = branch_bit_off;
  EXPECT_FALSE(ranges.empty());
  EXPECT_LE(ranges.size(), shards);
  if (ranges.empty()) return ranges;
  EXPECT_EQ(CompareKeys(ranges.front().prefix_lo, lo, key_len), 0);
  EXPECT_EQ(CompareKeys(ranges.back().prefix_hi, hi, key_len), 0);
  const size_t key_bits = key_len * 8;
  const size_t below = std::min(branch_bit_off + tree.config().kprime,
                                key_bits);
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_LE(CompareKeys(ranges[i].prefix_lo, ranges[i].prefix_hi, key_len),
              0);
    if (i == 0) continue;
    uint8_t next[KeyBuf::kCapacity];
    std::memcpy(next, ranges[i - 1].prefix_hi, key_len);
    for (size_t b = key_len; b-- > 0;) {
      if (++next[b] != 0) break;
    }
    EXPECT_EQ(CompareKeys(next, ranges[i].prefix_lo, key_len), 0)
        << "gap or overlap before range " << i;
    for (size_t bit = below; bit < key_bits; ++bit) {
      EXPECT_FALSE(KeyBit(ranges[i].prefix_lo, bit)) << "unaligned lo " << i;
      EXPECT_TRUE(KeyBit(ranges[i - 1].prefix_hi, bit))
          << "unaligned hi " << i - 1;
    }
  }
  return ranges;
}

TEST(PartitionKeySpanPrefixTest, TilesTheSpanAndScansEveryKeyOnce) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  Rng rng(3);
  std::set<uint32_t> reference;
  uint8_t key[4];
  for (int i = 0; i < 20000; ++i) {
    uint32_t k = rng.Next32();
    PutU32(k, key);
    tree.Upsert(key, k);
    reference.insert(k);
  }
  const uint8_t* lo = tree.MinContent()->key();
  const uint8_t* hi = tree.MaxContent()->key();
  size_t oversubscribed = std::thread::hardware_concurrency() * 4 + 3;
  for (size_t shards : {size_t{1}, size_t{3}, size_t{8}, size_t{64},
                        oversubscribed}) {
    auto ranges = ExpectPrefixTiling(tree, lo, hi, shards);
    std::set<uint32_t> scanned;
    for (const KeyRange& r : ranges) {
      tree.ScanRange(r.prefix_lo, r.prefix_hi,
                     [&](const PrefixTree::ContentNode& c) {
                       EXPECT_TRUE(scanned.insert(DecodeU32(c.key())).second);
                     });
    }
    EXPECT_EQ(scanned, reference) << shards;
  }
}

TEST(PartitionKeySpanPrefixTest, SplitsAtTheBranchingFragment) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  uint8_t lo[4];
  uint8_t hi[4];
  // Shared leading nibbles 0,0,0,0,1; the bounds first differ in nibble 5.
  PutU32(0x00001234, lo);
  PutU32(0x00001ABC, hi);
  size_t branch = 0;
  for (size_t shards : {1, 2, 3, 100}) {
    auto ranges = ExpectPrefixTiling(tree, lo, hi, shards, &branch);
    EXPECT_EQ(branch, 20u);
    // Fragments 2..A at the branching level: at most nine ranges.
    EXPECT_EQ(ranges.size(), std::min<size_t>(shards, 9));
  }
  // Uneven last fragment (8-bit keys, k'=3: widths 3, 3, 2).
  PrefixTree narrow({.key_len = 1, .kprime = 3});
  uint8_t nlo = 0x40;  // 010 000 00
  uint8_t nhi = 0x43;  // 010 000 11
  auto ranges = ExpectPrefixTiling(narrow, &nlo, &nhi, 8, &branch);
  EXPECT_EQ(branch, 6u);
  EXPECT_EQ(ranges.size(), 4u);
}

TEST(PartitionKeySpanPrefixTest, EdgeCases) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  uint8_t lo[4];
  uint8_t hi[4];
  // Empty span (lo > hi) and zero shards: no ranges.
  PutU32(200, lo);
  PutU32(100, hi);
  EXPECT_TRUE(PartitionKeySpan(tree, lo, hi, 4).empty());
  PutU32(100, lo);
  PutU32(200, hi);
  EXPECT_TRUE(PartitionKeySpan(tree, lo, hi, 0).empty());
  // Single key: one range, no branching fragment.
  size_t branch = 0;
  for (size_t shards : {1, 2, 512}) {
    auto one = ExpectPrefixTiling(tree, lo, lo, shards, &branch);
    EXPECT_EQ(one.size(), 1u);
    EXPECT_EQ(branch, 32u);
  }
  // The whole encoded domain branches at the root.
  PutU32(0, lo);
  PutU32(0xFFFFFFFFu, hi);
  EXPECT_EQ(ExpectPrefixTiling(tree, lo, hi, 64, &branch).size(), 16u);
  EXPECT_EQ(branch, 0u);
}

// ---- clamped spans: BaseIndex::PartitionKeys (both families) ----------------

TEST(PartitionKeysTest, ClampsTheSpanToThePopulatedKeys) {
  Schema schema({{"k", ValueType::kInt64, nullptr}});
  RowTable table(schema, "t");
  for (int64_t k = 1000; k < 9000; ++k) {
    uint64_t row[1] = {SlotFromInt64(k)};
    table.AppendRow(row);
  }
  for (bool kiss : {true, false}) {
    BaseIndex::Options opt;
    opt.prefer_kiss = kiss;
    opt.kiss_root_bits = 20;
    auto index_or = BaseIndex::Build(&table, {"k"}, {}, opt);
    ASSERT_TRUE(index_or.ok());
    const BaseIndex& index = **index_or;
    ASSERT_EQ(index.kind(),
              kiss ? BaseIndex::Kind::kKiss : BaseIndex::Kind::kPrefix);
    auto keys_of = [&](const std::vector<KeyRange>& ranges) {
      std::multiset<int64_t> keys;
      for (const KeyRange& r : ranges) {
        index.ForEachInKeyRange(r, [&](uint64_t rid) {
          keys.insert(Int64FromSlot(table.GetSlot(rid, 0)));
        });
      }
      return keys;
    };
    auto expect_keys = [&](const std::vector<KeyRange>& ranges, int64_t lo,
                           int64_t hi) {
      std::multiset<int64_t> want;
      for (int64_t k = lo; k <= hi; ++k) want.insert(k);
      EXPECT_EQ(keys_of(ranges), want) << (kiss ? "kiss" : "prefix");
    };
    // Open bounds and bounds wider than the populated keys clamp to them.
    auto all = index.PartitionKeys(nullptr, nullptr, 8);
    ASSERT_FALSE(all.empty());
    EXPECT_LE(all.size(), 8u);
    expect_keys(all, 1000, 8999);
    uint64_t wide_lo = SlotFromInt64(10);
    uint64_t wide_hi = SlotFromInt64(100000);
    auto wide = index.PartitionKeys(&wide_lo, &wide_hi, 8);
    ASSERT_FALSE(wide.empty());
    expect_keys(wide, 1000, 8999);
    if (kiss) {
      EXPECT_EQ(wide.front().kiss_lo, KissKeyOf(SlotFromInt64(1000)));
      EXPECT_EQ(wide.back().kiss_hi, KissKeyOf(SlotFromInt64(8999)));
    }
    // Bounds inside the populated keys are kept.
    uint64_t lo = SlotFromInt64(2000);
    uint64_t hi = SlotFromInt64(4000);
    expect_keys(index.PartitionKeys(&lo, &hi, 4), 2000, 4000);
    // A span disjoint from the populated keys: no ranges.
    uint64_t far_lo = SlotFromInt64(20000);
    uint64_t far_hi = SlotFromInt64(30000);
    EXPECT_TRUE(index.PartitionKeys(&far_lo, &far_hi, 4).empty());
  }
}

// ---- subtree-pair units (parallel prefix-tree star join) -------------------

// Scans `units` in SplitEvenly slices and checks that the slices, taken
// in order, visit `expected` (the key intersection) exactly once and in
// ascending key order. Keys are compared as encoded byte strings.
void ExpectSlicedScanVisits(const PrefixTree& left, const PrefixTree& right,
                            const std::vector<PairScanUnit>& units,
                            size_t slices,
                            const std::vector<std::string>& expected) {
  std::vector<std::string> got;
  const size_t key_len = left.key_len();
  for (auto [begin, end] : SplitEvenly(units.size(), slices)) {
    SynchronousScanUnits(
        left, right,
        std::span<const PairScanUnit>(units).subspan(begin, end - begin),
        [&](const uint8_t* key, const ValueList*, const ValueList*) {
          got.emplace_back(reinterpret_cast<const char*>(key), key_len);
        });
  }
  EXPECT_EQ(got, expected) << slices << " slices over " << units.size()
                           << " units";
}

TEST(PairScanUnitsTest, EdgeCases) {
  // Either side empty: no units.
  PrefixTree empty({.key_len = 4, .kprime = 4});
  PrefixTree other({.key_len = 4, .kprime = 4});
  KeyBuf buf;
  buf.AppendU32(42);
  other.Insert(buf.data(), 1);
  EXPECT_TRUE(PairScanUnits(empty, other, 8).empty());
  EXPECT_TRUE(PairScanUnits(other, empty, 8).empty());

  // Populated but disjoint root slots: both trees have keys, yet no slot
  // is used by both — the scan would visit nothing, so no units either.
  PrefixTree lo({.key_len = 4, .kprime = 4});
  PrefixTree hi({.key_len = 4, .kprime = 4});
  buf.clear();
  buf.AppendU32(0x10000000);  // top fragment 1
  lo.Insert(buf.data(), 1);
  buf.clear();
  buf.AppendU32(0xA0000000);  // top fragment 10
  hi.Insert(buf.data(), 2);
  EXPECT_TRUE(PairScanUnits(lo, hi, 8).empty());

  // Keys with a shared top fragment: the units lie below the shared
  // chain and still expose parallelism (a root-slot split would have
  // collapsed to one span).
  PrefixTree a({.key_len = 4, .kprime = 4});
  PrefixTree b({.key_len = 4, .kprime = 4});
  for (uint32_t k = 0; k < 200; ++k) {
    buf.clear();
    buf.AppendU32(k);  // all under top fragment 0 — and several more
    a.Insert(buf.data(), k);
    if (k % 2 == 0) b.Insert(buf.data(), k);
  }
  auto units = PairScanUnits(a, b, 2);
  EXPECT_GT(units.size(), 1u) << "shared-prefix chain not descended";
  EXPECT_GT(units.front().bit_off, 0u);

  // All duplicates under ONE key on both sides: the chain bottoms out at
  // a single content pair — exactly one unit of work, no split possible.
  PrefixTree dup_l({.key_len = 4, .kprime = 4});
  PrefixTree dup_r({.key_len = 4, .kprime = 4});
  buf.clear();
  buf.AppendU32(777);
  for (uint64_t v = 0; v < 50; ++v) {
    dup_l.Insert(buf.data(), v);
    dup_r.Insert(buf.data(), 100 + v);
  }
  auto dup_units = PairScanUnits(dup_l, dup_r, 64);
  ASSERT_EQ(dup_units.size(), 1u);
  size_t pairs = 0;
  SynchronousScanUnits(dup_l, dup_r, dup_units,
                       [&](const uint8_t*, const ValueList* lv,
                           const ValueList* rv) {
                         pairs += lv->size() * rv->size();
                       });
  EXPECT_EQ(pairs, 50u * 50u);
}

TEST(PairScanUnitsTest, SlicedScanMatchesIntersection) {
  PrefixTree left({.key_len = 4, .kprime = 4});
  PrefixTree right({.key_len = 4, .kprime = 4});
  Rng rng(23);
  std::set<uint32_t> lkeys, rkeys;
  KeyBuf buf;
  for (int i = 0; i < 4000; ++i) {
    uint32_t k = rng.Next32() % 100000;
    buf.clear();
    buf.AppendU32(k);
    left.Insert(buf.data(), 1);
    lkeys.insert(k);
    k = rng.Next32() % 100000;
    buf.clear();
    buf.AppendU32(k);
    right.Insert(buf.data(), 1);
    rkeys.insert(k);
  }
  std::vector<std::string> expected;
  for (uint32_t k : lkeys) {
    if (rkeys.count(k) == 0) continue;
    buf.clear();
    buf.AppendU32(k);
    expected.emplace_back(reinterpret_cast<const char*>(buf.data()), 4);
  }
  for (size_t target : {1, 4, 32, 256}) {
    auto units = PairScanUnits(left, right, target);
    ASSERT_FALSE(units.empty());
    for (size_t slices : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                          target}) {
      ExpectSlicedScanVisits(left, right, units, slices, expected);
    }
  }
}

// c_custkey-shaped join keys: int64 keys 1..15000 share the 12-fragment
// sign-flipped chain and branch at a nibble holding only 0..3, so the
// branching level alone yields 4 units — fewer than any pool's target.
TEST(PairScanUnitsTest, Int64CustkeysExpandBelowBranchingLevel) {
  PrefixTree left({.key_len = 8, .kprime = 4});
  PrefixTree right({.key_len = 8, .kprime = 4});
  std::vector<std::string> expected;
  KeyBuf buf;
  for (int64_t k = 1; k <= 15000; ++k) {
    buf.clear();
    buf.AppendI64(k);
    left.Insert(buf.data(), static_cast<uint64_t>(k));
    if (k % 3 == 0) {
      right.Insert(buf.data(), static_cast<uint64_t>(k));
      expected.emplace_back(reinterpret_cast<const char*>(buf.data()), 8);
    }
  }
  // target <= the branching fanout expands nothing: the branching level.
  const size_t branch_bit_off = 48;
  for (size_t target : {1, 2, 4}) {
    auto units = PairScanUnits(left, right, target);
    ASSERT_EQ(units.size(), 4u) << target;
    for (const PairScanUnit& u : units) {
      EXPECT_EQ(u.bit_off, branch_bit_off) << target;
    }
  }
  for (size_t target : {5, 8, 32, 256}) {
    auto units = PairScanUnits(left, right, target);
    EXPECT_GE(units.size(), target);
    EXPECT_GT(units.front().bit_off, branch_bit_off) << target;
    for (size_t slices : {size_t{1}, size_t{3}, target}) {
      ExpectSlicedScanVisits(left, right, units, slices, expected);
    }
  }
  // Self-pairing (the mixed KISS x prefix join) enumerates every key.
  std::vector<std::string> all;
  left.ScanAll([&](const PrefixTree::ContentNode& c) {
    all.emplace_back(reinterpret_cast<const char*>(c.key()), 8);
  });
  auto self_units = PairScanUnits(left, left, 64);
  EXPECT_GE(self_units.size(), 64u);
  ExpectSlicedScanVisits(left, left, self_units, 64, all);
}

// ---- exception safety of the fork-join scope -------------------------------

TEST(ForkJoinTest, WorkerExceptionIsRethrownAfterJoin) {
  std::atomic<int> ran{0};
  ForkJoin fork(4);
  for (int i = 0; i < 4; ++i) {
    fork.Spawn([&, i] {
      ++ran;
      // A throwing worker must surface on the forking thread, not
      // std::terminate the process.
      if (i == 1) throw std::runtime_error("worker boom");
    });
  }
  EXPECT_THROW(fork.Join(), std::runtime_error);
  EXPECT_EQ(ran.load(), 4) << "every worker runs to completion";
  // The scope stays usable afterwards, and a clean round rethrows nothing.
  fork.Spawn([&] { ++ran; });
  EXPECT_NO_THROW(fork.Join());
  EXPECT_EQ(ran.load(), 5);
}

TEST(ForkJoinTest, ScopeExitJoinsWithoutJoin) {
  std::atomic<int> ran{0};
  {
    ForkJoin fork;
    for (int i = 0; i < 3; ++i) fork.Spawn([&] { ++ran; });
  }
  EXPECT_EQ(ran.load(), 3);
}

}  // namespace
}  // namespace qppt
