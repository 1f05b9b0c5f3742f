#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "core/base_index.h"
#include "util/rng.h"

namespace qppt {
namespace {

std::unique_ptr<RowTable> MakePartTable(size_t n) {
  Schema schema({{"partkey", ValueType::kInt64, nullptr},
                 {"brand", ValueType::kInt64, nullptr},
                 {"size", ValueType::kInt64, nullptr}});
  auto table = std::make_unique<RowTable>(schema, "part");
  Rng rng(1);
  for (size_t i = 0; i < n; ++i) {
    uint64_t row[3] = {SlotFromInt64(static_cast<int64_t>(i)),
                       SlotFromInt64(static_cast<int64_t>(rng.NextBounded(40))),
                       SlotFromInt64(static_cast<int64_t>(rng.NextBounded(50)))};
    table->AppendRow(row);
  }
  return table;
}

BaseIndex::Options SmallKiss() {
  BaseIndex::Options opt;
  opt.kiss_root_bits = 20;
  return opt;
}

TEST(BaseIndexTest, SecondaryIndexYieldsRids) {
  auto table = MakePartTable(1000);
  auto index = BaseIndex::Build(table.get(), {"brand"}, {}, SmallKiss());
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE((*index)->clustered());
  EXPECT_EQ((*index)->num_rows(), 1000u);

  // All rows with brand 7, via the index vs. a full scan.
  std::set<Rid> expected;
  for (Rid r = 0; r < 1000; ++r) {
    if (Int64FromSlot(table->GetSlot(r, 1)) == 7) expected.insert(r);
  }
  std::set<Rid> got;
  (*index)->ForEachMatch(SlotFromInt64(7),
                         [&](uint64_t value) { got.insert(value); });
  EXPECT_EQ(got, expected);
}

TEST(BaseIndexTest, ClusteredIndexAvoidsTableAccess) {
  auto table = MakePartTable(1000);
  auto index =
      BaseIndex::Build(table.get(), {"brand"}, {"partkey", "size"}, SmallKiss());
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->clustered());

  auto partkey = (*index)->BindColumn("partkey");
  auto size = (*index)->BindColumn("size");
  auto brand = (*index)->BindColumn("brand");  // not included -> table
  ASSERT_TRUE(partkey.ok());
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(brand.ok());
  EXPECT_FALSE(partkey->touches_table());
  EXPECT_FALSE(size->touches_table());
  EXPECT_TRUE(brand->touches_table());

  (*index)->ForEachMatch(SlotFromInt64(3), [&](uint64_t value) {
    int64_t pk = Int64FromSlot(partkey->Get(value));
    // Cross-check against the base table.
    EXPECT_EQ(Int64FromSlot(table->GetSlot(static_cast<Rid>(pk), 1)), 3);
    EXPECT_EQ(Int64FromSlot(size->Get(value)),
              Int64FromSlot(table->GetSlot(static_cast<Rid>(pk), 2)));
  });
}

TEST(BaseIndexTest, RidPseudoColumn) {
  auto table = MakePartTable(100);
  auto index = BaseIndex::Build(table.get(), {"partkey"}, {}, SmallKiss());
  ASSERT_TRUE(index.ok());
  auto rid = (*index)->BindColumn("@rid");
  ASSERT_TRUE(rid.ok());
  (*index)->ForEachMatch(SlotFromInt64(42), [&](uint64_t value) {
    EXPECT_EQ(rid->Get(value), 42u);  // partkey == rid in this table
  });
}

TEST(BaseIndexTest, RangeScan) {
  auto table = MakePartTable(500);
  auto index = BaseIndex::Build(table.get(), {"partkey"}, {}, SmallKiss());
  ASSERT_TRUE(index.ok());
  size_t count = 0;
  (*index)->ForEachInRange(SlotFromInt64(100), SlotFromInt64(199),
                           [&](uint64_t) { ++count; });
  EXPECT_EQ(count, 100u);
}

TEST(BaseIndexTest, CompositeKeyUsesPrefixTree) {
  auto table = MakePartTable(300);
  auto index = BaseIndex::Build(table.get(), {"brand", "size"}, {});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->kind(), BaseIndex::Kind::kPrefix);
  // Point lookup through the composite encoding.
  KeyBuf key;
  uint64_t slots[2] = {SlotFromInt64(3), SlotFromInt64(10)};
  (*index)->EncodeKey(slots, &key);
  size_t via_index = 0;
  const ValueList* vals = (*index)->prefix()->Lookup(key.data());
  if (vals != nullptr) via_index = vals->size();
  size_t via_scan = 0;
  for (Rid r = 0; r < 300; ++r) {
    if (Int64FromSlot(table->GetSlot(r, 1)) == 3 &&
        Int64FromSlot(table->GetSlot(r, 2)) == 10) {
      ++via_scan;
    }
  }
  EXPECT_EQ(via_index, via_scan);
}

// Single-column predicates on a composite index scan the leading key
// column: a (brand, size) index returns the same rows as a brand index.
TEST(BaseIndexTest, CompositeIndexAnswersLeadingColumnPredicates) {
  auto table = MakePartTable(1000);
  BaseIndex::Options prefix;
  prefix.prefer_kiss = false;
  auto single = BaseIndex::Build(table.get(), {"brand"}, {}, prefix);
  auto composite = BaseIndex::Build(table.get(), {"brand", "size"}, {});
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(composite.ok());
  ASSERT_EQ((*composite)->kind(), BaseIndex::Kind::kPrefix);
  auto rows = [](const BaseIndex& index, auto&& scan) {
    std::multiset<uint64_t> got;
    scan(index, [&](uint64_t rid) { got.insert(rid); });
    return got;
  };
  for (int64_t brand : {0, 7, 39, 40}) {
    auto match = [&](const BaseIndex& index, auto&& fn) {
      index.ForEachMatch(SlotFromInt64(brand), fn);
    };
    EXPECT_EQ(rows(**composite, match), rows(**single, match)) << brand;
  }
  for (auto [lo, hi] : {std::pair<int64_t, int64_t>{5, 9}, {-3, 2},
                        {38, 100}, {20, 10}}) {
    auto range = [&](const BaseIndex& index, auto&& fn) {
      index.ForEachInRange(SlotFromInt64(lo), SlotFromInt64(hi), fn);
    };
    auto got = rows(**composite, range);
    EXPECT_EQ(got, rows(**single, range)) << lo << ".." << hi;
    size_t via_scan = 0;
    for (Rid r = 0; r < 1000; ++r) {
      int64_t brand = Int64FromSlot(table->GetSlot(r, 1));
      if (brand >= lo && brand <= hi) ++via_scan;
    }
    EXPECT_EQ(got.size(), via_scan) << lo << ".." << hi;
  }
}

// Integer keys below zero order below positive ones in both families.
TEST(BaseIndexTest, NegativeKeyRangeAgreesAcrossFamilies) {
  Schema schema({{"k", ValueType::kInt64, nullptr}});
  RowTable table(schema, "signed");
  for (int64_t k = -100; k < 100; ++k) {
    uint64_t row[1] = {SlotFromInt64(k)};
    table.AppendRow(row);
  }
  BaseIndex::Options prefix;
  prefix.prefer_kiss = false;
  auto kiss = BaseIndex::Build(&table, {"k"}, {}, SmallKiss());
  auto tree = BaseIndex::Build(&table, {"k"}, {}, prefix);
  ASSERT_TRUE(kiss.ok());
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ((*kiss)->kind(), BaseIndex::Kind::kKiss);
  for (const BaseIndex* index : {kiss->get(), tree->get()}) {
    std::vector<int64_t> keys;
    index->ForEachInRange(SlotFromInt64(-50), SlotFromInt64(50),
                          [&](uint64_t rid) {
                            keys.push_back(
                                Int64FromSlot(table.GetSlot(rid, 0)));
                          });
    ASSERT_EQ(keys.size(), 101u);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_EQ(keys.front(), -50);
    size_t hits = 0;
    index->ForEachMatch(SlotFromInt64(-7), [&](uint64_t) { ++hits; });
    EXPECT_EQ(hits, 1u);
  }
}

TEST(BaseIndexTest, UnknownColumnsFail) {
  auto table = MakePartTable(10);
  EXPECT_FALSE(BaseIndex::Build(table.get(), {"ghost"}, {}).ok());
  EXPECT_FALSE(BaseIndex::Build(table.get(), {"brand"}, {"ghost"}).ok());
  EXPECT_FALSE(BaseIndex::Build(table.get(), {}, {}).ok());
}

TEST(BaseIndexTest, SnapshotIndexRespectsVisibility) {
  Schema schema({{"k", ValueType::kInt64, nullptr}});
  MvccTable table(schema, "t");
  TransactionManager tm;

  Transaction t1 = tm.Begin();
  uint64_t row[1] = {SlotFromInt64(1)};
  table.Insert(t1, row);
  Timestamp ts1 = tm.BeginCommit();
  table.CommitTransaction(t1, ts1);
  tm.FinishCommit(t1, ts1);

  // Uncommitted second row must be invisible to the index snapshot.
  Transaction t2 = tm.Begin();
  uint64_t row2[1] = {SlotFromInt64(2)};
  table.Insert(t2, row2);

  BaseIndex::Options opt;
  opt.kiss_root_bits = 16;
  auto index =
      BaseIndex::BuildFromSnapshot(&table, tm.last_commit_ts(), {"k"}, {}, opt);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->num_rows(), 1u);

  Timestamp ts2 = tm.BeginCommit();
  table.CommitTransaction(t2, ts2);
  tm.FinishCommit(t2, ts2);
  auto index2 =
      BaseIndex::BuildFromSnapshot(&table, tm.last_commit_ts(), {"k"}, {}, opt);
  ASSERT_TRUE(index2.ok());
  EXPECT_EQ((*index2)->num_rows(), 2u);
}

// ---- Database -----------------------------------------------------------------

TEST(DatabaseTest, TablesAndIndexes) {
  Database db;
  ASSERT_TRUE(db.AddTable(MakePartTable(100)).ok());
  EXPECT_TRUE(db.AddTable(MakePartTable(100)).IsResourceExhausted() ||
              db.AddTable(MakePartTable(100)).code() ==
                  StatusCode::kAlreadyExists);
  ASSERT_TRUE(db.table("part").ok());
  EXPECT_TRUE(db.table("nope").status().IsNotFound());

  BaseIndex::Options opt;
  opt.kiss_root_bits = 20;
  ASSERT_TRUE(db.BuildIndex("part_brand", "part", {"brand"}, {"partkey"}, opt)
                  .ok());
  EXPECT_EQ(db.BuildIndex("part_brand", "part", {"brand"}, {}, opt).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(db.index("part_brand").ok());
  EXPECT_TRUE(db.index("nope").status().IsNotFound());
  EXPECT_EQ(db.table_names().size(), 1u);
  EXPECT_EQ(db.index_names().size(), 1u);
  EXPECT_GT(db.MemoryUsage(), 0u);
}

}  // namespace
}  // namespace qppt
