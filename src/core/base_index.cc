#include "core/base_index.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace qppt {

namespace {

bool KissEligible(const std::vector<ValueType>& key_types) {
  return key_types.size() == 1 && key_types[0] != ValueType::kDouble;
}

void AppendKeyComponent(ValueType type, uint64_t slot, KeyBuf* out) {
  if (type == ValueType::kDouble) {
    out->AppendDouble(DoubleFromSlot(slot));
  } else {
    out->AppendI64(Int64FromSlot(slot));
  }
}

}  // namespace

Result<std::unique_ptr<BaseIndex>> BaseIndex::Build(
    const RowTable* table, std::vector<std::string> key_columns,
    std::vector<std::string> included_columns, Options options) {
  auto index = std::unique_ptr<BaseIndex>(new BaseIndex());
  QPPT_RETURN_NOT_OK(index->Init(table, /*rids=*/nullptr,
                                 std::move(key_columns),
                                 std::move(included_columns), options));
  return index;
}

Result<std::unique_ptr<BaseIndex>> BaseIndex::BuildFromSnapshot(
    const MvccTable* table, Timestamp read_ts,
    std::vector<std::string> key_columns,
    std::vector<std::string> included_columns, Options options) {
  std::vector<Rid> rids = table->SnapshotRids(read_ts);
  auto index = std::unique_ptr<BaseIndex>(new BaseIndex());
  QPPT_RETURN_NOT_OK(index->Init(&table->storage(), &rids,
                                 std::move(key_columns),
                                 std::move(included_columns), options));
  return index;
}

Result<std::unique_ptr<BaseIndex>> BaseIndex::BuildLive(
    const MvccTable* table, std::vector<std::string> key_columns,
    Options options) {
  // Index every version row present, visible or not: scans filter through
  // RidVisibleAt, and rows from aborted transactions simply never become
  // visible. This keeps the build independent of in-flight transactions.
  std::vector<Rid> rids(table->num_versions());
  for (Rid r = 0; r < rids.size(); ++r) rids[r] = r;
  auto index = std::unique_ptr<BaseIndex>(new BaseIndex());
  QPPT_RETURN_NOT_OK(index->Init(&table->storage(), &rids,
                                 std::move(key_columns),
                                 /*included_columns=*/{}, options));
  index->mvcc_ = table;
  return index;
}

void BaseIndex::InsertLive(Rid rid) {
  assert(mvcc_ != nullptr && !clustered());
  if (kind_ == Kind::kKiss) {
    kiss_->Insert(KissKeyOf(table_->GetSlot(rid, key_cols_[0])), rid);
  } else {
    KeyBuf key;
    uint64_t slots[KeyBuf::kCapacity / 8];
    for (size_t i = 0; i < key_cols_.size(); ++i) {
      slots[i] = table_->GetSlot(rid, key_cols_[i]);
    }
    EncodeKey(slots, &key);
    prefix_->Insert(key.data(), rid);
  }
  // relaxed: advisory counter; the tree publish carries the data.
  num_rows_.fetch_add(1, std::memory_order_relaxed);
}

Status BaseIndex::Init(const RowTable* table, const std::vector<Rid>* rids,
                       std::vector<std::string> key_columns,
                       std::vector<std::string> included_columns,
                       Options options) {
  table_ = table;
  key_names_ = std::move(key_columns);
  included_names_ = std::move(included_columns);
  if (key_names_.empty()) {
    return Status::InvalidArgument("base index needs at least one key column");
  }
  const Schema& schema = table->schema();
  for (const auto& name : key_names_) {
    QPPT_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(name));
    key_cols_.push_back(idx);
    key_types_.push_back(schema.column(idx).type);
  }
  for (const auto& name : included_names_) {
    QPPT_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(name));
    included_cols_.push_back(idx);
  }
  if (options.prefer_kiss && KissEligible(key_types_)) {
    kind_ = Kind::kKiss;
    KissTree::Config cfg;
    cfg.root_bits = options.kiss_root_bits;
    cfg.mode = KissTree::PayloadMode::kValues;
    kiss_ = std::make_unique<KissTree>(cfg);
  } else {
    kind_ = Kind::kPrefix;
    PrefixTree::Config cfg;
    cfg.key_len = key_cols_.size() * 8;
    cfg.kprime = options.kprime;
    cfg.mode = PrefixTree::PayloadMode::kValues;
    prefix_ = std::make_unique<PrefixTree>(cfg);
  }
  heap_width_ = clustered() ? 1 + included_cols_.size() : 0;

  size_t indexed = 0;
  auto index_row = [&](Rid rid) {
    uint64_t value;
    if (clustered()) {
      value = heap_.size() / heap_width_;
      heap_.push_back(rid);
      for (size_t col : included_cols_) {
        heap_.push_back(table_->GetSlot(rid, col));
      }
    } else {
      value = rid;
    }
    if (kind_ == Kind::kKiss) {
      kiss_->Insert(KissKeyOf(table_->GetSlot(rid, key_cols_[0])), value);
    } else {
      KeyBuf key;
      uint64_t slots[KeyBuf::kCapacity / 8];
      for (size_t i = 0; i < key_cols_.size(); ++i) {
        slots[i] = table_->GetSlot(rid, key_cols_[i]);
      }
      EncodeKey(slots, &key);
      prefix_->Insert(key.data(), value);
    }
    ++indexed;
  };

  if (rids != nullptr) {
    for (Rid rid : *rids) index_row(rid);
  } else {
    for (Rid rid = 0; rid < table->num_rows(); ++rid) index_row(rid);
  }
  // relaxed: bulk build completes before the index is shared.
  num_rows_.store(indexed, std::memory_order_relaxed);
  return Status::OK();
}

size_t BaseIndex::MemoryUsage() const {
  size_t index_bytes =
      kind_ == Kind::kKiss ? kiss_->MemoryUsage() : prefix_->MemoryUsage();
  return index_bytes + heap_.capacity() * sizeof(uint64_t);
}

Result<BaseIndex::Accessor> BaseIndex::BindColumn(
    const std::string& name) const {
  Accessor acc;
  acc.owner_ = this;
  if (name == "@rid") {
    acc.from_ = Accessor::From::kRid;
    return acc;
  }
  for (size_t i = 0; i < included_names_.size(); ++i) {
    if (included_names_[i] == name) {
      acc.from_ = Accessor::From::kPayload;
      acc.pos_ = 1 + i;  // slot 0 is the rid
      return acc;
    }
  }
  QPPT_ASSIGN_OR_RETURN(size_t idx, table_->schema().ColumnIndex(name));
  acc.from_ = Accessor::From::kTable;
  acc.pos_ = idx;
  return acc;
}

std::vector<KeyRange> BaseIndex::PartitionKeys(const uint64_t* lo_slots,
                                               const uint64_t* hi_slots,
                                               size_t shards) const {
  if (kind_ == Kind::kKiss) {
    if (kiss_->empty()) return {};
    uint32_t lo = kiss_->min_key();
    uint32_t hi = kiss_->max_key();
    if (lo_slots != nullptr) lo = std::max(lo, KissKeyOf(*lo_slots));
    if (hi_slots != nullptr) hi = std::min(hi, KissKeyOf(*hi_slots));
    return PartitionKeySpan(*kiss_, lo, hi, shards);
  }
  const PrefixTree::ContentNode* min = prefix_->MinContent();
  const PrefixTree::ContentNode* max = prefix_->MaxContent();
  if (min == nullptr || max == nullptr) return {};
  const size_t key_len = prefix_->key_len();
  uint8_t lo[KeyBuf::kCapacity];
  uint8_t hi[KeyBuf::kCapacity];
  std::memcpy(lo, min->key(), key_len);
  std::memcpy(hi, max->key(), key_len);
  KeyBuf bound;
  if (lo_slots != nullptr) {
    EncodeKey(lo_slots, &bound);
    if (CompareKeys(bound.data(), lo, key_len) > 0) {
      std::memcpy(lo, bound.data(), key_len);
    }
  }
  if (hi_slots != nullptr) {
    EncodeKey(hi_slots, &bound);
    if (CompareKeys(bound.data(), hi, key_len) < 0) {
      std::memcpy(hi, bound.data(), key_len);
    }
  }
  return PartitionKeySpan(*prefix_, lo, hi, shards);
}

void BaseIndex::EncodeKey(const uint64_t* key_slots, KeyBuf* out) const {
  out->clear();
  for (size_t i = 0; i < key_types_.size(); ++i) {
    AppendKeyComponent(key_types_[i], key_slots[i], out);
  }
}

void BaseIndex::EncodeLeadingBound(uint64_t slot, uint8_t fill,
                                   KeyBuf* out) const {
  out->clear();
  AppendKeyComponent(key_types_[0], slot, out);
  out->AppendFill(fill, (key_types_.size() - 1) * 8);
}

// ---- Database ---------------------------------------------------------------

Status Database::AddTable(std::unique_ptr<RowTable> table) {
  if (table->name().empty()) {
    return Status::InvalidArgument("table must be named");
  }
  auto [it, inserted] = tables_.emplace(table->name(), std::move(table));
  if (!inserted) {
    return Status::AlreadyExists("table '" + it->first + "' already exists");
  }
  return Status::OK();
}

Result<const RowTable*> Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second.get();
  auto vit = versioned_.find(name);
  if (vit != versioned_.end()) return &vit->second->storage();
  return Status::NotFound("no table named '" + name + "'");
}

Status Database::AddVersionedTable(std::unique_ptr<MvccTable> table) {
  if (table->name().empty()) {
    return Status::InvalidArgument("table must be named");
  }
  if (tables_.count(table->name()) > 0) {
    return Status::AlreadyExists("table '" + table->name() +
                                 "' already exists");
  }
  auto [it, inserted] = versioned_.emplace(table->name(), std::move(table));
  if (!inserted) {
    return Status::AlreadyExists("table '" + it->first + "' already exists");
  }
  return Status::OK();
}

Result<MvccTable*> Database::versioned_table(const std::string& name) {
  auto it = versioned_.find(name);
  if (it == versioned_.end()) {
    return Status::NotFound("no versioned table named '" + name + "'");
  }
  return it->second.get();
}

Result<const MvccTable*> Database::versioned_table(
    const std::string& name) const {
  auto it = versioned_.find(name);
  if (it == versioned_.end()) {
    return Status::NotFound("no versioned table named '" + name + "'");
  }
  return it->second.get();
}

Status Database::BuildLiveIndex(const std::string& index_name,
                                const std::string& table_name,
                                std::vector<std::string> key_columns,
                                BaseIndex::Options options) {
  if (indexes_.count(index_name) > 0) {
    return Status::AlreadyExists("index '" + index_name + "' already exists");
  }
  QPPT_ASSIGN_OR_RETURN(const MvccTable* tbl, versioned_table(table_name));
  QPPT_ASSIGN_OR_RETURN(
      auto index, BaseIndex::BuildLive(tbl, std::move(key_columns), options));
  BaseIndex* raw = index.get();
  indexes_.emplace(index_name, std::move(index));
  live_by_table_[table_name].push_back(raw);
  return Status::OK();
}

const std::vector<BaseIndex*>& Database::live_indexes(
    const std::string& table_name) const {
  static const std::vector<BaseIndex*> kNone;
  auto it = live_by_table_.find(table_name);
  return it == live_by_table_.end() ? kNone : it->second;
}

Status Database::BuildIndex(const std::string& index_name,
                            const std::string& table_name,
                            std::vector<std::string> key_columns,
                            std::vector<std::string> included_columns,
                            BaseIndex::Options options) {
  if (indexes_.count(index_name) > 0) {
    return Status::AlreadyExists("index '" + index_name + "' already exists");
  }
  QPPT_ASSIGN_OR_RETURN(const RowTable* tbl, table(table_name));
  QPPT_ASSIGN_OR_RETURN(
      auto index, BaseIndex::Build(tbl, std::move(key_columns),
                                   std::move(included_columns), options));
  indexes_.emplace(index_name, std::move(index));
  return Status::OK();
}

Result<const BaseIndex*> Database::index(const std::string& name) const {
  auto it = indexes_.find(name);
  if (it == indexes_.end()) {
    return Status::NotFound("no index named '" + name + "'");
  }
  return it->second.get();
}

size_t Database::MemoryUsage() const {
  size_t total = 0;
  for (const auto& [name, table] : tables_) total += table->MemoryUsage();
  for (const auto& [name, table] : versioned_) {
    total += table->storage().MemoryUsage();
  }
  for (const auto& [name, index] : indexes_) total += index->MemoryUsage();
  return total;
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> names;
  for (const auto& [name, table] : tables_) names.push_back(name);
  for (const auto& [name, table] : versioned_) names.push_back(name);
  return names;
}

std::vector<std::string> Database::versioned_table_names() const {
  std::vector<std::string> names;
  for (const auto& [name, table] : versioned_) names.push_back(name);
  return names;
}

std::vector<std::string> Database::index_names() const {
  std::vector<std::string> names;
  for (const auto& [name, index] : indexes_) names.push_back(name);
  return names;
}

}  // namespace qppt
