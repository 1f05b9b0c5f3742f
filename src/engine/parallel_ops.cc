#include "engine/parallel_ops.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace qppt::engine {

namespace {

// Test-only mutation of planned merge ranges (injects non-covering
// plans); see PartialOutputs::SetPlanMutatorForTest.
PartialOutputs::PlanMutator g_plan_mutator_for_test;

// Merge shards differ from scan morsels: their walls measure the
// partials' key skew rather than an operator site's morsel cost, so no
// tuner adapts them — a merge splits at the tuners' base rate.
size_t MergeShards(const WorkerPool& pool) {
  return pool.num_workers() * MorselTuner::kBasePerWorker;
}

// Runs fn(m) for every merge shard in [0, count) on the site's pool; the
// merge counterpart of RunMorsels, minus the tuner feedback. A shard
// boundary doubles as a cancellation boundary: a cancelled merge abandons
// the final table (a context-owned intermediate the error path drops)
// without waiting for the remaining shards. Traced shards record kMerge
// spans under the site's label.
template <typename Fn>
void RunMergeShards(const MorselSite& site, size_t count, Fn&& fn) {
  obs::QueryTrace* trace = site.trace;
  const CancelToken* cancel = site.cancel;
  site.pool->Run(count, [&](size_t worker, size_t m) {
    if (cancel != nullptr) {
      Status st = cancel->Check();
      if (!st.ok()) throw CancelledException(std::move(st));
    }
    QPPT_FAILPOINT(merge_shard);
    double t0 = trace != nullptr ? trace->NowUs() : 0.0;
    fn(m);
    if (trace != nullptr) {
      trace->Record(worker, site.label, obs::SpanKind::kMerge, t0,
                    trace->NowUs());
    }
  });
}

// Adds one to a big-endian `key` of `key_len` bytes in place. Returns
// false on overflow (the key was all-ones).
bool IncrementKey(uint8_t* key, size_t key_len) {
  for (size_t i = key_len; i-- > 0;) {
    if (++key[i] != 0) return true;
  }
  return false;
}

// One validated range plan shared by the plain and aggregated merge
// paths: plans against the destination's index family, applies the
// test-only mutator, checks the ranges tile the partials' union key
// span (the Release-mode guard against silent row-id / group
// corruption), and pre-builds the prefix destination's shared chain
// when the plan is usable.
struct MergeRangePlan {
  std::vector<KeyRange> ranges;
  uint32_t kiss_lo = 0;  // exact union key span (kKiss finals only)
  uint32_t kiss_hi = 0;
  bool covering = false;

  bool usable() const { return covering && ranges.size() > 1; }
};

MergeRangePlan PlanValidatedMergeRanges(
    const std::vector<std::unique_ptr<IndexedTable>>& partials,
    IndexedTable* final_table, size_t shards) {
  QPPT_FAILPOINT(merge_plan);
  MergeRangePlan plan;
  if (final_table->kind() == IndexedTable::Kind::kKiss) {
    // The union key span of the non-empty partials: the partitioner's
    // input, the coverage check's reference and the merged key stats.
    uint32_t lo = std::numeric_limits<uint32_t>::max();
    uint32_t hi = 0;
    for (const auto& p : partials) {
      if (p->kiss()->empty()) continue;
      lo = std::min(lo, p->kiss()->min_key());
      hi = std::max(hi, p->kiss()->max_key());
    }
    plan.ranges = PartitionKeySpan(*final_table->kiss(), lo, hi, shards);
    if (g_plan_mutator_for_test) g_plan_mutator_for_test(&plan.ranges);
    if (plan.ranges.empty()) return plan;  // all partials empty
    plan.kiss_lo = lo;
    plan.kiss_hi = hi;
    plan.covering = merge_detail::KissRangesCoverSpan(plan.ranges, lo, hi);
  } else if (final_table->num_tuples() == 0) {
    // The chain pre-build requires an empty destination; merging into a
    // populated prefix table (not an engine flow today) stays serial.
    const size_t key_len = final_table->prefix()->key_len();
    const uint8_t* min_key = nullptr;
    const uint8_t* max_key = nullptr;
    for (const auto& p : partials) {
      const PrefixTree::ContentNode* mn = p->prefix()->MinContent();
      if (mn == nullptr) continue;
      const PrefixTree::ContentNode* mx = p->prefix()->MaxContent();
      if (min_key == nullptr || CompareKeys(mn->key(), min_key, key_len) < 0) {
        min_key = mn->key();
      }
      if (max_key == nullptr || CompareKeys(mx->key(), max_key, key_len) > 0) {
        max_key = mx->key();
      }
    }
    if (min_key == nullptr) return plan;  // all partials empty
    size_t branch_bit_off = 0;
    plan.ranges = PartitionKeySpan(*final_table->prefix(), min_key, max_key,
                                   shards, &branch_bit_off);
    if (g_plan_mutator_for_test) g_plan_mutator_for_test(&plan.ranges);
    if (plan.ranges.empty()) return plan;
    plan.covering = merge_detail::PrefixRangesCoverSpan(plan.ranges, key_len,
                                                        min_key, max_key);
    if (plan.usable()) {
      // The shared chain above the branch is pre-built in the destination
      // so concurrent range workers only read it.
      final_table->PrepareMergeChain(min_key, branch_bit_off);
    }
  }
  return plan;
}

}  // namespace

namespace merge_detail {

bool KissRangesCoverSpan(const std::vector<KeyRange>& ranges, uint32_t span_lo,
                         uint32_t span_hi) {
  if (ranges.empty()) return false;
  if (ranges.front().kiss_lo > span_lo) return false;
  if (ranges.back().kiss_hi < span_hi) return false;
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (ranges[i].kiss_lo > ranges[i].kiss_hi) return false;
    if (i + 1 < ranges.size() &&
        (ranges[i].kiss_hi == std::numeric_limits<uint32_t>::max() ||
         ranges[i].kiss_hi + 1 != ranges[i + 1].kiss_lo)) {
      return false;
    }
  }
  return true;
}

bool PrefixRangesCoverSpan(const std::vector<KeyRange>& ranges, size_t key_len,
                           const uint8_t* span_lo, const uint8_t* span_hi) {
  if (ranges.empty()) return false;
  if (CompareKeys(ranges.front().prefix_lo, span_lo, key_len) > 0) {
    return false;
  }
  if (CompareKeys(ranges.back().prefix_hi, span_hi, key_len) < 0) {
    return false;
  }
  uint8_t next[KeyBuf::kCapacity];
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (CompareKeys(ranges[i].prefix_lo, ranges[i].prefix_hi, key_len) > 0) {
      return false;
    }
    if (i + 1 < ranges.size()) {
      std::memcpy(next, ranges[i].prefix_hi, key_len);
      if (!IncrementKey(next, key_len) ||
          CompareKeys(next, ranges[i + 1].prefix_lo, key_len) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace merge_detail

void PartialOutputs::SetPlanMutatorForTest(PlanMutator mutator) {
  g_plan_mutator_for_test = std::move(mutator);
}

size_t PartialOutputs::MergeInto(const MorselSite& site,
                                 IndexedTable* final_table) {
  if (site.pool == nullptr || site.pool->num_workers() <= 1) {
    MergeInto(final_table);
    return 0;
  }
  return final_table->aggregated() ? MergeAggInto(site, final_table)
                                   : MergePlainInto(site, final_table);
}

size_t PartialOutputs::MergePlainInto(const MorselSite& site,
                                      IndexedTable* final_table) {
  size_t total = 0;
  for (const auto& p : partials_) total += p->num_tuples();
  if (total < kMinParallelInputTuples) {
    MergeInto(final_table);
    return 0;
  }

  // A plan that does not tile the span would leave pre-assigned row ids
  // unwritten and drop tuples — checked at runtime (Release included),
  // never just asserted; the serial path is always correct.
  MergeRangePlan plan =
      PlanValidatedMergeRanges(partials_, final_table, MergeShards(*site.pool));
  if (!plan.usable()) {
    MergeInto(final_table);
    return 0;
  }
  const std::vector<KeyRange>& ranges = plan.ranges;

  // Per-partial contiguous row-id blocks: partial p's tuple ids are
  // dense in [0, n_p), so block bases derived from the tuple counts the
  // builds already maintain pre-assign every destination row id without
  // a counting scan — the merge below is the only pass over the data.
  uint64_t first_id = final_table->BeginParallelMerge(total);
  std::vector<uint64_t> base(partials_.size(), 0);
  uint64_t at = first_id;
  for (size_t p = 0; p < partials_.size(); ++p) {
    base[p] = at;
    at += partials_[p]->num_tuples();
  }

  // One parallel pass: each range worker folds ALL partials' tuples of
  // its key range into the final table. Ranges are bucket/fragment
  // aligned, so index mutations stay within disjoint subtrees; row
  // writes are disjoint because (partial, source id) determines the
  // destination id; shard statistics are summed and applied once.
  std::vector<IndexedTable::MergeShardStats> shard_stats(ranges.size());
  RunMergeShards(site, ranges.size(), [&](size_t m) {
    for (size_t p = 0; p < partials_.size(); ++p) {
      final_table->MergeRangeFrom(*partials_[p], ranges[m], base[p],
                                  &shard_stats[m]);
    }
  });

  IndexedTable::MergeShardStats summed;
  for (const auto& s : shard_stats) {
    summed.tuples += s.tuples;
    summed.new_keys += s.new_keys;
    summed.new_inner_nodes += s.new_inner_nodes;
  }
  assert(summed.tuples == total && "validated ranges must cover every tuple");
  final_table->EndParallelMerge(summed, plan.kiss_lo, plan.kiss_hi);
  for (auto& partial : partials_) partial.reset();
  return ranges.size();
}

size_t PartialOutputs::MergeAggInto(const MorselSite& site,
                                    IndexedTable* final_table) {
  size_t folded_tuples = 0;
  size_t group_entries = 0;
  for (const auto& p : partials_) {
    folded_tuples += p->num_tuples();
    group_entries += p->num_keys();
  }
  if (group_entries < kMinParallelAggGroups) {
    MergeInto(final_table);
    return 0;
  }

  // Same runtime guarantee as the plain path: a non-covering plan would
  // silently drop groups, so it falls back to the serial merge.
  MergeRangePlan plan =
      PlanValidatedMergeRanges(partials_, final_table, MergeShards(*site.pool));
  if (!plan.usable()) {
    MergeInto(final_table);
    return 0;
  }
  const std::vector<KeyRange>& ranges = plan.ranges;

  std::vector<const IndexedTable*> views;
  views.reserve(partials_.size());
  for (const auto& p : partials_) views.push_back(p.get());

  final_table->BeginParallelAggMerge();
  std::vector<IndexedTable::MergeShardStats> shard_stats(ranges.size());
  RunMergeShards(site, ranges.size(), [&](size_t m) {
    final_table->MergeAggRangeFrom(views, ranges[m], &shard_stats[m]);
  });

  IndexedTable::MergeShardStats summed;
  for (const auto& s : shard_stats) {
    summed.new_keys += s.new_keys;
    summed.new_inner_nodes += s.new_inner_nodes;
  }
  final_table->EndParallelAggMerge(summed, plan.kiss_lo, plan.kiss_hi,
                                   folded_tuples);
  for (auto& partial : partials_) partial.reset();
  return ranges.size();
}

}  // namespace qppt::engine
