// Intra-operator parallelism (§7, "Future Challenges").
//
// The paper's argument for why QPPT parallelizes well: the prefix tree is
// unbalanced and *deterministic* — a key's position never moves — so the
// tree splits into disjoint subtrees by key range, and subtrees can be
// assigned to threads without the rebalancing hazards of B-trees (a
// balancing operation may move already-processed data into another
// thread's subtree). That holds for KISS and prefix trees alike, so one
// partitioner serves both: PartitionKeySpan splits a key span of either
// family into disjoint, subtree-aligned KeyRanges — the morsel source of
// the engine's parallel operators and of the partitioned output merge
// (engine/parallel_ops.h). ForkJoin is the plain thread fork-join scope
// used by client threads in tests and benches.

#ifndef QPPT_CORE_PARALLEL_H_
#define QPPT_CORE_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "index/key_encoder.h"
#include "index/kiss_tree.h"
#include "index/prefix_tree.h"

namespace qppt {

// Fork-join scope: spawned workers are joined on scope exit no matter how
// the scope unwinds, and the first exception a worker throws is captured
// and rethrown from Join() on the forking thread. Without this, a throwing
// shard functor escapes its std::thread and terminates the process.
class ForkJoin {
 public:
  explicit ForkJoin(size_t expected = 0) { workers_.reserve(expected); }
  ~ForkJoin() { JoinAll(); }
  ForkJoin(const ForkJoin&) = delete;
  ForkJoin& operator=(const ForkJoin&) = delete;

  template <typename F>
  void Spawn(F&& fn) {
    workers_.emplace_back([this, fn = std::forward<F>(fn)]() mutable {
      try {
        fn();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
    });
  }

  // Joins all workers, then rethrows the first captured exception (if any).
  void Join() {
    JoinAll();
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

 private:
  void JoinAll() {
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    workers_.clear();
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::exception_ptr error_;
};

// Chops [0, n) into at most `shards` contiguous, non-empty [begin, end)
// slices differing in size by at most one — the balanced split shared by
// every morsel and merge-range planner.
inline std::vector<std::pair<size_t, size_t>> SplitEvenly(size_t n,
                                                          size_t shards) {
  std::vector<std::pair<size_t, size_t>> slices;
  if (n == 0 || shards == 0) return slices;
  if (shards > n) shards = n;
  size_t per = n / shards;
  size_t extra = n % shards;
  size_t at = 0;
  for (size_t s = 0; s < shards; ++s) {
    size_t take = per + (s < extra ? 1 : 0);
    slices.emplace_back(at, at + take);
    at += take;
  }
  return slices;
}

// One disjoint slice of a partitioned key span, inclusive on both ends,
// in the key domain of the partitioned tree's family.
struct KeyRange {
  uint32_t kiss_lo = 0;  // KISS trees: 32-bit keys
  uint32_t kiss_hi = 0;
  // Prefix trees: encoded keys of the tree's key_len bytes.
  uint8_t prefix_lo[KeyBuf::kCapacity] = {};
  uint8_t prefix_hi[KeyBuf::kCapacity] = {};
};

// Splits the inclusive key span [lo, hi] into at most `shards` ascending
// KeyRanges that tile it gap-free: the first range starts at `lo`, the
// last ends at `hi`, and every inner boundary falls on a whole fragment
// of the span's *branching level*, so no two ranges share a subtree below
// it. The tree supplies only the key geometry; callers clamp the span to
// the populated keys when they want populated-only ranges. Returns no
// ranges when lo > hi or shards == 0.
//
// KISS trees branch at the root: ranges hold whole level-2 buckets, so no
// two ranges share a level-2 node.
std::vector<KeyRange> PartitionKeySpan(const KissTree& tree, uint32_t lo,
                                       uint32_t hi, size_t shards);

// Prefix trees branch at the first k'-bit fragment where lo and hi
// differ: order-preserving encodings share long key prefixes (the sign
// byte of int64 keys), so splitting any higher would yield one degenerate
// range. A single-key span has no branching fragment and stays one range.
// `branch_bit_off` (optional) receives the branching fragment's bit
// offset (key_len * 8 for a single-key span); the inner-node chain above
// it is shared by every range.
std::vector<KeyRange> PartitionKeySpan(const PrefixTree& tree,
                                       const uint8_t* lo, const uint8_t* hi,
                                       size_t shards,
                                       size_t* branch_bit_off = nullptr);

}  // namespace qppt

#endif  // QPPT_CORE_PARALLEL_H_
