// Work-stealing morsel scheduler — the engine's execution substrate.
//
// A fixed pool of worker threads executes *morsels*: small, independent
// units of operator work (typically one disjoint key range produced by
// PartitionKeySpan, core/parallel.h, for either tree family). Each
// worker owns a deque; a submitted batch is spread round-robin across the
// deques, workers pop their own deque LIFO and steal FIFO from others
// when idle. Morsels from *different* concurrent queries interleave
// freely over the same workers, which is what lets one fixed pool serve
// many admitted queries (morsel-driven parallelism à la HyPer, adapted to
// QPPT's deterministic tree partitions).
//
// Kept deliberately simple (KISS): one pool-wide mutex guards the deques
// — morsels are coarse (thousands of tuples), so the lock is cold — and
// the whole scheduler is a few hundred auditable lines, TSan-clean by
// construction.

#ifndef QPPT_ENGINE_SCHEDULER_H_
#define QPPT_ENGINE_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>

#include "dbg/lock_rank.h"
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace qppt::obs {
class Counter;
class Gauge;
}  // namespace qppt::obs

namespace qppt::engine {

// Adaptive morsel sizing: a feedback loop that replaces the engine's
// fixed morsels-per-worker split count. The parallel drivers
// (engine/parallel_ops.h) report each batch's per-morsel wall times;
// when the slowest morsel exceeds ~2x the median (skew — one shard
// dominating the fork-join), the next batch splits finer so work
// stealing can even it out; when morsels are so small that scheduling
// overhead dominates, the next batch splits coarser. The state is
// deliberately coarse: morsel sources are deterministic tree
// partitions, so finer/coarser only changes shard count, never
// correctness. Tuners are keyed per *operator site*
// (WorkerPool::TunerFor) — a pool-global loop would let interleaved
// queries with different per-morsel cost profiles pollute each other's
// split counts.
class MorselTuner {
 public:
  static constexpr size_t kBasePerWorker = 8;
  static constexpr size_t kMinPerWorker = 2;
  static constexpr size_t kMaxPerWorker = 64;
  // Re-split when max > kSkewFactor * median.
  static constexpr double kSkewFactor = 2.0;
  // Coarsen when the median morsel is shorter than this (scheduling
  // overhead territory).
  static constexpr double kMinMorselMs = 0.05;

  // Current split target for a pool with `workers` workers.
  size_t MorselTarget(size_t workers) const {
    dbg::RankedLockGuard lock(dbg::LockRank::kMorselTuner, mu_);
    return workers * per_worker_;
  }

  size_t per_worker() const {
    dbg::RankedLockGuard lock(dbg::LockRank::kMorselTuner, mu_);
    return per_worker_;
  }
  size_t refines() const {
    dbg::RankedLockGuard lock(dbg::LockRank::kMorselTuner, mu_);
    return refines_;
  }
  size_t coarsens() const {
    dbg::RankedLockGuard lock(dbg::LockRank::kMorselTuner, mu_);
    return coarsens_;
  }

  // Feeds one finished batch's per-morsel wall times back into the loop.
  // `morsel_ms` is consumed (sorted in place).
  void RecordBatch(std::vector<double>* morsel_ms);

 private:
  mutable std::mutex mu_;
  size_t per_worker_ = kBasePerWorker;
  size_t refines_ = 0;   // skew-triggered finer splits
  size_t coarsens_ = 0;  // overhead-triggered coarser splits
};

class WorkerPool {
 public:
  // fn(worker, morsel): `worker` is a stable id in [0, num_workers()) —
  // index per-worker partial states with it; `morsel` is the batch-local
  // morsel index.
  using MorselFn = std::function<void(size_t worker, size_t morsel)>;

  // `threads` worker threads; 0 = no workers, Run() executes inline on
  // the calling thread (worker id 0; num_workers() reports 1).
  explicit WorkerPool(size_t threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t num_workers() const { return deques_.empty() ? 1 : deques_.size(); }

  // The adaptive tuner of one operator site (keyed by the operator's
  // planner stage label / display name). Each site carries its own
  // feedback loop, so two interleaved queries with different per-morsel
  // cost profiles cannot pollute each other's split counts.
  //
  // Sites are held in a bounded LRU map (kMaxTunerSites): a workload that
  // cycles through many distinct plan labels (ad-hoc queries, tests)
  // evicts its coldest site instead of growing the map forever. The
  // shared_ptr keeps an evicted tuner alive for any operator still
  // mid-batch with it; a later request for the same site starts a fresh
  // feedback loop.
  static constexpr size_t kMaxTunerSites = 64;
  std::shared_ptr<MorselTuner> TunerFor(std::string_view site);
  // Distinct operator sites currently resident (never exceeds
  // kMaxTunerSites).
  size_t num_tuner_sites() const;

  // Executes fn for every morsel index in [0, num_morsels) and blocks
  // until all have finished. Thread-safe: batches submitted concurrently
  // from different query threads interleave over the shared workers. If a
  // morsel throws, the batch's remaining morsels are skipped and the
  // first exception is rethrown here, on the submitting thread. Must not
  // be called from inside a morsel (no nested batches).
  void Run(size_t num_morsels, const MorselFn& fn);

 private:
  struct Batch {
    const MorselFn* fn = nullptr;
    size_t outstanding = 0;        // morsels not yet finished (guarded by mu_)
    bool failed = false;           // skip remaining morsels (guarded by mu_)
    std::exception_ptr error;      // first morsel exception (guarded by mu_)
  };
  struct Item {
    Batch* batch = nullptr;
    size_t index = 0;
  };

  void WorkerLoop(size_t worker);
  // Pops from the worker's own deque (back) or steals from another
  // worker's deque (front). Caller holds mu_. Sets *stolen when the item
  // came from a victim's deque.
  bool PopOrStealLocked(size_t worker, Item* item, bool* stolen);

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: items available / stop
  std::condition_variable done_cv_;   // submitters: batch finished
  std::vector<std::deque<Item>> deques_;
  std::vector<std::thread> workers_;
  size_t next_deque_ = 0;  // round-robin distribution cursor (guarded by mu_)
  bool stop_ = false;
  // Per-site tuners, LRU-bounded at kMaxTunerSites (see TunerFor).
  struct SiteEntry {
    std::shared_ptr<MorselTuner> tuner;
    uint64_t last_used = 0;
  };
  mutable std::mutex tuners_mu_;
  std::map<std::string, SiteEntry, std::less<>> site_tuners_;
  uint64_t tuner_use_clock_ = 0;  // guarded by tuners_mu_

  // Global-registry metrics, resolved once at construction (pointers are
  // stable for the registry's lifetime).
  obs::Counter* tasks_executed_;   // engine_tasks_executed_total, per worker
  obs::Counter* tasks_stolen_;     // engine_tasks_stolen_total, per worker
  obs::Counter* steal_failures_;   // engine_steal_failures_total
  obs::Counter* worker_busy_ns_;   // engine_worker_busy_ns_total, per worker
  obs::Counter* worker_idle_ns_;   // engine_worker_idle_ns_total, per worker
  obs::Gauge* queue_depth_;        // engine_queue_depth (queued, unstarted)
  obs::Gauge* tuner_sites_;        // engine_tuner_sites (resident sites)
  obs::Counter* tuner_evictions_;  // engine_tuner_evictions_total
};

}  // namespace qppt::engine

#endif  // QPPT_ENGINE_SCHEDULER_H_
