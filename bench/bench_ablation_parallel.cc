// E11 — extension: intra-operator parallelism (§7).
//
// Thread-scaling of a duplicate-aware full scan over a KISS-Tree and a
// prefix tree holding the same keys. Each scan runs the engine's own
// parallel path: PartitionKeySpan (core/parallel.h) splits the tree's key
// span into disjoint ranges at its branching level, and RunMorsels
// (engine/parallel_ops.h) runs one morsel per range on a WorkerPool. The
// paper argues unbalanced tries parallelize well because a key's
// position is deterministic — no rebalancing can move data between
// threads' subtrees mid-scan. Reports in the shared engine-bench row
// format (bench_common.h), one row per (family, thread count);
// `morsels` is the number of key ranges the partitioner produced.
//
//   QPPT_BENCH_REPS=5 ./bench_ablation_parallel

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/parallel.h"
#include "engine/parallel_ops.h"
#include "engine/scheduler.h"
#include "util/rng.h"

namespace qppt {
namespace {

constexpr size_t kKeys = 1 << 21;  // 2M keys, ~3 values/key
constexpr size_t kValues = kKeys * 3;

// Counts every value under `ranges`, one morsel per range on the site's
// pool; count(range) counts one range's values.
template <typename CountFn>
uint64_t CountValues(const engine::MorselSite& site,
                     const std::vector<KeyRange>& ranges, CountFn&& count) {
  std::vector<uint64_t> counts(ranges.size(), 0);
  engine::RunMorsels(site, ranges.size(), [&](size_t, size_t m) {
    counts[m] = count(ranges[m]);
  });
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return total;
}

void Run() {
  KissTree kiss;
  PrefixTree prefix({.key_len = 4, .kprime = 4});
  Rng rng(1);
  KeyBuf key;
  for (size_t i = 0; i < kValues; ++i) {
    uint32_t k = static_cast<uint32_t>(rng.NextBounded(kKeys));
    kiss.Insert(k, i);
    key.clear();
    key.AppendU32(k);
    prefix.Insert(key.data(), i);
  }
  int reps = bench::Repetitions();
  std::printf("parallel scan ablation (KISS-Tree, prefix tree k'=4): "
              "%zu keys, %zu values, %d reps (min)\n",
              kiss.num_keys(), kValues, reps);
  bench::PrintThroughputHeader();
  for (bool is_kiss : {true, false}) {
    const std::string family = is_kiss ? "kiss" : "prefix";
    double serial_ms = 0;
    double t8_ms = 0;
    for (size_t threads : {1, 2, 4, 8}) {
      engine::WorkerPool pool(threads);
      std::shared_ptr<engine::MorselTuner> tuner =
          pool.TunerFor("ablation_parallel:" + family);
      engine::MorselSite site{&pool, tuner.get(), nullptr, {}};
      uint64_t total = 0;
      size_t morsels = 0;
      double ms = bench::MinWallMs(reps, [&] {
        std::vector<KeyRange> ranges;
        if (is_kiss) {
          ranges = PartitionKeySpan(kiss, kiss.min_key(), kiss.max_key(),
                                    site.morsel_target());
          total = CountValues(site, ranges, [&](const KeyRange& r) {
            uint64_t n = 0;
            kiss.ScanRange(r.kiss_lo, r.kiss_hi,
                           [&](uint32_t, const KissTree::ValueRef& v) {
                             n += v.size();
                           });
            return n;
          });
        } else {
          ranges = PartitionKeySpan(prefix, prefix.MinContent()->key(),
                                    prefix.MaxContent()->key(),
                                    site.morsel_target());
          total = CountValues(site, ranges, [&](const KeyRange& r) {
            uint64_t n = 0;
            prefix.ScanRange(r.prefix_lo, r.prefix_hi,
                             [&](const PrefixTree::ContentNode& c) {
                               n += prefix.ValuesOf(&c)->size();
                             });
            return n;
          });
        }
        morsels = ranges.size();
      });
      if (total != kValues) {
        std::fprintf(stderr, "%s scan dropped values: %llu\n",
                     family.c_str(), static_cast<unsigned long long>(total));
        std::exit(1);
      }
      if (threads == 1) serial_ms = ms;
      if (threads == 8) t8_ms = ms;
      bench::LatencyRecorder lat;
      lat.Add(ms);
      bench::PrintThroughputRow("ablation_parallel",
                                family + " t=" + std::to_string(threads),
                                /*n=*/1, ms, lat, morsels);
    }
    if (serial_ms > 0 && t8_ms > 0) {
      std::printf("(%s speedup at t=8: %.2fx over t=1)\n", family.c_str(),
                  serial_ms / t8_ms);
    }
  }
}

}  // namespace
}  // namespace qppt

int main() {
  qppt::Run();
  return 0;
}
