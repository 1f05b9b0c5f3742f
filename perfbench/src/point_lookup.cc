// point-lookup: batched point and short range reads on an IndexedTable
// keyed on lo_partkey, Zipf(0.99)-distributed keys, closed-loop readers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/indexed_table.h"
#include "engine/session.h"
#include "ssb/dbgen.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kZipfExponent = 0.99;
constexpr double kPointShare = 0.9;
constexpr size_t kRangeKeys = 4;  // a range read spans this many keys
// Throughput is counted per slice of the timed phase; traced runs also
// alternate tracing on and off per slice.
constexpr double kSliceMs = 100;

// Rank sampler for Zipf(s) over n ranks: inverse CDF by binary search.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(qppt::Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.NextDouble());
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// The key -> row-count oracle, built from the row table at setup.
struct KeyCounts {
  std::vector<int64_t> keys;      // ascending, distinct
  std::vector<uint64_t> prefix;   // prefix[i] = rows with keys < keys[i]
};

KeyCounts CountKeys(const qppt::RowTable& table, size_t key_col) {
  std::vector<int64_t> all(table.num_rows());
  for (size_t r = 0; r < all.size(); ++r) {
    all[r] = qppt::Int64FromSlot(table.GetSlot(r, key_col));
  }
  std::sort(all.begin(), all.end());
  KeyCounts kc;
  for (size_t r = 0; r < all.size(); ++r) {
    if (r == 0 || all[r] != all[r - 1]) {
      kc.keys.push_back(all[r]);
      kc.prefix.push_back(r);
    }
  }
  kc.prefix.push_back(all.size());
  return kc;
}

struct ReaderResult {
  std::vector<double> lat_ms;
  std::vector<uint64_t> slice_reads;  // completed reads per slice
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
};

}  // namespace

void RunPointLookup(const Options& options, Tracer& tracer, Report& report) {
  qppt::ssb::SsbConfig cfg;
  cfg.scale_factor = options.scale_factor;
  cfg.build_indexes = false;
  Tracer* setup_tracer = options.trace ? &tracer : nullptr;

  qppt::engine::EngineConfig ecfg;
  ecfg.threads = 1;
  qppt::engine::EngineRunner runner(ecfg);
  const unsigned readers = std::max(1u, std::thread::hardware_concurrency());

  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> insert_ns;
  std::vector<double> latencies;
  std::vector<double> traced_lat;
  std::vector<double> untraced_lat;
  std::vector<double> rates;  // reads/s of each whole slice
  double pool_bytes = 0;
  double raw_bytes = 0;
  uint64_t reads = 0;
  uint64_t scans = 0;
  uint64_t keys = 0;
  KeyCounts kc;
  std::unique_ptr<Zipf> zipf;
  std::vector<size_t> hot;  // rank -> key index, seeded
  Activity timed;
  size_t slice_base = 0;  // slices of the earlier rounds
  for (int round = 0; round < kRounds; ++round) {
    // ---- setup: generate lineorder, then IndexedTable::Insert every row -
    double gen_ms = 0;
    auto generated = CallTimer::Run(
        setup_tracer, "ssb.generate", -1, 0,
        [&] { return qppt::ssb::Generate(cfg); }, nullptr, &gen_ms);
    if (!generated.ok()) {
      report.Fail("generate: " + generated.status().ToString());
      return;
    }
    std::unique_ptr<qppt::ssb::SsbData> data = std::move(generated).value();
    const qppt::RowTable& lineorder = **data->db.table("lineorder");
    const size_t key_col = *lineorder.schema().ColumnIndex("lo_partkey");
    double ins_ms = 0;
    auto created = CallTimer::Run(
        setup_tracer, "index.insert", -1, 0,
        [&]() -> qppt::Result<std::unique_ptr<qppt::IndexedTable>> {
          auto t = qppt::IndexedTable::Create(lineorder.schema(),
                                              {"lo_partkey"});
          if (!t.ok()) return t.status();
          for (size_t r = 0; r < lineorder.num_rows(); ++r) {
            (*t)->Insert(lineorder.Record(r));
          }
          return t;
        },
        nullptr, &ins_ms);
    if (!created.ok()) {
      report.Fail("index: " + created.status().ToString());
      return;
    }
    std::unique_ptr<qppt::IndexedTable> table = std::move(created).value();
    generate_s.push_back(gen_ms / 1000.0);
    insert_ns.push_back(ins_ms * 1e6 /
                        static_cast<double>(lineorder.num_rows()));
    setup_s.push_back((gen_ms + ins_ms) / 1000.0);

    // ---- oracle, outside setup_s ----------------------------------------
    // The data seed is fixed, so every round generates the same data.
    if (round == 0) {
      pool_bytes = static_cast<double>(data->db.MemoryUsage() +
                                       table->MemoryUsage());
      raw_bytes = RawRowBytes(data->db);
      kc = CountKeys(lineorder, key_col);
      zipf = std::make_unique<Zipf>(kc.keys.size(), kZipfExponent);
      hot.resize(kc.keys.size());
      for (size_t i = 0; i < hot.size(); ++i) hot[i] = i;
      qppt::Rng perm_rng(options.seed);
      Shuffle(hot, perm_rng);
    }
    const size_t n = kc.keys.size();
    const qppt::IndexedTable& index = *table;

    auto read_once = [&](qppt::Rng& rng, Tracer* t, bool corrupt,
                         ReaderResult& out) {
      size_t i = hot[zipf->Sample(rng)];
      bool point = rng.NextDouble() < kPointShare;
      size_t j = point ? i : std::min(i + kRangeKeys - 1, n - 1);
      int64_t lo = kc.keys[i];
      int64_t hi = kc.keys[j];
      uint64_t request = t != nullptr ? t->NewRequest() : 0;
      auto ids = CallTimer::Run(
          t, point ? "engine.point_read" : "engine.range_read", -1, request,
          [&] {
            return point ? runner.PointRead(index, lo)
                         : runner.RangeRead(index, lo, hi);
          });
      ++out.attempted;
      bool ok = ids.ok();
      if (ok) {
        uint64_t want = kc.prefix[j + 1] - kc.prefix[i] + (corrupt ? 1 : 0);
        ok = ids->size() == want;
        int64_t prev = lo;
        for (uint64_t id : *ids) {
          int64_t k = qppt::Int64FromSlot(index.Tuple(id)[key_col]);
          // Point reads: every tuple carries the key asked for. Range
          // reads also come back in ascending key order.
          ok = ok && k >= prev && k <= hi;
          if (!point) prev = k;
        }
      }
      if (!ok) {
        if (out.failed++ == 0) {
          out.first_error = (point ? "PointRead(" : "RangeRead(") +
                            std::to_string(lo) + ".." + std::to_string(hi) +
                            ") " +
                            (ids.ok() ? "returned wrong tuples"
                                      : ids.status().ToString());
        }
      }
    };

    // Warm-up, once per run: a short untimed burst from one thread.
    if (round == 0) {
      qppt::Rng rng(options.seed + 1);
      ReaderResult warm;
      for (int r = 0; r < 2000; ++r) read_once(rng, nullptr, false, warm);
      report.Attempt(warm.attempted);
      for (uint64_t f = 0; f < warm.failed; ++f) report.Fail(warm.first_error);
    }

    // ---- this round's slice: nproc closed-loop readers ------------------
    std::vector<ReaderResult> results(readers);
    auto s0 = runner.read_stats();
    timed.Begin();
    Clock::time_point start = Clock::now();
    Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.seconds / kRounds));
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < readers; ++t) {
      threads.emplace_back([&, t] {
        qppt::Rng rng((options.seed * kRounds + round) * 1000003 + t);
        ReaderResult& out = results[t];
        bool corrupt = options.corrupt && round == 0 && t == 0;
        for (Clock::time_point now = Clock::now(); now < deadline;
             now = Clock::now()) {
          size_t slice = static_cast<size_t>(MsBetween(start, now) / kSliceMs);
          bool traced = options.trace && (slice_base + slice) % 2 == 1;
          read_once(rng, traced ? &tracer : nullptr, corrupt, out);
          corrupt = false;
          Clock::time_point done = Clock::now();
          double ms = MsBetween(now, done);
          out.lat_ms.push_back(ms);
          size_t done_slice =
              static_cast<size_t>(MsBetween(start, done) / kSliceMs);
          if (out.slice_reads.size() <= done_slice) {
            out.slice_reads.resize(done_slice + 1);
          }
          ++out.slice_reads[done_slice];
          (traced ? out.traced_ms : out.untraced_ms).push_back(ms);
        }
      });
    }
    for (auto& th : threads) th.join();
    timed.End();
    auto s1 = runner.read_stats();
    runner.ReleaseReads(index);  // the table is freed with this round

    // Whole slices only: the last one ends at the deadline, cut short.
    const size_t whole = static_cast<size_t>(options.seconds * 1000.0 /
                                             kRounds / kSliceMs);
    std::vector<double> round_rates(whole);
    for (const ReaderResult& r : results) {
      for (size_t i = 0; i < r.slice_reads.size() && i < whole; ++i) {
        round_rates[i] +=
            static_cast<double>(r.slice_reads[i]) / (kSliceMs / 1000.0);
      }
      latencies.insert(latencies.end(), r.lat_ms.begin(), r.lat_ms.end());
      traced_lat.insert(traced_lat.end(), r.traced_ms.begin(),
                        r.traced_ms.end());
      untraced_lat.insert(untraced_lat.end(), r.untraced_ms.begin(),
                          r.untraced_ms.end());
      report.Attempt(r.attempted);
      for (uint64_t f = 0; f < r.failed; ++f) report.Fail(r.first_error);
    }
    rates.insert(rates.end(), round_rates.begin(), round_rates.end());
    slice_base += whole + 1;
    reads += s1.reads - s0.reads;
    scans += s1.shared_scans - s0.shared_scans;
    keys += s1.batched_keys - s0.batched_keys;
  }
  std::printf("point-lookup: %u readers, %zu keys, %llu reads in %llu "
              "shared scans\n",
              readers, kc.keys.size(), static_cast<unsigned long long>(reads),
              static_cast<unsigned long long>(scans));

  if (!options.trace) {
    AddEndToEnd(report, setup_s, rates, latencies, "read");
    return;
  }
  report.Metric("ssb.generate_s", Median(generate_s), "s");
  report.Metric("index.pool_mib", pool_bytes / 1048576.0, "MiB");
  report.Metric("index.space_amp", pool_bytes / raw_bytes, "ratio");
  report.Metric("index.insert_ns", Median(insert_ns), "ns/row");
  AddSchedulerMetrics(report, timed, 0);
  report.Metric("engine.read_keys_per_scan",
                scans == 0 ? 0
                           : static_cast<double>(keys) /
                                 static_cast<double>(scans),
                "keys/scan");
  report.Metric("engine.read_scans", static_cast<double>(scans), "count");
  report.Metric("storage.versions_per_row", 1.0, "ratio");
  AddProcMetrics(report, timed);
  report.Metric("tracing.overhead_ratio",
                Median(traced_lat) / Median(untraced_lat), "ratio");
  AddSelfTimes(report, tracer);
}

}  // namespace perfbench
