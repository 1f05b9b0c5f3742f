// htap: an open-loop upsert stream beside a closed-loop OLAP client over
// versioned lineorder with live indexes.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/retry.h"
#include "engine/session.h"
#include "engine/write_session.h"
#include "ssb/dbgen.h"
#include "ssb/queries_qppt.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using qppt::PlanKnobs;
using qppt::PlanStats;

// Writer schedule: transactions per second, rows per transaction.
constexpr double kTxnPerSecond = 2000;
constexpr size_t kInserts = 8;
constexpr size_t kUpdates = 4;
// A run ending with more than this much of the schedule unsent has a
// growing backlog and is not reported.
constexpr double kMaxBacklogSeconds = 0.1;

struct Recorded {
  size_t query = 0;  // index into the prepared handles
  qppt::Timestamp read_ts = 0;
  std::vector<std::vector<qppt::Value>> rows;
};

struct WriterResult {
  std::vector<double> commit_ms;  // commit return - due time
  std::vector<double> lag_ms;     // actual send - due time
  std::vector<double> write_us;   // the transaction's Insert/Update calls
  std::vector<double> commit_us;  // the Commit call
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t backlog = 0;  // transactions due but unsent at stop
  std::string first_error;
};

// The open-loop writer: transaction i is due at start + i / rate and is
// timed from that moment, so a stall delays every later commit too.
// Inserted rows are committed lineorder rows re-sampled with fresh
// quantity / price / discount; updates rewrite a committed row the same
// way (as in bench/bench_engine_htap.cc).
void WriterLoop(qppt::engine::EngineRunner& runner, qppt::ssb::SsbData& data,
                uint64_t seed, Clock::time_point start,
                const std::atomic<bool>& stop, Tracer* tracer,
                WriterResult& out) {
  qppt::MvccTable& lineorder = **data.db.versioned_table("lineorder");
  const qppt::RowTable& storage = lineorder.storage();
  const size_t initial = lineorder.num_logical_rows();
  const size_t width = storage.schema().num_columns();
  qppt::Rng rng(seed);
  std::vector<uint64_t> row(width);
  auto fill_from = [&](size_t rid) {
    for (size_t c = 0; c < width; ++c) row[c] = storage.GetSlot(rid, c);
    int64_t quantity = 1 + static_cast<int64_t>(rng.NextBounded(50));
    int64_t discount = static_cast<int64_t>(rng.NextBounded(11));
    int64_t price = 90000 + static_cast<int64_t>(rng.NextBounded(1000000));
    row[4] = qppt::SlotFromInt64(quantity);
    row[5] = qppt::SlotFromInt64(price);
    row[6] = qppt::SlotFromInt64(discount);
    row[7] = qppt::SlotFromInt64(price * (100 - discount) / 100);
  };
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kTxnPerSecond));
  uint64_t sent = 0;
  // relaxed: a stop request; the join publishes everything else.
  while (!stop.load(std::memory_order_relaxed)) {
    Clock::time_point due = start + period * static_cast<int64_t>(sent);
    std::this_thread::sleep_until(due);
    Clock::time_point begin = Clock::now();
    Clock::time_point writes_done = begin;
    Clock::time_point writes_begin = begin;
    qppt::engine::RetryOptions backoff;
    backoff.seed = rng.Next();
    qppt::Status st = qppt::engine::RetryTxn(
        &runner, &data.db,
        [&](qppt::engine::WriteSession& ws) -> qppt::Status {
          writes_begin = Clock::now();
          for (size_t i = 0; i < kInserts; ++i) {
            fill_from(rng.NextBounded(initial));
            auto id = ws.Insert("lineorder", row);
            if (!id.ok()) return id.status();
          }
          for (size_t u = 0; u < kUpdates; ++u) {
            qppt::MvccTable::LogicalId id = rng.NextBounded(initial);
            fill_from(id);
            QPPT_RETURN_NOT_OK(ws.Update("lineorder", id, row));
          }
          writes_done = Clock::now();
          return qppt::Status::OK();
        },
        backoff);
    Clock::time_point end = Clock::now();
    ++sent;
    if (!st.ok()) {
      if (out.failed++ == 0) out.first_error = st.ToString();
      continue;
    }
    ++out.committed;
    out.lag_ms.push_back(MsBetween(due, begin));
    out.commit_ms.push_back(MsBetween(due, end));
    out.write_us.push_back(MsBetween(writes_begin, writes_done) * 1e3);
    out.commit_us.push_back(MsBetween(writes_done, end) * 1e3);
    if (tracer != nullptr) {
      uint64_t request = tracer->NewRequest();
      int64_t root = tracer->Record("harness.txn", begin, end, -1, request);
      tracer->Record("engine.txn_write", writes_begin, writes_done, root,
                     request);
      tracer->Record("engine.commit", writes_done, end, root, request);
    }
  }
  uint64_t due_count =
      static_cast<uint64_t>((Clock::now() - start) / period) + 1;
  out.backlog = due_count > sent ? due_count - sent : 0;
}

}  // namespace

void RunHtap(const Options& options, Tracer& tracer, Report& report) {
  const std::vector<std::string>& ids = qppt::ssb::AllQueryIds();
  qppt::ssb::SsbConfig cfg;
  cfg.scale_factor = options.scale_factor;
  cfg.versioned_lineorder = true;
  unsigned ncpu = std::thread::hardware_concurrency();
  qppt::engine::EngineConfig ecfg;
  ecfg.threads = ncpu > 1 ? ncpu - 1 : 1;  // the writer gets the last CPU
  qppt::engine::EngineRunner runner(ecfg);
  Tracer* run_tracer = options.trace ? &tracer : nullptr;
  PlanKnobs knobs;

  qppt::Rng rng(options.seed);
  std::vector<size_t> order(ids.size());
  for (size_t q = 0; q < order.size(); ++q) order[q] = q;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> latencies;
  std::vector<double> traced_lat;
  std::vector<double> untraced_lat;
  std::vector<double> flight_rates;  // queries/s of each whole flight
  double execute_ms = 0;
  PlanTotals flight_totals;  // the warm-up flight: exact counts
  PlanTotals totals;
  WriterResult writes;  // over all rounds
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t retries = 0;
  size_t replayed = 0;
  size_t reclaimed = 0;
  uint64_t max_backlog = 0;
  double pool_bytes = 0;
  double raw_bytes = 0;
  double physical_rows = 0;
  double logical_rows = 0;
  Activity timed;
  size_t flight = 0;
  for (int round = 0; round < kRounds; ++round) {
    // ---- setup: generation + index build + Prepare ----------------------
    std::unique_ptr<qppt::ssb::SsbData> data;
    std::vector<qppt::engine::PreparedQuery> prepared;
    double gen_ms = 0;
    auto generated = CallTimer::Run(
        run_tracer, "ssb.generate", -1, 0,
        [&] { return qppt::ssb::Generate(cfg); }, nullptr, &gen_ms);
    if (!generated.ok()) {
      report.Fail("generate: " + generated.status().ToString());
      return;
    }
    data = std::move(generated).value();
    double prep_ms = 0;
    for (const auto& id : ids) {
      auto spec = qppt::ssb::BuildQuerySpec(*data, id);
      if (!spec.ok()) {
        report.Fail("spec Q" + id + ": " + spec.status().ToString());
        return;
      }
      double ms = 0;
      auto handle = CallTimer::Run(
          run_tracer, "engine.prepare", -1, 0,
          [&] { return runner.Prepare(data->db, std::move(spec).value()); },
          nullptr, &ms);
      prep_ms += ms;
      if (!handle.ok()) {
        report.Fail("prepare Q" + id + ": " + handle.status().ToString());
        return;
      }
      prepared.push_back(std::move(handle).value());
    }
    generate_s.push_back(gen_ms / 1000.0);
    setup_s.push_back((gen_ms + prep_ms) / 1000.0);
    if (round == 0) {
      pool_bytes = static_cast<double>(data->db.MemoryUsage());
      raw_bytes = RawRowBytes(data->db);
    }
    qppt::MvccTable& lineorder = **data->db.versioned_table("lineorder");
    const size_t initial_rows = lineorder.num_logical_rows();

    auto execute = [&](size_t q, PlanKnobs k, Tracer* t, PlanStats* stats,
                       double* ms) {
      uint64_t request = 0;
      if (t != nullptr) {
        k.trace = true;
        request = t->NewRequest();
      }
      int64_t span = -1;
      Clock::time_point start = Clock::now();
      auto result = CallTimer::Run(
          t, "engine.execute", -1, request,
          [&] { return runner.Execute(prepared[q], {}, k, stats); }, &span,
          ms);
      if (t != nullptr) t->RecordOperators(*stats, start, span, request);
      return result;
    };

    // ---- warm-up flight (canonical order, before any write), once -------
    for (size_t q = 0; round == 0 && q < prepared.size(); ++q) {
      PlanStats stats;
      double ms = 0;
      auto result = execute(q, knobs, nullptr, &stats, &ms);
      report.Check(result.ok(), "warm-up Q" + ids[q]);
      flight_totals.Add(ids[q], stats);
    }
    auto cache_counts = [&] {
      std::pair<uint64_t, uint64_t> hm{0, 0};
      for (const auto& p : prepared) {
        hm.first += p.plan_cache_hits();
        hm.second += p.plan_cache_misses();
      }
      return hm;
    };
    auto [hits0, misses0] = cache_counts();
    uint64_t retries0 = runner.write_stats().retries;

    // ---- this round's slice: writer (open loop) + client (closed loop) --
    std::vector<Recorded> recorded;
    WriterResult round_writes;
    std::atomic<bool> stop{false};
    timed.Begin();
    Clock::time_point start = Clock::now();
    std::thread writer([&] {
      WriterLoop(runner, *data,
                 (options.seed * 7919 + 17) * kRounds + round, start, stop,
                 run_tracer, round_writes);
    });
    double elapsed_ms = 0;
    while (elapsed_ms < options.seconds * 1000.0 / kRounds) {
      Clock::time_point flight_start = Clock::now();
      Shuffle(order, rng);
      bool traced = options.trace && flight++ % 2 == 1;
      for (size_t q : order) {
        PlanStats stats;
        double ms = 0;
        Clock::time_point t0 = Clock::now();
        auto result =
            execute(q, knobs, traced ? &tracer : nullptr, &stats, &ms);
        double lat = MsBetween(t0, Clock::now());
        execute_ms += ms;
        latencies.push_back(lat);
        (traced ? traced_lat : untraced_lat).push_back(lat);
        totals.Add(ids[q], stats);
        if (!result.ok()) {
          report.Check(false,
                       "Q" + ids[q] + ": " + result.status().ToString());
          continue;
        }
        recorded.push_back({q, stats.read_ts, std::move(result->rows)});
      }
      Clock::time_point flight_end = Clock::now();
      flight_rates.push_back(static_cast<double>(order.size()) /
                             (MsBetween(flight_start, flight_end) / 1000.0));
      elapsed_ms = MsBetween(start, flight_end);
    }
    // relaxed: a stop request; join() orders the writer's results.
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    timed.End();
    auto [hits1, misses1] = cache_counts();
    hits += hits1 - hits0;
    misses += misses1 - misses0;
    retries += runner.write_stats().retries - retries0;
    physical_rows += static_cast<double>(lineorder.storage().num_rows());
    logical_rows += static_cast<double>(lineorder.num_logical_rows());

    // ---- checks: writes, snapshot replay, then reclamation --------------
    report.Attempt(round_writes.committed + round_writes.failed);
    for (uint64_t f = 0; f < round_writes.failed; ++f) {
      report.Fail("transaction failed: " + round_writes.first_error);
    }
    report.Check(lineorder.num_logical_rows() ==
                     initial_rows + round_writes.committed * kInserts,
                 "lineorder logical rows != initial + committed inserts");
    if (options.corrupt && round == 0 && !recorded.empty() &&
        !recorded[0].rows.empty()) {
      recorded[0].rows[0].back() = qppt::Value::Int(-1);
    }
    for (const Recorded& r : recorded) {
      PlanKnobs pinned = knobs;
      pinned.read_ts = r.read_ts;
      auto replay = CallTimer::Run(run_tracer, "harness.replay", -1, 0, [&] {
        return runner.Execute(prepared[r.query], {}, pinned);
      });
      report.Check(replay.ok() && replay->rows == r.rows,
                   "Q" + ids[r.query] + " at ts " +
                       std::to_string(r.read_ts) +
                       " differs from its quiesced replay");
    }
    replayed += recorded.size();
    reclaimed += runner.ReclaimVersions(&data->db);
    max_backlog = std::max(max_backlog, round_writes.backlog);
    writes.committed += round_writes.committed;
    writes.failed += round_writes.failed;
    for (auto [all, part] :
         {std::pair{&writes.commit_ms, &round_writes.commit_ms},
          std::pair{&writes.lag_ms, &round_writes.lag_ms},
          std::pair{&writes.write_us, &round_writes.write_us},
          std::pair{&writes.commit_us, &round_writes.commit_us}}) {
      all->insert(all->end(), part->begin(), part->end());
    }
  }

  std::printf(
      "htap: %llu txns committed at %.0f txn/s scheduled, max backlog %llu; "
      "%zu queries replayed; %zu versions reclaimed\n",
      static_cast<unsigned long long>(writes.committed), kTxnPerSecond,
      static_cast<unsigned long long>(max_backlog), replayed, reclaimed);
  Tail commit_tail = TailOf(writes.commit_ms);
  std::printf("commit_p50_ms %.4f commit_tail_ms %.4f (p%g, %zu beyond, "
              "%zu samples)\n",
              Median(writes.commit_ms), commit_tail.value,
              commit_tail.percentile, commit_tail.beyond, commit_tail.count);
  if (static_cast<double>(max_backlog) > kTxnPerSecond * kMaxBacklogSeconds) {
    report.Invalidate("writer backlog grew to " +
                      std::to_string(max_backlog) + " transactions");
  }

  if (!options.trace) {
    AddEndToEnd(report, setup_s, flight_rates, latencies, "query");
    return;
  }
  double q = static_cast<double>(latencies.size());
  report.Metric("ssb.generate_s", Median(generate_s), "s");
  report.Metric("index.pool_mib", pool_bytes / 1048576.0, "MiB");
  report.Metric("index.space_amp", pool_bytes / raw_bytes, "ratio");
  report.Metric("index.live_rows",
                static_cast<double>(timed.registry.live_upserts), "count");
  AddPlanMetrics(report, totals, flight_totals);
  report.Metric("engine.execute_ms", execute_ms / q, "ms/query");
  AddSchedulerMetrics(report, timed, latencies.size());
  report.Metric("engine.plan_cache_hit_ratio",
                hits + misses == 0 ? 0
                                   : static_cast<double>(hits) /
                                         static_cast<double>(hits + misses),
                "fraction");
  report.Metric("engine.txn_write_us", Median(writes.write_us), "us");
  report.Metric("engine.commit_us", Median(writes.commit_us), "us");
  report.Metric("engine.txn_retry_ratio",
                writes.committed == 0
                    ? 0
                    : static_cast<double>(retries) /
                          static_cast<double>(writes.committed),
                "fraction");
  report.Metric("engine.commit_p50_ms", Median(writes.commit_ms), "ms");
  report.Metric("engine.commit_tail_ms", commit_tail.value, "ms");
  report.Metric("storage.versions_per_row", physical_rows / logical_rows,
                "ratio");
  AddProcMetrics(report, timed);
  report.Metric("harness.send_lag_ms", TailOf(writes.lag_ms).value, "ms");
  report.Metric("tracing.overhead_ratio",
                Median(traced_lat) / Median(untraced_lat), "ratio");
  AddSelfTimes(report, tracer);
}

}  // namespace perfbench
