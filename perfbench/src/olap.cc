// olap-kiss and olap-prefix: the paper's Fig. 7 flight as a closed loop.

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/query/planner.h"
#include "engine/session.h"
#include "ssb/dbgen.h"
#include "ssb/queries_baseline.h"
#include "ssb/queries_qppt.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using qppt::PlanKnobs;
using qppt::PlanStats;
using qppt::QueryResult;

// Runs one query through the ad-hoc path. EngineRunner::Execute(db, spec)
// is PlanQuery followed by Execute(db, plan); the client makes the two
// calls itself so each layer gets its own span and timing. `tracer` is
// null for an untraced query.
qppt::Result<QueryResult> RunQuery(qppt::engine::EngineRunner& runner,
                                   const qppt::Database& db,
                                   const qppt::query::QuerySpec& spec,
                                   PlanKnobs knobs, Tracer* tracer,
                                   double& plan_ms, double& execute_ms,
                                   PlanStats* stats) {
  uint64_t request = 0;
  int64_t root = -1;
  if (tracer != nullptr) {
    knobs.trace = true;
    request = tracer->NewRequest();
    root = tracer->Record("harness.query", Clock::now(), Clock::now(), -1,
                          request);
  }
  double ms = 0;
  auto plan = CallTimer::Run(
      tracer, "core.plan", root, request,
      [&] { return qppt::query::PlanQuery(db, spec, knobs); }, nullptr, &ms);
  plan_ms += ms;
  if (!plan.ok()) return plan.status();
  int64_t exec_span = -1;
  Clock::time_point exec_start = Clock::now();
  auto result = CallTimer::Run(
      tracer, "engine.execute", root, request,
      [&] { return runner.Execute(db, *plan, knobs, stats); }, &exec_span,
      &ms);
  execute_ms += ms;
  if (tracer != nullptr) {
    tracer->RecordOperators(*stats, exec_start, exec_span, request);
    tracer->End(root, Clock::now());
  }
  return result;
}

}  // namespace

void RunOlap(const Options& options, bool prefer_kiss, Tracer& tracer,
             Report& report) {
  const std::vector<std::string>& ids = qppt::ssb::AllQueryIds();
  qppt::ssb::SsbConfig cfg;
  cfg.scale_factor = options.scale_factor;
  cfg.prefer_kiss = prefer_kiss;
  Tracer* setup_tracer = options.trace ? &tracer : nullptr;

  qppt::engine::EngineConfig ecfg;
  ecfg.threads = std::thread::hardware_concurrency();
  qppt::engine::EngineRunner runner(ecfg);
  PlanKnobs knobs;
  knobs.table_options.prefer_kiss = prefer_kiss;

  std::map<std::string, QueryResult> expected;
  bool corrupt_pending = options.corrupt;
  auto check = [&](const std::string& id,
                   qppt::Result<QueryResult>& result) {
    if (!result.ok()) {
      report.Check(false, "Q" + id + ": " + result.status().ToString());
      return;
    }
    if (corrupt_pending && !result->rows.empty()) {
      result->rows[0].back() = qppt::Value::Int(-1);
      corrupt_pending = false;
    }
    bool same = result->rows == expected.at(id).rows;
    report.Check(same, "Q" + id + " differs from the vector baseline");
  };

  qppt::Rng rng(options.seed);
  std::vector<std::string> order = ids;
  std::vector<double> setup_s;
  std::vector<double> latencies;
  std::vector<double> traced_lat;
  std::vector<double> untraced_lat;
  std::vector<double> flight_rates;  // queries/s of each whole flight
  PlanTotals flight_totals;  // the warm-up flight: exact counts
  PlanTotals totals;
  double plan_ms = 0;
  double execute_ms = 0;
  double pool_bytes = 0;
  double raw_bytes = 0;
  Activity timed;
  size_t flight = 0;
  for (int round = 0; round < kRounds; ++round) {
    // ---- setup: data generation + base-index build ----------------------
    std::unique_ptr<qppt::ssb::SsbData> data;
    double ms = 0;
    auto generated = CallTimer::Run(
        setup_tracer, "ssb.generate", -1, 0,
        [&] { return qppt::ssb::Generate(cfg); }, nullptr, &ms);
    if (!generated.ok()) {
      report.Fail("generate: " + generated.status().ToString());
      return;
    }
    data = std::move(generated).value();
    setup_s.push_back(ms / 1000.0);
    std::map<std::string, qppt::query::QuerySpec> specs;
    for (const auto& id : ids) {
      auto spec = qppt::ssb::BuildQuerySpec(*data, id);
      if (!spec.ok()) {
        report.Fail("spec Q" + id + ": " + spec.status().ToString());
        return;
      }
      specs.emplace(id, std::move(spec).value());
    }

    // ---- oracle: the vector baseline, outside setup_s -------------------
    // The data seed is fixed, so every round generates the same data.
    if (round == 0) {
      pool_bytes = static_cast<double>(data->db.MemoryUsage());
      raw_bytes = RawRowBytes(data->db);
      for (const auto& id : ids) {
        auto r = qppt::ssb::RunVector(*data, id);
        if (!r.ok()) {
          report.Fail("oracle Q" + id + ": " + r.status().ToString());
          return;
        }
        expected.emplace(id, std::move(r).value());
      }
    }

    // ---- warm-up flight in canonical order, once per run ----------------
    if (round == 0) {
      double unused_ms = 0;
      for (const auto& id : ids) {
        PlanStats stats;
        auto result = RunQuery(runner, data->db, specs.at(id), knobs,
                               nullptr, unused_ms, unused_ms, &stats);
        check(id, result);
        flight_totals.Add(id, stats);
      }
    }

    // ---- this round's slice: whole shuffled flights until it is up ------
    timed.Begin();
    Clock::time_point start = Clock::now();
    double elapsed_ms = 0;
    while (elapsed_ms < options.seconds * 1000.0 / kRounds) {
      Clock::time_point flight_start = Clock::now();
      Shuffle(order, rng);
      bool traced = options.trace && flight++ % 2 == 1;
      for (const auto& id : order) {
        PlanStats stats;
        Clock::time_point t0 = Clock::now();
        auto result = RunQuery(runner, data->db, specs.at(id), knobs,
                               traced ? &tracer : nullptr, plan_ms,
                               execute_ms, &stats);
        double lat = MsBetween(t0, Clock::now());
        latencies.push_back(lat);
        (traced ? traced_lat : untraced_lat).push_back(lat);
        totals.Add(id, stats);
        check(id, result);
      }
      Clock::time_point flight_end = Clock::now();
      flight_rates.push_back(static_cast<double>(order.size()) /
                             (MsBetween(flight_start, flight_end) / 1000.0));
      elapsed_ms = MsBetween(start, flight_end);
    }
    timed.End();
  }

  if (!options.trace) {
    AddEndToEnd(report, setup_s, flight_rates, latencies, "query");
    return;
  }
  double q = static_cast<double>(latencies.size());
  report.Metric("ssb.generate_s", Median(setup_s), "s");
  report.Metric("index.pool_mib", pool_bytes / 1048576.0, "MiB");
  report.Metric("index.space_amp", pool_bytes / raw_bytes, "ratio");
  AddPlanMetrics(report, totals, flight_totals);
  report.Metric("core.plan_ms", plan_ms / q, "ms/query");
  report.Metric("engine.execute_ms", execute_ms / q, "ms/query");
  AddSchedulerMetrics(report, timed, latencies.size());
  report.Metric("storage.versions_per_row", 1.0, "ratio");
  AddProcMetrics(report, timed);
  report.Metric("tracing.overhead_ratio",
                Median(traced_lat) / Median(untraced_lat), "ratio");
  AddSelfTimes(report, tracer);
}

}  // namespace perfbench
