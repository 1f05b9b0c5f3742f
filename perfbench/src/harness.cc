#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

// ---- samples -----------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailOf(std::vector<double> v) {
  // The usual reporting percentiles. Capped at p99.9: beyond it a run's
  // tail is a handful of scheduler hiccups, not the program.
  static constexpr double kLadder[] = {99.9, 99, 95, 90, 50};
  Tail tail;
  tail.count = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  for (double p : kLadder) {
    // Nearest-rank percentile; "beyond" counts samples strictly after it.
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    if (rank == 0) rank = 1;
    size_t beyond = v.size() - rank;
    if (beyond >= 10 || p == 50) {
      tail.value = v[rank - 1];
      tail.percentile = p;
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;
}

// ---- process resources -------------------------------------------------------

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
  u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  u.at = Clock::now();
  return u;
}

// ---- engine registry ---------------------------------------------------------

RegistryPoint ReadRegistry() {
  qppt::obs::MetricsSnapshot snap =
      qppt::obs::MetricsRegistry::Global().Snapshot();
  RegistryPoint p;
  p.steals = snap.CounterValue("engine_tasks_stolen_total");
  p.busy_ns = snap.CounterValue("engine_worker_busy_ns_total");
  p.idle_ns = snap.CounterValue("engine_worker_idle_ns_total");
  p.live_upserts = snap.CounterValue("engine_live_index_upserts_total");
  if (const auto* h = snap.Find("engine_admission_wait_ms")) {
    p.admission_waits = h->count;
    p.admission_wait_ms = h->sum;
  }
  return p;
}

void Activity::Begin() {
  u0_ = ReadUsage();
  r0_ = ReadRegistry();
}

void Activity::End() {
  Usage u1 = ReadUsage();
  RegistryPoint r1 = ReadRegistry();
  wall_s += MsBetween(u0_.at, u1.at) / 1000.0;
  user_s += u1.user_s - u0_.user_s;
  sys_s += u1.sys_s - u0_.sys_s;
  minor_faults += u1.minor_faults - u0_.minor_faults;
  registry.steals += r1.steals - r0_.steals;
  registry.busy_ns += r1.busy_ns - r0_.busy_ns;
  registry.idle_ns += r1.idle_ns - r0_.idle_ns;
  registry.live_upserts += r1.live_upserts - r0_.live_upserts;
  registry.admission_waits += r1.admission_waits - r0_.admission_waits;
  registry.admission_wait_ms += r1.admission_wait_ms - r0_.admission_wait_ms;
}

// ---- spans -------------------------------------------------------------------

uint64_t Tracer::NewRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_request_;
}

int64_t Tracer::Record(std::string name, Clock::time_point start,
                       Clock::time_point end, int64_t parent,
                       uint64_t request) {
  return RecordMs(std::move(name), ToMs(start), ToMs(end), parent, request);
}

int64_t Tracer::RecordMs(std::string name, double start_ms, double end_ms,
                         int64_t parent, uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start_ms, end_ms, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t span, Clock::time_point end) {
  double end_ms = ToMs(end);
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end_ms = end_ms;
}

void Tracer::RecordOperators(const qppt::PlanStats& stats,
                             Clock::time_point exec_start, int64_t parent,
                             uint64_t request) {
  if (stats.trace == nullptr) return;
  double base = ToMs(exec_start);
  stats.trace->ForEachSpan([&](const qppt::obs::TraceSpan& s) {
    if (s.kind != qppt::obs::SpanKind::kOperator) return;
    RecordMs(std::string("core.") + s.label, base + s.t_start_us / 1e3,
             base + s.t_end_us / 1e3, parent, request);
  });
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children's intervals per parent, then each span's duration minus the
  // union of its children's intervals clipped to it.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ms, s.end_ms});
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cur_lo = 0;
    double cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ms);
      hi = std::min(hi, s.end_ms);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, (s.end_ms - s.start_ms) - covered);
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%" PRIu64
                  ",\"args\":{\"id\":%zu,\"parent\":%" PRId64
                  ",\"request\":%" PRIu64 "}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  s.name.substr(0, s.name.find('.')).c_str(),
                  s.start_ms * 1000.0, (s.end_ms - s.start_ms) * 1000.0,
                  s.request, i, s.parent, s.request);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

bool CallTimer::slow_plan_ = false;

void CallTimer::Configure(const Options& options) {
  slow_plan_ = options.slow_plan;
}

void CallTimer::Spin(double ms) {
  Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(ms));
  while (Clock::now() < until) {
  }
}

// ---- report ------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) Fail(what);
}

void Report::Fail(const std::string& what) {
  ++failed_;
  if (logged_++ < 20) std::fprintf(stderr, "WRONG: %s\n", what.c_str());
}

void Report::Print() const {
  std::printf("failed_ratio %.6g (%llu of %llu operations failed or wrong)\n",
              attempted_ == 0 ? 0.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  if (!invalid_.empty()) std::printf("INVALID RUN: %s\n", invalid_.c_str());
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", e.name.c_str(), v, e.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- shared per-layer metrics ------------------------------------------------

void PlanTotals::Add(const std::string& query_id,
                     const qppt::PlanStats& stats) {
  ++queries;
  for (const auto& op : stats.operators) {
    if (op.name.rfind("sel:", 0) == 0) selection_ms += op.total_ms;
    if (op.name.rfind("sjoin:", 0) == 0) select_join_ms += op.total_ms;
    if (op.name.rfind("join:", 0) == 0) star_join_ms += op.total_ms;
    materialize_ms += op.materialize_ms;
    output_index_ms += op.index_ms;
    merge_ms += op.merge_ms;
    tuples_in += op.input_tuples;
    tuples_out += op.output_tuples;
  }
  driver_ms += stats.wall_ms - stats.total_ms;
  morsels += stats.TotalMorsels();
  if (query_id.rfind("1.", 0) == 0) q1_morsels += stats.TotalMorsels();
}

void AddPlanMetrics(Report& report, const PlanTotals& all,
                    const PlanTotals& flight) {
  double q = all.queries == 0 ? 1.0 : static_cast<double>(all.queries);
  report.Metric("core.selection_ms", all.selection_ms / q, "ms/query");
  report.Metric("core.select_join_ms", all.select_join_ms / q, "ms/query");
  report.Metric("core.star_join_ms", all.star_join_ms / q, "ms/query");
  report.Metric("core.materialize_ms", all.materialize_ms / q, "ms/query");
  report.Metric("core.output_index_ms", all.output_index_ms / q, "ms/query");
  report.Metric("core.merge_ms", all.merge_ms / q, "ms/query");
  report.Metric("core.driver_ms", all.driver_ms / q, "ms/query");
  report.Metric("core.tuples_in", static_cast<double>(flight.tuples_in),
                "count/flight");
  report.Metric("core.tuples_out", static_cast<double>(flight.tuples_out),
                "count/flight");
  report.Metric("engine.morsels_per_query",
                static_cast<double>(all.morsels) / q, "count/query");
  report.Metric("engine.q1_morsels", static_cast<double>(flight.q1_morsels),
                "count/flight");
}

void AddProcMetrics(Report& report, const Activity& timed) {
  unsigned ncpu = std::thread::hardware_concurrency();
  report.Metric("proc.user_cpu_s", timed.user_s, "s");
  report.Metric("proc.sys_cpu_s", timed.sys_s, "s");
  report.Metric("proc.minor_faults", static_cast<double>(timed.minor_faults),
                "count");
  report.Metric("proc.cpu_util",
                timed.wall_s <= 0
                    ? 0
                    : (timed.user_s + timed.sys_s) /
                          (timed.wall_s * (ncpu == 0 ? 1 : ncpu)),
                "fraction");
}

void AddSchedulerMetrics(Report& report, const Activity& timed,
                         size_t queries) {
  const RegistryPoint& r = timed.registry;
  double busy = static_cast<double>(r.busy_ns);
  double idle = static_cast<double>(r.idle_ns);
  report.Metric("engine.worker_busy_ratio",
                busy + idle <= 0 ? 0 : busy / (busy + idle), "fraction");
  report.Metric("engine.steals",
                queries == 0 ? 0
                             : static_cast<double>(r.steals) /
                                   static_cast<double>(queries),
                "count/query");
  report.Metric("engine.admission_wait_ms",
                r.admission_waits == 0
                    ? 0
                    : r.admission_wait_ms /
                          static_cast<double>(r.admission_waits),
                "ms/query");
}

void AddSelfTimes(Report& report, const Tracer& tracer) {
  std::map<std::string, double> self = tracer.SelfMsByLayer();
  for (const char* layer : {"ssb", "index", "core", "engine"}) {
    report.Metric(std::string(layer) + ".self_ms", self[layer], "ms");
  }
}

void AddEndToEnd(Report& report, const std::vector<double>& setup_s,
                 const std::vector<double>& rates,
                 const std::vector<double>& latencies_ms, const char* op) {
  Tail tail = TailOf(latencies_ms);
  std::printf("%s latency: p50 %.4f ms, tail p%g %.4f ms (%zu samples, %zu "
              "beyond)\n",
              op, Median(latencies_ms), tail.percentile, tail.value,
              tail.count, tail.beyond);
  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("ops_per_s", Median(rates), "1/s");
  report.Metric("op_p50_ms", Median(latencies_ms), "ms");
  report.Metric("op_tail_ms", tail.value, "ms");
  report.Metric("peak_rss_mb", ReadUsage().max_rss_mib, "MiB");
}

double RawRowBytes(const qppt::Database& db) {
  double bytes = 0;
  for (const std::string& name : db.table_names()) {
    auto table = db.table(name);
    if (!table.ok()) continue;
    bytes += static_cast<double>((*table)->num_rows()) *
             static_cast<double>((*table)->schema().num_columns()) * 8.0;
  }
  return bytes;
}

}  // namespace perfbench
