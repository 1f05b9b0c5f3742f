// Harness-side measurement helpers for the QPPT repo benchmark.
//
// Everything here lives outside the program under test: spans are taken
// around the benchmark's own calls into the engine's public API, counters
// are read from what those calls already return, and process resources
// come from getrusage. Nothing is added to src/.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/plan.h"
#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Milliseconds between two steady-clock points.
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- command line ------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  double scale_factor = 0.5;
  std::string out_dir = ".";
  // Comparator self-check: after each planner call ("core.plan"), spin
  // for kSlowPlanFraction of its duration.
  bool slow_plan = false;
  // Correctness self-check: perturb one checked output so the run must
  // fail.
  bool corrupt = false;
};

// ---- samples -----------------------------------------------------------------

// The highest of p99.9, p99, p95, p90 and p50 with at least ten samples
// beyond it (the tail rule of the benchmark), with the percentile and
// sample count recorded.
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t beyond = 0;
  size_t count = 0;
};

// The --slow-plan delay, as a share of the planner call's own time.
inline constexpr double kSlowPlanFraction = 0.2;

// A run is kRounds rounds. Each sets up afresh (timed into setup_s) and
// then measures an equal slice of the timed phase, so the set-ups whose
// median is setup_s are spread over the whole run, not bunched before it.
inline constexpr int kRounds = 4;

double Median(std::vector<double> v);
Tail TailOf(std::vector<double> v);

// ---- process resources -------------------------------------------------------

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  uint64_t minor_faults = 0;
  double max_rss_mib = 0;
  Clock::time_point at;
};
Usage ReadUsage();

// ---- engine registry deltas --------------------------------------------------

// Counters and histogram totals of obs::MetricsRegistry::Global() taken
// at one instant; subtract two to get a phase's activity.
struct RegistryPoint {
  uint64_t steals = 0;
  uint64_t busy_ns = 0;
  uint64_t idle_ns = 0;
  uint64_t live_upserts = 0;
  uint64_t admission_waits = 0;
  double admission_wait_ms = 0;
};
RegistryPoint ReadRegistry();

// Process and registry activity summed over the timed slices of a run:
// call Begin() when a slice starts and End() when it stops.
class Activity {
 public:
  void Begin();
  void End();

  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  uint64_t minor_faults = 0;
  RegistryPoint registry;  // counter and histogram deltas

 private:
  Usage u0_;
  RegistryPoint r0_;
};

// ---- spans -------------------------------------------------------------------

// In-memory span log: name, start, end, parent and request id. Written
// out at exit; never on the timed path's output.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;  // since the tracer's epoch
    double end_ms = 0;
    int64_t parent = -1;  // index of the parent span, -1 = root
    uint64_t request = 0;
  };

  Tracer() : epoch_(Clock::now()) {}

  double ToMs(Clock::time_point t) const { return MsBetween(epoch_, t); }
  uint64_t NewRequest();

  // Records a finished span and returns its index.
  int64_t Record(std::string name, Clock::time_point start,
                 Clock::time_point end, int64_t parent, uint64_t request);
  int64_t RecordMs(std::string name, double start_ms, double end_ms,
                   int64_t parent, uint64_t request);
  // Sets the end of a span recorded before its children.
  void End(int64_t span, Clock::time_point end);
  // Adds the operator spans of the engine's own per-query trace
  // (PlanKnobs::trace) as "core.<stage label>" children of `parent`,
  // placed from `exec_start`; the engine takes its trace epoch at
  // admission, microseconds later.
  void RecordOperators(const qppt::PlanStats& stats,
                       Clock::time_point exec_start, int64_t parent,
                       uint64_t request);

  // Per layer (the span-name prefix before the first '.'): the summed
  // span time not covered by the span's own children.
  std::map<std::string, double> SelfMsByLayer() const;

  // chrome://tracing JSON; parent and request ids go in "args".
  bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_request_ = 0;
};

// Times one call into a layer: records a span when tracing, and applies
// the comparator self-check delay when this is a planner call.
class CallTimer {
 public:
  static void Configure(const Options& options);

  // `tracer` is null when this call is not traced.
  template <typename F>
  static auto Run(Tracer* tracer, const char* name, int64_t parent,
                  uint64_t request, F&& fn, int64_t* span = nullptr,
                  double* elapsed_ms = nullptr) {
    Clock::time_point start = Clock::now();
    auto out = fn();
    Clock::time_point end = Clock::now();
    double ms = MsBetween(start, end);
    if (slow_plan_ && std::string_view(name) == "core.plan") {
      Spin(ms * kSlowPlanFraction);
      end = Clock::now();
      ms = MsBetween(start, end);
    }
    int64_t id = tracer != nullptr
                     ? tracer->Record(name, start, end, parent, request)
                     : -1;
    if (span != nullptr) *span = id;
    if (elapsed_ms != nullptr) *elapsed_ms = ms;
    return out;
  }

 private:
  static void Spin(double ms);
  static bool slow_plan_;
};

// ---- the run report ----------------------------------------------------------

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // One checked operation; `ok == false` counts it failed and logs why.
  void Check(bool ok, const std::string& what);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what);
  bool correct() const { return failed_ == 0 && invalid_.empty(); }
  // A run that cannot be reported (e.g. an open loop whose backlog grew).
  void Invalidate(const std::string& why) { invalid_ = why; }
  // Prints the result object as the last line of stdout.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  size_t logged_ = 0;
  std::string invalid_;
};

// Fisher-Yates with the repo's deterministic generator.
template <typename T, typename R>
void Shuffle(std::vector<T>& v, R& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    size_t j = rng.NextBounded(i);
    std::swap(v[i - 1], v[j]);
  }
}

// Aggregates PlanStats over many executions into the per-layer metrics
// the core and engine layers share across workloads.
struct PlanTotals {
  size_t queries = 0;
  double selection_ms = 0;
  double select_join_ms = 0;
  double star_join_ms = 0;
  double materialize_ms = 0;
  double output_index_ms = 0;
  double merge_ms = 0;
  double driver_ms = 0;
  uint64_t morsels = 0;
  uint64_t q1_morsels = 0;  // Q1.x: the selection-only flight group
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;

  void Add(const std::string& query_id, const qppt::PlanStats& stats);
};

// Writes the metrics every workload reports with the same meaning: core
// operator splits, engine morsel/scheduler counters and proc deltas.
// `flight` is one canonical flight's totals (exact tuple counts).
void AddPlanMetrics(Report& report, const PlanTotals& all,
                    const PlanTotals& flight);
void AddProcMetrics(Report& report, const Activity& timed);
void AddSchedulerMetrics(Report& report, const Activity& timed,
                         size_t queries);
void AddSelfTimes(Report& report, const Tracer& tracer);
// The end-to-end metrics; `rates` are the throughputs (ops/s) of the
// timed phase's consecutive slices, `op` names the workload's operation.
void AddEndToEnd(Report& report, const std::vector<double>& setup_s,
                 const std::vector<double>& rates,
                 const std::vector<double>& latencies_ms, const char* op);

// Sum of raw row bytes (rows x columns x 8) over a database's tables.
double RawRowBytes(const qppt::Database& db);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
