// The QPPT repo benchmark binary.
//
//   perfbench --workload <olap-kiss|olap-prefix|htap|point-lookup>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--sf <scale factor>] [--out-dir <dir>]
//             [--slow-plan] [--corrupt]
//
// Prints human-readable lines, then the result object as the last line of
// stdout. Exits 1 when any output was wrong or the run is invalid.
// perfbench/run.py builds this binary and is the command to use.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void UsageError(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--sf <x>] [--out-dir <dir>] "
               "[--slow-plan] [--corrupt]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--corrupt") {
      o.corrupt = true;
      continue;
    }
    if (arg == "--slow-plan") {
      o.slow_plan = true;
      continue;
    }
    if (i + 1 >= argc) UsageError(("missing value for " + arg).c_str());
    std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = v == "1";
    } else if (arg == "--sf") {
      o.scale_factor = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--out-dir") {
      o.out_dir = v;
    } else {
      UsageError(("unknown option " + arg).c_str());
    }
  }
  if (o.seconds <= 0 || o.scale_factor <= 0) {
    UsageError("--seconds and --sf must be positive");
  }
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options = Parse(argc, argv);
  CallTimer::Configure(options);
  Tracer tracer;
  Report report;
  if (options.workload == "olap-kiss") {
    RunOlap(options, /*prefer_kiss=*/true, tracer, report);
  } else if (options.workload == "olap-prefix") {
    RunOlap(options, /*prefer_kiss=*/false, tracer, report);
  } else if (options.workload == "htap") {
    RunHtap(options, tracer, report);
  } else if (options.workload == "point-lookup") {
    RunPointLookup(options, tracer, report);
  } else {
    UsageError(("unknown workload '" + options.workload + "'").c_str());
  }
  if (options.trace) {
    std::string path = options.out_dir + "/trace-" + options.workload +
                       "-seed" + std::to_string(options.seed) + ".json";
    if (tracer.WriteJson(path)) {
      std::printf("trace: %s\n", path.c_str());
    } else {
      report.Fail("cannot write " + path);
    }
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
