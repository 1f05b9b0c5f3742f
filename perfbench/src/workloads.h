// The benchmark's workloads. Each builds its inputs from the seed, sets
// up (timed into setup_s), measures for options.seconds, checks every
// output, and writes its metrics into the report: end-to-end metrics in
// an untraced run, per-layer metrics in a traced one.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

// olap-kiss / olap-prefix: one closed-loop client runs the 13 SSB
// queries in seeded shuffled flights through the ad-hoc planning path.
void RunOlap(const Options& options, bool prefer_kiss, Tracer& tracer,
             Report& report);

// htap: an open-loop upsert writer beside a closed-loop client running
// prepared SSB queries over versioned lineorder with live indexes.
void RunHtap(const Options& options, Tracer& tracer, Report& report);

// point-lookup: closed-loop readers issue batched point and short range
// reads with Zipf-distributed keys against an IndexedTable.
void RunPointLookup(const Options& options, Tracer& tracer, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
