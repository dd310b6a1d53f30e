// The benchmark's workloads. Each runs one seeded workload for
// `args.seconds`, checks every output, and fills `report` with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#ifndef ERRORFLOW_PERFBENCH_WORKLOADS_H_
#define ERRORFLOW_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunMlpWire(const Args& args, Report* report);
void RunResnetInproc(const Args& args, Report* report);
void RunInsituPipeline(const Args& args, Report* report);

/// Feeds each correctness check a real result, then the same result with
/// one deliberate fault, and reports whether every fault was caught.
/// Returns the process exit code.
int RunSelfTest(const Args& args);

}  // namespace perfbench

#endif  // ERRORFLOW_PERFBENCH_WORKLOADS_H_
