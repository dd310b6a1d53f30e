// perfbench runner. Run through perfbench/run.py, which builds it and
// trains the model cache first:
//
//   perfbench_runner prepare --models <dir>
//   perfbench_runner run --models <dir> --workload <name> --seed <n>
//                        --seconds <s> --trace <0|1>
//   perfbench_runner selftest --models <dir>
//
// `run` prints one JSON result object as the last line of stdout.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/log.h"
#include "workloads.h"

namespace ef = errorflow;
using namespace perfbench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner prepare|run|selftest --models <dir> "
               "[--workload mlp_wire|resnet_inproc|insitu_pipeline] "
               "[--seed n] [--seconds s] [--trace 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.process_start = SteadyClock::now();
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--models") {
      args.model_dir = value;
    } else if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (args.model_dir.empty() || !(args.seconds > 0.0)) return Usage();
  ef::obs::Logger::Global().SetLevel(ef::obs::LogLevel::kWarn);

  if (mode == "prepare") {
    for (auto kind : {ef::tasks::TaskKind::kH2Combustion,
                      ef::tasks::TaskKind::kBorghesiFlame,
                      ef::tasks::TaskKind::kEuroSat}) {
      LoadTask(kind, args.model_dir);
    }
    return 0;
  }
  if (mode == "selftest") return RunSelfTest(args);
  if (mode != "run") return Usage();

  Report report;
  if (args.workload == "mlp_wire") {
    RunMlpWire(args, &report);
  } else if (args.workload == "resnet_inproc") {
    RunResnetInproc(args, &report);
  } else if (args.workload == "insitu_pipeline") {
    RunInsituPipeline(args, &report);
  } else {
    return Usage();
  }
  if (!args.trace) report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
