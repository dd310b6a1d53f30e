// Pieces the two serving workloads share: the served models with their
// seeded request pools and FP32 references, response bookkeeping, and the
// traced run's per-layer replays.
#ifndef ERRORFLOW_PERFBENCH_SERVING_H_
#define ERRORFLOW_PERFBENCH_SERVING_H_

#include <array>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "serve/server.h"

namespace perfbench {

/// One model behind the server, with the inputs the workload sends to it.
struct ServedModel {
  /// Registered name; also the <model> part of per-layer metric names.
  std::string name;
  errorflow::tasks::TrainedTask task;
  /// Absolute Linf QoI tolerances the workload draws from uniformly.
  std::vector<double> tolerances;
  int64_t rows_per_request = 0;
  /// Request inputs and the benchmark's FP32 forward pass on each.
  std::vector<Tensor> pool;
  std::vector<Tensor> references;
};

/// Fills `model->pool` with `count` requests drawn from fresh samples of
/// the model's task (the seed picks them) and computes their references.
void BuildPool(ServedModel* model, int count, uint64_t seed);

/// Registers every model, starts the server and leases every variant the
/// tolerance mix can be admitted to, recording the set-up splits.
struct SetupSplits {
  double load_ms = 0.0;
  double register_ms = 0.0;
  double warmup_ms = 0.0;
};

/// What the served responses said, beyond their outputs.
struct ResponseLog {
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  double batch_rows_sum = 0.0;
  int64_t responses = 0;
  /// Responses per executed format (quant::NumericFormat ordinal).
  std::array<int64_t, 5> by_format{};

  void Add(int format, int64_t batch_rows, double queue_seconds,
           double total_seconds);
  void Merge(const ResponseLog& other);
};

/// Server configuration shared by both serving workloads.
errorflow::serve::ServerConfig BenchServerConfig(int workers,
                                                 int64_t max_batch_rows);

/// Leases the variant of every format the models' tolerance mixes admit,
/// so no request of the measured phase pays a materialization.
void WarmVariants(errorflow::serve::InferenceServer& server,
                  const std::vector<ServedModel>& models, Report* report);

/// Traced run only: replays each layer's public entry point on the
/// workload's own inputs and reports core.bound_us, serve.admit_us,
/// nn.predict_ms, nn.gflop_s and quant.quantize_ms for every model, plus
/// serve.variant_materializations.
void ReportServingLayers(errorflow::serve::InferenceServer& server,
                         const std::vector<ServedModel>& models,
                         int64_t max_batch_rows, Report* report);

/// Traced run only: reports the serve.* response figures and set-up splits.
void ReportResponseLog(const ResponseLog& log, const SetupSplits& setup,
                       Report* report);

/// Prints the share of responses per executed format to stderr.
void LogFormatShares(const char* workload, const ResponseLog& log);

}  // namespace perfbench

#endif  // ERRORFLOW_PERFBENCH_SERVING_H_
