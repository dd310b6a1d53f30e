#include "serving.h"

#include <cstdio>
#include <future>

#include "data/borghesi.h"
#include "data/combustion.h"
#include "data/eurosat.h"
#include "obs/metrics.h"
#include "quant/quantize_model.h"
#include "serve/admission.h"

namespace perfbench {

namespace ef = errorflow;
using ef::quant::NumericFormat;

namespace {

/// How long set-up waits for the answer to one warm-up request.
constexpr std::chrono::seconds kWarmAnswerWait(20);

// Fresh task samples, normalized like the training data, with at least
// `rows` samples in the task's input layout.
Tensor FreshSamples(const ef::tasks::TrainedTask& task, int64_t rows,
                    uint64_t seed) {
  switch (task.kind) {
    case ef::tasks::TaskKind::kH2Combustion:
    case ef::tasks::TaskKind::kBorghesiFlame: {
      int64_t side = 8;
      while (side * side < rows) side *= 2;
      ef::data::Dataset ds =
          task.kind == ef::tasks::TaskKind::kH2Combustion
              ? ef::data::MakeH2CombustionDataset(side, side, seed)
              : ef::data::MakeBorghesiDataset(side, side, seed);
      return task.input_norm.Apply(ds.inputs);
    }
    case ef::tasks::TaskKind::kEuroSat: {
      ef::data::EuroSatConfig cfg;
      cfg.n_images = rows;
      cfg.height = task.single_input_shape[2];
      cfg.width = task.single_input_shape[3];
      cfg.seed = seed;
      return task.input_norm.Apply(ef::data::GenerateEuroSat(cfg).inputs);
    }
  }
  return Tensor();
}

}  // namespace

void BuildPool(ServedModel* model, int count, uint64_t seed) {
  const Tensor samples =
      FreshSamples(model->task, count * model->rows_per_request, seed);
  model->pool.clear();
  model->references.clear();
  for (int i = 0; i < count; ++i) {
    model->pool.push_back(
        SliceRows(samples, i * model->rows_per_request,
                  model->rows_per_request));
    model->references.push_back(model->task.model.Predict(model->pool.back()));
  }
}

void ResponseLog::Add(int format, int64_t batch_rows, double queue_seconds,
                      double total_seconds) {
  queue_ms.push_back(queue_seconds * 1e3);
  exec_ms.push_back((total_seconds - queue_seconds) * 1e3);
  batch_rows_sum += static_cast<double>(batch_rows);
  responses += 1;
  if (format >= 0 && format < static_cast<int>(by_format.size())) {
    by_format[static_cast<size_t>(format)] += 1;
  }
}

void ResponseLog::Merge(const ResponseLog& other) {
  queue_ms.insert(queue_ms.end(), other.queue_ms.begin(), other.queue_ms.end());
  exec_ms.insert(exec_ms.end(), other.exec_ms.begin(), other.exec_ms.end());
  batch_rows_sum += other.batch_rows_sum;
  responses += other.responses;
  for (size_t f = 0; f < by_format.size(); ++f) by_format[f] += other.by_format[f];
}

ef::serve::ServerConfig BenchServerConfig(int workers,
                                          int64_t max_batch_rows) {
  ef::serve::ServerConfig config;
  config.num_workers = workers;
  config.max_batch_rows = max_batch_rows;
  // Far beyond any latency the workloads reach: a request is never shed,
  // so every operation of a run is answered by the model.
  config.default_timeout = std::chrono::milliseconds(30000);
  return config;
}

void WarmVariants(ef::serve::InferenceServer& server,
                  const std::vector<ServedModel>& models, Report* report) {
  for (const ServedModel& m : models) {
    ef::tensor::Shape shape = m.task.single_input_shape;
    shape[0] = m.rows_per_request;
    for (double tol : m.tolerances) {
      ef::serve::InferenceRequest req;
      req.model = m.name;
      req.input = Tensor(shape);
      req.qoi_tolerance = tol;
      auto fut = server.Submit(std::move(req));
      if (!fut.ok()) {
        report->Fail("warm-up submit: " + fut.status().ToString());
        continue;
      }
      if (fut->wait_for(kWarmAnswerWait) != std::future_status::ready) {
        report->Fail("warm-up request unanswered");
        continue;
      }
      const ef::serve::InferenceResponse resp = fut->get();
      if (!resp.ok()) report->Fail("warm-up: " + resp.status.ToString());
    }
  }
}

void ReportServingLayers(ef::serve::InferenceServer& server,
                         const std::vector<ServedModel>& models,
                         int64_t max_batch_rows, Report* report) {
  ef::serve::AdmissionConfig ac;
  ac.norm = server.config().norm;
  ac.hardware = server.config().hardware;
  ac.allowed_formats = server.config().allowed_formats;
  ac.max_queue_depth = server.config().max_queue_depth;
  const ef::serve::AdmissionController admission(ac);
  const std::vector<NumericFormat> all_formats = {
      NumericFormat::kFP32, NumericFormat::kTF32, NumericFormat::kFP16,
      NumericFormat::kBF16, NumericFormat::kINT8};

  for (const ServedModel& m : models) {
    auto entry_or = server.registry().Lookup(m.name);
    if (!entry_or.ok()) {
      report->Fail("lookup " + m.name);
      continue;
    }
    const ef::serve::ModelRegistry::Entry* entry = *entry_or;

    // The Eq. 3/5 bound admission evaluates per candidate format.
    report->Metric("core.bound_us." + m.name,
                   BudgetedMicros(0.1, 5, [&](int i) {
                     volatile double b = entry->analysis.Bound(
                         0.0, ac.norm, all_formats[i % all_formats.size()]);
                     (void)b;
                   }),
                   "us");

    // Admission of the workload's own tolerance mix on the registered entry.
    std::vector<NumericFormat> admitted;
    const double admit_us = BudgetedMicros(0.25, 3, [&](int i) {
      const double tol = m.tolerances[i % m.tolerances.size()];
      const auto now = SteadyClock::now();
      auto d = admission.Admit(entry->analysis, entry->flops_per_sample,
                               entry->bytes_per_sample, tol,
                               now + std::chrono::seconds(1), now, 0);
      if (!d.ok()) {
        report->Fail("admission replay: " + d.status().ToString());
      } else if (static_cast<size_t>(i) < m.tolerances.size()) {
        admitted.push_back(d->format);
      }
    });
    report->Metric("serve.admit_us." + m.name, admit_us, "us");

    // Forward pass of the admitted variants at the request size and at the
    // largest fused batch the scheduler may build.
    std::vector<const Tensor*> parts;
    for (size_t i = 0; i < m.pool.size() &&
                       static_cast<int64_t>(parts.size()) * m.rows_per_request <
                           max_batch_rows;
         ++i) {
      parts.push_back(&m.pool[i]);
    }
    const Tensor fused = ConcatRows(parts);
    std::vector<std::shared_ptr<ef::serve::ModelRegistry::Variant>> variants;
    for (NumericFormat f : admitted) {
      auto v = server.registry().GetVariant(m.name, f);
      if (v.ok()) variants.push_back(*v);
    }
    if (variants.empty()) {
      report->Fail("no variant leased for " + m.name);
      continue;
    }
    for (const Tensor* batch : {&m.pool.front(), &fused}) {
      const double us = BudgetedMicros(0.25, 3, [&](int i) {
        variants[i % variants.size()]->model.Predict(*batch);
      });
      const std::string rows = std::to_string(batch->dim(0));
      report->Metric("nn.predict_ms." + m.name + ".b" + rows, us / 1e3, "ms");
      if (batch == &fused) {
        const double flops = static_cast<double>(entry->flops_per_sample) *
                             static_cast<double>(batch->dim(0));
        report->Metric("nn.gflop_s." + m.name, flops / (us * 1e3), "GFLOP/s");
      }
    }

    for (NumericFormat f : {NumericFormat::kFP16, NumericFormat::kINT8}) {
      const double us = BudgetedMicros(0.1, 2, [&](int) {
        ef::quant::QuantizeWeights(entry->base, f);
      });
      report->Metric("quant.quantize_ms." + m.name + "." +
                         ef::quant::FormatToString(f),
                     us / 1e3, "ms");
    }
  }
  report->Metric(
      "serve.variant_materializations",
      static_cast<double>(ef::obs::MetricsRegistry::Global().CounterValue(
          "errorflow.serve.registry.quantize_count")),
      "count");
}

void ReportResponseLog(const ResponseLog& log, const SetupSplits& setup,
                       Report* report) {
  report->Metric("serve.queue_wait_ms.p50", Percentile(log.queue_ms, 50),
                 "ms");
  report->Metric("serve.queue_wait_ms.p99", Percentile(log.queue_ms, 99),
                 "ms");
  report->Metric("serve.exec_ms", Percentile(log.exec_ms, 50), "ms");
  report->Metric("serve.batch_rows_mean",
                 log.responses > 0 ? log.batch_rows_sum /
                                         static_cast<double>(log.responses)
                                   : 0.0,
                 "rows");
  report->Metric("setup.load_ms", setup.load_ms, "ms");
  report->Metric("setup.register_ms", setup.register_ms, "ms");
  report->Metric("setup.warmup_ms", setup.warmup_ms, "ms");
}

void LogFormatShares(const char* workload, const ResponseLog& log) {
  std::string line;
  for (size_t f = 0; f < log.by_format.size(); ++f) {
    char buf[64];
    std::snprintf(
        buf, sizeof(buf), " %s %.1f%%",
        ef::quant::FormatToString(static_cast<NumericFormat>(f)),
        log.responses > 0 ? 100.0 * static_cast<double>(log.by_format[f]) /
                                static_cast<double>(log.responses)
                          : 0.0);
    line += buf;
  }
  std::fprintf(stderr, "perfbench: %s responses by format:%s\n", workload,
               line.c_str());
}

}  // namespace perfbench
