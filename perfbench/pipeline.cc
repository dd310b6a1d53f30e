// insitu_pipeline: the offline compress -> store -> fetch -> decompress ->
// quantized-inference loop of examples/combustion_insitu.cpp, driven
// through the library's public calls. Each H2 species timestep is planned
// (InferencePipeline::Plan), then sent through SZ, ZFP and MGARD with the
// default entropy codec. The compressors and codecs carry the cost;
// admission, the scheduler and the network are not involved.
//
// min(4, nproc) streams run side by side, one per core as the ranks of a
// simulation would, each with its own pipeline, compressors and store. On a
// virtualized host each vCPU slows down on its own for seconds at a time;
// several streams average over the vCPUs where one stream would follow the
// one it runs on.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <thread>

#include "checks.h"
#include "compress/compressor.h"
#include "core/pipeline.h"
#include "data/combustion.h"
#include "io/sim_storage.h"
#include "quant/quantize_model.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

namespace ef = errorflow;
using ef::compress::Backend;

namespace {

/// The timestep fields of examples/combustion_insitu.cpp: kFieldSide x
/// kFieldSide grid points, one row of 9 species mass fractions per point
/// (576 KiB of float32 per field).
constexpr int64_t kFieldSide = 128;
/// Distinct timesteps generated per run; the streams cycle through them.
/// Fields and FP32 references together take about 19 MiB, inside the L3.
constexpr int kTimesteps = 16;
constexpr int kMaxStreams = 4;
/// The example's QoI budget: Linf tolerance 1e-3 relative to the largest
/// |output| of the FP32 model on the task's test set, 80 % of it offered to
/// weight quantization.
constexpr double kQoiToleranceRel = 1e-3;
constexpr double kQuantFraction = 0.8;
/// Seed of the fixed field the set-up warms every codec and model on.
constexpr uint64_t kWarmFieldSeed = 999;

constexpr std::array<Backend, 3> kBackends = {Backend::kSz, Backend::kZfp,
                                              Backend::kMgard};

// Per-backend totals of the traced run.
struct CodecTotals {
  double original_bytes = 0.0;
  double stored_bytes = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
};

Tensor MakeField(const ef::tasks::TrainedTask& task, uint64_t seed) {
  return task.input_norm.Apply(
      ef::data::MakeH2CombustionDataset(kFieldSide, kFieldSide, seed).inputs);
}

// One stream: what it owns, and what it measured.
struct Stream {
  std::unique_ptr<ef::core::InferencePipeline> pipeline;
  std::vector<std::unique_ptr<ef::compress::Compressor>> compressors;
  std::unique_ptr<ef::io::SimulatedStorage> storage;

  std::vector<double> step_ms, plan_us, put_ms, get_ms, exec_ms;
  std::array<CodecTotals, kBackends.size()> codec{};
  /// Rows carried over the stream's pipeline time (checks excluded).
  WindowedRate rows;
  int64_t trips = 0;
  int64_t failed_trips = 0;
};

void BuildStream(const ef::tasks::TrainedTask& task,
                 const ef::core::PipelineConfig& config, Stream* s) {
  s->pipeline = std::make_unique<ef::core::InferencePipeline>(
      task.model.Clone(), task.single_input_shape, config);
  for (Backend b : kBackends) {
    s->compressors.push_back(ef::compress::MakeCompressor(b, config.codec));
  }
  s->storage = std::make_unique<ef::io::SimulatedStorage>(config.storage);
}

// Sends the warm field through every codec and the planned weight format
// once, so the measured phase pays no first-use cost.
void WarmStream(double qoi_tolerance, const Tensor& warm_field, Stream* s,
                Report* report, std::mutex* report_mu) {
  std::string bad;
  const ef::core::AllocationPlan plan = s->pipeline->Plan(qoi_tolerance);
  for (auto& compressor : s->compressors) {
    auto blob = compressor->Compress(
        warm_field, ef::compress::ErrorBound::AbsLinf(plan.input_tolerance));
    if (!blob.ok() || !s->storage->Write("warm", std::move(blob->blob)).ok()) {
      bad = "warm-up compression";
      continue;
    }
    auto fetched = s->storage->Read("warm");
    if (!fetched.ok() || !compressor->Decompress(fetched->data).ok()) {
      bad = "warm-up decompression";
    }
  }
  if (!s->pipeline->ExecuteQuantized(warm_field, plan.format).ok()) {
    bad = "warm-up execution";
  }
  if (!bad.empty()) {
    std::lock_guard<std::mutex> lock(*report_mu);
    report->Fail(bad);
  }
}

// Runs timesteps first, first + 1, ... (cycling) until `stop`.
void RunStream(const Args& args, int first, double qoi_tolerance,
               const std::vector<Tensor>& fields,
               const std::vector<Tensor>& references,
               SteadyClock::time_point stop, Stream* s, Report* report,
               std::mutex* report_mu) {
  double busy_s = 0.0;
  for (int64_t step = first; SteadyClock::now() < stop; ++step) {
    const Tensor& field = fields[static_cast<size_t>(step % kTimesteps)];
    const Tensor& reference =
        references[static_cast<size_t>(step % kTimesteps)];
    const SteadyClock::time_point start = SteadyClock::now();
    const ef::core::AllocationPlan plan = s->pipeline->Plan(qoi_tolerance);
    SteadyClock::time_point mark = SteadyClock::now();
    if (args.trace) s->plan_us.push_back(SecondsBetween(start, mark) * 1e6);
    double untimed_s = 0.0;
    int64_t carried_rows = 0;
    for (size_t b = 0; b < kBackends.size(); ++b) {
      s->trips += 1;
      ef::compress::Compressor& compressor = *s->compressors[b];
      const std::string key = ef::compress::BackendToString(kBackends[b]);
      // t[0..5]: start, compressed, stored, fetched, decompressed, executed.
      std::array<SteadyClock::time_point, 6> t;
      t[0] = mark;
      auto compressed = compressor.Compress(
          field, ef::compress::ErrorBound::AbsLinf(plan.input_tolerance));
      t[1] = SteadyClock::now();
      double stored = 0.0;
      ef::Status st = compressed.status();
      if (st.ok()) {
        stored = static_cast<double>(compressed->blob.size());
        st = s->storage->Write(key, std::move(compressed->blob));
      }
      t[2] = SteadyClock::now();
      ef::Result<ef::io::ReadResult> fetched = st;
      if (st.ok()) fetched = s->storage->Read(key);
      t[3] = SteadyClock::now();
      ef::Result<ef::compress::Decompressed> decompressed = fetched.status();
      if (fetched.ok()) decompressed = compressor.Decompress(fetched->data);
      t[4] = SteadyClock::now();
      ef::Result<Tensor> output = decompressed.status();
      if (decompressed.ok()) {
        output = s->pipeline->ExecuteQuantized(decompressed->data, plan.format);
      }
      t[5] = SteadyClock::now();
      mark = t[5];
      if (!output.ok()) {
        // An operation the program failed: counted, and the run goes on.
        s->failed_trips += 1;
        std::fprintf(stderr, "perfbench: %s round trip failed: %s\n",
                     key.c_str(), output.status().ToString().c_str());
        continue;
      }
      carried_rows += field.dim(0);

      // Checks, kept out of the timed step.
      std::string bad = CheckReconstruction(field, decompressed->data,
                                            plan.input_tolerance);
      if (bad.empty()) {
        bad = CheckPipelineOutput(reference, *output,
                                  plan.predicted_total_bound);
      }
      if (bad.empty()) {
        auto again = compressor.Decompress(fetched->data);
        bad = again.ok() ? CheckBitIdentical(decompressed->data, again->data)
                         : "second decompression failed";
      }
      if (!bad.empty()) {
        std::lock_guard<std::mutex> lock(*report_mu);
        report->Fail(key + ": " + bad);
      }
      if (args.trace) {
        s->put_ms.push_back(SecondsBetween(t[1], t[2]) * 1e3);
        s->get_ms.push_back(SecondsBetween(t[2], t[3]) * 1e3);
        s->exec_ms.push_back(SecondsBetween(t[4], t[5]) * 1e3);
        s->codec[b].original_bytes += static_cast<double>(field.byte_size());
        s->codec[b].stored_bytes += stored;
        s->codec[b].encode_s += SecondsBetween(t[0], t[1]);
        s->codec[b].decode_s += SecondsBetween(t[3], t[4]);
      }
      mark = SteadyClock::now();
      untimed_s += SecondsBetween(t[5], mark);
    }
    // One timestep through all three compressors, checks excluded.
    const double step_s = SecondsBetween(start, mark) - untimed_s;
    busy_s += step_s;
    s->rows.Add(busy_s, static_cast<double>(carried_rows));
    s->step_ms.push_back(step_s * 1e3);
  }
}

}  // namespace

void RunInsituPipeline(const Args& args, Report* report) {
  ef::util::Stopwatch laps;

  ef::tasks::TrainedTask task =
      LoadTask(ef::tasks::TaskKind::kH2Combustion, args.model_dir);
  double out_norm = 0.0;
  const Tensor test_out = task.model.Predict(task.test.inputs);
  for (int64_t i = 0; i < test_out.size(); ++i) {
    out_norm = std::max(out_norm, std::fabs(static_cast<double>(test_out[i])));
  }
  const double qoi_tolerance = kQoiToleranceRel * out_norm;
  ef::core::PipelineConfig config;
  config.quant_fraction = kQuantFraction;
  const Tensor warm_field = MakeField(task, kWarmFieldSeed);
  const double load_ms = laps.LapSeconds() * 1e3;

  const int n_streams = std::max(
      1, std::min(kMaxStreams,
                  static_cast<int>(std::thread::hardware_concurrency())));
  std::vector<Stream> streams(static_cast<size_t>(n_streams));
  for (Stream& s : streams) BuildStream(task, config, &s);
  const double register_ms = laps.LapSeconds() * 1e3;
  // Each stream warms and then runs on one thread of its own, as each rank
  // would; the threads wait between the two for the timesteps to be made.
  std::mutex report_mu;
  std::latch warmed(n_streams);
  std::promise<SteadyClock::time_point> stop_promise;
  std::shared_future<SteadyClock::time_point> stop_at =
      stop_promise.get_future().share();
  std::vector<Tensor> fields;
  std::vector<Tensor> references;
  std::vector<std::thread> threads;
  for (int i = 0; i < n_streams; ++i) {
    threads.emplace_back([&, i] {
      Stream* s = &streams[static_cast<size_t>(i)];
      WarmStream(qoi_tolerance, warm_field, s, report, &report_mu);
      warmed.count_down();
      RunStream(args, i * kTimesteps / n_streams, qoi_tolerance, fields,
                references, stop_at.get(), s, report, &report_mu);
    });
  }
  warmed.wait();
  const double warmup_ms = laps.LapSeconds() * 1e3;
  const double setup_s = SecondsBetween(args.process_start, SteadyClock::now());
  const ef::core::AllocationPlan plan = streams[0].pipeline->Plan(qoi_tolerance);
  std::fprintf(stderr,
               "perfbench: insitu_pipeline %d streams, QoI tolerance %.4g, "
               "plan %s, input tolerance %.4g, predicted bound %.4g\n",
               n_streams, qoi_tolerance, ef::quant::FormatToString(plan.format),
               plan.input_tolerance, plan.predicted_total_bound);

  // The timesteps of this seed and the benchmark's FP32 forward pass on
  // each pristine field.
  for (int t = 0; t < kTimesteps; ++t) {
    fields.push_back(MakeField(task, SubSeed(args.seed, static_cast<uint64_t>(t))));
    references.push_back(task.model.Predict(fields.back()));
  }
  {
    // Reading report->correct() is safe here: every stream has warmed, and
    // none reports again until it runs.
    std::lock_guard<std::mutex> lock(report_mu);
    const double seconds = report->correct() ? args.seconds : 0.0;
    stop_promise.set_value(
        SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(
                                 std::chrono::duration<double>(seconds)));
  }
  for (std::thread& t : threads) t.join();

  // The streams' throughputs add up; their timesteps pool into one sample.
  Stream all;
  double rows_per_s = 0.0;
  for (const Stream& s : streams) {
    rows_per_s += s.rows.Median();
    all.trips += s.trips;
    all.failed_trips += s.failed_trips;
    for (auto [to, from] : {std::pair{&all.step_ms, &s.step_ms},
                            std::pair{&all.plan_us, &s.plan_us},
                            std::pair{&all.put_ms, &s.put_ms},
                            std::pair{&all.get_ms, &s.get_ms},
                            std::pair{&all.exec_ms, &s.exec_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    for (size_t b = 0; b < kBackends.size(); ++b) {
      all.codec[b].original_bytes += s.codec[b].original_bytes;
      all.codec[b].stored_bytes += s.codec[b].stored_bytes;
      all.codec[b].encode_s += s.codec[b].encode_s;
      all.codec[b].decode_s += s.codec[b].decode_s;
    }
  }
  report->attempted = all.trips;
  report->failed = all.failed_trips;

  if (!args.trace) {
    report->Metric("setup_s", setup_s, "s");
    report->Metric("rows_per_s", rows_per_s, "rows/s");
    report->Metric("latency_p50_ms", Percentile(all.step_ms, 50), "ms");
    return;
  }
  report->Metric("traced.rows_per_s", rows_per_s, "rows/s");
  report->Metric("load.latency_p99_ms", Percentile(all.step_ms, 99), "ms");
  report->Metric("setup.load_ms", load_ms, "ms");
  report->Metric("setup.register_ms", register_ms, "ms");
  report->Metric("setup.warmup_ms", warmup_ms, "ms");
  report->Metric("core.plan_us", Mean(all.plan_us), "us");
  report->Metric("io.put_ms", Mean(all.put_ms), "ms");
  report->Metric("io.get_ms", Mean(all.get_ms), "ms");
  for (size_t b = 0; b < kBackends.size(); ++b) {
    const CodecTotals& c = all.codec[b];
    const std::string prefix =
        std::string("compress.") + ef::compress::BackendToString(kBackends[b]);
    report->Metric(prefix + ".encode_mb_s", c.original_bytes / 1e6 / c.encode_s,
                   "MB/s");
    report->Metric(prefix + ".decode_mb_s", c.original_bytes / 1e6 / c.decode_s,
                   "MB/s");
    report->Metric(prefix + ".ratio", c.original_bytes / c.stored_bytes, "x");
  }
  const std::string rows_name = std::to_string(kFieldSide * kFieldSide);
  const double exec = Mean(all.exec_ms);
  report->Metric("nn.predict_ms.h2.b" + rows_name, exec, "ms");
  report->Metric(
      "nn.gflop_s.h2",
      static_cast<double>(
          task.model.FlopsPerSample(task.single_input_shape) *
          kFieldSide * kFieldSide) /
          (exec * 1e6),
      "GFLOP/s");
  ef::core::InferencePipeline& pipeline = *streams[0].pipeline;
  report->Metric("core.bound_us.h2", BudgetedMicros(0.1, 5, [&](int i) {
                   volatile double v = pipeline.analysis().Bound(
                       0.0, config.norm,
                       static_cast<ef::quant::NumericFormat>(i % 5));
                   (void)v;
                 }),
                 "us");
  for (auto f : {ef::quant::NumericFormat::kFP16, ef::quant::NumericFormat::kINT8}) {
    report->Metric(std::string("quant.quantize_ms.h2.") +
                       ef::quant::FormatToString(f),
                   BudgetedMicros(0.1, 2, [&](int) {
                     ef::quant::QuantizeWeights(pipeline.model(), f);
                   }) / 1e3,
                   "ms");
  }
}

}  // namespace perfbench
