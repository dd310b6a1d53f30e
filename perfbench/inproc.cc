// resnet_inproc: the EuroSAT ResNet served in process through
// InferenceServer::Submit by closed-loop client threads. Conv/GEMM forward
// passes and batch fusion carry the cost; no wire layer is involved.
#include <algorithm>
#include <future>
#include <mutex>
#include <thread>

#include "serving.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

namespace ef = errorflow;

namespace {

constexpr int kWorkers = 2;
constexpr int kMaxClients = 4;
constexpr int64_t kRowsPerRequest = 4;
constexpr int64_t kMaxBatchRows = 32;
constexpr int kPool = 32;
/// How long past the end of the phase a client waits for an answer before
/// it counts the request as unanswered.
constexpr std::chrono::seconds kAnswerGrace(20);

// What one client thread saw.
struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<double> submit_us;
  ResponseLog responses;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t typed_errors = 0;
  int64_t unanswered = 0;
  /// Completion times of OK responses, seconds since the phase start.
  std::vector<double> done_s;
};

void Client(const Args& args, int index, const ServedModel& model,
            ef::serve::InferenceServer* server, SteadyClock::time_point start,
            SteadyClock::time_point stop,
            Report* report, std::mutex* report_mu, ClientLog* log) {
  Rng rng(SubSeed(args.seed, 100 + static_cast<uint64_t>(index)));
  while (SteadyClock::now() < stop) {
    const size_t pool = rng() % model.pool.size();
    const size_t tol = rng() % model.tolerances.size();
    ef::serve::InferenceRequest req;
    req.model = model.name;
    req.input = model.pool[pool];
    req.qoi_tolerance = model.tolerances[tol];
    const SteadyClock::time_point t0 = SteadyClock::now();
    auto fut = server->Submit(std::move(req));
    if (args.trace) {
      log->submit_us.push_back(SecondsBetween(t0, SteadyClock::now()) * 1e6);
    }
    log->sent += 1;
    if (!fut.ok()) {
      log->typed_errors += 1;
      continue;
    }
    if (fut->wait_until(stop + kAnswerGrace) != std::future_status::ready) {
      log->unanswered += 1;
      continue;
    }
    const ef::serve::InferenceResponse resp = fut->get();
    const SteadyClock::time_point t1 = SteadyClock::now();
    if (!resp.ok()) {
      log->typed_errors += 1;
      continue;
    }
    log->ok += 1;
    log->latency_ms.push_back(SecondsBetween(t0, t1) * 1e3);
    log->done_s.push_back(SecondsBetween(start, t1));
    if (args.trace) {
      log->responses.Add(static_cast<int>(resp.format), resp.batch_rows,
                         resp.queue_seconds, resp.total_seconds);
    }
    const std::string bad =
        CheckServed(model.references[pool], resp.output,
                    resp.predicted_qoi_bound, model.tolerances[tol]);
    if (!bad.empty()) {
      std::lock_guard<std::mutex> lock(*report_mu);
      report->Fail(model.name + ": " + bad);
    }
  }
}

}  // namespace

void RunResnetInproc(const Args& args, Report* report) {
  SetupSplits setup;
  ef::util::Stopwatch laps;

  std::vector<ServedModel> models(1);
  ServedModel& model = models[0];
  model.name = "eurosat";
  model.task = LoadTask(ef::tasks::TaskKind::kEuroSat, args.model_dir);
  model.rows_per_request = kRowsPerRequest;
  // Admitted as fp32 / fp16 / int8 (bounds in README.md).
  model.tolerances = {1e-2, 1.0, 20.0};
  setup.load_ms = laps.LapSeconds() * 1e3;

  ef::serve::InferenceServer server(BenchServerConfig(kWorkers, kMaxBatchRows));
  if (!server
           .RegisterModel(model.name, model.task.model.Clone(),
                          model.task.single_input_shape)
           .ok()) {
    report->Fail("register");
  }
  if (!server.Start().ok()) report->Fail("server start");
  setup.register_ms = laps.LapSeconds() * 1e3;
  WarmVariants(server, models, report);
  setup.warmup_ms = laps.LapSeconds() * 1e3;
  const double setup_s = SecondsBetween(args.process_start, SteadyClock::now());

  BuildPool(&model, kPool, SubSeed(args.seed, 0));
  const int clients = std::max(
      1, std::min(kMaxClients,
                  static_cast<int>(std::thread::hardware_concurrency())));
  std::vector<ClientLog> logs(static_cast<size_t>(clients));
  std::mutex report_mu;
  const SteadyClock::time_point t0 = SteadyClock::now();
  const SteadyClock::time_point stop =
      t0 + std::chrono::duration_cast<SteadyClock::duration>(
               std::chrono::duration<double>(args.seconds));
  if (report->correct()) {
    std::vector<std::thread> threads;
    for (int i = 0; i < clients; ++i) {
      threads.emplace_back(Client, std::cref(args), i, std::cref(model),
                           &server, t0, stop, report, &report_mu,
                           &logs[static_cast<size_t>(i)]);
    }
    for (std::thread& t : threads) t.join();
  }

  Accounting acct;
  ClientLog all;
  for (const ClientLog& l : logs) {
    acct.sent += l.sent;
    acct.ok += l.ok;
    acct.typed_errors += l.typed_errors;
    acct.unanswered += l.unanswered;
    all.latency_ms.insert(all.latency_ms.end(), l.latency_ms.begin(),
                          l.latency_ms.end());
    all.submit_us.insert(all.submit_us.end(), l.submit_us.begin(),
                         l.submit_us.end());
    all.responses.Merge(l.responses);
    all.done_s.insert(all.done_s.end(), l.done_s.begin(), l.done_s.end());
  }
  std::sort(all.done_s.begin(), all.done_s.end());
  WindowedRate rows;
  for (double t : all.done_s) rows.Add(t, static_cast<double>(kRowsPerRequest));
  const std::string bad = CheckAccounting(acct);
  if (!bad.empty()) report->Fail(bad);
  report->attempted = acct.sent;
  report->failed = acct.typed_errors + acct.unanswered;

  if (!args.trace) {
    report->Metric("setup_s", setup_s, "s");
    report->Metric("rows_per_s", rows.Median(), "rows/s");
    report->Metric("latency_p50_ms", Percentile(all.latency_ms, 50), "ms");
  } else {
    LogFormatShares("resnet_inproc", all.responses);
    ReportResponseLog(all.responses, setup, report);
    report->Metric("traced.rows_per_s", rows.Median(), "rows/s");
    report->Metric("load.latency_p99_ms", Percentile(all.latency_ms, 99), "ms");
    report->Metric("serve.submit_us", Percentile(all.submit_us, 50), "us");
    ReportServingLayers(server, models, kMaxBatchRows, report);
  }
  server.Shutdown();
}

}  // namespace perfbench
