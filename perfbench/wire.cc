// mlp_wire: the h2 and borghesi MLPs behind net::NetServer on loopback,
// driven by the benchmark's own single-threaded EFN1 client. Compute per
// request is tens of microseconds, so admission, the server's event loop,
// queueing and the completion hand-off carry most of the cost.
//
// The measured run is a closed loop with a bounded number of requests in
// flight per connection; it gives rows_per_s and latency_p50_ms. The traced
// run first adds an open-loop Poisson phase at a fixed rate below
// saturation, each sample timed from its scheduled send time. Its p50 moves
// with the host's vCPU wake-up delays far more than the closed loop does
// (README.md), so it is reported per layer rather than gated.
#include <sys/epoll.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <future>
#include <random>
#include <thread>
#include <unordered_map>

#include "net/frame.h"
#include "net/net_server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "serving.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

namespace ef = errorflow;
using ef::net::FrameHeader;
using ef::net::FrameType;

namespace {

constexpr int kWorkers = 1;
constexpr int kMaxConnections = 4;
constexpr int64_t kRowsPerRequest = 8;
constexpr int64_t kMaxBatchRows = 64;
constexpr int kPoolPerModel = 64;
/// Offered load of the open-loop phase, requests/s. Below the closed-loop
/// saturation rate (about 2k req/s on a 4-core host), so the queue stays
/// bounded and the phase measures latency rather than overload.
constexpr double kOpenLoopRate = 400.0;
/// Share of the traced run spent in the open-loop phase.
constexpr double kOpenShare = 0.4;
/// Requests kept in flight per connection in the closed-loop phase.
constexpr int kClosedDepth = 4;
constexpr double kDrainSeconds = 20.0;

struct Conn {
  ef::net::OwnedFd fd;
  std::string wbuf;
  size_t wpos = 0;
  std::string rbuf;
  bool want_write = false;
};

// One request the client has sent and not yet seen answered.
struct Pending {
  SteadyClock::time_point scheduled;
  int model = 0;
  int pool = 0;
  int tol = 0;
  bool open_loop = false;
};

// One draw of the workload mix.
struct Draw {
  int model = 0;
  int pool = 0;
  int tol = 0;
};

class WireRun {
 public:
  WireRun(const Args& args, std::vector<ServedModel>* models, Report* report)
      : args_(args), models_(*models), report_(report) {}

  bool Connect(uint16_t port, int connections);
  /// Encodes every Submit payload of the models' request pools.
  void EncodePayloads();
  void OpenLoop(double seconds);
  void ClosedLoop(double seconds);
  void Close() { conns_.clear(); }
  /// Every distinct Submit payload the run can send.
  std::vector<std::string> SubmitPayloads() const {
    std::vector<std::string> out;
    for (const auto& per_model : payloads_) {
      for (const auto& per_pool : per_model) {
        out.insert(out.end(), per_pool.begin(), per_pool.end());
      }
    }
    return out;
  }

  Accounting accounting() const {
    Accounting a;
    a.sent = sent_;
    a.ok = ok_;
    a.typed_errors = typed_errors_;
    a.unanswered = static_cast<int64_t>(pending_.size());
    return a;
  }
  std::vector<double> open_latency_ms;
  std::vector<double> closed_latency_ms;
  std::vector<double> outside_server_ms;
  std::vector<double> send_lag_ms;
  ResponseLog log;
  /// Rows of checked closed-loop responses over the closed-loop phase.
  WindowedRate closed_rows;
  std::vector<ef::net::ResponseFrame> kept_responses;

 private:
  Draw NextDraw();
  void Send(int conn, const Draw& d, SteadyClock::time_point scheduled,
            bool open_loop);
  void Flush(int conn);
  void SetEvents(int conn, uint32_t events);
  // Waits up to `timeout` for responses and handles every complete frame.
  void Poll(std::chrono::nanoseconds timeout);
  void HandleFrame(int conn, const FrameHeader& header, const char* payload);

  const Args& args_;
  std::vector<ServedModel>& models_;
  Report* report_;
  Rng rng_{0};
  std::vector<Conn> conns_;
  ef::net::OwnedFd epoll_;
  // payloads_[model][pool][tol]: encoded Submit payloads, framed per send.
  std::vector<std::vector<std::vector<std::string>>> payloads_;
  std::unordered_map<uint64_t, Pending> pending_;
  uint64_t next_id_ = 1;
  int64_t sent_ = 0, ok_ = 0, typed_errors_ = 0;
  // Closed-loop bookkeeping.
  bool closed_refill_ = false;
  SteadyClock::time_point closed_t0_;
  const ef::util::DecodeLimits limits_ = ef::util::DecodeLimits::Default();
};

void WireRun::EncodePayloads() {
  payloads_.assign(models_.size(), {});
  for (size_t m = 0; m < models_.size(); ++m) {
    for (const Tensor& input : models_[m].pool) {
      std::vector<std::string> per_tol;
      for (double tol : models_[m].tolerances) {
        ef::net::SubmitFrame submit;
        submit.model = models_[m].name;
        submit.qoi_tolerance = tol;
        submit.input = input;
        per_tol.push_back(
            ef::net::EncodeSubmit(0, submit).substr(ef::net::kFrameHeaderBytes));
      }
      payloads_[m].push_back(std::move(per_tol));
    }
  }
}

bool WireRun::Connect(uint16_t port, int connections) {
  rng_.seed(SubSeed(args_.seed, 7));
  epoll_ = ef::net::OwnedFd(epoll_create1(EPOLL_CLOEXEC));
  for (int i = 0; i < connections; ++i) {
    auto fd = ef::net::ConnectTcp("127.0.0.1", port, std::chrono::seconds(5));
    if (!fd.ok()) {
      report_->Fail("connect: " + fd.status().ToString());
      return false;
    }
    Conn c;
    c.fd = std::move(*fd);
    if (!ef::net::SetNonBlocking(c.fd.get()).ok() ||
        !ef::net::SetNoDelay(c.fd.get()).ok()) {
      report_->Fail("socket options");
      return false;
    }
    conns_.push_back(std::move(c));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = static_cast<uint64_t>(i);
    epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conns_.back().fd.get(), &ev);
  }
  return true;
}

Draw WireRun::NextDraw() {
  Draw d;
  d.model = static_cast<int>(rng_() % models_.size());
  d.pool = static_cast<int>(rng_() % models_[d.model].pool.size());
  d.tol = static_cast<int>(rng_() % models_[d.model].tolerances.size());
  return d;
}

void WireRun::SetEvents(int conn, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = static_cast<uint64_t>(conn);
  epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conns_[conn].fd.get(), &ev);
}

void WireRun::Send(int conn, const Draw& d, SteadyClock::time_point scheduled,
                   bool open_loop) {
  const uint64_t id = next_id_++;
  conns_[conn].wbuf += ef::net::EncodeFrame(FrameType::kSubmit, id,
                                            payloads_[d.model][d.pool][d.tol]);
  pending_.emplace(id, Pending{scheduled, d.model, d.pool, d.tol, open_loop});
  sent_ += 1;
  Flush(conn);
}

void WireRun::Flush(int conn) {
  Conn& c = conns_[conn];
  while (c.wpos < c.wbuf.size()) {
    ef::net::IoOutcome out = ef::net::WriteSome(
        c.fd.get(), c.wbuf.data() + c.wpos, c.wbuf.size() - c.wpos);
    if (out.would_block) break;
    if (out.n <= 0) {
      report_->Fail("connection write failed");
      return;
    }
    c.wpos += static_cast<size_t>(out.n);
  }
  const bool rest = c.wpos < c.wbuf.size();
  if (!rest) {
    c.wbuf.clear();
    c.wpos = 0;
  }
  if (rest != c.want_write) {
    c.want_write = rest;
    SetEvents(conn, rest ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
  }
}

void WireRun::Poll(std::chrono::nanoseconds timeout) {
  epoll_event events[16];
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout.count() / 1000000000);
  ts.tv_nsec = static_cast<long>(timeout.count() % 1000000000);
  const int n = epoll_pwait2(epoll_.get(), events, 16, &ts, nullptr);
  for (int i = 0; i < n; ++i) {
    const int idx = static_cast<int>(events[i].data.u64);
    Conn& c = conns_[idx];
    if (events[i].events & EPOLLOUT) Flush(idx);
    if (!(events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
    char buf[64 * 1024];
    while (true) {
      ef::net::IoOutcome out = ef::net::ReadSome(c.fd.get(), buf, sizeof(buf));
      if (out.would_block) break;
      if (out.n <= 0) {
        report_->Fail("server closed a connection");
        epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, c.fd.get(), nullptr);
        break;
      }
      c.rbuf.append(buf, static_cast<size_t>(out.n));
    }
    size_t consumed = 0;
    while (true) {
      FrameHeader header;
      size_t frame_size = 0;
      auto got = ef::net::TryExtractFrame(c.rbuf.data() + consumed,
                                          c.rbuf.size() - consumed, limits_,
                                          &header, &frame_size);
      if (!got.ok()) {
        report_->Fail("corrupt frame from server: " + got.status().ToString());
        c.rbuf.clear();
        consumed = 0;
        break;
      }
      if (*got == ef::net::ExtractResult::kNeedMore) break;
      HandleFrame(idx, header,
                  c.rbuf.data() + consumed + ef::net::kFrameHeaderBytes);
      consumed += frame_size;
    }
    if (consumed > 0) c.rbuf.erase(0, consumed);
  }
}

void WireRun::HandleFrame(int conn, const FrameHeader& header,
                          const char* payload) {
  const SteadyClock::time_point now = SteadyClock::now();
  auto it = pending_.find(header.request_id);
  if (it == pending_.end()) {
    report_->Fail("response for an unknown request id");
    return;
  }
  const Pending p = it->second;
  pending_.erase(it);
  if (header.type == FrameType::kError) {
    typed_errors_ += 1;
    auto err = ef::net::DecodeError(payload, header.payload_len, limits_);
    if (err.ok()) {
      std::fprintf(stderr, "perfbench: typed error: %s\n",
                   ef::net::WireErrorToStatus(*err).ToString().c_str());
    }
  } else if (header.type != FrameType::kResponse) {
    report_->Fail("unexpected frame type from server");
  } else {
    auto resp = ef::net::DecodeResponse(payload, header.payload_len, limits_);
    if (!resp.ok()) {
      report_->Fail("response decode: " + resp.status().ToString());
      return;
    }
    const ServedModel& m = models_[p.model];
    const std::string bad =
        CheckServed(m.references[p.pool], resp->output,
                    resp->predicted_qoi_bound, m.tolerances[p.tol]);
    if (!bad.empty()) report_->Fail(m.name + ": " + bad);
    ok_ += 1;
    const double latency_ms = SecondsBetween(p.scheduled, now) * 1e3;
    if (p.open_loop) {
      open_latency_ms.push_back(latency_ms);
      outside_server_ms.push_back(latency_ms - resp->total_seconds * 1e3);
    } else {
      closed_latency_ms.push_back(latency_ms);
      closed_rows.Add(SecondsBetween(closed_t0_, now),
                      static_cast<double>(m.rows_per_request));
    }
    if (args_.trace) {
      log.Add(resp->format, resp->batch_rows, resp->queue_seconds,
              resp->total_seconds);
      if (kept_responses.size() < 64) kept_responses.push_back(*resp);
    }
  }
  if (!p.open_loop && closed_refill_) Send(conn, NextDraw(), now, false);
}

void WireRun::OpenLoop(double seconds) {
  // Poisson arrival schedule, fixed before the phase starts.
  std::vector<double> arrivals;
  std::exponential_distribution<double> gap(kOpenLoopRate);
  for (double t = gap(rng_); t < seconds; t += gap(rng_)) arrivals.push_back(t);
  std::vector<Draw> draws;
  for (size_t i = 0; i < arrivals.size(); ++i) draws.push_back(NextDraw());
  open_latency_ms.reserve(arrivals.size());

  const SteadyClock::time_point t0 = SteadyClock::now();
  size_t next = 0;
  int rr = 0;
  while (next < arrivals.size()) {
    const SteadyClock::time_point now = SteadyClock::now();
    const double elapsed = SecondsBetween(t0, now);
    while (next < arrivals.size() && arrivals[next] <= elapsed) {
      const auto scheduled =
          t0 + std::chrono::duration_cast<SteadyClock::duration>(
                   std::chrono::duration<double>(arrivals[next]));
      send_lag_ms.push_back(SecondsBetween(scheduled, now) * 1e3);
      Send(rr, draws[next], scheduled, true);
      rr = (rr + 1) % static_cast<int>(conns_.size());
      next += 1;
    }
    if (next < arrivals.size()) {
      const double wait = arrivals[next] - SecondsBetween(t0, SteadyClock::now());
      Poll(std::chrono::nanoseconds(
          static_cast<int64_t>(std::max(0.0, wait) * 1e9)));
    }
  }
  const SteadyClock::time_point drain_end =
      SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(
                               std::chrono::duration<double>(kDrainSeconds));
  while (!pending_.empty() && SteadyClock::now() < drain_end) {
    Poll(std::chrono::milliseconds(5));
  }
}

void WireRun::ClosedLoop(double seconds) {
  const SteadyClock::time_point t0 = SteadyClock::now();
  closed_t0_ = t0;
  closed_refill_ = true;
  for (int d = 0; d < kClosedDepth; ++d) {
    for (int c = 0; c < static_cast<int>(conns_.size()); ++c) {
      Send(c, NextDraw(), SteadyClock::now(), false);
    }
  }
  const SteadyClock::time_point stop =
      t0 + std::chrono::duration_cast<SteadyClock::duration>(
               std::chrono::duration<double>(seconds));
  while (SteadyClock::now() < stop) Poll(std::chrono::milliseconds(5));
  closed_refill_ = false;
  const SteadyClock::time_point drain_end =
      SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(
                               std::chrono::duration<double>(kDrainSeconds));
  while (!pending_.empty() && SteadyClock::now() < drain_end) {
    Poll(std::chrono::milliseconds(5));
  }
}

}  // namespace

void RunMlpWire(const Args& args, Report* report) {
  SetupSplits setup;
  ef::util::Stopwatch laps;

  std::vector<ServedModel> models(2);
  models[0].name = "h2";
  models[0].task = LoadTask(ef::tasks::TaskKind::kH2Combustion, args.model_dir);
  models[1].name = "borghesi";
  models[1].task =
      LoadTask(ef::tasks::TaskKind::kBorghesiFlame, args.model_dir);
  for (ServedModel& m : models) {
    m.rows_per_request = kRowsPerRequest;
    // Admitted as fp32 / fp16 / int8 on both models (bounds in README.md).
    m.tolerances = {1e-3, 1e-2, 1.0};
  }
  setup.load_ms = laps.LapSeconds() * 1e3;

  ef::serve::InferenceServer server(BenchServerConfig(kWorkers, kMaxBatchRows));
  for (ServedModel& m : models) {
    const ef::Status st = server.RegisterModel(
        m.name, m.task.model.Clone(), m.task.single_input_shape);
    if (!st.ok()) report->Fail("register: " + st.ToString());
  }
  if (!server.Start().ok()) report->Fail("server start");
  ef::net::NetServer net(&server);
  if (!net.Start().ok()) report->Fail("net server start");
  WireRun run(args, &models, report);
  const int connections = std::max(
      1, std::min(kMaxConnections, static_cast<int>(std::thread::hardware_concurrency())));
  const bool connected = report->correct() && run.Connect(net.port(), connections);
  setup.register_ms = laps.LapSeconds() * 1e3;
  WarmVariants(server, models, report);
  setup.warmup_ms = laps.LapSeconds() * 1e3;
  const double setup_s = SecondsBetween(args.process_start, SteadyClock::now());

  for (size_t i = 0; i < models.size(); ++i) {
    BuildPool(&models[i], kPoolPerModel, SubSeed(args.seed, i));
  }
  const uint64_t frames_before = ef::obs::MetricsRegistry::Global().CounterValue(
      "errorflow.net.frames.in");
  run.EncodePayloads();
  if (connected && report->correct()) {
    if (args.trace) run.OpenLoop(args.seconds * kOpenShare);
    run.ClosedLoop(args.trace ? args.seconds * (1.0 - kOpenShare)
                              : args.seconds);
  }
  Accounting acct = run.accounting();
  acct.server_frames_in = static_cast<int64_t>(
      ef::obs::MetricsRegistry::Global().CounterValue("errorflow.net.frames.in") -
      frames_before);
  const std::string bad = CheckAccounting(acct);
  if (!bad.empty()) report->Fail(bad);
  report->attempted = acct.sent;
  report->failed = acct.typed_errors + acct.unanswered;

  if (!args.trace) {
    report->Metric("setup_s", setup_s, "s");
    report->Metric("rows_per_s", run.closed_rows.Median(), "rows/s");
    report->Metric("latency_p50_ms", Percentile(run.closed_latency_ms, 50),
                   "ms");
  } else {
    LogFormatShares("mlp_wire", run.log);
    ReportResponseLog(run.log, setup, report);
    report->Metric("traced.rows_per_s", run.closed_rows.Median(), "rows/s");
    report->Metric("load.latency_p99_ms", Percentile(run.closed_latency_ms, 99),
                   "ms");
    report->Metric("load.open_latency_p50_ms",
                   Percentile(run.open_latency_ms, 50), "ms");
    report->Metric("load.open_latency_p99_ms",
                   Percentile(run.open_latency_ms, 99), "ms");
    report->Metric("net.outside_server_ms.p50",
                   Percentile(run.outside_server_ms, 50), "ms");
    report->Metric("net.outside_server_ms.p99",
                   Percentile(run.outside_server_ms, 99), "ms");
    report->Metric("load.send_lag_ms", Percentile(run.send_lag_ms, 99), "ms");
    // Server-side frame work of the event loop, replayed on this run's own
    // frames: decode of each Submit payload, encode of each Response.
    const std::vector<std::string> submits = run.SubmitPayloads();
    const ef::util::DecodeLimits limits = ef::util::DecodeLimits::Default();
    report->Metric("net.frame_decode_us", BudgetedMicros(0.05, 100, [&](int i) {
                     const std::string& s = submits[i % submits.size()];
                     if (!ef::net::DecodeSubmit(s.data(), s.size(), limits).ok()) {
                       report->Fail("submit decode replay");
                     }
                   }),
                   "us");
    if (!run.kept_responses.empty()) {
      report->Metric("net.frame_encode_us", BudgetedMicros(0.05, 100, [&](int i) {
                       const std::string f = ef::net::EncodeResponse(
                           static_cast<uint64_t>(i + 1),
                           run.kept_responses[i % run.kept_responses.size()]);
                       if (f.empty()) report->Fail("response encode replay");
                     }),
                     "us");
    }
    // The in-process Submit call the event loop makes per frame.
    std::vector<double> submit_us;
    for (int i = 0; i < 400; ++i) {
      const ServedModel& m = models[i % models.size()];
      ef::serve::InferenceRequest req;
      req.model = m.name;
      req.input = m.pool[static_cast<size_t>(i / 2) % m.pool.size()];
      req.qoi_tolerance = m.tolerances[static_cast<size_t>(i / 2) % m.tolerances.size()];
      const SteadyClock::time_point s0 = SteadyClock::now();
      auto fut = server.Submit(std::move(req));
      submit_us.push_back(SecondsBetween(s0, SteadyClock::now()) * 1e6);
      if (!fut.ok() ||
          fut->wait_for(std::chrono::seconds(20)) != std::future_status::ready ||
          !fut->get().ok()) {
        report->Fail("submit replay");
      }
    }
    report->Metric("serve.submit_us", Percentile(submit_us, 50), "us");
    ReportServingLayers(server, models, kMaxBatchRows, report);
  }
  run.Close();
  net.Shutdown();
  server.Shutdown();
}

}  // namespace perfbench
