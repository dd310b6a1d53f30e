// Self-test of the benchmark's correctness checks: each check is fed a real
// result from the program, which must pass, and then the same result with
// one deliberate fault, which must fail.
#include <cstdio>

#include "checks.h"
#include "compress/compressor.h"
#include "data/combustion.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace ef = errorflow;

namespace {

int failures = 0;

// `verdict` is the check's result on the real (`faulty` false) or the
// perturbed (`faulty` true) result.
void Expect(const char* name, bool faulty, const std::string& verdict) {
  const bool ok = faulty ? !verdict.empty() : verdict.empty();
  std::printf("%-52s %s%s%s\n", name, ok ? "ok" : "WRONG",
              verdict.empty() ? "" : "  -- ", verdict.c_str());
  if (!ok) failures += 1;
}

}  // namespace

int RunSelfTest(const Args& args) {
  ef::tasks::TrainedTask task =
      LoadTask(ef::tasks::TaskKind::kH2Combustion, args.model_dir);
  const Tensor field = task.input_norm.Apply(
      ef::data::MakeH2CombustionDataset(16, 16, args.seed).inputs);
  const Tensor input = SliceRows(field, 0, 8);
  const Tensor reference = task.model.Predict(input);

  ef::serve::InferenceServer server;
  if (!server.RegisterModel("h2", task.model.Clone(), task.single_input_shape)
           .ok() ||
      !server.Start().ok()) {
    std::printf("server failed to start\n");
    return 1;
  }

  // 1. A served response moved past its predicted bound.
  {
    const double tol = 1.0;
    ef::serve::InferenceRequest req;
    req.model = "h2";
    req.input = input;
    req.qoi_tolerance = tol;
    auto fut = server.Submit(std::move(req));
    if (!fut.ok()) return 1;
    ef::serve::InferenceResponse resp = fut->get();
    Expect("served response within its bound", false,
           CheckServed(reference, resp.output, resp.predicted_qoi_bound, tol));
    resp.output[5] = reference[5] +
                     static_cast<float>(resp.predicted_qoi_bound * 1.01 + 1e-6);
    Expect("served element moved past its bound is caught", true,
           CheckServed(reference, resp.output, resp.predicted_qoi_bound, tol));
  }

  // 2. A reconstructed element outside the compression tolerance, and a
  // second decompression that differs.
  {
    const double tol = 1e-3;
    auto sz = ef::compress::MakeCompressor(ef::compress::Backend::kSz);
    auto blob = sz->Compress(field, ef::compress::ErrorBound::AbsLinf(tol));
    if (!blob.ok()) return 1;
    auto first = sz->Decompress(blob->blob);
    auto second = sz->Decompress(blob->blob);
    if (!first.ok() || !second.ok()) return 1;
    Expect("reconstruction within tolerance", false,
           CheckReconstruction(field, first->data, tol));
    Expect("two decompressions bit-identical", false,
           CheckBitIdentical(first->data, second->data));
    Tensor bad = first->data;
    bad[17] = field[17] + static_cast<float>(2.0 * tol);
    Expect("reconstructed element outside tolerance is caught", true,
           CheckReconstruction(field, bad, tol));
    Expect("differing second decompression is caught", true,
           CheckBitIdentical(first->data, bad));
  }

  // 3. One dropped response on the wire.
  {
    ef::net::NetServer net(&server);
    if (!net.Start().ok()) return 1;
    const uint64_t frames_before =
        ef::obs::MetricsRegistry::Global().CounterValue(
            "errorflow.net.frames.in");
    auto client = ef::net::NetClient::Connect("127.0.0.1", net.port());
    if (!client.ok()) return 1;
    Accounting acct;
    std::vector<uint64_t> ids;
    for (int i = 0; i < 16; ++i) {
      ef::net::SubmitFrame submit;
      submit.model = "h2";
      submit.qoi_tolerance = 1e-2;
      submit.input = input;
      auto id = client->Submit(submit);
      if (!id.ok()) return 1;
      ids.push_back(*id);
      acct.sent += 1;
    }
    for (uint64_t id : ids) {
      auto resp = client->Await(id, std::chrono::seconds(10));
      if (resp.ok()) {
        acct.ok += 1;
      } else if (resp.status().code() == ef::StatusCode::kDeadlineExceeded) {
        acct.unanswered += 1;
      } else {
        acct.typed_errors += 1;
      }
    }
    client->Close();
    net.Shutdown();
    acct.server_frames_in = static_cast<int64_t>(
        ef::obs::MetricsRegistry::Global().CounterValue(
            "errorflow.net.frames.in") -
        frames_before);
    Expect("wire accounting adds up", false, CheckAccounting(acct));
    acct.ok -= 1;
    acct.unanswered += 1;
    Expect("one dropped response is caught", true, CheckAccounting(acct));
  }
  server.Shutdown();

  std::printf("%s\n", failures == 0 ? "selftest: all checks behave"
                                    : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
