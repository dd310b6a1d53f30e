#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

std::string Format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

bool SameShape(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && a.ndim() >= 1 && a.dim(0) > 0;
}

}  // namespace

double MaxSampleLinf(const Tensor& a, const Tensor& b) {
  double worst = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(static_cast<double>(a[i]) - b[i]);
    // NaN compares false everywhere; make it the worst possible error.
    worst = std::isnan(d) ? INFINITY : std::max(worst, d);
  }
  return worst;
}

std::string CheckServed(const Tensor& reference, const Tensor& output,
                        double predicted_bound, double tolerance) {
  if (!SameShape(reference, output)) return "served output shape mismatch";
  if (!(predicted_bound <= tolerance)) {
    return Format("predicted bound %.6g exceeds tolerance %.6g",
                  predicted_bound, tolerance);
  }
  const double err = MaxSampleLinf(reference, output);
  if (!(err <= predicted_bound)) {
    return Format("served error %.6g exceeds predicted bound %.6g", err,
                  predicted_bound);
  }
  return "";
}

std::string CheckReconstruction(const Tensor& original,
                                const Tensor& reconstructed,
                                double tolerance) {
  if (!SameShape(original, reconstructed)) {
    return "reconstruction shape mismatch";
  }
  const double err = MaxSampleLinf(original, reconstructed);
  if (!(err <= tolerance)) {
    return Format("reconstruction error %.6g exceeds tolerance %.6g", err,
                  tolerance);
  }
  return "";
}

std::string CheckPipelineOutput(const Tensor& reference, const Tensor& output,
                                double predicted_bound) {
  if (!SameShape(reference, output)) return "pipeline output shape mismatch";
  const double err = MaxSampleLinf(reference, output);
  if (!(err <= predicted_bound)) {
    return Format("pipeline QoI error %.6g exceeds predicted bound %.6g", err,
                  predicted_bound);
  }
  return "";
}

std::string CheckBitIdentical(const Tensor& first, const Tensor& second) {
  if (first.shape() != second.shape() ||
      std::memcmp(first.data(), second.data(),
                  static_cast<size_t>(first.size()) * sizeof(float)) != 0) {
    return "two decompressions of one blob differ";
  }
  return "";
}

std::string CheckAccounting(const Accounting& a) {
  if (a.ok + a.typed_errors + a.unanswered != a.sent) {
    return Format("ok + errors + unanswered = %.0f, sent %.0f",
                  static_cast<double>(a.ok + a.typed_errors + a.unanswered),
                  static_cast<double>(a.sent));
  }
  if (a.unanswered != 0) {
    return Format("%.0f of %.0f requests never answered",
                  static_cast<double>(a.unanswered),
                  static_cast<double>(a.sent));
  }
  if (a.server_frames_in >= 0 && a.server_frames_in != a.sent) {
    return Format("server received %.0f frames, client sent %.0f",
                  static_cast<double>(a.server_frames_in),
                  static_cast<double>(a.sent));
  }
  return "";
}

}  // namespace perfbench
