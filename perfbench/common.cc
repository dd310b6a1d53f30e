#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

namespace {
constexpr int64_t kMaxLoggedFailures = 10;
}  // namespace

void Report::Fail(const std::string& what) {
  if (failures_ < kMaxLoggedFailures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  failures_ += 1;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - std::floor(pos));
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

void WindowedRate::Add(double elapsed_s, double amount) {
  window_amount_ += amount;
  total_ += amount;
  last_s_ = elapsed_s;
  // A window closes at the first completion at least window_s after it
  // opened, so its rate is exact work over exact time, with no rounding to
  // whole completions per fixed interval.
  if (elapsed_s - window_start_ >= window_s_) {
    rates_.push_back(window_amount_ / (elapsed_s - window_start_));
    window_amount_ = 0.0;
    window_start_ = elapsed_s;
  }
}

double WindowedRate::Median() const {
  if (rates_.size() < 3) return Overall();
  return Percentile(rates_, 50);
}

double WindowedRate::Overall() const {
  return last_s_ > 0.0 ? total_ / last_s_ : 0.0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer: decorrelates the streams drawn from one seed.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

errorflow::tasks::TrainedTask LoadTask(errorflow::tasks::TaskKind kind,
                                       const std::string& model_dir) {
  return errorflow::tasks::GetTask(kind, errorflow::tasks::Regularization::kPsn,
                                   1, model_dir);
}

Tensor SliceRows(const Tensor& rows, int64_t first, int64_t count) {
  errorflow::tensor::Shape shape = rows.shape();
  const int64_t per = rows.size() / shape[0];
  shape[0] = count;
  Tensor out(shape);
  std::memcpy(out.data(), rows.data() + first * per,
              static_cast<size_t>(count * per) * sizeof(float));
  return out;
}

Tensor ConcatRows(const std::vector<const Tensor*>& parts) {
  errorflow::tensor::Shape shape = parts.front()->shape();
  shape[0] = 0;
  for (const Tensor* p : parts) shape[0] += p->dim(0);
  Tensor out(shape);
  float* dst = out.data();
  for (const Tensor* p : parts) {
    std::memcpy(dst, p->data(), static_cast<size_t>(p->size()) * sizeof(float));
    dst += p->size();
  }
  return out;
}

}  // namespace perfbench
