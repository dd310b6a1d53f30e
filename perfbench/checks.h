// Correctness checks of the perfbench workloads. Each compares the
// program's output with a computation the benchmark makes itself, or with
// a property the error-flow method guarantees; none compares with a stored
// copy of earlier output. Each returns an empty string when the check
// passes and a description of the first violation otherwise.
#ifndef ERRORFLOW_PERFBENCH_CHECKS_H_
#define ERRORFLOW_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>

#include "tensor/tensor.h"

namespace perfbench {

using errorflow::tensor::Tensor;

/// Largest per-sample Linf distance between two batches of equal shape
/// (leading dimension = samples).
double MaxSampleLinf(const Tensor& a, const Tensor& b);

/// A served response: every sample's Linf error against the benchmark's
/// FP32 forward pass on the same rows is within the response's predicted
/// bound, and that bound is within the request's tolerance.
std::string CheckServed(const Tensor& reference, const Tensor& output,
                        double predicted_bound, double tolerance);

/// A decompressed field: every element is within the absolute Linf
/// compression tolerance of the original.
std::string CheckReconstruction(const Tensor& original,
                                const Tensor& reconstructed,
                                double tolerance);

/// The pipeline's quantized output on the reconstructed field is within
/// the plan's predicted total bound of the FP32 output on the original.
std::string CheckPipelineOutput(const Tensor& reference, const Tensor& output,
                                double predicted_bound);

/// Two decompressions of one blob are bit-identical.
std::string CheckBitIdentical(const Tensor& first, const Tensor& second);

/// Request accounting of one served run.
struct Accounting {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t typed_errors = 0;
  int64_t unanswered = 0;
  /// The server's own count of Submit frames received over the run
  /// (errorflow.net.frames.in), or -1 when the run had no wire.
  int64_t server_frames_in = -1;
};

/// Every request sent was answered, answers add up to what was sent, and
/// the server counted the same number of frames as the client sent.
std::string CheckAccounting(const Accounting& a);

}  // namespace perfbench

#endif  // ERRORFLOW_PERFBENCH_CHECKS_H_
