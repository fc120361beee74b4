// Per-layer compute timings, taken from outside the program after serving.
//
// Each child of a served nn::sequential is timed alone with
// forward_range(x, i, i+1) on the activation the previous child produced,
// at the batch size the server actually formed. GFLOP/s is per call:
// the child's FLOPs (sequential::summarize at that batch) divided by the
// median wall time of one call. The GEMM kernels are timed the same way
// at one reference shape, as the ceiling the layers are held against.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/sequential.hpp"

namespace perfbench {

struct layer_timing {
  std::string name;  // "<index>_<kind>"
  double ms = 0.0;   // median wall time of one call
  double gflops = 0.0;
};

/// Times every child of `net` on `input` ([N, ...]); `reps` calls each.
std::vector<layer_timing> time_children(appeal::nn::sequential& net,
                                        const appeal::tensor& input,
                                        std::size_t reps);

/// Reference kernel shape: m = n = k = kKernelDim.
inline constexpr std::size_t kKernelDim = 256;

/// ops::sgemm at the reference shape, GFLOP/s per call (median).
double sgemm_gflops(std::size_t reps);

/// ops::qgemm_s8u8 at the reference shape, GOP/s per call (median).
double qgemm_gops(std::size_t reps);

}  // namespace perfbench
