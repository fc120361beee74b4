// Internal to the quantized GEMM: the microkernels behind qgemm_s8u8 and
// an entry point that takes one explicitly. Production code calls qgemm_s8u8,
// which runs the kernel selected once per process; tests include this
// header to check every kernel the host can execute against the same
// reference, so the SSE2 kernel stays covered on AVX2 hosts too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/gemm_s8.hpp"

namespace appeal::ops::detail {

/// acc[MR x NR] (row-major i32) = one packed A panel x one packed B panel
/// over `kp` k-pairs.
using qgemm_micro_kernel = void (*)(std::size_t kp, const std::int32_t* ap,
                                    const std::int16_t* bp,
                                    std::int32_t* acc);

struct qgemm_kernel {
  const char* name;
  qgemm_micro_kernel run;
};

/// Every microkernel this CPU can execute, baseline first; the last one is
/// the kernel qgemm_s8u8 dispatches to.
const std::vector<qgemm_kernel>& host_qgemm_kernels();

/// qgemm_s8u8 with an explicit microkernel.
void qgemm_s8u8_with(const qgemm_kernel& kernel, const packed_s8& a,
                     std::size_t n, const u8_view& b,
                     const qgemm_epilogue& epi, float* c,
                     std::size_t c_row_stride, std::size_t c_col_stride);

}  // namespace appeal::ops::detail
