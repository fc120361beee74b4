// Internal to the quantized GEMM: the kernels behind qgemm_s8u8, the
// packed-weight layout they read, and an entry point that takes a kernel
// explicitly. Production code calls qgemm_s8u8, which runs the kernel
// selected once per process; tests include this header to check every
// kernel the host can execute against the same reference, so the SSE2 and
// AVX2 kernels stay covered on AVX-VNNI hosts too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/gemm_s8.hpp"

namespace appeal::ops::detail {

/// One MC-row block of C: rows [i0, i0 + mc) of the packed A panels `ap`
/// times the packed B panels `bp` (`groups` k-groups each), which hold
/// columns [j0, j0 + nc); requantized through `epi` and stored at
/// c[i * c_row_stride + j * c_col_stride].
using qgemm_block_fn = void (*)(const std::int32_t* ap, std::size_t i0,
                                std::size_t mc, std::size_t groups,
                                std::size_t j0, std::size_t nc,
                                const void* bp, const qgemm_epilogue& epi,
                                float* c, std::size_t c_row_stride,
                                std::size_t c_col_stride);

/// One int8 kernel and the panel layout it reads. `k_group` is the number
/// of k steps packed into one i32 of A and one 32-byte group of a B
/// panel: 2 for the i16-pair kernels (sse2, avx2), 4 for the u8-quad
/// kernel (avxvnni).
struct qgemm_kernel {
  const char* name;
  std::size_t k_group;
  qgemm_block_fn m_block;
};

/// Every kernel this CPU can execute, baseline first; the last one is the
/// kernel qgemm_s8u8 dispatches to, and the one packed_s8 packs for.
const std::vector<qgemm_kernel>& host_qgemm_kernels();

/// The one place outside packed_s8 that sees its panels. Tests pack the
/// same weights once per kernel through pack().
struct packed_s8_access {
  /// Packs row-major A[m x k] in k-groups of `k_group` (2 or 4).
  static void pack(packed_s8& dst, const std::int8_t* a, std::size_t m,
                   std::size_t k, std::size_t k_group);
  static std::size_t k_group(const packed_s8& p) { return p.k_group_; }
  static const std::int32_t* panels(const packed_s8& p) {
    return p.panels_.data();
  }
};

/// qgemm_s8u8 with an explicit kernel. `a` must be packed in the
/// kernel's k-group (checked).
void qgemm_s8u8_with(const qgemm_kernel& kernel, const packed_s8& a,
                     std::size_t n, const u8_view& b,
                     const qgemm_epilogue& epi, float* c,
                     std::size_t c_row_stride, std::size_t c_col_stride);

}  // namespace appeal::ops::detail
