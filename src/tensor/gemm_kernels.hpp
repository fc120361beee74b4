// Internal to the fp32 GEMM: the kernel variants behind sgemm and an
// entry point that takes one explicitly. Production code calls sgemm and
// friends, which run the kernel selected once per process; tests include
// this header to check every kernel the host can execute against the
// baseline, so the baseline kernel stays covered on AVX2 hosts too.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace appeal::ops::detail {

/// Generic element accessor: M(i, j) = p[i * row_stride + j * col_stride].
/// Covers A, A^T, B and B^T with one packing routine each.
struct matrix_view {
  const float* p;
  std::size_t row_stride;
  std::size_t col_stride;

  float at(std::size_t i, std::size_t j) const {
    return p[i * row_stride + j * col_stride];
  }
};

/// Optional fused store epilogue: per-row bias plus activation clamp,
/// applied exactly once, in the pass that stores the final K block.
struct store_epilogue {
  const float* bias = nullptr;  // per row of C, may be null
  float act_lo = -std::numeric_limits<float>::infinity();
  float act_hi = std::numeric_limits<float>::infinity();
};

/// One MC-row block of the packed macrokernel: packs rows [i0, i0+mc) x
/// K block [p0, p0+kc) of A, multiplies them by the packed B panels `bp`
/// and stores into columns [j0, j0+nc) of C (row stride ldc).
using sgemm_block_fn = void (*)(const matrix_view& a, std::size_t i0,
                                std::size_t mc, std::size_t p0,
                                std::size_t kc, std::size_t j0,
                                std::size_t nc, const float* bp, float alpha,
                                float beta, bool first_k_block,
                                const store_epilogue* epi, float* c,
                                std::size_t ldc);

/// The unpacked direct loops for small and narrow products; C is
/// [m x n] with row stride n.
using sgemm_small_fn = void (*)(std::size_t m, std::size_t n, std::size_t k,
                                float alpha, const matrix_view& a,
                                const matrix_view& b, float beta,
                                const store_epilogue* epi, float* c);

/// One ISA variant of the GEMM. Every variant compiles the same source,
/// so every variant computes the same bits.
struct sgemm_kernel {
  const char* name;
  sgemm_block_fn m_block;
  sgemm_small_fn small;
};

/// Every kernel this CPU can execute, baseline first; the last one is the
/// kernel sgemm dispatches to.
const std::vector<sgemm_kernel>& host_sgemm_kernels();

/// C = alpha * A[m x k] * B[k x n] + beta * C over generic views, with an
/// explicit kernel and an optional fused epilogue (which implies
/// beta == 0). C is [m x n], row-major. sgemm, sgemm_at, sgemm_bt and
/// sgemm_bias_act are this call with the process's kernel.
void sgemm_with(const sgemm_kernel& kernel, std::size_t m, std::size_t n,
                std::size_t k, float alpha, const matrix_view& a,
                const matrix_view& b, float beta, const store_epilogue* epi,
                float* c);

}  // namespace appeal::ops::detail
