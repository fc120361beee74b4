// Single-precision GEMM — the compute kernel under every conv and linear
// layer.
//
// C = alpha * op(A) * op(B) + beta * C, row-major, with a packed,
// cache-blocked kernel (GotoBLAS-style MC/NC/KC blocking around an 8x16
// register-tiled microkernel). All three layouts (A*B, A^T*B, A*B^T) route
// through the same packing, so conv forward AND backward run the fast
// path. Shapes too small to amortize packing, and row-contiguous products
// narrower than one packed column panel, use a direct register loop.
//
// Kernel selection: the kernel is chosen once per process from the host
// CPU — an AVX2 build of the same source when __builtin_cpu_supports
// ("avx2") says so, the baseline (build-flag ISA, SSE2 by default)
// otherwise. Neither uses FMA, so every host computes the same bits.
//
// Threading: set_gemm_threads(t) splits the M dimension over a shared
// util::thread_pool. Each M-block computes a disjoint row range of C with
// a fixed arithmetic order, so results are BIT-IDENTICAL for every thread
// count — the determinism contract test_gemm pins down. The default is
// single-threaded (serving already runs one engine worker per core);
// APPEAL_GEMM_THREADS=<n> in the environment overrides the default.
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace appeal::ops {

/// Sets the intra-GEMM parallelism (clamped to >= 1). Values > 1 resize
/// the shared util::thread_pool. Call at startup / from tests — not
/// concurrently with running GEMMs (pool reconstruction is unsynchronized
/// against parallel_for).
void set_gemm_threads(std::size_t threads);

/// Current intra-GEMM parallelism (reads APPEAL_GEMM_THREADS on first use).
std::size_t gemm_threads();

/// Name of the kernel this process runs ("sse2", "avx2", ...).
const char* sgemm_kernel_name();

/// Raw pointer GEMM: C[m x n] = alpha * A[m x k] * B[k x n] + beta * C.
/// All matrices row-major and non-aliasing. beta == 0 overwrites C without
/// reading it (stale/NaN contents never leak) and without a separate
/// zero-fill pass.
void sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
           const float* a, const float* b, float beta, float* c);

/// C = alpha * A^T[m x k] * B[k x n] + beta * C, where A is stored [k x m].
void sgemm_at(std::size_t m, std::size_t n, std::size_t k, float alpha,
              const float* a, const float* b, float beta, float* c);

/// C = alpha * A[m x k] * B^T[k x n] + beta * C, where B is stored [n x k].
void sgemm_bt(std::size_t m, std::size_t n, std::size_t k, float alpha,
              const float* a, const float* b, float beta, float* c);

/// Fused-epilogue GEMM for the conv/linear serving path:
/// C = clamp(alpha * A * B + bias, [act_lo, act_hi]), overwriting C
/// (beta == 0 semantics). `bias` is per row of C (length m) and may be
/// null; act_lo/act_hi fuse the following ReLU/ReLU6 (pass +-infinity to
/// leave values unclamped). Bias and clamp are applied in the final
/// K-block's store pass — the same add and compare the separate passes
/// would do, so results are bit-identical to sgemm + bias sweep +
/// activation sweep, minus two full traversals of C.
void sgemm_bias_act(std::size_t m, std::size_t n, std::size_t k, float alpha,
                    const float* a, const float* b, const float* bias,
                    float act_lo, float act_hi, float* c);

/// Tensor wrapper: returns A * B for rank-2 tensors with matching inner dim.
tensor matmul(const tensor& a, const tensor& b);

}  // namespace appeal::ops
