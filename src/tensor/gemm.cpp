// Packed, cache-blocked fp32 GEMM and its per-ISA variants.
//
// One source, compiled twice. The baseline kernel is this file as the
// build flags compile it: SSE2 (4 lanes) on the default x86-64 target,
// where the 8x16 register tile spills. When the build flags stop short of
// AVX2, an "avx2" variant compiles the same run_m_block and gemm_small
// bodies again under __attribute__((target("avx2"))) — `flatten` inlines
// the whole call tree into the AVX2 wrapper, so the microkernel, the
// tile store and the small-product loops all get 8-lane code. The
// variant in force is picked once per process with
// __builtin_cpu_supports("avx2"); the baseline stays for CPUs without it.
//
// No variant uses FMA (never `fma` or `arch=x86-64-v3`): a fused
// multiply-add rounds once where mul-then-add rounds twice, so FMA hosts
// would compute different bits from the rest, and fixed-δ serving must
// reproduce offline system_eval bit for bit on every host. Without FMA,
// each C element is the same k-ordered sum of multiply-then-add steps
// whatever the vector width, so every variant computes the same bits.
#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "tensor/gemm_kernels.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

#if defined(__GNUC__) && defined(__x86_64__) && !defined(__AVX2__)
#define APPEAL_SGEMM_AVX2 1
#endif

namespace appeal::ops {

namespace {

using detail::matrix_view;
using detail::store_epilogue;

// GotoBLAS-style blocking: C is computed in MC x NC macro-tiles from an
// A-panel packed [MC x KC] (per thread, lives in L2) and a B-panel packed
// [KC x NC] (shared per call, streamed from L3). The register microkernel
// is MR x NR = 8 rows by one-or-two SIMD cache lines: 8 matches the
// model zoo's channel counts (16/32/64/128), so panels are never padded,
// and the row count keeps enough independent accumulators in flight to
// cover the add latency. The 8x16 tile is 16 ymm accumulators in the
// AVX2 variant and 32 xmm (so it spills) in the SSE2 baseline; both
// share one packing layout. A build whose flags enable AVX-512 widens the
// tile to 32 columns (two zmm per row, 16 zmm accumulators): each k-step
// then amortizes its 8 scalar broadcasts over twice the multiply-adds.
constexpr std::size_t MR = 8;
#if defined(__AVX512F__)
constexpr std::size_t NR = 32;
#else
constexpr std::size_t NR = 16;
#endif
constexpr std::size_t MC = 128;   // multiple of MR
constexpr std::size_t NC = 2048;  // multiple of NR
constexpr std::size_t KC = 256;

// Below this MAC count the packing overhead outweighs the cache wins
// (depthwise-conv GEMMs, the predictor head); a direct register loop is
// faster.
constexpr std::size_t kSmallFlops = 32 * 32 * 32;

void scale_c(std::size_t m, std::size_t n, float beta, float* c) {
  if (beta == 1.0F) return;
  const std::size_t total = m * n;
  if (beta == 0.0F) {
    for (std::size_t i = 0; i < total; ++i) c[i] = 0.0F;
  } else {
    for (std::size_t i = 0; i < total; ++i) c[i] *= beta;
  }
}

/// Packs rows [i0, i0+mc) x cols [p0, p0+kc) of A into MR-row panels:
/// panel r holds ap[(r * kc + kk) * MR + i] = A(i0 + r*MR + i, p0 + kk),
/// zero-padded past the edge so the microkernel never branches.
void pack_a(const matrix_view& a, std::size_t i0, std::size_t p0,
            std::size_t mc, std::size_t kc, float* ap) {
  for (std::size_t r = 0; r * MR < mc; ++r) {
    const std::size_t rows = std::min(MR, mc - r * MR);
    for (std::size_t kk = 0; kk < kc; ++kk) {
      float* dst = ap + (r * kc + kk) * MR;
      const float* src = a.p + (i0 + r * MR) * a.row_stride +
                         (p0 + kk) * a.col_stride;
      std::size_t i = 0;
      for (; i < rows; ++i) dst[i] = src[i * a.row_stride];
      for (; i < MR; ++i) dst[i] = 0.0F;
    }
  }
}

/// Packs rows [p0, p0+kc) x cols [j0, j0+nc) of B into NR-column panels:
/// panel q holds bp[(q * kc + kk) * NR + j] = B(p0 + kk, j0 + q*NR + j),
/// zero-padded past the edge.
void pack_b(const matrix_view& b, std::size_t p0, std::size_t j0,
            std::size_t kc, std::size_t nc, float* bp) {
  for (std::size_t q = 0; q * NR < nc; ++q) {
    const std::size_t cols = std::min(NR, nc - q * NR);
    for (std::size_t kk = 0; kk < kc; ++kk) {
      float* dst = bp + (q * kc + kk) * NR;
      const float* src = b.p + (p0 + kk) * b.row_stride +
                         (j0 + q * NR) * b.col_stride;
      std::size_t j = 0;
      for (; j < cols; ++j) dst[j] = src[j * b.col_stride];
      for (; j < NR; ++j) dst[j] = 0.0F;
    }
  }
}

/// acc[MR][NR] = Apanel^T * Bpanel over kc steps (kc >= 1). The first
/// k-step assigns instead of accumulating, so the tile needs no zero-fill
/// pass. `ap` walks MR floats per step, `bp` walks NR; both are
/// contiguous, so the inner loop is one aligned SIMD row FMA.
void micro_kernel(std::size_t kc, const float* ap, const float* bp,
                  float* acc) {
  for (std::size_t i = 0; i < MR; ++i) {
    const float a = ap[i];
    float* row = acc + i * NR;
#pragma omp simd
    for (std::size_t j = 0; j < NR; ++j) row[j] = a * bp[j];
  }
  ap += MR;
  bp += NR;
  for (std::size_t kk = 1; kk < kc; ++kk, ap += MR, bp += NR) {
    for (std::size_t i = 0; i < MR; ++i) {
      const float a = ap[i];
      float* row = acc + i * NR;
#pragma omp simd
      for (std::size_t j = 0; j < NR; ++j) row[j] += a * bp[j];
    }
  }
}

/// Writes one register tile into C. The first K-block applies alpha/beta
/// (beta == 0 overwrites, so stale C values — even NaN — never leak);
/// later K-blocks accumulate. When this store completes the final K block
/// and an epilogue is attached, bias and clamp ride the same pass —
/// `bias` arrives pre-offset to this tile's first row.
void store_tile(float* c, std::size_t ldc, const float* acc, std::size_t mr,
                std::size_t nr, float alpha, float beta, bool first_k_block,
                const store_epilogue* epi, const float* bias) {
  for (std::size_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const float* arow = acc + i * NR;
    if (epi != nullptr) {
      const float b = bias != nullptr ? bias[i] : 0.0F;
      for (std::size_t j = 0; j < nr; ++j) {
        float v = first_k_block ? alpha * arow[j] : crow[j] + alpha * arow[j];
        v += b;
        v = std::min(std::max(v, epi->act_lo), epi->act_hi);
        crow[j] = v;
      }
      continue;
    }
    if (!first_k_block) {
      for (std::size_t j = 0; j < nr; ++j) crow[j] += alpha * arow[j];
    } else if (beta == 0.0F) {
      for (std::size_t j = 0; j < nr; ++j) crow[j] = alpha * arow[j];
    } else {
      for (std::size_t j = 0; j < nr; ++j) {
        crow[j] = alpha * arow[j] + beta * crow[j];
      }
    }
  }
}

/// One MC-row block of the macrokernel: pack this thread's A panel, then
/// sweep the packed B panels. Each block writes a disjoint row range of C
/// and runs its arithmetic in a fixed order, so results are bit-identical
/// no matter which thread (or how many) execute the blocks.
void run_m_block(const matrix_view& a, std::size_t i0, std::size_t mc,
                 std::size_t p0, std::size_t kc, std::size_t j0,
                 std::size_t nc, const float* bp, float alpha, float beta,
                 bool first_k_block, const store_epilogue* epi, float* c,
                 std::size_t ldc) {
  thread_local std::vector<float> apack;
  apack.resize(((mc + MR - 1) / MR) * MR * kc);
  pack_a(a, i0, p0, mc, kc, apack.data());

  alignas(64) float acc[MR * NR];
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    const float* bpanel = bp + (jr / NR) * kc * NR;
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      const std::size_t mr = std::min(MR, mc - ir);
      micro_kernel(kc, apack.data() + (ir / MR) * kc * MR, bpanel, acc);
      const float* bias = epi != nullptr && epi->bias != nullptr
                              ? epi->bias + i0 + ir
                              : nullptr;
      store_tile(c + (i0 + ir) * ldc + (j0 + jr), ldc, acc, mr, nr, alpha,
                 beta, first_k_block, epi, bias);
    }
  }
}

std::atomic<std::size_t> gemm_thread_count{0};  // 0 = uninitialized

/// The shared pool runs one job at a time; concurrent GEMMs (e.g. several
/// serve::engine workers) fall back to single-threaded execution instead
/// of queueing, which keeps latency flat and results identical.
std::mutex gemm_pool_mutex;

/// Packed, cache-blocked GEMM over generic views:
/// C = alpha * A[m x k] * B[k x n] + beta * C.
void gemm_packed(const detail::sgemm_kernel& kernel, std::size_t m,
                 std::size_t n, std::size_t k, float alpha,
                 const matrix_view& a, const matrix_view& b, float beta,
                 const store_epilogue* epi, float* c, std::size_t ldc) {
  thread_local std::vector<float> bpack;
  const std::size_t threads = gemm_threads();

  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kc = std::min(KC, k - pc);
      bpack.resize(((nc + NR - 1) / NR) * NR * kc);
      pack_b(b, pc, jc, kc, nc, bpack.data());
      const bool first = pc == 0;
      // The epilogue fires only on the store of the final K block.
      const store_epilogue* block_epi = pc + kc == k ? epi : nullptr;

      const std::size_t blocks = (m + MC - 1) / MC;
      // NB: thread_locals are not captured — name the caller's packed-B
      // pointer in a local so pool workers see THIS thread's buffer, not
      // their own (empty) bpack.
      const float* packed_b = bpack.data();
      const auto run_block = [&](std::size_t blk) {
        const std::size_t i0 = blk * MC;
        kernel.m_block(a, i0, std::min(MC, m - i0), pc, kc, jc, nc,
                       packed_b, alpha, beta, first, block_epi, c, ldc);
      };
      if (threads > 1 && blocks > 1) {
        std::unique_lock<std::mutex> pool_lock(gemm_pool_mutex,
                                               std::try_to_lock);
        if (pool_lock.owns_lock()) {
          util::thread_pool::shared().parallel_for(blocks, run_block);
          continue;
        }
      }
      for (std::size_t blk = 0; blk < blocks; ++blk) run_block(blk);
    }
  }
}

/// R x W tile of C = A * B for a B whose rows are contiguous, without
/// packing: the accumulators stay in registers and each k-step reads one
/// stride-1 strip of a B row. `store(i, j, acc)` applies alpha, beta and
/// the epilogue.
template <std::size_t R, std::size_t W, typename Store>
void small_tile(std::size_t i0, std::size_t j0, std::size_t k,
                const matrix_view& a, const matrix_view& b,
                const Store& store) {
  float acc[R][W] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* pb = b.p + kk * b.row_stride + j0;
    for (std::size_t r = 0; r < R; ++r) {
      const float air = a.at(i0 + r, kk);
#pragma omp simd
      for (std::size_t j = 0; j < W; ++j) acc[r][j] += air * pb[j];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t j = 0; j < W; ++j) store(i0 + r, j0 + j, acc[r][j]);
  }
}

/// R rows of C across all n columns, in tiles 8 wide, then 4, then 1.
template <std::size_t R, typename Store>
void small_rows(std::size_t i0, std::size_t n, std::size_t k,
                const matrix_view& a, const matrix_view& b,
                const Store& store) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) small_tile<R, 8>(i0, j, k, a, b, store);
  for (; j + 4 <= n; j += 4) small_tile<R, 4>(i0, j, k, a, b, store);
  for (; j < n; ++j) small_tile<R, 1>(i0, j, k, a, b, store);
}

/// Direct loops for shapes too small to amortize packing and for
/// row-contiguous products narrower than one NR panel. Each C element
/// is one k-ordered sum from 0.0F in both loops (and in the packed
/// kernel for k <= KC), so a result never depends on which path or
/// batch size produced it.
void gemm_small(std::size_t m, std::size_t n, std::size_t k, float alpha,
                const matrix_view& a, const matrix_view& b, float beta,
                const store_epilogue* epi, float* c) {
  const auto store = [&](std::size_t i, std::size_t j, float acc) {
    float* cij = c + i * n + j;
    const float v = alpha * acc;
    if (epi != nullptr) {
      const float bias = epi->bias != nullptr ? epi->bias[i] : 0.0F;
      *cij = std::min(std::max(v + bias, epi->act_lo), epi->act_hi);
    } else if (beta == 0.0F) {
      *cij = v;
    } else {
      *cij = v + beta * *cij;
    }
  };
  if (b.col_stride != 1) {
    // B's columns are contiguous (B^T layout, e.g. the linear heads): one
    // dot product per C element.
    for (std::size_t i = 0; i < m; ++i) {
      const float* pa = a.p + i * a.row_stride;
      for (std::size_t j = 0; j < n; ++j) {
        const float* pb = b.p + j * b.col_stride;
        float acc = 0.0F;
        for (std::size_t kk = 0; kk < k; ++kk) {
          acc += pa[kk * a.col_stride] * pb[kk * b.row_stride];
        }
        store(i, j, acc);
      }
    }
    return;
  }
  // B's rows are contiguous (the batch-1 pointwise convs): register
  // tiles of 4 rows, narrowing at the ragged edges.
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) small_rows<4>(i, n, k, a, b, store);
  for (; i < m; ++i) small_rows<1>(i, n, k, a, b, store);
}

#if defined(APPEAL_SGEMM_AVX2)
// The AVX2 variant: the same bodies as run_m_block and gemm_small, with
// every callee inlined (flatten) into a function compiled for AVX2. Only
// ever called after the run-time CPU check.
__attribute__((target("avx2"), flatten)) void run_m_block_avx2(
    const matrix_view& a, std::size_t i0, std::size_t mc, std::size_t p0,
    std::size_t kc, std::size_t j0, std::size_t nc, const float* bp,
    float alpha, float beta, bool first_k_block, const store_epilogue* epi,
    float* c, std::size_t ldc) {
  run_m_block(a, i0, mc, p0, kc, j0, nc, bp, alpha, beta, first_k_block, epi,
              c, ldc);
}

__attribute__((target("avx2"), flatten)) void gemm_small_avx2(
    std::size_t m, std::size_t n, std::size_t k, float alpha,
    const matrix_view& a, const matrix_view& b, float beta,
    const store_epilogue* epi, float* c) {
  gemm_small(m, n, k, alpha, a, b, beta, epi, c);
}
#endif

/// The kernel sgemm dispatches to, picked once per process.
const detail::sgemm_kernel& host_kernel() {
  return detail::host_sgemm_kernels().back();
}

}  // namespace

namespace detail {

const std::vector<sgemm_kernel>& host_sgemm_kernels() {
  static const std::vector<sgemm_kernel> kernels = [] {
#if defined(__AVX512F__)
    const char* baseline = "avx512f";
#elif defined(__AVX2__)
    const char* baseline = "avx2";
#else
    const char* baseline = "sse2";
#endif
    std::vector<sgemm_kernel> out{{baseline, run_m_block, gemm_small}};
#if defined(APPEAL_SGEMM_AVX2)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      out.push_back({"avx2", run_m_block_avx2, gemm_small_avx2});
    }
#endif
    return out;
  }();
  return kernels;
}

void sgemm_with(const sgemm_kernel& kernel, std::size_t m, std::size_t n,
                std::size_t k, float alpha, const matrix_view& a,
                const matrix_view& b, float beta, const store_epilogue* epi,
                float* c) {
  if (alpha == 0.0F || m == 0 || n == 0 || k == 0) {
    if (epi != nullptr) {
      // Degenerate product is all zeros; the epilogue still applies.
      for (std::size_t i = 0; i < m; ++i) {
        const float b = epi->bias != nullptr ? epi->bias[i] : 0.0F;
        const float v = std::min(std::max(b, epi->act_lo), epi->act_hi);
        for (std::size_t j = 0; j < n; ++j) c[i * n + j] = v;
      }
      return;
    }
    scale_c(m, n, beta, c);
    return;
  }
  // A row-contiguous B narrower than one NR panel (the pointwise convs at
  // batch 2-3) would run mostly-empty packed tiles. The small loops
  // compute the same one-pass k-ordered sums as long as the packed path
  // would not split k into KC blocks, so only k <= KC moves.
  const bool narrow = b.col_stride == 1 && n < NR && k <= KC;
  if (m * n * k <= kSmallFlops || narrow) {
    kernel.small(m, n, k, alpha, a, b, beta, epi, c);
  } else {
    gemm_packed(kernel, m, n, k, alpha, a, b, beta, epi, c, n);
  }
}

}  // namespace detail

const char* sgemm_kernel_name() { return host_kernel().name; }

std::size_t gemm_threads() {
  // Magic-static init: exactly one thread parses the environment and
  // (for > 1) builds the shared pool, even when several engine workers
  // hit their first GEMM concurrently. The relaxed store below can race
  // only with itself and writes the same value.
  static const std::size_t env_default = [] {
    std::size_t t = 1;
    if (const char* env = std::getenv("APPEAL_GEMM_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 1) t = static_cast<std::size_t>(parsed);
    }
    if (t > 1) util::thread_pool::set_shared_size(t);
    return t;
  }();
  const std::size_t t = gemm_thread_count.load(std::memory_order_relaxed);
  if (t == 0) {
    gemm_thread_count.store(env_default, std::memory_order_relaxed);
    return env_default;
  }
  return t;
}

void set_gemm_threads(std::size_t threads) {
  const std::size_t t = std::max<std::size_t>(1, threads);
  gemm_thread_count.store(t, std::memory_order_relaxed);
  if (t > 1) util::thread_pool::set_shared_size(t);
}

void sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
           const float* a, const float* b, float beta, float* c) {
  detail::sgemm_with(host_kernel(), m, n, k, alpha, matrix_view{a, k, 1},
                     matrix_view{b, n, 1}, beta, nullptr, c);
}

void sgemm_at(std::size_t m, std::size_t n, std::size_t k, float alpha,
              const float* a, const float* b, float beta, float* c) {
  // A stored [k x m]: A^T(i, kk) = a[kk * m + i].
  detail::sgemm_with(host_kernel(), m, n, k, alpha, matrix_view{a, 1, m},
                     matrix_view{b, n, 1}, beta, nullptr, c);
}

void sgemm_bt(std::size_t m, std::size_t n, std::size_t k, float alpha,
              const float* a, const float* b, float beta, float* c) {
  // B stored [n x k]: B^T(kk, j) = b[j * k + kk].
  detail::sgemm_with(host_kernel(), m, n, k, alpha, matrix_view{a, k, 1},
                     matrix_view{b, 1, k}, beta, nullptr, c);
}

void sgemm_bias_act(std::size_t m, std::size_t n, std::size_t k, float alpha,
                    const float* a, const float* b, const float* bias,
                    float act_lo, float act_hi, float* c) {
  const store_epilogue epi{bias, act_lo, act_hi};
  detail::sgemm_with(host_kernel(), m, n, k, alpha, matrix_view{a, k, 1},
                     matrix_view{b, n, 1}, 0.0F, &epi, c);
}

tensor matmul(const tensor& a, const tensor& b) {
  APPEAL_CHECK(a.dims().rank() == 2 && b.dims().rank() == 2,
               "matmul expects rank-2 tensors");
  const std::size_t m = a.dims().dim(0);
  const std::size_t k = a.dims().dim(1);
  APPEAL_CHECK(b.dims().dim(0) == k,
               "matmul inner dimension mismatch: " + a.dims().to_string() +
                   " x " + b.dims().to_string());
  const std::size_t n = b.dims().dim(1);
  // The kernel fully overwrites C (beta == 0 writes, never reads), so the
  // zero-fill tensor(shape) would do is redundant — but std::vector has no
  // uninitialized-alloc path. sgemm itself no longer double-clears: beta
  // is applied at the tile store, in the same pass as the product.
  tensor c(shape{m, n});
  sgemm(m, n, k, 1.0F, a.data(), b.data(), 0.0F, c.data());
  return c;
}

}  // namespace appeal::ops
