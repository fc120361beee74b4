#include "tensor/gemm_s8.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/gemm_s8_kernels.hpp"
#include "util/thread_pool.hpp"

#include <emmintrin.h>
#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define APPEAL_QGEMM_AVX2 1
#endif

namespace appeal::ops {

namespace detail {

/// The one place outside packed_s8 that sees its panels.
struct packed_s8_access {
  static void pack(packed_s8& dst, const std::int8_t* a, std::size_t m,
                   std::size_t k);
  static const std::int32_t* panels(const packed_s8& p) {
    return p.panels_.data();
  }
};

}  // namespace detail

namespace {

// Register-tile geometry. The workhorse is the pairwise i16 dot product
// (pmaddwd / vpmaddwd), which multiplies i16 lanes and horizontally adds
// adjacent pairs into i32 accumulators — two k steps per lane. Both
// panels are therefore packed in interleaved k-PAIRS: B is zero-extended
// u8 -> i16 with the two k codes of each column adjacent, and A stores
// each row's k-pair as one i32 (low half = code at even k, high half =
// odd k), so a kernel broadcasts it straight into the multiplier. A 6x8
// i32 accumulator tile fills 12 of 16 xmm registers in the SSE2 kernel
// and 6 ymm registers in the AVX2 one, whose single 256-bit B load covers
// a whole panel k-pair.
constexpr std::size_t MR = 6;
constexpr std::size_t NR = 8;
constexpr std::size_t MC = 120;   // multiple of MR
constexpr std::size_t NC = 2048;  // multiple of NR

std::size_t k_pairs(std::size_t k) { return (k + 1) / 2; }

/// Packs all m rows of A (row-major s8 [m x k]) into MR-row panels of i32
/// k-pair codes: ap[(r * kp + p) * MR + i] = pair(A(r*MR+i, 2p),
/// A(.., 2p+1)), zero-padded past the row edge and past odd k so the
/// microkernel never branches (a zero A code contributes 0 * B = 0).
void pack_a_pairs(const std::int8_t* a, std::size_t m, std::size_t k,
                  std::int32_t* ap) {
  const std::size_t kp = k_pairs(k);
  for (std::size_t r = 0; r * MR < m; ++r) {
    const std::size_t rows = std::min(MR, m - r * MR);
    for (std::size_t p = 0; p < kp; ++p) {
      std::int32_t* dst = ap + (r * kp + p) * MR;
      std::size_t i = 0;
      for (; i < rows; ++i) {
        const std::int8_t* src = a + (r * MR + i) * k;
        const std::int32_t a0 = src[2 * p];
        const std::int32_t a1 =
            2 * p + 1 < k ? static_cast<std::int32_t>(src[2 * p + 1]) : 0;
        dst[i] = static_cast<std::int32_t>(
                     static_cast<std::uint16_t>(static_cast<std::int16_t>(a0))) |
                 (a1 << 16);
      }
      for (; i < MR; ++i) dst[i] = 0;
    }
  }
}

/// Packs cols [j0, j0+nc) of the B view into NR-column i16 panels with the
/// k pairs of each column interleaved:
/// bp[(q * kp + p) * 2 * NR + 2 * j + t] = B(2p + t, j0 + q*NR + j),
/// zero-padded past the column edge and past odd k. Padded columns only
/// feed accumulator lanes the store pass never reads. Full panels of a
/// unit-column-stride view interleave two 8-byte row loads with SSE2.
void pack_b_pairs(const u8_view& b, std::size_t j0, std::size_t nc,
                  std::size_t k, std::int16_t* bp) {
  const std::size_t kp = k_pairs(k);
  const __m128i zero = _mm_setzero_si128();
  for (std::size_t q = 0; q * NR < nc; ++q) {
    const std::size_t cols = std::min(NR, nc - q * NR);
    const bool vector = cols == NR && b.col_stride == 1;
    for (std::size_t p = 0; p < kp; ++p) {
      std::int16_t* dst = bp + (q * kp + p) * 2 * NR;
      const std::uint8_t* row0 = b.p + (2 * p) * b.row_stride;
      const std::uint8_t* row1 = row0 + b.row_stride;
      const bool has_odd = 2 * p + 1 < k;
      if (vector) {
        const std::size_t col = j0 + q * NR;
        const __m128i r0 =
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row0 + col));
        const __m128i r1 =
            has_odd
                ? _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row1 + col))
                : zero;
        const __m128i pairs = _mm_unpacklo_epi8(r0, r1);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                         _mm_unpacklo_epi8(pairs, zero));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + NR),
                         _mm_unpackhi_epi8(pairs, zero));
        continue;
      }
      std::size_t j = 0;
      for (; j < cols; ++j) {
        const std::size_t col = (j0 + q * NR + j) * b.col_stride;
        dst[2 * j] = static_cast<std::int16_t>(row0[col]);
        dst[2 * j + 1] =
            has_odd ? static_cast<std::int16_t>(row1[col]) : std::int16_t{0};
      }
      for (; j < NR; ++j) {
        dst[2 * j] = 0;
        dst[2 * j + 1] = 0;
      }
    }
  }
}

// acc_i32[MR][NR] = Apanel * Bpanel over all kp k-pairs. Products are at
// most 127 * 255, so an i16 x i16 multiply is exact and the pairwise i32
// add cannot overflow; i32 accumulation is exact for every k the model
// zoo produces (overflow needs k > 2^31 / 32385). (The u8 x s8
// vpmaddubsw would halve the B panel, but its i16 pair sums saturate at
// 2 * 255 * 127 and break exactness.)
void micro_kernel_sse2(std::size_t kp, const std::int32_t* ap,
                       const std::int16_t* bp, std::int32_t* acc) {
  __m128i acc0[MR];
  __m128i acc1[MR];
  for (std::size_t i = 0; i < MR; ++i) {
    acc0[i] = _mm_setzero_si128();
    acc1[i] = _mm_setzero_si128();
  }
  for (std::size_t p = 0; p < kp; ++p, ap += MR, bp += 2 * NR) {
    const __m128i vb0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp));
    const __m128i vb1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp + NR));
    for (std::size_t i = 0; i < MR; ++i) {
      const __m128i va = _mm_set1_epi32(ap[i]);
      acc0[i] = _mm_add_epi32(acc0[i], _mm_madd_epi16(va, vb0));
      acc1[i] = _mm_add_epi32(acc1[i], _mm_madd_epi16(va, vb1));
    }
  }
  for (std::size_t i = 0; i < MR; ++i) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + i * NR), acc0[i]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + i * NR + 4), acc1[i]);
  }
}

#if defined(APPEAL_QGEMM_AVX2)
// Same panels, same integer arithmetic: one 256-bit load is a whole B
// k-pair, so each row needs one vpmaddwd instead of two pmaddwd. Compiled
// for AVX2 regardless of the build flags and only ever called after the
// run-time CPU check.
__attribute__((target("avx2"))) void micro_kernel_avx2(
    std::size_t kp, const std::int32_t* ap, const std::int16_t* bp,
    std::int32_t* acc) {
  __m256i c[MR];
  for (std::size_t i = 0; i < MR; ++i) c[i] = _mm256_setzero_si256();
  for (std::size_t p = 0; p < kp; ++p, ap += MR, bp += 2 * NR) {
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
    for (std::size_t i = 0; i < MR; ++i) {
      c[i] = _mm256_add_epi32(
          c[i], _mm256_madd_epi16(_mm256_set1_epi32(ap[i]), vb));
    }
  }
  for (std::size_t i = 0; i < MR; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i * NR), c[i]);
  }
}
#endif

/// Requantize-on-store: one pass applies offset, scale, bias, and the
/// fused activation clamp, then writes C through the strided layout.
/// Full rows of a unit-column-stride C take SSE; both paths run the same
/// float operations (convert, multiply, add, then max/min with the
/// operand order of std::max/std::min), so they agree bit for bit.
void store_tile_q(float* c, std::size_t c_row_stride, std::size_t c_col_stride,
                  const std::int32_t* acc, std::size_t i_global,
                  std::size_t mr, std::size_t nr, const qgemm_epilogue& epi) {
  const bool vector = nr == NR && c_col_stride == 1;
  const __m128 lo = _mm_set1_ps(epi.act_lo);
  const __m128 hi = _mm_set1_ps(epi.act_hi);
  for (std::size_t i = 0; i < mr; ++i) {
    const std::size_t row = i_global + i;
    const std::int32_t off =
        epi.row_offset != nullptr ? epi.row_offset[row] : 0;
    const float scale = epi.scale[row];
    const float bias = epi.bias != nullptr ? epi.bias[row] : 0.0F;
    const std::int32_t* arow = acc + i * NR;
    float* crow = c + row * c_row_stride;
    if (vector) {
      const __m128i voff = _mm_set1_epi32(off);
      const __m128 vscale = _mm_set1_ps(scale);
      const __m128 vbias = _mm_set1_ps(bias);
      for (std::size_t j = 0; j < NR; j += 4) {
        const __m128i sum = _mm_add_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(arow + j)),
            voff);
        const __m128 v = _mm_add_ps(_mm_mul_ps(vscale, _mm_cvtepi32_ps(sum)),
                                    vbias);
        _mm_storeu_ps(crow + j, _mm_min_ps(hi, _mm_max_ps(lo, v)));
      }
      continue;
    }
    for (std::size_t j = 0; j < nr; ++j) {
      float v = scale * static_cast<float>(arow[j] + off) + bias;
      v = std::min(std::max(v, epi.act_lo), epi.act_hi);
      crow[j * c_col_stride] = v;
    }
  }
}

/// One MC-row block: sweep the shared packed B panels against this
/// block's A panels. Each block owns a disjoint row range of C; integer
/// accumulation is exact, so any thread assignment computes identical
/// bits.
void run_m_block_q(detail::qgemm_micro_kernel kernel, const std::int32_t* ap,
                   std::size_t i0, std::size_t mc, std::size_t kp,
                   std::size_t j0, std::size_t nc, const std::int16_t* bp,
                   const qgemm_epilogue& epi, float* c,
                   std::size_t c_row_stride, std::size_t c_col_stride) {
  alignas(64) std::int32_t acc[MR * NR];
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    const std::int16_t* bpanel = bp + (jr / NR) * kp * 2 * NR;
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      const std::size_t mr = std::min(MR, mc - ir);
      kernel(kp, ap + ((i0 + ir) / MR) * kp * MR, bpanel, acc);
      store_tile_q(c + (j0 + jr) * c_col_stride, c_row_stride, c_col_stride,
                   acc, i0 + ir, mr, nr, epi);
    }
  }
}

/// The shared pool runs one job at a time; concurrent quantized GEMMs
/// (several serve::engine workers) fall back to single-threaded execution
/// instead of queueing — same policy as the float kernel.
std::mutex qgemm_pool_mutex;

}  // namespace

namespace detail {

void packed_s8_access::pack(packed_s8& dst, const std::int8_t* a,
                            std::size_t m, std::size_t k) {
  dst.m_ = m;
  dst.k_ = k;
  dst.panels_.resize(((m + MR - 1) / MR) * k_pairs(k) * MR);
  pack_a_pairs(a, m, k, dst.panels_.data());
}

const std::vector<qgemm_kernel>& host_qgemm_kernels() {
  static const std::vector<qgemm_kernel> kernels = [] {
    std::vector<qgemm_kernel> out{{"sse2", micro_kernel_sse2}};
#if defined(APPEAL_QGEMM_AVX2)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      out.push_back({"avx2", micro_kernel_avx2});
    }
#endif
    return out;
  }();
  return kernels;
}

void qgemm_s8u8_with(const qgemm_kernel& kernel, const packed_s8& a,
                     std::size_t n, const u8_view& b,
                     const qgemm_epilogue& epi, float* c,
                     std::size_t c_row_stride, std::size_t c_col_stride) {
  const std::size_t m = a.rows();
  const std::size_t k = a.depth();
  if (m == 0 || n == 0) return;

  // k == 0 needs no special case: no k-pairs, zero accumulators, and the
  // store writes the epilogue constant.
  const std::size_t kp = k_pairs(k);
  const std::int32_t* ap = packed_s8_access::panels(a);
  thread_local std::vector<std::int16_t> bpack;
  const std::size_t threads = gemm_threads();
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    bpack.resize(((nc + NR - 1) / NR) * kp * 2 * NR);
    pack_b_pairs(b, jc, nc, k, bpack.data());

    const std::size_t blocks = (m + MC - 1) / MC;
    // Name the caller's packed-B pointer in a local so pool workers see
    // THIS thread's buffer, not their own thread_local.
    const std::int16_t* packed_b = bpack.data();
    const auto run_block = [&](std::size_t blk) {
      const std::size_t i0 = blk * MC;
      run_m_block_q(kernel.run, ap, i0, std::min(MC, m - i0), kp, jc, nc,
                    packed_b, epi, c, c_row_stride, c_col_stride);
    };
    if (threads > 1 && blocks > 1) {
      std::unique_lock<std::mutex> pool_lock(qgemm_pool_mutex,
                                             std::try_to_lock);
      if (pool_lock.owns_lock()) {
        util::thread_pool::shared().parallel_for(blocks, run_block);
        continue;
      }
    }
    for (std::size_t blk = 0; blk < blocks; ++blk) run_block(blk);
  }
}

}  // namespace detail

packed_s8::packed_s8(const std::int8_t* a, std::size_t m, std::size_t k) {
  detail::packed_s8_access::pack(*this, a, m, k);
}

void qgemm_s8u8(const packed_s8& a, std::size_t n, const u8_view& b,
                const qgemm_epilogue& epi, float* c, std::size_t c_row_stride,
                std::size_t c_col_stride) {
  static const detail::qgemm_kernel kernel =
      detail::host_qgemm_kernels().back();
  detail::qgemm_s8u8_with(kernel, a, n, b, epi, c, c_row_stride,
                          c_col_stride);
}

void qgemm_s8u8(std::size_t m, std::size_t n, std::size_t k,
                const std::int8_t* a, const u8_view& b,
                const qgemm_epilogue& epi, float* c, std::size_t c_row_stride,
                std::size_t c_col_stride) {
  thread_local packed_s8 scratch;
  detail::packed_s8_access::pack(scratch, a, m, k);
  qgemm_s8u8(scratch, n, b, epi, c, c_row_stride, c_col_stride);
}

void quantize_u8(const float* src, std::size_t n, float scale,
                 std::int32_t zero_point, std::uint8_t* dst) {
  const float inv = 1.0F / scale;
  // Round half away from zero — the same tie behaviour as
  // nn::fake_quantize_value's lround, so real and fake paths agree on
  // every code. Vectorized as trunc(x + copysign(0.5, x)): identical
  // operations to the scalar tail (multiply, +-0.5, truncate), so both
  // paths produce the same code for every input. The two saturating
  // packs (i32 -> i16 -> u8) implement the [0, 255] clamp.
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128 vhalf = _mm_set1_ps(0.5F);
  const __m128 vsign = _mm_set1_ps(-0.0F);
  const __m128i vzp = _mm_set1_epi32(zero_point);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i q[4];
    for (int v = 0; v < 4; ++v) {
      const __m128 x = _mm_mul_ps(_mm_loadu_ps(src + i + 4 * v), vinv);
      const __m128 half = _mm_or_ps(vhalf, _mm_and_ps(x, vsign));
      q[v] = _mm_add_epi32(_mm_cvttps_epi32(_mm_add_ps(x, half)), vzp);
    }
    const __m128i lo = _mm_packs_epi32(q[0], q[1]);
    const __m128i hi = _mm_packs_epi32(q[2], q[3]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_packus_epi16(lo, hi));
  }
  for (; i < n; ++i) {
    const float scaled = src[i] * inv;
    const float rounded =
        scaled >= 0.0F ? scaled + 0.5F : scaled - 0.5F;
    std::int32_t q = static_cast<std::int32_t>(rounded) + zero_point;
    q = std::min(std::max(q, 0), 255);
    dst[i] = static_cast<std::uint8_t>(q);
  }
}

void s8_row_sums(const std::int8_t* a, std::size_t m, std::size_t k,
                 std::int32_t* sums) {
  for (std::size_t i = 0; i < m; ++i) {
    const std::int8_t* row = a + i * k;
    std::int32_t acc = 0;
    for (std::size_t kk = 0; kk < k; ++kk) acc += row[kk];
    sums[i] = acc;
  }
}

}  // namespace appeal::ops
