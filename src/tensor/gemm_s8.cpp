#include "tensor/gemm_s8.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/gemm_s8_kernels.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

#include <emmintrin.h>
#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define APPEAL_QGEMM_AVX2 1
// _mm256_dpbusd_avx_epi32 (VEX-encoded AVX-VNNI) needs GCC 11 / Clang 12.
#if __GNUC__ >= 11 || __clang_major__ >= 12
#define APPEAL_QGEMM_AVXVNNI 1
#endif
#endif

namespace appeal::ops {

namespace {

using detail::packed_s8_access;

// Register-tile geometry, shared by every kernel. The sse2 and avx2
// kernels multiply with the pairwise i16 dot product (pmaddwd /
// vpmaddwd), which multiplies i16 lanes and horizontally adds adjacent
// pairs into i32 accumulators — two k steps per lane. Their panels are
// packed in interleaved k-PAIRS: B is zero-extended u8 -> i16 with the
// two k codes of each column adjacent, and A stores each row's k-pair as
// one i32 (low half = code at even k, high half = odd k), so a kernel
// broadcasts it straight into the multiplier. The avxvnni kernel's
// vpdpbusd multiplies u8 by s8 and adds groups of four into each i32
// lane, so its panels are packed in k-QUADS of raw codes: four u8 per B
// column, four s8 per A row. Either way one packed B group (8 columns x
// 2 i16, or 8 columns x 4 u8) is 32 bytes, one ymm. A 6x8 i32
// accumulator tile fills 12 of 16 xmm registers in the SSE2 kernel and 6
// ymm registers in the AVX2 and AVX-VNNI ones.
constexpr std::size_t MR = 6;
constexpr std::size_t NR = 8;
constexpr std::size_t MC = 120;   // multiple of MR
constexpr std::size_t NC = 2048;  // multiple of NR

std::size_t k_groups(std::size_t k, std::size_t group) {
  return (k + group - 1) / group;
}

/// Packs all m rows of A (row-major s8 [m x k]) into MR-row panels of i32
/// k-pair codes: ap[(r * kp + p) * MR + i] = pair(A(r*MR+i, 2p),
/// A(.., 2p+1)), zero-padded past the row edge and past odd k so the
/// microkernel never branches (a zero A code contributes 0 * B = 0).
void pack_a_pairs(const std::int8_t* a, std::size_t m, std::size_t k,
                  std::int32_t* ap) {
  const std::size_t kp = k_groups(k, 2);
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

/// Packs all m rows of A into MR-row panels of k-quads:
/// ap[(r * kq + g) * MR + i] holds A(r*MR+i, 4g + t) in byte t (little
/// endian), zero-padded past the row edge and past k. Those zeros make
/// the padded k steps contribute nothing whatever pack_b_quads puts
/// there.
void pack_a_quads(const std::int8_t* a, std::size_t m, std::size_t k,
                  std::int32_t* ap) {
  const std::size_t kq = k_groups(k, 4);
  for (std::size_t r = 0; r * MR < m; ++r) {
    const std::size_t rows = std::min(MR, m - r * MR);
    for (std::size_t g = 0; g < kq; ++g) {
      std::int32_t* dst = ap + (r * kq + g) * MR;
      std::size_t i = 0;
      for (; i < rows; ++i) {
        const std::int8_t* src = a + (r * MR + i) * k;
        std::uint32_t quad = 0;
        for (std::size_t t = 0; t < 4 && 4 * g + t < k; ++t) {
          quad |= static_cast<std::uint32_t>(
                      static_cast<std::uint8_t>(src[4 * g + t]))
                  << (8 * t);
        }
        dst[i] = static_cast<std::int32_t>(quad);
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
  const std::size_t kp = k_groups(k, 2);
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

/// Packs cols [j0, j0+nc) of the B view into NR-column u8 panels with the
/// four k codes of each column adjacent:
/// bp[(q * kq + g) * 4 * NR + 4 * j + t] =
///     B(min(4g + t, k - 1), j0 + q*NR + j).
/// Rows past k repeat row k - 1 rather than branch: A's zero padding
/// cancels them. Columns past the edge are zero; they only feed
/// accumulator lanes the store never writes. Full panels of a
/// unit-column-stride view interleave four 8-byte row loads with SSE2; a
/// transposed view (unit row stride) copies each column's quad whole.
void pack_b_quads(const u8_view& b, std::size_t j0, std::size_t nc,
                  std::size_t k, std::uint8_t* bp) {
  const std::size_t kq = k_groups(k, 4);
  for (std::size_t q = 0; q * NR < nc; ++q) {
    const std::size_t cols = std::min(NR, nc - q * NR);
    const std::size_t col0 = j0 + q * NR;
    const bool vector = cols == NR && b.col_stride == 1;
    for (std::size_t g = 0; g < kq; ++g) {
      std::uint8_t* dst = bp + (q * kq + g) * 4 * NR;
      const std::uint8_t* row[4];
      for (std::size_t t = 0; t < 4; ++t) {
        row[t] = b.p + std::min(4 * g + t, k - 1) * b.row_stride;
      }
      if (vector) {
        __m128i r[4];
        for (std::size_t t = 0; t < 4; ++t) {
          r[t] = _mm_loadl_epi64(
              reinterpret_cast<const __m128i*>(row[t] + col0));
        }
        const __m128i r01 = _mm_unpacklo_epi8(r[0], r[1]);
        const __m128i r23 = _mm_unpacklo_epi8(r[2], r[3]);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                         _mm_unpacklo_epi16(r01, r23));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16),
                         _mm_unpackhi_epi16(r01, r23));
        continue;
      }
      const bool whole_quad = b.row_stride == 1 && 4 * g + 4 <= k;
      for (std::size_t j = 0; j < cols; ++j) {
        const std::size_t col = (col0 + j) * b.col_stride;
        if (whole_quad) {
          std::memcpy(dst + 4 * j, row[0] + col, 4);
          continue;
        }
        for (std::size_t t = 0; t < 4; ++t) dst[4 * j + t] = row[t][col];
      }
      std::memset(dst + 4 * cols, 0, 4 * (NR - cols));
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

/// One MC-row block of the pair kernels: sweep the shared packed B panels
/// against this block's A panels, one microkernel call and one tile store
/// per 6x8 tile. Each block owns a disjoint row range of C; integer
/// accumulation is exact, so any thread assignment computes identical
/// bits.
template <void (*Micro)(std::size_t, const std::int32_t*,
                        const std::int16_t*, std::int32_t*)>
void m_block_pairs(const std::int32_t* ap, std::size_t i0, std::size_t mc,
                   std::size_t kp, std::size_t j0, std::size_t nc,
                   const void* packed_b, const qgemm_epilogue& epi, float* c,
                   std::size_t c_row_stride, std::size_t c_col_stride) {
  const auto* bp = static_cast<const std::int16_t*>(packed_b);
  alignas(64) std::int32_t acc[MR * NR];
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    const std::int16_t* bpanel = bp + (jr / NR) * kp * 2 * NR;
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      const std::size_t mr = std::min(MR, mc - ir);
      Micro(kp, ap + ((i0 + ir) / MR) * kp * MR, bpanel, acc);
      store_tile_q(c + (j0 + jr) * c_col_stride, c_row_stride, c_col_stride,
                   acc, i0 + ir, mr, nr, epi);
    }
  }
}

#if defined(APPEAL_QGEMM_AVXVNNI)
// The AVX-VNNI kernel: one vpdpbusd per tile row per k-quad (B as the
// unsigned operand, the broadcast A quad as the signed one), then the
// requantize epilogue on the accumulator registers. The epilogue runs the
// float operations of store_tile_q in its order — convert, multiply by
// the scale, add the bias, max with act_lo, min with act_hi — so every
// kernel stores the same bits. Every store stays inside this function, so
// no tile crosses into SSE-compiled code: a full contiguous row is one
// 256-bit store, a narrow one (nr < 8) a masked store, and a strided one
// (the transposed qlinear layout) goes through a spilled row. Compiled
// for AVX2 + AVX-VNNI (VEX-encoded ymm only, no FMA) regardless of the
// build flags and only ever called after the run-time CPU check.
__attribute__((target("avx2,avxvnni"))) void m_block_avxvnni(
    const std::int32_t* ap, std::size_t i0, std::size_t mc, std::size_t kq,
    std::size_t j0, std::size_t nc, const void* packed_b,
    const qgemm_epilogue& epi, float* c, std::size_t c_row_stride,
    std::size_t c_col_stride) {
  const auto* bp = static_cast<const std::uint8_t*>(packed_b);
  // The block's epilogue constants, with the optional vectors resolved
  // once instead of per tile.
  std::int32_t offset[MC];
  float bias[MC];
  for (std::size_t i = 0; i < mc; ++i) {
    offset[i] = epi.row_offset != nullptr ? epi.row_offset[i0 + i] : 0;
    bias[i] = epi.bias != nullptr ? epi.bias[i0 + i] : 0.0F;
  }
  const float* scale = epi.scale + i0;
  const __m256 lo = _mm256_set1_ps(epi.act_lo);
  const __m256 hi = _mm256_set1_ps(epi.act_hi);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    const bool full = nr == NR && c_col_stride == 1;
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(nr)), lane);
    const std::uint8_t* bpanel = bp + (jr / NR) * kq * 4 * NR;
    float* ctile = c + (j0 + jr) * c_col_stride;
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      const std::size_t mr = std::min(MR, mc - ir);
      const std::int32_t* aq = ap + ((i0 + ir) / MR) * kq * MR;
      const std::uint8_t* bq = bpanel;
      __m256i acc[MR];
#pragma GCC unroll 6
      for (std::size_t i = 0; i < MR; ++i) acc[i] = _mm256_setzero_si256();
      for (std::size_t g = 0; g < kq; ++g, aq += MR, bq += 4 * NR) {
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bq));
#pragma GCC unroll 6
        for (std::size_t i = 0; i < MR; ++i) {
          acc[i] = _mm256_dpbusd_avx_epi32(acc[i], vb,
                                           _mm256_set1_epi32(aq[i]));
        }
      }
#pragma GCC unroll 6
      for (std::size_t i = 0; i < MR; ++i) {
        if (i >= mr) break;
        const std::size_t r = ir + i;
        const __m256i sum =
            _mm256_add_epi32(acc[i], _mm256_set1_epi32(offset[r]));
        const __m256 v = _mm256_add_ps(
            _mm256_mul_ps(_mm256_set1_ps(scale[r]), _mm256_cvtepi32_ps(sum)),
            _mm256_set1_ps(bias[r]));
        const __m256 out = _mm256_min_ps(hi, _mm256_max_ps(lo, v));
        float* crow = ctile + (i0 + r) * c_row_stride;
        if (full) {
          _mm256_storeu_ps(crow, out);
        } else if (c_col_stride == 1) {
          _mm256_maskstore_ps(crow, mask, out);
        } else {
          alignas(32) float row[NR];
          _mm256_store_ps(row, out);
          for (std::size_t j = 0; j < nr; ++j) crow[j * c_col_stride] = row[j];
        }
      }
    }
  }
}
#endif

/// The shared pool runs one job at a time; concurrent quantized GEMMs
/// (several serve::engine workers) fall back to single-threaded execution
/// instead of queueing — same policy as the float kernel.
std::mutex qgemm_pool_mutex;

/// The kernel qgemm_s8u8 dispatches to, picked once per process.
const detail::qgemm_kernel& host_kernel() {
  return detail::host_qgemm_kernels().back();
}

}  // namespace

namespace detail {

void packed_s8_access::pack(packed_s8& dst, const std::int8_t* a,
                            std::size_t m, std::size_t k,
                            std::size_t k_group) {
  APPEAL_CHECK(k_group == 2 || k_group == 4,
               "packed_s8: k-group must be 2 or 4, got " +
                   std::to_string(k_group));
  dst.m_ = m;
  dst.k_ = k;
  dst.k_group_ = k_group;
  dst.panels_.resize(((m + MR - 1) / MR) * k_groups(k, k_group) * MR);
  if (k_group == 4) {
    pack_a_quads(a, m, k, dst.panels_.data());
  } else {
    pack_a_pairs(a, m, k, dst.panels_.data());
  }
}

const std::vector<qgemm_kernel>& host_qgemm_kernels() {
  static const std::vector<qgemm_kernel> kernels = [] {
    std::vector<qgemm_kernel> out{
        {"sse2", 2, m_block_pairs<micro_kernel_sse2>}};
#if defined(APPEAL_QGEMM_AVX2)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      out.push_back({"avx2", 2, m_block_pairs<micro_kernel_avx2>});
#if defined(APPEAL_QGEMM_AVXVNNI)
      if (__builtin_cpu_supports("avxvnni")) {
        out.push_back({"avxvnni", 4, m_block_avxvnni});
      }
#endif
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
  APPEAL_CHECK(packed_s8_access::k_group(a) == kernel.k_group,
               std::string("qgemm: weights packed in k-groups of ") +
                   std::to_string(packed_s8_access::k_group(a)) +
                   ", kernel " + kernel.name + " reads groups of " +
                   std::to_string(kernel.k_group));

  // k == 0 needs no special case: no k-groups, zero accumulators, and the
  // store writes the epilogue constant.
  const std::size_t groups = k_groups(k, kernel.k_group);
  const std::int32_t* ap = packed_s8_access::panels(a);
  thread_local std::vector<std::int16_t> bpairs;
  thread_local std::vector<std::uint8_t> bquads;
  const std::size_t threads = gemm_threads();
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    const std::size_t panels = (nc + NR - 1) / NR;
    // Name the caller's packed-B pointer in a local so pool workers see
    // THIS thread's buffer, not their own thread_local.
    const void* packed_b = nullptr;
    if (kernel.k_group == 4) {
      bquads.resize(panels * groups * 4 * NR);
      pack_b_quads(b, jc, nc, k, bquads.data());
      packed_b = bquads.data();
    } else {
      bpairs.resize(panels * groups * 2 * NR);
      pack_b_pairs(b, jc, nc, k, bpairs.data());
      packed_b = bpairs.data();
    }

    const std::size_t blocks = (m + MC - 1) / MC;
    const auto run_block = [&](std::size_t blk) {
      const std::size_t i0 = blk * MC;
      kernel.m_block(ap, i0, std::min(MC, m - i0), groups, jc, nc, packed_b,
                     epi, c, c_row_stride, c_col_stride);
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
  detail::packed_s8_access::pack(*this, a, m, k, host_kernel().k_group);
}

void qgemm_s8u8(const packed_s8& a, std::size_t n, const u8_view& b,
                const qgemm_epilogue& epi, float* c, std::size_t c_row_stride,
                std::size_t c_col_stride) {
  detail::qgemm_s8u8_with(host_kernel(), a, n, b, epi, c, c_row_stride,
                          c_col_stride);
}

const char* qgemm_kernel_name() { return host_kernel().name; }

void qgemm_s8u8(std::size_t m, std::size_t n, std::size_t k,
                const std::int8_t* a, const u8_view& b,
                const qgemm_epilogue& epi, float* c, std::size_t c_row_stride,
                std::size_t c_col_stride) {
  thread_local packed_s8 scratch;
  detail::packed_s8_access::pack(scratch, a, m, k, host_kernel().k_group);
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
  // Groups of four (the served planes of 2x2 and 4x4 positions).
  for (; i + 4 <= n; i += 4) {
    const __m128 x = _mm_mul_ps(_mm_loadu_ps(src + i), vinv);
    const __m128 half = _mm_or_ps(vhalf, _mm_and_ps(x, vsign));
    const __m128i q =
        _mm_add_epi32(_mm_cvttps_epi32(_mm_add_ps(x, half)), vzp);
    const __m128i words = _mm_packs_epi32(q, q);
    const std::int32_t codes =
        _mm_cvtsi128_si32(_mm_packus_epi16(words, words));
    std::memcpy(dst + i, &codes, 4);
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
