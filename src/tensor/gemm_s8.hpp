// Quantized int8 GEMM — the compute kernel under the quantized edge path.
//
// C_f32 = epilogue(A_s8[m x k] * B_u8[k x n]) with int32 accumulators,
// following the same GotoBLAS-style packing contract as the float kernel
// (gemm.cpp): A is packed into MR-row panels, B into NR-column panels, and
// a register-tiled 6x8 microkernel runs the inner loop. Unlike the float
// kernel there is no KC blocking: the int32 accumulator tile must survive
// the whole k extent (the requantize epilogue applies exactly once), and
// at one byte per element a full-k panel pair stays cache-resident for
// every geometry the model zoo produces.
//
// Three kernels, picked once per process from what the CPU supports; each
// packs k in the groups its multiply instruction consumes:
//   - sse2 (baseline) and avx2: k-PAIRS for the i16 pair dot product
//     (pmaddwd / vpmaddwd). B codes are widened u8 -> i16 at pack time,
//     and each k-pair of an A row is one broadcastable i32 of two i16.
//     The microkernel writes the i32 tile to memory and a separate pass
//     requantizes it.
//   - avxvnni: k-QUADS for the u8 x s8 four-way dot product (VEX-encoded
//     256-bit vpdpbusd). B stays u8, four k codes per column adjacent, so
//     one panel quad (8 columns x 4) is one ymm; each k-quad of an A row
//     is one broadcast i32 of four s8 codes. The requantize epilogue runs
//     on the accumulator registers inside the same target-compiled block.
// Every kernel computes the same bits: the exact integer sum, then the
// same float epilogue. Each product is at most 255 * 127 = 32385 in
// magnitude and every kernel adds into its i32 accumulators with
// wrapping adds (paddd, or the accumulate inside vpdpbusd), so a sum
// whose total fits in i32 is exact even when a running sum passes 2^31
// on the way. vpdpbusd adds its four products to the accumulator with no
// intermediate saturation, so it fits that contract. Two u8 x s8 forms
// do not. vpmaddubsw saturates each PAIR sum to i16, and
// 2 * 255 * 127 = 64770 > 32767. vpdpbusds saturates the accumulator, so
// a running sum that passes 2^31 sticks at the bound. The requantize
// epilogue runs the same float operations in the same order in every
// kernel (convert, multiply, add, max, min; never FMA).
//
// Weights are constant, so A is packed ONCE into a packed_s8 in the
// process kernel's k-group (the layout stays private to gemm_s8.cpp), and
// every call packs only B.
//
// Quantization scheme (the cloud/edge collaborative convention of
// arXiv:1812.06426 and standard int8 deployments):
//   - weights A: symmetric per-row (= per output channel) s8 grids,
//     zero_point 0 (nn::quant_params with symmetric=true);
//   - activations B: one asymmetric per-tensor u8 grid with zero point z.
// Then real_C[i,j] = s_w[i]*s_act * (sum_k A[i,k]*B[k,j] - z*sum_k A[i,k]),
// so the epilogue needs one combined scale and one precomputed
// -z*row_sum(A) offset per row, plus the float bias and the activation
// clamp — requantize-on-store, fused into the one pass that touches C.
//
// Threading follows gemm.cpp: M-blocks split over the shared
// util::thread_pool (ops::gemm_threads()). Integer accumulation is exact,
// so results are bit-identical for every thread count by construction —
// and pinned by test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace appeal::ops {

/// Strided read-only view of the u8 activation matrix:
/// B(kk, j) = p[kk * row_stride + j * col_stride]. Covers both a plain
/// [k x n] panel (im2col columns) and a transposed [n x k] activation
/// block (qlinear reads x^T without materializing it).
struct u8_view {
  const std::uint8_t* p;
  std::size_t row_stride;
  std::size_t col_stride;
};

/// Requantize-on-store epilogue:
///   C[i,j] = clamp(scale[i] * (acc[i,j] + row_offset[i]) + bias[i]).
/// `scale` is required (per row: weight_scale * activation_scale);
/// `row_offset` is -z * row_sum(A) and may be null when the activation
/// zero point is 0; `bias` may be null; act_lo/act_hi fuse the following
/// ReLU/ReLU6 (defaults leave the value unclamped).
struct qgemm_epilogue {
  const float* scale = nullptr;
  const float* bias = nullptr;
  const std::int32_t* row_offset = nullptr;
  float act_lo = -std::numeric_limits<float>::infinity();
  float act_hi = std::numeric_limits<float>::infinity();
};

namespace detail {
struct packed_s8_access;
}

/// A row-major s8 matrix A[m x k] packed once into the panel layout of
/// the process's kernel. Opaque: only gemm_s8.cpp reads the panels.
class packed_s8 {
 public:
  packed_s8() = default;
  packed_s8(const std::int8_t* a, std::size_t m, std::size_t k);

  std::size_t rows() const { return m_; }
  std::size_t depth() const { return k_; }

 private:
  friend struct detail::packed_s8_access;
  std::size_t m_ = 0;
  std::size_t k_ = 0;
  std::size_t k_group_ = 0;  // k steps per packed i32: 2 or 4
  std::vector<std::int32_t> panels_;
};

/// C[m x n] = epilogue(A * B_u8[k x n]) with m = a.rows(), k = a.depth();
/// B an arbitrary-stride view, C stored at
/// c[i * c_row_stride + j * c_col_stride] (a transposed store writes the
/// qlinear output [n x m] without a separate pass). C regions of distinct
/// rows must not alias.
void qgemm_s8u8(const packed_s8& a, std::size_t n, const u8_view& b,
                const qgemm_epilogue& epi, float* c, std::size_t c_row_stride,
                std::size_t c_col_stride);

/// Same product for an unpacked row-major contiguous A[m x k]: packs A
/// into thread-local scratch, then runs the packed path.
void qgemm_s8u8(std::size_t m, std::size_t n, std::size_t k,
                const std::int8_t* a, const u8_view& b,
                const qgemm_epilogue& epi, float* c, std::size_t c_row_stride,
                std::size_t c_col_stride);

/// Name of the kernel qgemm_s8u8 runs in this process ("sse2", "avx2"
/// or "avxvnni").
const char* qgemm_kernel_name();

/// Quantizes n floats to an asymmetric u8 grid:
/// q = clamp(round(x / scale) + zero_point, 0, 255), round half away from
/// zero (matches nn::fake_quantize_value, so the real path and the
/// fake-quantized reference agree on every code).
void quantize_u8(const float* src, std::size_t n, float scale,
                 std::int32_t zero_point, std::uint8_t* dst);

/// Per-row sums of a row-major s8 matrix [m x k] — the epilogue's
/// row_offset is -zero_point * row_sum.
void s8_row_sums(const std::int8_t* a, std::size_t m, std::size_t k,
                 std::int32_t* sums);

}  // namespace appeal::ops
