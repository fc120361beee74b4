// Tests for the GEMM kernels against a naive reference, across shapes and
// alpha/beta combinations.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/gemm_s8.hpp"
#include "tensor/gemm_s8_kernels.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using appeal::shape;
using appeal::tensor;
namespace ops = appeal::ops;

std::vector<float> random_matrix(std::size_t rows, std::size_t cols,
                                 appeal::util::rng& gen) {
  std::vector<float> out(rows * cols);
  for (auto& v : out) v = gen.uniform(-1.0F, 1.0F);
  return out;
}

void naive_gemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
                const float* a, const float* b, float beta, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      }
      c[i * n + j] = static_cast<float>(alpha * acc + beta * c[i * n + j]);
    }
  }
}

float max_diff(const std::vector<float>& a, const std::vector<float>& b) {
  float worst = 0.0F;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

/// Parameterized over (m, n, k) including degenerate and blocking-boundary
/// sizes.
class gemm_shapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(gemm_shapes, sgemm_matches_naive) {
  const auto [mi, ni, ki] = GetParam();
  const auto m = static_cast<std::size_t>(mi);
  const auto n = static_cast<std::size_t>(ni);
  const auto k = static_cast<std::size_t>(ki);
  appeal::util::rng gen(m * 1000 + n * 100 + k);

  const auto a = random_matrix(m, k, gen);
  const auto b = random_matrix(k, n, gen);
  auto c_ref = random_matrix(m, n, gen);
  auto c = c_ref;

  ops::sgemm(m, n, k, 1.3F, a.data(), b.data(), 0.7F, c.data());
  naive_gemm(m, n, k, 1.3F, a.data(), b.data(), 0.7F, c_ref.data());
  EXPECT_LE(max_diff(c, c_ref), 1e-3F * static_cast<float>(k));
}

TEST_P(gemm_shapes, sgemm_at_matches_transposed_input) {
  const auto [mi, ni, ki] = GetParam();
  const auto m = static_cast<std::size_t>(mi);
  const auto n = static_cast<std::size_t>(ni);
  const auto k = static_cast<std::size_t>(ki);
  appeal::util::rng gen(m + n + k);

  // A stored [k x m]; compare against naive on the explicit transpose.
  const auto a_t = random_matrix(k, m, gen);
  std::vector<float> a(m * k);
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t i = 0; i < m; ++i) a[i * k + kk] = a_t[kk * m + i];
  }
  const auto b = random_matrix(k, n, gen);
  std::vector<float> c(m * n, 0.0F);
  std::vector<float> c_ref(m * n, 0.0F);

  ops::sgemm_at(m, n, k, 1.0F, a_t.data(), b.data(), 0.0F, c.data());
  naive_gemm(m, n, k, 1.0F, a.data(), b.data(), 0.0F, c_ref.data());
  EXPECT_LE(max_diff(c, c_ref), 1e-3F * static_cast<float>(k));
}

TEST_P(gemm_shapes, sgemm_bt_matches_transposed_input) {
  const auto [mi, ni, ki] = GetParam();
  const auto m = static_cast<std::size_t>(mi);
  const auto n = static_cast<std::size_t>(ni);
  const auto k = static_cast<std::size_t>(ki);
  appeal::util::rng gen(3 * m + 5 * n + 7 * k);

  const auto a = random_matrix(m, k, gen);
  // B stored [n x k].
  const auto b_t = random_matrix(n, k, gen);
  std::vector<float> b(k * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t kk = 0; kk < k; ++kk) b[kk * n + j] = b_t[j * k + kk];
  }
  std::vector<float> c(m * n, 0.0F);
  std::vector<float> c_ref(m * n, 0.0F);

  ops::sgemm_bt(m, n, k, 1.0F, a.data(), b_t.data(), 0.0F, c.data());
  naive_gemm(m, n, k, 1.0F, a.data(), b.data(), 0.0F, c_ref.data());
  EXPECT_LE(max_diff(c, c_ref), 1e-3F * static_cast<float>(k));
}

INSTANTIATE_TEST_SUITE_P(
    sizes, gemm_shapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16), std::make_tuple(1, 64, 9),
                      std::make_tuple(65, 7, 129),   // crosses block_m/block_k
                      std::make_tuple(64, 257, 128), // exactly at block sizes
                      std::make_tuple(31, 300, 5)));

// Randomized rectangular / ragged shapes across both the small-kernel and
// the packed-kernel dispatch, all three layouts, against the naive
// reference.
TEST(gemm, randomized_shapes_match_naive) {
  appeal::util::rng gen(2024);
  for (int iter = 0; iter < 60; ++iter) {
    const auto m = static_cast<std::size_t>(gen.uniform_int(1, 90));
    const auto n = static_cast<std::size_t>(gen.uniform_int(1, 90));
    const auto k = static_cast<std::size_t>(gen.uniform_int(1, 90));
    const float alpha = gen.uniform(0.5F, 1.5F);
    const float beta = gen.bernoulli(0.5) ? 0.0F : gen.uniform(0.2F, 1.2F);

    const auto a = random_matrix(m, k, gen);
    const auto b = random_matrix(k, n, gen);
    auto c_ref = random_matrix(m, n, gen);
    auto c = c_ref;
    ops::sgemm(m, n, k, alpha, a.data(), b.data(), beta, c.data());
    naive_gemm(m, n, k, alpha, a.data(), b.data(), beta, c_ref.data());
    ASSERT_LE(max_diff(c, c_ref), 1e-3F * static_cast<float>(k))
        << "sgemm " << m << "x" << n << "x" << k;

    // A^T layout: a_t stored [k x m] with a_t[kk*m + i] = A(i, kk).
    std::vector<float> a_t(m * k);
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t i = 0; i < m; ++i) a_t[kk * m + i] = a[i * k + kk];
    }
    auto c_at = random_matrix(m, n, gen);
    auto c_at_ref = c_at;
    ops::sgemm_at(m, n, k, alpha, a_t.data(), b.data(), beta, c_at.data());
    naive_gemm(m, n, k, alpha, a.data(), b.data(), beta, c_at_ref.data());
    ASSERT_LE(max_diff(c_at, c_at_ref), 1e-3F * static_cast<float>(k))
        << "sgemm_at " << m << "x" << n << "x" << k;

    // B^T layout: b_t stored [n x k] with b_t[j*k + kk] = B(kk, j).
    std::vector<float> b_t(n * k);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t kk = 0; kk < k; ++kk) b_t[j * k + kk] = b[kk * n + j];
    }
    auto c_bt = random_matrix(m, n, gen);
    auto c_bt_ref = c_bt;
    ops::sgemm_bt(m, n, k, alpha, a.data(), b_t.data(), beta, c_bt.data());
    naive_gemm(m, n, k, alpha, a.data(), b.data(), beta, c_bt_ref.data());
    ASSERT_LE(max_diff(c_bt, c_bt_ref), 1e-3F * static_cast<float>(k))
        << "sgemm_bt " << m << "x" << n << "x" << k;
  }
}

// The determinism contract: bit-identical C for every thread count. The M
// dimension spans several MC blocks so the parallel path actually engages.
TEST(gemm, results_bit_stable_across_thread_counts) {
  const std::size_t m = 512, n = 96, k = 160;
  appeal::util::rng gen(7);
  const auto a = random_matrix(m, k, gen);
  const auto b = random_matrix(k, n, gen);

  const std::size_t original = ops::gemm_threads();
  std::vector<std::vector<float>> results;
  for (const std::size_t threads : {1, 2, 4}) {
    ops::set_gemm_threads(threads);
    std::vector<float> c(m * n, -1.0F);
    ops::sgemm(m, n, k, 1.0F, a.data(), b.data(), 0.0F, c.data());
    results.push_back(std::move(c));
  }
  ops::set_gemm_threads(original);

  for (std::size_t r = 1; r < results.size(); ++r) {
    for (std::size_t i = 0; i < results[0].size(); ++i) {
      ASSERT_EQ(results[0][i], results[r][i])
          << "thread-count run " << r << " diverged at element " << i;
    }
  }
}

TEST(gemm, beta_zero_overwrites_garbage) {
  // C may contain NaN-like garbage; beta = 0 must ignore it.
  std::vector<float> a{1.0F};
  std::vector<float> b{2.0F};
  std::vector<float> c{std::numeric_limits<float>::quiet_NaN()};
  ops::sgemm(1, 1, 1, 1.0F, a.data(), b.data(), 0.0F, c.data());
  EXPECT_EQ(c[0], 2.0F);
}

TEST(gemm, alpha_zero_only_scales_c) {
  std::vector<float> a{1.0F};
  std::vector<float> b{2.0F};
  std::vector<float> c{4.0F};
  ops::sgemm(1, 1, 1, 0.0F, a.data(), b.data(), 0.5F, c.data());
  EXPECT_EQ(c[0], 2.0F);
}

TEST(gemm, matmul_identity) {
  appeal::util::rng gen(9);
  const tensor m = tensor::randn(shape{4, 4}, gen);
  tensor eye(shape{4, 4});
  for (std::size_t i = 0; i < 4; ++i) eye[i * 4 + i] = 1.0F;
  const tensor out = ops::matmul(m, eye);
  EXPECT_LE(ops::max_abs_diff(out, m), 1e-6F);
}

TEST(gemm, matmul_validates_shapes) {
  const tensor a(shape{2, 3});
  const tensor b(shape{4, 2});
  EXPECT_THROW(ops::matmul(a, b), appeal::util::error);
  EXPECT_THROW(ops::matmul(a, tensor(shape{3})), appeal::util::error);
}

// ---------------------------------------------------------------------------
// Quantized int8 GEMM (tensor/gemm_s8).

/// Scalar reference for qgemm_s8u8: plain int32 accumulation plus the
/// requantize epilogue, no packing, no blocking.
void naive_qgemm(std::size_t m, std::size_t n, std::size_t k,
                 const std::int8_t* a, const ops::u8_view& b,
                 const ops::qgemm_epilogue& epi, float* c,
                 std::size_t c_row_stride, std::size_t c_col_stride) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<std::int32_t>(a[i * k + kk]) *
               static_cast<std::int32_t>(
                   b.p[kk * b.row_stride + j * b.col_stride]);
      }
      const std::int32_t off =
          epi.row_offset != nullptr ? epi.row_offset[i] : 0;
      const float bias = epi.bias != nullptr ? epi.bias[i] : 0.0F;
      float v = epi.scale[i] * static_cast<float>(acc + off) + bias;
      v = std::min(std::max(v, epi.act_lo), epi.act_hi);
      c[i * c_row_stride + j * c_col_stride] = v;
    }
  }
}

std::vector<std::int8_t> random_s8(std::size_t count, appeal::util::rng& gen) {
  std::vector<std::int8_t> out(count);
  for (auto& v : out) v = static_cast<std::int8_t>(gen.uniform_int(-127, 127));
  return out;
}

std::vector<std::uint8_t> random_u8(std::size_t count, appeal::util::rng& gen) {
  std::vector<std::uint8_t> out(count);
  for (auto& v : out) v = static_cast<std::uint8_t>(gen.uniform_int(0, 255));
  return out;
}

// Randomized shapes crossing the small-kernel/packed-kernel dispatch and
// the MR/NR/MC block edges, with the full epilogue (scale + bias +
// row_offset + clamp), against the scalar reference. Integer arithmetic is
// exact, so the comparison is equality on every element.
TEST(qgemm, randomized_shapes_match_naive) {
  appeal::util::rng gen(1812);
  for (int iter = 0; iter < 50; ++iter) {
    const auto m = static_cast<std::size_t>(gen.uniform_int(1, 200));
    const auto n = static_cast<std::size_t>(gen.uniform_int(1, 80));
    const auto k = static_cast<std::size_t>(gen.uniform_int(1, 120));

    const auto a = random_s8(m * k, gen);
    const auto bbuf = random_u8(k * n, gen);
    const ops::u8_view b{bbuf.data(), n, 1};

    std::vector<float> scale(m);
    std::vector<float> bias(m);
    std::vector<std::int32_t> off(m);
    for (std::size_t i = 0; i < m; ++i) {
      scale[i] = gen.uniform(1e-4F, 1e-2F);
      bias[i] = gen.uniform(-1.0F, 1.0F);
      off[i] = gen.uniform_int(-5000, 5000);
    }
    ops::qgemm_epilogue epi;
    epi.scale = scale.data();
    epi.bias = bias.data();
    epi.row_offset = off.data();
    if (gen.bernoulli(0.5)) {
      epi.act_lo = 0.0F;  // fused ReLU
      if (gen.bernoulli(0.5)) epi.act_hi = 6.0F;
    }

    std::vector<float> c(m * n, -42.0F);
    std::vector<float> c_ref(m * n, -42.0F);
    ops::qgemm_s8u8(m, n, k, a.data(), b, epi, c.data(), n, 1);
    naive_qgemm(m, n, k, a.data(), b, epi, c_ref.data(), n, 1);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(c[i], c_ref[i])
          << "qgemm " << m << "x" << n << "x" << k << " element " << i;
    }
  }
}

// The qlinear layout: B is a transposed view of a row-major [n x k]
// activation block, C stores transposed [n x m]. Both strides exercised
// together, against the reference on the same views.
TEST(qgemm, transposed_view_and_strided_store_match_naive) {
  appeal::util::rng gen(426);
  for (int iter = 0; iter < 20; ++iter) {
    const auto m = static_cast<std::size_t>(gen.uniform_int(1, 96));
    const auto n = static_cast<std::size_t>(gen.uniform_int(1, 48));
    const auto k = static_cast<std::size_t>(gen.uniform_int(1, 100));

    const auto a = random_s8(m * k, gen);
    // x stored row-major [n x k]; the view reads it as B[k x n].
    const auto x = random_u8(n * k, gen);
    const ops::u8_view b{x.data(), 1, k};

    std::vector<float> scale(m, 3e-3F);
    ops::qgemm_epilogue epi;
    epi.scale = scale.data();

    // C stored transposed: y[n x m], element (i, j) at y[j * m + i].
    std::vector<float> y(m * n, 0.0F);
    std::vector<float> y_ref(m * n, 0.0F);
    ops::qgemm_s8u8(m, n, k, a.data(), b, epi, y.data(), 1, m);
    naive_qgemm(m, n, k, a.data(), b, epi, y_ref.data(), 1, m);
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(y[i], y_ref[i]) << "qgemm^T " << m << "x" << n << "x" << k;
    }
  }
}

TEST(qgemm, results_bit_stable_across_thread_counts) {
  const std::size_t m = 512, n = 64, k = 144;
  appeal::util::rng gen(77);
  const auto a = random_s8(m * k, gen);
  const auto bbuf = random_u8(k * n, gen);
  const ops::u8_view b{bbuf.data(), n, 1};
  std::vector<float> scale(m, 1e-3F);
  std::vector<std::int32_t> off(m);
  for (std::size_t i = 0; i < m; ++i) off[i] = gen.uniform_int(-9000, 9000);
  ops::qgemm_epilogue epi;
  epi.scale = scale.data();
  epi.row_offset = off.data();

  const std::size_t original = ops::gemm_threads();
  std::vector<std::vector<float>> results;
  for (const std::size_t threads : {1, 2, 4}) {
    ops::set_gemm_threads(threads);
    std::vector<float> c(m * n, -1.0F);
    ops::qgemm_s8u8(m, n, k, a.data(), b, epi, c.data(), n, 1);
    results.push_back(std::move(c));
  }
  ops::set_gemm_threads(original);

  for (std::size_t r = 1; r < results.size(); ++r) {
    for (std::size_t i = 0; i < results[0].size(); ++i) {
      ASSERT_EQ(results[0][i], results[r][i])
          << "qgemm thread run " << r << " diverged at element " << i;
    }
  }
}

TEST(qgemm, k_zero_writes_epilogue_constant) {
  std::vector<float> scale{2.0F};
  std::vector<float> bias{1.0F};
  std::vector<std::int32_t> off{3};
  ops::qgemm_epilogue epi;
  epi.scale = scale.data();
  epi.bias = bias.data();
  epi.row_offset = off.data();
  std::vector<float> c(4, -9.0F);
  const ops::u8_view b{nullptr, 0, 0};
  ops::qgemm_s8u8(1, 4, 0, nullptr, b, epi, c.data(), 4, 1);
  for (const float v : c) EXPECT_EQ(v, 2.0F * 3.0F + 1.0F);
}

// quantize_u8 round trip: codes match the scalar rounding contract
// (half away from zero, same as nn::fake_quantize_value), saturate at the
// grid edges, and survive zero_point extremes.
TEST(qgemm, quantize_u8_matches_lround_contract) {
  appeal::util::rng gen(55);
  const float scale = 0.037F;
  for (const std::int32_t zp : {0, 1, 128, 254, 255}) {
    std::vector<float> src(257);
    for (auto& v : src) v = gen.uniform(-12.0F, 12.0F);
    // Include exact ties and the saturation extremes.
    src[0] = 0.5F * scale;
    src[1] = -0.5F * scale;
    src[2] = 1e6F;
    src[3] = -1e6F;
    src[4] = 0.0F;
    std::vector<std::uint8_t> dst(src.size());
    ops::quantize_u8(src.data(), src.size(), scale, zp, dst.data());
    for (std::size_t i = 0; i < src.size(); ++i) {
      const auto q = static_cast<std::int32_t>(
          std::lround(static_cast<double>(src[i] / scale)) + zp);
      const std::int32_t expected = std::min(std::max(q, 0), 255);
      ASSERT_EQ(static_cast<std::int32_t>(dst[i]), expected)
          << "zp=" << zp << " x=" << src[i];
    }
  }
}

TEST(qgemm, s8_row_sums_matches_manual) {
  appeal::util::rng gen(12);
  const std::size_t m = 7, k = 33;
  const auto a = random_s8(m * k, gen);
  std::vector<std::int32_t> sums(m, 99);
  ops::s8_row_sums(a.data(), m, k, sums.data());
  for (std::size_t i = 0; i < m; ++i) {
    std::int32_t expect = 0;
    for (std::size_t kk = 0; kk < k; ++kk) expect += a[i * k + kk];
    EXPECT_EQ(sums[i], expect);
  }
}

// ---------------------------------------------------------------------------
// Every microkernel this host can run, driven on pre-packed weights. The
// SSE2 kernel is always listed, so it stays covered on AVX2 hosts too.

/// A random requantize epilogue for m rows, with or without a fused clamp.
struct random_epilogue {
  std::vector<float> scale;
  std::vector<float> bias;
  std::vector<std::int32_t> offset;
  ops::qgemm_epilogue epi;

  random_epilogue(std::size_t m, appeal::util::rng& gen, bool clamp)
      : scale(m), bias(m), offset(m) {
    for (std::size_t i = 0; i < m; ++i) {
      scale[i] = gen.uniform(1e-4F, 1e-2F);
      bias[i] = gen.uniform(-1.0F, 1.0F);
      offset[i] = gen.uniform_int(-20000, 20000);
    }
    epi.scale = scale.data();
    epi.bias = bias.data();
    epi.row_offset = offset.data();
    if (clamp) {
      epi.act_lo = 0.0F;
      epi.act_hi = 6.0F;
    }
  }
};

/// Runs every host kernel on (packed A, B view) and requires equality with
/// the scalar reference on every element, C stored at
/// c[i * row_stride + j * col_stride].
void expect_kernels_match_naive(const std::vector<std::int8_t>& a,
                                std::size_t m, std::size_t n, std::size_t k,
                                const ops::u8_view& b,
                                const ops::qgemm_epilogue& epi,
                                std::size_t row_stride,
                                std::size_t col_stride) {
  const ops::packed_s8 packed(a.data(), m, k);
  std::vector<float> ref(m * n, -42.0F);
  naive_qgemm(m, n, k, a.data(), b, epi, ref.data(), row_stride, col_stride);
  for (const ops::detail::qgemm_kernel& kernel :
       ops::detail::host_qgemm_kernels()) {
    std::vector<float> c(m * n, -42.0F);
    ops::detail::qgemm_s8u8_with(kernel, packed, n, b, epi, c.data(),
                                 row_stride, col_stride);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(c[i], ref[i]) << kernel.name << " qgemm " << m << "x" << n
                              << "x" << k << " element " << i;
    }
  }
}

TEST(qgemm_kernels, baseline_kernel_is_always_available) {
  const auto& kernels = ops::detail::host_qgemm_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(std::string(kernels.front().name), "sse2");
}

// The served MobileNet's dense layers at every batch 1..16: the stem
// (odd k = 27) and the three pointwise convs. At batch 1 every pointwise
// product is exactly 32768 MACs.
TEST(qgemm_kernels, served_shapes_match_naive) {
  struct layer_shape {
    std::size_t m, cols, k;
  };
  const layer_shape shapes[] = {
      {16, 256, 27}, {32, 64, 16}, {64, 16, 32}, {128, 4, 64}};
  appeal::util::rng gen(2105);
  for (std::size_t batch = 1; batch <= 16; ++batch) {
    for (const layer_shape& l : shapes) {
      const std::size_t n = l.cols * batch;
      const auto a = random_s8(l.m * l.k, gen);
      const auto bbuf = random_u8(l.k * n, gen);
      const random_epilogue e(l.m, gen, batch % 2 == 0);
      expect_kernels_match_naive(a, l.m, n, l.k,
                                 ops::u8_view{bbuf.data(), n, 1}, e.epi, n,
                                 1);
    }
  }
}

// Ragged edges: m not a multiple of the 6-row tile, n not a multiple of
// the 8-column panel (nor of the 2048-column block), odd and tiny k.
TEST(qgemm_kernels, ragged_edges_match_naive) {
  appeal::util::rng gen(426);
  for (const std::size_t m : {1, 5, 7, 13, 121}) {
    for (const std::size_t n : {1, 3, 9, 17, 2049}) {
      for (const std::size_t k : {1, 2, 27, 33}) {
        const auto a = random_s8(m * k, gen);
        const auto bbuf = random_u8(k * n, gen);
        const random_epilogue e(m, gen, (m + n + k) % 2 == 0);
        expect_kernels_match_naive(a, m, n, k, ops::u8_view{bbuf.data(), n, 1},
                                   e.epi, n, 1);
      }
    }
  }
}

// The qlinear layout: B is the transposed view of a row-major [n x k]
// block, C is stored transposed as [n x m].
TEST(qgemm_kernels, transposed_view_matches_naive) {
  appeal::util::rng gen(1812);
  for (const std::size_t n : {1, 4, 11, 16}) {
    const std::size_t m = 10;
    const std::size_t k = 128;
    const auto a = random_s8(m * k, gen);
    const auto x = random_u8(n * k, gen);
    const random_epilogue e(m, gen, false);
    expect_kernels_match_naive(a, m, n, k, ops::u8_view{x.data(), 1, k},
                               e.epi, 1, m);
  }
}

// One packed weight serves calls of any width, in any order, and agrees
// with the unpacked entry point.
TEST(qgemm_kernels, packed_weights_reused_across_calls) {
  appeal::util::rng gen(77);
  const std::size_t m = 64;
  const std::size_t k = 32;
  const auto a = random_s8(m * k, gen);
  const ops::packed_s8 packed(a.data(), m, k);
  EXPECT_EQ(packed.rows(), m);
  EXPECT_EQ(packed.depth(), k);
  const random_epilogue e(m, gen, true);
  for (const std::size_t n : {16, 1, 300, 64, 7, 16}) {
    const auto bbuf = random_u8(k * n, gen);
    const ops::u8_view b{bbuf.data(), n, 1};
    std::vector<float> c(m * n, -1.0F);
    std::vector<float> c_raw(m * n, -2.0F);
    std::vector<float> ref(m * n, -3.0F);
    ops::qgemm_s8u8(packed, n, b, e.epi, c.data(), n, 1);
    ops::qgemm_s8u8(m, n, k, a.data(), b, e.epi, c_raw.data(), n, 1);
    naive_qgemm(m, n, k, a.data(), b, e.epi, ref.data(), n, 1);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(c[i], ref[i]) << "packed n=" << n << " element " << i;
      ASSERT_EQ(c_raw[i], ref[i]) << "raw n=" << n << " element " << i;
    }
  }
}

}  // namespace
