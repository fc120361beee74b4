// Tests for the GEMM kernels against a naive reference, across shapes and
// alpha/beta combinations.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/gemm_kernels.hpp"
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
// reference. Then the served MobileNet's fp32 dense layers at batch 1..16
// (at batch 1 each pointwise conv is exactly the small-kernel bound of
// 32768 MACs) and shapes one MAC either side of that bound.
TEST(gemm, randomized_shapes_match_naive) {
  appeal::util::rng gen(2024);
  const auto check = [&gen](std::size_t m, std::size_t n, std::size_t k) {
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
  };
  for (int iter = 0; iter < 60; ++iter) {
    const auto m = static_cast<std::size_t>(gen.uniform_int(1, 90));
    const auto n = static_cast<std::size_t>(gen.uniform_int(1, 90));
    const auto k = static_cast<std::size_t>(gen.uniform_int(1, 90));
    check(m, n, k);
  }
  struct layer_shape {
    std::size_t m, cols, k;
  };
  const layer_shape served[] = {
      {16, 256, 27}, {32, 64, 16}, {64, 16, 32}, {128, 4, 64}};
  for (std::size_t batch = 1; batch <= 16; ++batch) {
    for (const layer_shape& l : served) check(l.m, l.cols * batch, l.k);
  }
  const std::size_t boundary[][3] = {
      {32, 32, 32}, {7, 151, 31},  {31, 7, 151},  // 32768 and 32767 MACs
      {3, 3641, 3}, {3641, 3, 3},  {3, 3, 3641}}; // 32769 MACs
  for (const auto& s : boundary) check(s[0], s[1], s[2]);
}

// A C column must not depend on how many other columns ride in the same
// product: the batch-1 pointwise convs (small kernel, 32768 MACs) and the
// same weights at batch 2..16 (the small kernel while n < 16, then the
// packed kernel) give bit-identical columns. The one-column shape walks
// n through every width 2..16 around the narrow-n dispatch.
TEST(gemm, columns_bit_identical_across_batch_sizes) {
  appeal::util::rng gen(105);
  const std::size_t shapes[][3] = {
      {32, 64, 16}, {64, 16, 32}, {128, 4, 64}, {128, 1, 64}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], cols = s[1], k = s[2];
    const auto a = random_matrix(m, k, gen);
    const auto bias = random_matrix(m, 1, gen);
    const auto b1 = random_matrix(k, cols, gen);
    std::vector<float> c1(m * cols);
    ops::sgemm_bias_act(m, cols, k, 1.0F, a.data(), b1.data(), bias.data(),
                        0.0F, 6.0F, c1.data());
    for (std::size_t batch = 2; batch <= 16; ++batch) {
      // b1 is the last of `batch` column groups.
      const std::size_t n = cols * batch;
      auto b = random_matrix(k, n, gen);
      for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t j = 0; j < cols; ++j) {
          b[kk * n + (batch - 1) * cols + j] = b1[kk * cols + j];
        }
      }
      std::vector<float> c(m * n);
      ops::sgemm_bias_act(m, n, k, 1.0F, a.data(), b.data(), bias.data(),
                          0.0F, 6.0F, c.data());
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
          ASSERT_EQ(c[i * n + (batch - 1) * cols + j], c1[i * cols + j])
              << m << "x" << cols << "x" << k << " batch " << batch;
        }
      }
    }
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

/// Scalar reference for qgemm_s8u8: the exact integer sum (accumulated in
/// 64 bits, so a running sum may pass the i32 range as long as the total
/// fits) plus the requantize epilogue, no packing, no blocking.
void naive_qgemm(std::size_t m, std::size_t n, std::size_t k,
                 const std::int8_t* a, const ops::u8_view& b,
                 const ops::qgemm_epilogue& epi, float* c,
                 std::size_t c_row_stride, std::size_t c_col_stride) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::int64_t sum = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        sum += static_cast<std::int64_t>(a[i * k + kk]) *
               static_cast<std::int64_t>(
                   b.p[kk * b.row_stride + j * b.col_stride]);
      }
      const auto acc = static_cast<std::int32_t>(sum);
      EXPECT_EQ(static_cast<std::int64_t>(acc), sum)
          << "reference sum outside i32";
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
    // Lengths run the 16-wide loop, the 4-wide one and the scalar tail.
    for (const std::size_t len : {257, 23, 7, 5}) {
      std::vector<float> src(len);
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
// Every kernel this host can run, driven on weights packed in that
// kernel's k-group. The SSE2 kernel is always listed, so it stays covered
// on AVX2 and AVX-VNNI hosts too.

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
  std::vector<float> ref(m * n, -42.0F);
  naive_qgemm(m, n, k, a.data(), b, epi, ref.data(), row_stride, col_stride);
  for (const ops::detail::qgemm_kernel& kernel :
       ops::detail::host_qgemm_kernels()) {
    ops::packed_s8 packed;
    ops::detail::packed_s8_access::pack(packed, a.data(), m, k,
                                        kernel.k_group);
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
  EXPECT_EQ(std::string(ops::qgemm_kernel_name()), kernels.back().name);
  for (const ops::detail::qgemm_kernel& kernel : kernels) {
    EXPECT_TRUE(kernel.k_group == 2 || kernel.k_group == 4) << kernel.name;
  }
}

// Weights packed for one k-group cannot reach a kernel that reads the
// other: the call throws instead of computing from a foreign layout.
TEST(qgemm_kernels, rejects_weights_packed_for_another_k_group) {
  appeal::util::rng gen(8);
  const std::size_t m = 8, n = 8, k = 12;
  const auto a = random_s8(m * k, gen);
  const auto bbuf = random_u8(k * n, gen);
  const random_epilogue e(m, gen, false);
  const ops::detail::qgemm_kernel& baseline =
      ops::detail::host_qgemm_kernels().front();
  ops::detail::qgemm_kernel other = baseline;
  other.k_group = 4;
  ops::packed_s8 packed;
  ops::detail::packed_s8_access::pack(packed, a.data(), m, k,
                                      other.k_group);
  std::vector<float> c(m * n);
  EXPECT_THROW(ops::detail::qgemm_s8u8_with(baseline, packed, n,
                                            ops::u8_view{bbuf.data(), n, 1},
                                            e.epi, c.data(), n, 1),
               appeal::util::error);
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
// the 8-column panel (nor of the 2048-column block), and k at every
// remainder mod 2 and mod 4, so every k-group's padding runs.
TEST(qgemm_kernels, ragged_edges_match_naive) {
  appeal::util::rng gen(426);
  for (const std::size_t m : {1, 5, 7, 13, 121}) {
    for (const std::size_t n : {1, 3, 9, 17, 2049}) {
      for (const std::size_t k : {1, 2, 3, 4, 5, 27, 33}) {
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
// block, C is stored transposed as [n x m]. k = 128 is the served head;
// k = 27 leaves a partial quad, so the transposed packing's tail runs.
TEST(qgemm_kernels, transposed_view_matches_naive) {
  appeal::util::rng gen(1812);
  for (const std::size_t k : {27, 128}) {
    for (std::size_t n = 1; n <= 16; ++n) {
      const std::size_t m = 10;
      const auto a = random_s8(m * k, gen);
      const auto x = random_u8(n * k, gen);
      const random_epilogue e(m, gen, n % 2 == 0);
      expect_kernels_match_naive(a, m, n, k, ops::u8_view{x.data(), 1, k},
                                 e.epi, 1, m);
    }
  }
}

// The largest products: A codes at +-127 times B codes at 255 (and mixed
// with 0), from k = 1 to 4096, with row offsets. A pair sum of 2 * 127 *
// 255 overflows i16, so a kernel built on the saturating vpmaddubsw
// fails here. The last case runs +127 over the first half of k and -127
// over the second: the running sum passes 2^31 and comes back to a total
// that fits, so only wrapping i32 accumulation (vpaddd, vpdpbusd) gets
// it right; the saturating vpdpbusds sticks at the bound.
TEST(qgemm_kernels, extreme_codes_accumulate_exactly) {
  appeal::util::rng gen(127);
  const std::size_t m = 7;
  const std::size_t n = 9;
  for (const std::size_t k : {1, 3, 4, 5, 27, 64, 255, 1024, 4096}) {
    for (const std::int8_t code : {std::int8_t{127}, std::int8_t{-127}}) {
      for (const bool mixed : {false, true}) {
        const std::vector<std::int8_t> a(m * k, code);
        std::vector<std::uint8_t> bbuf(k * n, 255);
        if (mixed) {
          for (std::size_t i = 0; i < bbuf.size(); i += 3) bbuf[i] = 0;
        }
        const random_epilogue e(m, gen, false);
        expect_kernels_match_naive(a, m, n, k,
                                   ops::u8_view{bbuf.data(), n, 1}, e.epi, n,
                                   1);
      }
    }
  }
  // 66,400 * 127 * 255 = 2,150,364,000 > 2^31 - 1 at the midpoint.
  const std::size_t k = 2 * 66400;
  std::vector<std::int8_t> a(m * k, 127);
  for (std::size_t i = 0; i < m; ++i) {
    std::fill(a.begin() + static_cast<std::ptrdiff_t>(i * k + k / 2),
              a.begin() + static_cast<std::ptrdiff_t>((i + 1) * k),
              std::int8_t{-127});
  }
  const std::vector<std::uint8_t> bbuf(k * n, 255);
  const random_epilogue e(m, gen, false);
  expect_kernels_match_naive(a, m, n, k, ops::u8_view{bbuf.data(), n, 1},
                             e.epi, n, 1);
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

// ---------------------------------------------------------------------------
// Every fp32 kernel this host can run, against the baseline kernel, bit for
// bit. The baseline is always listed, so it stays covered on AVX2 hosts
// too; the public entry points run the last kernel, which the gemm.*
// tests above check against the naive reference.

using ops::detail::matrix_view;
using ops::detail::store_epilogue;

/// Runs every host kernel on C = alpha * A * B + beta * C (or the fused
/// epilogue) from the same starting C, and requires each result to equal
/// the baseline kernel's in every bit.
void expect_kernels_match_baseline(std::size_t m, std::size_t n,
                                   std::size_t k, float alpha,
                                   const matrix_view& a, const matrix_view& b,
                                   float beta, const store_epilogue* epi,
                                   appeal::util::rng& gen) {
  const auto& kernels = ops::detail::host_sgemm_kernels();
  const auto c0 = random_matrix(m, n, gen);
  auto ref = c0;
  ops::detail::sgemm_with(kernels.front(), m, n, k, alpha, a, b, beta, epi,
                          ref.data());
  for (const ops::detail::sgemm_kernel& kernel : kernels) {
    auto c = c0;
    ops::detail::sgemm_with(kernel, m, n, k, alpha, a, b, beta, epi,
                            c.data());
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(c[i]),
                std::bit_cast<std::uint32_t>(ref[i]))
          << kernel.name << " sgemm " << m << "x" << n << "x" << k
          << " element " << i;
    }
  }
}

/// Row-major A [m x k] times row-major B [k x n], plain and with a random
/// bias and ReLU6 clamp.
void expect_plain_and_fused_match(std::size_t m, std::size_t n,
                                  std::size_t k, appeal::util::rng& gen) {
  const auto a = random_matrix(m, k, gen);
  const auto b = random_matrix(k, n, gen);
  const auto bias = random_matrix(m, 1, gen);
  const matrix_view av{a.data(), k, 1};
  const matrix_view bv{b.data(), n, 1};
  expect_kernels_match_baseline(m, n, k, 1.0F, av, bv, 0.0F, nullptr, gen);
  const store_epilogue epi{bias.data(), 0.0F, 6.0F};
  expect_kernels_match_baseline(m, n, k, 1.0F, av, bv, 0.0F, &epi, gen);
}

TEST(sgemm_kernels, baseline_kernel_is_always_available) {
  const auto& kernels = ops::detail::host_sgemm_kernels();
  ASSERT_FALSE(kernels.empty());
#if !defined(__AVX2__)
  EXPECT_EQ(std::string(kernels.front().name), "sse2");
#endif
  EXPECT_EQ(std::string(ops::sgemm_kernel_name()), kernels.back().name);
}

// The served MobileNet's dense layers at every batch 1..16, fused as the
// serving path runs them: the stem's im2col product (k = 27) and the
// three pointwise convs, on both sides of the small/narrow/packed
// dispatch.
TEST(sgemm_kernels, served_edge_shapes_match_baseline) {
  struct layer_shape {
    std::size_t m, cols, k;
  };
  const layer_shape served[] = {
      {16, 256, 27}, {32, 64, 16}, {64, 16, 32}, {128, 4, 64}};
  appeal::util::rng gen(2506);
  for (std::size_t batch = 1; batch <= 16; ++batch) {
    for (const layer_shape& l : served) {
      expect_plain_and_fused_match(l.m, l.cols * batch, l.k, gen);
    }
  }
}

// Cloud ResNet-style products: k > KC = 256 splits the packed path into
// K blocks (the epilogue fires only on the last), some narrower than one
// panel, one spanning several MC row blocks.
TEST(sgemm_kernels, cloud_shapes_with_k_blocks_match_baseline) {
  appeal::util::rng gen(1152);
  const std::size_t shapes[][3] = {{64, 64, 576},  {128, 16, 1152},
                                   {128, 4, 1152}, {256, 8, 576},
                                   {10, 4, 512},   {300, 33, 257}};
  for (const auto& s : shapes) {
    expect_plain_and_fused_match(s[0], s[1], s[2], gen);
  }
}

// Ragged edges: m not a multiple of the 8-row tile, n not a multiple of
// the 16-column panel (nor of the 2048-column block), k around KC.
TEST(sgemm_kernels, ragged_edges_match_baseline) {
  appeal::util::rng gen(813);
  for (const std::size_t m : {1, 5, 9, 13, 129}) {
    for (const std::size_t n : {1, 3, 15, 17, 33, 2049}) {
      for (const std::size_t k : {1, 7, 31, 257}) {
        if (m * n * k > (1U << 22)) continue;
        expect_plain_and_fused_match(m, n, k, gen);
      }
    }
  }
}

// The backward-pass layouts with alpha and beta in play: sgemm_at reads
// A stored [k x m], sgemm_bt reads B stored [n x k].
TEST(sgemm_kernels, transposed_views_match_baseline) {
  appeal::util::rng gen(4242);
  const std::size_t shapes[][3] = {
      {16, 27, 256}, {32, 16, 64}, {7, 9, 11}, {64, 100, 300}, {130, 20, 40}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], n = s[1], k = s[2];
    const auto a = random_matrix(m, k, gen);
    const auto b = random_matrix(k, n, gen);
    const matrix_view at{a.data(), 1, m};  // sgemm_at: A stored [k x m]
    const matrix_view bt{b.data(), 1, k};  // sgemm_bt: B stored [n x k]
    const matrix_view av{a.data(), k, 1};
    const matrix_view bv{b.data(), n, 1};
    expect_kernels_match_baseline(m, n, k, 0.75F, at, bv, 0.5F, nullptr, gen);
    expect_kernels_match_baseline(m, n, k, 1.25F, av, bt, 1.0F, nullptr, gen);
    expect_kernels_match_baseline(m, n, k, 1.0F, at, bt, 0.0F, nullptr, gen);
  }
}

}  // namespace
