#include "nn/conv2d.hpp"

#include <xmmintrin.h>

#include <algorithm>
#include <cstring>

#include "nn/inference_workspace.hpp"
#include "tensor/gemm.hpp"
#include "util/error.hpp"

namespace appeal::nn {

conv2d::conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               std::size_t groups, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      groups_(groups),
      has_bias_(bias),
      weight_("weight", tensor(shape{out_channels, in_channels / groups,
                                     kernel, kernel})),
      bias_("bias", tensor(shape{out_channels})) {
  APPEAL_CHECK(groups > 0 && in_channels % groups == 0 &&
                   out_channels % groups == 0,
               "conv2d: channels must divide evenly into groups");
  APPEAL_CHECK(kernel > 0 && stride > 0, "conv2d: kernel/stride must be > 0");
}

ops::conv_geometry conv2d::group_geometry(const shape& input) const {
  ops::conv_geometry g;
  g.channels = in_channels_ / groups_;
  g.height = input.height();
  g.width = input.width();
  g.kernel = kernel_;
  g.stride = stride_;
  g.padding = padding_;
  return g;
}

tensor conv2d::forward(const tensor& input, bool training) {
  APPEAL_CHECK(input.dims().rank() == 4 && input.channels() == in_channels_,
               "conv2d forward: expected NCHW with " +
                   std::to_string(in_channels_) + " channels, got " +
                   input.dims().to_string());
  const ops::conv_geometry g = group_geometry(input.dims());
  APPEAL_CHECK(g.valid(), "conv2d forward: kernel larger than padded input " +
                              input.dims().to_string());
  if (!training) {
    // Inference caches nothing; drop any stale training cache so a later
    // backward() fails loudly instead of differentiating the wrong pass.
    cached_input_ = tensor();
    return forward_inference(input, g);
  }
  cached_input_ = input;

  const std::size_t n = input.batch();
  const std::size_t out_h = g.out_height();
  const std::size_t out_w = g.out_width();
  const std::size_t cols = g.column_count();
  const std::size_t patch = g.patch_size();
  const std::size_t oc_per_group = out_channels_ / groups_;
  const std::size_t ic_per_group = in_channels_ / groups_;
  const std::size_t in_plane = input.height() * input.width();

  columns_.resize(patch * cols);
  tensor out(shape{n, out_channels_, out_h, out_w});

  for (std::size_t s = 0; s < n; ++s) {
    const float* sample = input.data() + s * in_channels_ * in_plane;
    float* out_sample = out.data() + s * out_channels_ * cols;
    for (std::size_t grp = 0; grp < groups_; ++grp) {
      ops::im2col(g, sample + grp * ic_per_group * in_plane, columns_.data());
      // out_g[oc/g, cols] = W_g[oc/g, patch] * columns[patch, cols]
      ops::sgemm(oc_per_group, cols, patch, 1.0F,
                 weight_.value.data() + grp * oc_per_group * patch,
                 columns_.data(), 0.0F,
                 out_sample + grp * oc_per_group * cols);
    }
    if (has_bias_) {
      const float* pb = bias_.value.data();
      for (std::size_t c = 0; c < out_channels_; ++c) {
        float* plane = out_sample + c * cols;
        const float b = pb[c];
        for (std::size_t i = 0; i < cols; ++i) plane[i] += b;
      }
    }
  }
  return out;
}

namespace {

/// Depthwise convolution (groups == in == out channels), one kernel for
/// every stride, padding and plane size. Channels are taken four at a
/// time, one per SSE lane: each group's input planes are copied once,
/// transposed so the four channels of a pixel sit in one vector, into a
/// zero-bordered scratch borrowed from the workspace. Every tap of every
/// output is then one unchecked vector multiply-add, whatever the stride
/// — no lane idles on narrow output rows (a 2x2 plane still fills all
/// four). Four outputs accumulate together to hide the add latency; each
/// sums in the reference stencil's order — bias, then ky, kx — and the
/// fused clamp applies at the store. Padding taps add w * 0, which leaves
/// every value unchanged.
void depthwise_conv(const ops::conv_geometry& g, std::size_t channels,
                    const float* input, const float* weights,
                    const float* bias, float act_lo, float act_hi,
                    std::size_t n, float* out, inference_workspace& ws) {
  constexpr std::size_t L = 4;  // channels per group = SSE lanes
  const std::size_t k = g.kernel;
  const std::size_t s = g.stride;
  const std::size_t p = g.padding;
  const std::size_t taps = k * k;
  const std::size_t out_h = g.out_height();
  const std::size_t out_w = g.out_width();
  const std::size_t cols = out_h * out_w;
  const std::size_t in_plane = g.height * g.width;
  const std::size_t pw = g.width + 2 * p;

  // Scratch: the group's taps as lane vectors, then the padded image as
  // [padded row][padded column][lane]. Interiors are overwritten for each
  // group and sample; the border stays zero. In a last group of fewer
  // than four channels the spare lanes keep stale values and are never
  // stored.
  inference_workspace::buffer scratch =
      ws.borrow((taps + (g.height + 2 * p) * pw) * L);
  std::fill(scratch.data(), scratch.data() + scratch.size(), 0.0F);
  float* wv = scratch.data();
  float* padded = wv + taps * L;
  const __m128 lo = _mm_set1_ps(act_lo);
  const __m128 hi = _mm_set1_ps(act_hi);

  for (std::size_t c0 = 0; c0 < channels; c0 += L) {
    const std::size_t lanes = std::min(L, channels - c0);
    alignas(16) float lane_bias[L] = {};
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t t = 0; t < taps; ++t) {
        wv[t * L + l] = weights[(c0 + l) * taps + t];
      }
      lane_bias[l] = bias != nullptr ? bias[c0 + l] : 0.0F;
    }
    const __m128 b = _mm_load_ps(lane_bias);

    for (std::size_t smp = 0; smp < n; ++smp) {
      const float* src = input + (smp * channels + c0) * in_plane;
      float* dst = out + (smp * channels + c0) * cols;
      for (std::size_t y = 0; y < g.height; ++y) {
        const float* srow = src + y * g.width;
        float* drow = padded + ((y + p) * pw + p) * L;
        std::size_t x = 0;
        if (lanes == L) {
          for (; x + 4 <= g.width; x += 4) {
            __m128 r0 = _mm_loadu_ps(srow + x);
            __m128 r1 = _mm_loadu_ps(srow + in_plane + x);
            __m128 r2 = _mm_loadu_ps(srow + 2 * in_plane + x);
            __m128 r3 = _mm_loadu_ps(srow + 3 * in_plane + x);
            _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
            _mm_storeu_ps(drow + x * L, r0);
            _mm_storeu_ps(drow + (x + 1) * L, r1);
            _mm_storeu_ps(drow + (x + 2) * L, r2);
            _mm_storeu_ps(drow + (x + 3) * L, r3);
          }
        }
        for (; x < g.width; ++x) {
          for (std::size_t l = 0; l < lanes; ++l) {
            drow[x * L + l] = srow[l * in_plane + x];
          }
        }
      }

      // Outputs in plane order, four at a time; a short last step repeats
      // its final output in the spare chains and stores only the real ones.
      std::size_t oy = 0;
      std::size_t ox = 0;
      for (std::size_t o = 0; o < cols; o += 4) {
        const std::size_t count = std::min<std::size_t>(4, cols - o);
        const float* at[4];
        for (std::size_t j = 0; j < 4; ++j) {
          at[j] = padded + (oy * s * pw + ox * s) * L;
          if (j + 1 < count && ++ox == out_w) {
            ox = 0;
            ++oy;
          }
        }
        if (++ox == out_w) {
          ox = 0;
          ++oy;
        }
        __m128 acc[4] = {b, b, b, b};
        const float* w = wv;
        for (std::size_t ky = 0; ky < k; ++ky) {
          const std::size_t row = ky * pw * L;
          for (std::size_t kx = 0; kx < k; ++kx, w += L) {
            const __m128 wt = _mm_loadu_ps(w);
            const std::size_t off = row + kx * L;
            for (std::size_t j = 0; j < 4; ++j) {
              acc[j] =
                  _mm_add_ps(acc[j], _mm_mul_ps(wt, _mm_loadu_ps(at[j] + off)));
            }
          }
        }
        for (std::size_t j = 0; j < 4; ++j) {
          acc[j] = _mm_min_ps(hi, _mm_max_ps(lo, acc[j]));
        }
        // Lane l of output j is channel c0 + l: transpose back to planes.
        _MM_TRANSPOSE4_PS(acc[0], acc[1], acc[2], acc[3]);
        for (std::size_t l = 0; l < lanes; ++l) {
          float* plane_out = dst + l * cols + o;
          if (count == 4) {
            _mm_storeu_ps(plane_out, acc[l]);
          } else {
            alignas(16) float part[4];
            _mm_store_ps(part, acc[l]);
            std::copy(part, part + count, plane_out);
          }
        }
      }
    }
  }
}

}  // namespace

tensor conv2d::forward_inference(const tensor& input,
                                 const ops::conv_geometry& g) {
  const std::size_t n = input.batch();
  const std::size_t cols = g.column_count();
  const std::size_t patch = g.patch_size();
  const std::size_t oc_per_group = out_channels_ / groups_;
  const std::size_t ic_per_group = in_channels_ / groups_;
  const std::size_t in_plane = input.height() * input.width();

  inference_workspace& ws = inference_workspace::local();
  tensor out = ws.acquire(shape{n, out_channels_, g.out_height(),
                                g.out_width()});
  const float* pb = has_bias_ ? bias_.value.data() : nullptr;

  // Depthwise: direct stencil, no lowering at all.
  if (ic_per_group == 1 && oc_per_group == 1) {
    depthwise_conv(g, in_channels_, input.data(), weight_.value.data(), pb,
                   act_lo_, act_hi_, n, out.data(), ws);
    return out;
  }

  // Grouped (but not depthwise) convs keep the per-sample lowering: their
  // per-group GEMMs are too small for batch-concatenation to pay for the
  // extra staging pass. Bias and any fused activation ride the GEMM's
  // store epilogue instead of separate passes over the output.
  if (groups_ > 1) {
    inference_workspace::buffer columns = ws.borrow(patch * cols);
    for (std::size_t s = 0; s < n; ++s) {
      const float* sample = input.data() + s * in_channels_ * in_plane;
      float* out_sample = out.data() + s * out_channels_ * cols;
      for (std::size_t grp = 0; grp < groups_; ++grp) {
        ops::im2col(g, sample + grp * ic_per_group * in_plane,
                    columns.data());
        ops::sgemm_bias_act(oc_per_group, cols, patch, 1.0F,
                            weight_.value.data() + grp * oc_per_group * patch,
                            columns.data(),
                            pb != nullptr ? pb + grp * oc_per_group : nullptr,
                            act_lo_, act_hi_,
                            out_sample + grp * oc_per_group * cols);
      }
    }
    return out;
  }

  // Dense conv: the whole batch unrolls side by side into ONE
  // [patch, N * cols] matrix and runs ONE packed GEMM per layer.
  const std::size_t batch_cols = n * cols;
  inference_workspace::buffer columns = ws.borrow(patch * batch_cols);
  for (std::size_t s = 0; s < n; ++s) {
    const float* sample = input.data() + s * in_channels_ * in_plane;
    ops::im2col_strided(g, sample, columns.data() + s * cols, batch_cols);
  }
  const float* wall = weight_.value.data();
  if (n == 1) {
    // Single sample: [oc, cols] GEMM output IS the NCHW layout.
    ops::sgemm_bias_act(out_channels_, cols, patch, 1.0F, wall,
                        columns.data(), pb, act_lo_, act_hi_, out.data());
    return out;
  }
  inference_workspace::buffer staged = ws.borrow(out_channels_ * batch_cols);
  ops::sgemm_bias_act(out_channels_, batch_cols, patch, 1.0F, wall,
                      columns.data(), pb, act_lo_, act_hi_, staged.data());
  // Scatter [oc, N * cols] into NCHW — bias and clamp already applied at
  // the GEMM store, so this is a pure copy.
  for (std::size_t c = 0; c < out_channels_; ++c) {
    const float* src = staged.data() + c * batch_cols;
    for (std::size_t s = 0; s < n; ++s) {
      float* dst = out.data() + (s * out_channels_ + c) * cols;
      std::memcpy(dst, src + s * cols, cols * sizeof(float));
    }
  }
  return out;
}

tensor conv2d::backward(const tensor& grad_output) {
  APPEAL_CHECK(!cached_input_.empty(), "conv2d backward before forward");
  const ops::conv_geometry g = group_geometry(cached_input_.dims());
  const std::size_t n = cached_input_.batch();
  const std::size_t cols = g.column_count();
  const std::size_t patch = g.patch_size();
  const std::size_t oc_per_group = out_channels_ / groups_;
  const std::size_t ic_per_group = in_channels_ / groups_;
  const std::size_t in_plane = cached_input_.height() * cached_input_.width();

  APPEAL_CHECK(
      grad_output.dims() ==
          shape({n, out_channels_, g.out_height(), g.out_width()}),
      "conv2d backward: grad shape mismatch " + grad_output.dims().to_string());

  tensor grad_input(cached_input_.dims());
  std::vector<float> grad_columns(patch * cols);
  columns_.resize(patch * cols);

  for (std::size_t s = 0; s < n; ++s) {
    const float* sample = cached_input_.data() + s * in_channels_ * in_plane;
    const float* gout_sample = grad_output.data() + s * out_channels_ * cols;
    float* gin_sample = grad_input.data() + s * in_channels_ * in_plane;
    for (std::size_t grp = 0; grp < groups_; ++grp) {
      const float* gout_g = gout_sample + grp * oc_per_group * cols;

      // Recompute this group's im2col panel.
      ops::im2col(g, sample + grp * ic_per_group * in_plane, columns_.data());

      // dW_g[oc/g, patch] += gout_g[oc/g, cols] * columns^T[cols, patch].
      ops::sgemm_bt(oc_per_group, patch, cols, 1.0F, gout_g, columns_.data(),
                    1.0F, weight_.grad.data() + grp * oc_per_group * patch);

      // grad_columns[patch, cols] = W_g^T[patch, oc/g] * gout_g[oc/g, cols].
      ops::sgemm_at(patch, cols, oc_per_group, 1.0F,
                    weight_.value.data() + grp * oc_per_group * patch, gout_g,
                    0.0F, grad_columns.data());
      ops::col2im(g, grad_columns.data(),
                  gin_sample + grp * ic_per_group * in_plane);
    }
    if (has_bias_) {
      float* pb = bias_.grad.data();
      for (std::size_t c = 0; c < out_channels_; ++c) {
        const float* plane = gout_sample + c * cols;
        float acc = 0.0F;
        for (std::size_t i = 0; i < cols; ++i) acc += plane[i];
        pb[c] += acc;
      }
    }
  }
  return grad_input;
}

std::vector<parameter*> conv2d::parameters() {
  std::vector<parameter*> out{&weight_};
  if (has_bias_) out.push_back(&bias_);
  return out;
}

shape conv2d::output_shape(const shape& input) const {
  APPEAL_CHECK(input.rank() == 4 && input.channels() == in_channels_,
               "conv2d output_shape: bad input " + input.to_string());
  const ops::conv_geometry g = group_geometry(input);
  APPEAL_CHECK(g.valid(), "conv2d output_shape: kernel larger than input");
  return shape{input.batch(), out_channels_, g.out_height(), g.out_width()};
}

std::uint64_t conv2d::flops(const shape& input) const {
  const ops::conv_geometry g = group_geometry(input);
  const std::uint64_t cols = g.column_count();
  // Each output element of each group: patch_size MACs.
  std::uint64_t macs =
      input.batch() * out_channels_ * cols * g.patch_size();
  if (has_bias_) macs += input.batch() * out_channels_ * cols;
  return 2 * macs;
}

parameter& conv2d::bias() {
  APPEAL_CHECK(has_bias_, "bias() on a bias-free conv2d layer");
  return bias_;
}

}  // namespace appeal::nn
