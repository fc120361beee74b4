#include "layers.hpp"

#include <cstdint>
#include <string_view>

#include "loadgen.hpp"
#include "samples.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_s8.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// The int8 rewrite swaps conv2d/linear for qconv2d/qlinear in place;
/// naming rows by the float kind keeps one metric name per position on
/// both precisions.
std::string_view float_kind(std::string_view kind) {
  if (kind == "qconv2d") return "conv2d";
  if (kind == "qlinear") return "linear";
  return kind;
}

template <typename Fn>
double median_seconds(std::size_t reps, Fn&& fn) {
  samples s;
  for (std::size_t r = 0; r < reps; ++r) {
    const clock::time_point start = clock::now();
    fn();
    s.add(std::chrono::duration<double>(clock::now() - start).count());
  }
  return s.quantile(0.5);
}

}  // namespace

std::vector<layer_timing> time_children(appeal::nn::sequential& net,
                                        const appeal::tensor& input,
                                        std::size_t reps) {
  const std::vector<appeal::nn::sequential::child_report> report =
      net.summarize(input.dims());
  std::vector<layer_timing> out;
  appeal::tensor x = input;
  for (std::size_t i = 0; i < net.size(); ++i) {
    appeal::tensor y = net.forward_range(x, i, i + 1, /*training=*/false);
    const double seconds = median_seconds(reps, [&] {
      appeal::tensor scratch = net.forward_range(x, i, i + 1, false);
    });
    layer_timing t;
    t.name = std::to_string(i) + "_" +
             std::string(float_kind(net.child(i).kind()));
    t.ms = seconds * 1e3;
    t.gflops = static_cast<double>(report[i].flops) / seconds * 1e-9;
    out.push_back(std::move(t));
    x = std::move(y);
  }
  return out;
}

double sgemm_gflops(std::size_t reps) {
  constexpr std::size_t n = kKernelDim;
  appeal::util::rng gen(7);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (float& v : a) v = gen.uniform(-1.0F, 1.0F);
  for (float& v : b) v = gen.uniform(-1.0F, 1.0F);
  const double seconds = median_seconds(reps, [&] {
    appeal::ops::sgemm(n, n, n, 1.0F, a.data(), b.data(), 0.0F, c.data());
  });
  return 2.0 * static_cast<double>(n * n * n) / seconds * 1e-9;
}

double qgemm_gops(std::size_t reps) {
  constexpr std::size_t n = kKernelDim;
  appeal::util::rng gen(7);
  std::vector<std::int8_t> a(n * n);
  std::vector<std::uint8_t> b(n * n);
  std::vector<float> scale(n, 1e-3F), c(n * n);
  for (std::int8_t& v : a) v = static_cast<std::int8_t>(gen.uniform_int(-127, 127));
  for (std::uint8_t& v : b) v = static_cast<std::uint8_t>(gen.uniform_int(0, 255));
  appeal::ops::qgemm_epilogue epi;
  epi.scale = scale.data();
  const appeal::ops::u8_view view{b.data(), n, 1};
  const double seconds = median_seconds(reps, [&] {
    appeal::ops::qgemm_s8u8(n, n, n, a.data(), view, epi, c.data(), n, 1);
  });
  return 2.0 * static_cast<double>(n * n * n) / seconds * 1e-9;
}

}  // namespace perfbench
