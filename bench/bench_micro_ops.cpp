// Micro-benchmarks for the tensor substrate: GEMM, im2col, softmax,
// elementwise kernels. These are google-benchmark timings that establish
// the serving stack's raw throughput (the edge hot path is dominated by
// these kernels).
//
// The GEMM suite includes the exact shapes the MobileNet/EfficientNet edge
// backbones lower to (im2col panels at batch 1 and at serving batch 16),
// so kernel work is measured on the geometry the δ cost model actually
// inverts. The int8 edge path is covered kernel by kernel on the served
// network's shapes — the quantized GEMM per dense layer, the depthwise
// kernel per plane size — each at serving batches 1, 4 and 16, and end
// to end (fp32 and int8 edge forward) at batches 1, 2, 4, 8 and 16, and
// so is its deployment cost (quantize_two_head on 256 images). The
// MobileNet GEMM shapes also run once per kernel the host can execute:
// fp32 baseline and AVX2 build of the same code; int8 sse2, avx2 and
// avxvnni. The report's context names the kernels in force.
//
// "GFLOPS"/"GOPS" are FLOPs (integer ops) per iteration divided by the
// time per iteration, in units of 1e9.
//
// Run:  ./bench_micro_ops [--json=<path>] [--benchmark_filter=...]
// --json=<path> writes the google-benchmark JSON report to <path> (it is
// shorthand for --benchmark_out=<path> --benchmark_out_format=json).
// No baseline is kept in the tree: measured numbers, with their host,
// are recorded in CHANGES.md.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/two_head_network.hpp"
#include "nn/conv2d.hpp"
#include "nn/inference_workspace.hpp"
#include "quant/quantize.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/gemm_s8.hpp"
#include "tensor/gemm_s8_kernels.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace appeal;

/// Rate counter for `work` operations per iteration, reported in units of
/// 1e9 per second: google-benchmark multiplies by the iteration count and
/// divides by the elapsed time.
benchmark::Counter giga_rate(double work) {
  return benchmark::Counter(work * 1e-9,
                            benchmark::Counter::kIsIterationInvariantRate);
}

void bm_sgemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::rng gen(1);
  const tensor a = tensor::rand_uniform(shape{n, n}, gen, -1.0F, 1.0F);
  const tensor b = tensor::rand_uniform(shape{n, n}, gen, -1.0F, 1.0F);
  tensor c(shape{n, n});
  for (auto _ : state) {
    ops::sgemm(n, n, n, 1.0F, a.data(), b.data(), 0.0F, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = giga_rate(2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(bm_sgemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

/// One named GEMM shape [m x k] * [k x n] with a GFLOPS counter, through
/// sgemm or, when `kernel` is set, through that explicit kernel.
void run_gemm_shape(benchmark::State& state, std::size_t m, std::size_t k,
                    std::size_t n,
                    const ops::detail::sgemm_kernel* kernel = nullptr) {
  util::rng gen(2);
  const tensor a = tensor::rand_uniform(shape{m, k}, gen, -1.0F, 1.0F);
  const tensor b = tensor::rand_uniform(shape{k, n}, gen, -1.0F, 1.0F);
  tensor c(shape{m, n});
  for (auto _ : state) {
    if (kernel != nullptr) {
      ops::detail::sgemm_with(*kernel, m, n, k, 1.0F, {a.data(), k, 1},
                              {b.data(), n, 1}, 0.0F, nullptr, c.data());
    } else {
      ops::sgemm(m, n, k, 1.0F, a.data(), b.data(), 0.0F, c.data());
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = giga_rate(2.0 * static_cast<double>(m) * k * n);
}

// MobileNet edge-backbone layer geometries (width 1.0, 16x16 inputs:
// channels 16 -> 32 -> 64 -> 128). im2col lowers each conv to
// [out_c x patch] * [patch x batch*positions]; `b1`/`b16` are serving
// batch sizes 1 and 16 (the batcher's default max batch). Each shape is
// one row through sgemm, `bm_gemm_mobilenet_<shape>`, plus one row per
// kernel the host can run, `bm_gemm_mobilenet_<shape>/<kernel>`.
const bool mobilenet_rows_registered = [] {
  struct named_shape {
    const char* name;
    std::size_t m, k, n;
  };
  static const named_shape shapes[] = {{"stem_b1", 16, 27, 256},
                                       {"stem_b16", 16, 27, 4096},
                                       {"pw1_b16", 32, 16, 1024},
                                       {"pw2_b16", 64, 32, 256},
                                       {"pw3_b16", 128, 64, 64}};
  for (const named_shape& s : shapes) {
    const std::string row = std::string("bm_gemm_mobilenet_") + s.name;
    benchmark::RegisterBenchmark(row.c_str(), [&s](benchmark::State& st) {
      run_gemm_shape(st, s.m, s.k, s.n);
    });
    for (const ops::detail::sgemm_kernel& kernel :
         ops::detail::host_sgemm_kernels()) {
      benchmark::RegisterBenchmark(
          (row + "/" + kernel.name).c_str(),
          [&s, &kernel](benchmark::State& st) {
            run_gemm_shape(st, s.m, s.k, s.n, &kernel);
          });
    }
  }
  return true;
}();

// EfficientNet MBConv geometries (expansion 4): the 1x1 expansion and
// projection convs dominate that backbone's edge FLOPs.
void bm_gemm_efficientnet_expand_b16(benchmark::State& s) {
  run_gemm_shape(s, 64, 16, 1024);
}
BENCHMARK(bm_gemm_efficientnet_expand_b16);
void bm_gemm_efficientnet_project_b16(benchmark::State& s) {
  run_gemm_shape(s, 32, 64, 1024);
}
BENCHMARK(bm_gemm_efficientnet_project_b16);
void bm_gemm_efficientnet_expand2_b16(benchmark::State& s) {
  run_gemm_shape(s, 128, 32, 256);
}
BENCHMARK(bm_gemm_efficientnet_expand2_b16);

/// Thread scaling of one large GEMM (the M dimension splits over the
/// shared util::thread_pool; results are bit-identical per thread count).
void bm_sgemm_threads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 512;
  util::rng gen(8);
  const tensor a = tensor::rand_uniform(shape{n, n}, gen, -1.0F, 1.0F);
  const tensor b = tensor::rand_uniform(shape{n, n}, gen, -1.0F, 1.0F);
  tensor c(shape{n, n});
  ops::set_gemm_threads(threads);
  for (auto _ : state) {
    ops::sgemm(n, n, n, 1.0F, a.data(), b.data(), 0.0F, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  ops::set_gemm_threads(1);
  state.counters["GFLOPS"] = giga_rate(2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(bm_sgemm_threads)->Arg(1)->Arg(2)->Arg(4);

/// Whole conv layer in inference mode (im2col + GEMM + bias), the
/// MobileNet stem on a serving batch.
void bm_conv2d_mobilenet_stem(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  nn::conv2d conv(3, 16, /*kernel=*/3, /*stride=*/1, /*padding=*/1);
  util::rng gen(6);
  conv.weight().value = tensor::randn(conv.weight().value.dims(), gen, 0.0F,
                                      0.1F);
  const tensor input =
      tensor::rand_uniform(shape{batch, 3, 16, 16}, gen, -1.0F, 1.0F);
  for (auto _ : state) {
    tensor out = conv.forward(input, /*training=*/false);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GFLOPS"] =
      giga_rate(static_cast<double>(conv.flops(input.dims())));
}
BENCHMARK(bm_conv2d_mobilenet_stem)->Arg(1)->Arg(16);

/// Quantized GEMM on one dense layer of the served int8 MobileNet, the
/// weights pre-packed as qconv2d/qlinear hold them: [m x k] s8 weights
/// times the u8 activations of `cols * batch` columns; the argument is the
/// serving batch. A plain view is the conv's [k x n] im2col panel; a
/// transposed one is qlinear's row-major [n x k] input, with C stored
/// transposed as [n x m]. Runs through qgemm_s8u8 or, when `kernel` is
/// set, through that explicit kernel on weights packed for it.
void run_qgemm_shape(benchmark::State& state, std::size_t m, std::size_t cols,
                     std::size_t k, bool transposed,
                     const ops::detail::qgemm_kernel* kernel = nullptr) {
  const std::size_t n = cols * static_cast<std::size_t>(state.range(0));
  util::rng gen(9);
  std::vector<std::int8_t> a(m * k);
  std::vector<std::uint8_t> b(k * n);
  for (auto& v : a) v = static_cast<std::int8_t>(gen.uniform_int(-127, 127));
  for (auto& v : b) v = static_cast<std::uint8_t>(gen.uniform_int(0, 255));
  ops::packed_s8 packed;
  if (kernel != nullptr) {
    ops::detail::packed_s8_access::pack(packed, a.data(), m, k,
                                        kernel->k_group);
  } else {
    packed = ops::packed_s8(a.data(), m, k);
  }
  std::vector<float> scale(m, 1e-3F);
  std::vector<float> c(m * n);
  ops::qgemm_epilogue epi;
  epi.scale = scale.data();
  epi.act_lo = 0.0F;
  epi.act_hi = 6.0F;
  const ops::u8_view view =
      transposed ? ops::u8_view{b.data(), 1, k} : ops::u8_view{b.data(), n, 1};
  const std::size_t c_row_stride = transposed ? 1 : n;
  const std::size_t c_col_stride = transposed ? m : 1;
  for (auto _ : state) {
    if (kernel != nullptr) {
      ops::detail::qgemm_s8u8_with(*kernel, packed, n, view, epi, c.data(),
                                   c_row_stride, c_col_stride);
    } else {
      ops::qgemm_s8u8(packed, n, view, epi, c.data(), c_row_stride,
                      c_col_stride);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GOPS"] = giga_rate(2.0 * static_cast<double>(m) * n * k);
}

// The served int8 MobileNet's GEMMs: the stem (k = 27), the three
// pointwise convs and the approximator head (qlinear 128 -> 10, n = batch).
// Each shape is one row through qgemm_s8u8, `bm_qgemm_mobilenet_<shape>`,
// plus one row per kernel the host can run,
// `bm_qgemm_mobilenet_<shape>/<kernel>`, each at batches 1, 4 and 16.
const bool qgemm_rows_registered = [] {
  struct named_shape {
    const char* name;
    std::size_t m, cols, k;
    bool transposed;
  };
  static const named_shape shapes[] = {{"stem", 16, 256, 27, false},
                                       {"pw1", 32, 64, 16, false},
                                       {"pw2", 64, 16, 32, false},
                                       {"pw3", 128, 4, 64, false},
                                       {"head", 10, 1, 128, true}};
  for (const named_shape& s : shapes) {
    const std::string row = std::string("bm_qgemm_mobilenet_") + s.name;
    benchmark::RegisterBenchmark(row.c_str(),
                                 [&s](benchmark::State& st) {
                                   run_qgemm_shape(st, s.m, s.cols, s.k,
                                                   s.transposed);
                                 })
        ->Arg(1)->Arg(4)->Arg(16);
    for (const ops::detail::qgemm_kernel& kernel :
         ops::detail::host_qgemm_kernels()) {
      benchmark::RegisterBenchmark(
          (row + "/" + kernel.name).c_str(),
          [&s, &kernel](benchmark::State& st) {
            run_qgemm_shape(st, s.m, s.cols, s.k, s.transposed, &kernel);
          })
          ->Arg(1)->Arg(4)->Arg(16);
    }
  }
  return true;
}();

/// Depthwise 3x3 stride-2 conv (groups == channels, fused ReLU6) on one
/// of the served MobileNet's planes; the argument is the serving batch.
/// The same float kernel serves the fp32 and int8 edge networks.
void run_depthwise(benchmark::State& state, std::size_t channels,
                   std::size_t hw) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  nn::conv2d conv(channels, channels, /*kernel=*/3, /*stride=*/2,
                  /*padding=*/1, /*groups=*/channels, /*bias=*/true);
  util::rng gen(7);
  conv.weight().value = tensor::randn(conv.weight().value.dims(), gen, 0.0F,
                                      0.3F);
  conv.fuse_activation(0.0F, 6.0F);
  const tensor input =
      tensor::rand_uniform(shape{batch, channels, hw, hw}, gen, 0.0F, 6.0F);
  nn::inference_workspace& ws = nn::inference_workspace::local();
  for (auto _ : state) {
    tensor out = conv.forward(input, /*training=*/false);
    benchmark::DoNotOptimize(out.data());
    ws.recycle(std::move(out));
  }
  state.counters["GFLOPS"] =
      giga_rate(static_cast<double>(conv.flops(input.dims())));
}

void bm_depthwise_mobilenet_16x16(benchmark::State& s) {
  run_depthwise(s, 16, 16);
}
BENCHMARK(bm_depthwise_mobilenet_16x16)->Arg(1)->Arg(4)->Arg(16);
void bm_depthwise_mobilenet_8x8(benchmark::State& s) {
  run_depthwise(s, 32, 8);
}
BENCHMARK(bm_depthwise_mobilenet_8x8)->Arg(1)->Arg(4)->Arg(16);
void bm_depthwise_mobilenet_4x4(benchmark::State& s) {
  run_depthwise(s, 64, 4);
}
BENCHMARK(bm_depthwise_mobilenet_4x4)->Arg(1)->Arg(4)->Arg(16);

/// The served edge network: the two-head MobileNet at 16x16 with 10
/// classes.
core::two_head_config served_edge_config() {
  core::two_head_config cfg;
  cfg.spec.family = models::model_family::mobilenet;
  cfg.spec.image_size = 16;
  cfg.spec.num_classes = 10;
  cfg.init_seed = 0x5EED;
  return cfg;
}

/// The served edge network end to end (extractor and both heads), either
/// conv+BN folded in fp32 or rewritten to int8 by quantize_two_head. The
/// argument is the serving batch; "images/s" is items_per_second.
void run_edge_forward(benchmark::State& state, bool int8) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  core::two_head_network net(served_edge_config());
  util::rng gen(10);
  if (int8) {
    quant::quantize_two_head(
        net, tensor::rand_uniform(shape{64, 3, 16, 16}, gen, -1.0F, 1.0F));
  } else {
    net.prepare_for_inference();
  }
  const tensor images =
      tensor::rand_uniform(shape{batch, 3, 16, 16}, gen, -1.0F, 1.0F);
  nn::inference_workspace& ws = nn::inference_workspace::local();
  for (auto _ : state) {
    core::two_head_output out = net.forward(images, /*training=*/false);
    benchmark::DoNotOptimize(out.logits.data());
    ws.recycle(std::move(out.logits));
    ws.recycle(std::move(out.q_logits));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}

void bm_edge_forward_int8(benchmark::State& s) { run_edge_forward(s, true); }
BENCHMARK(bm_edge_forward_int8)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
void bm_edge_forward_fp32(benchmark::State& s) { run_edge_forward(s, false); }
BENCHMARK(bm_edge_forward_fp32)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/// One int8 edge deployment's build cost: quantize_two_head on a fresh
/// served edge network with 256 calibration images, the shape each
/// perfbench and bench_serving edge worker builds. Network construction
/// is outside the timed region.
void bm_quantize_two_head(benchmark::State& state) {
  util::rng gen(11);
  const tensor calibration =
      tensor::rand_uniform(shape{256, 3, 16, 16}, gen, -1.0F, 1.0F);
  for (auto _ : state) {
    state.PauseTiming();
    core::two_head_network net(served_edge_config());
    state.ResumeTiming();
    quant::quant_report report = quant::quantize_two_head(net, calibration);
    benchmark::DoNotOptimize(report.quantized);
  }
}
BENCHMARK(bm_quantize_two_head)->Unit(benchmark::kMillisecond);

void bm_im2col(benchmark::State& state) {
  ops::conv_geometry g;
  g.channels = static_cast<std::size_t>(state.range(0));
  g.height = 16;
  g.width = 16;
  g.kernel = 3;
  g.stride = 1;
  g.padding = 1;
  util::rng gen(3);
  const tensor image =
      tensor::rand_uniform(shape{g.channels, 16, 16}, gen, -1.0F, 1.0F);
  std::vector<float> columns(g.patch_size() * g.column_count());
  for (auto _ : state) {
    ops::im2col(g, image.data(), columns.data());
    benchmark::DoNotOptimize(columns.data());
  }
}
BENCHMARK(bm_im2col)->Arg(3)->Arg(32)->Arg(128);

void bm_softmax_rows(benchmark::State& state) {
  const auto classes = static_cast<std::size_t>(state.range(0));
  util::rng gen(4);
  const tensor logits =
      tensor::rand_uniform(shape{64, classes}, gen, -5.0F, 5.0F);
  for (auto _ : state) {
    tensor probs = ops::softmax_rows(logits);
    benchmark::DoNotOptimize(probs.data());
  }
}
BENCHMARK(bm_softmax_rows)->Arg(10)->Arg(100)->Arg(200);

void bm_elementwise_axpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::rng gen(5);
  tensor a = tensor::rand_uniform(shape{n}, gen, -1.0F, 1.0F);
  const tensor b = tensor::rand_uniform(shape{n}, gen, -1.0F, 1.0F);
  for (auto _ : state) {
    ops::axpy(a, 0.5F, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * 2 * sizeof(float));
}
BENCHMARK(bm_elementwise_axpy)->Arg(1024)->Arg(65536);

}  // namespace

// Custom main so the perf-tracking flag reads like the other benches:
// --json=<path> expands to google-benchmark's out/out_format pair.
int main(int argc, char** argv) {
  std::vector<std::string> args_storage;
  args_storage.reserve(static_cast<std::size_t>(argc) + 2);
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--json=", 7) == 0) {
      args_storage.emplace_back(std::string("--benchmark_out=") + (arg + 7));
      args_storage.emplace_back("--benchmark_out_format=json");
    } else {
      args_storage.emplace_back(arg);
    }
  }
  std::vector<char*> args;
  args.reserve(args_storage.size());
  for (std::string& s : args_storage) args.push_back(s.data());
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  // The GEMM kernels in force: per-kernel rows cover only what this host
  // can run, and the dispatch rows run the last of them.
  benchmark::AddCustomContext("fp32_gemm_kernel",
                              appeal::ops::sgemm_kernel_name());
  benchmark::AddCustomContext("int8_gemm_kernel",
                              appeal::ops::qgemm_kernel_name());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
