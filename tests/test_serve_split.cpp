// Split-computing appeal tests: cut tables on the model core
// (forward_to_cut / forward_prefix+suffix bit-exactness, fold
// survival), feature-map frames through torn reads, and
// the end-to-end split path over a UDS loopback stub — fixed-cut
// bit-exactness at every cut, unknown-cut rejection with blacklisting,
// and auto mode shedding wire bytes at unchanged answers.
#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <string>
#include <unistd.h>
#include <vector>

#include "collab/cost_model.hpp"
#include "core/two_head_network.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "serve/backends.hpp"
#include "serve/cloud_channel.hpp"
#include "serve/cloud_model.hpp"
#include "serve/split.hpp"
#include "serve/transport/stub_server.hpp"
#include "serve/transport/wire.hpp"
#include "util/rng.hpp"

namespace {

using namespace appeal;
using namespace appeal::serve;

std::string unique_uds_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/appeal-split-" + std::to_string(::getpid()) + "-" + tag + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Bit-exact tensor equality: same shape, same float bit patterns.
void expect_bit_exact(const tensor& a, const tensor& b, const char* what) {
  ASSERT_EQ(a.dims().dims(), b.dims().dims()) << what << ": shape mismatch";
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << ": payload bits diverged";
}

request make_image_request(std::uint64_t key, const tensor& image) {
  request r;
  r.id = key;
  r.key = key;
  r.input = image;
  r.enqueue_time = std::chrono::steady_clock::now();
  return r;
}

std::vector<tensor> make_images(std::size_t n, std::size_t channels,
                                std::size_t hw, std::uint64_t seed) {
  util::rng gen(seed);
  std::vector<tensor> images;
  images.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    images.push_back(
        tensor::rand_uniform(shape{channels, hw, hw}, gen, -1.0F, 1.0F));
  }
  return images;
}

// ---------------------------------------------------------------------------
// Model core: cut tables and prefix/suffix equivalence.
// ---------------------------------------------------------------------------

TEST(split_model, forward_to_cut_prefix_of_full_forward_all_families) {
  // At every cut of every backbone family, forward_to_cut followed by the
  // extractor's suffix must reproduce the full forward bit for bit — the
  // property that makes a split appeal's answer equal full recompute.
  const models::model_family families[] = {
      models::model_family::resnet, models::model_family::mobilenet,
      models::model_family::shufflenet, models::model_family::efficientnet};
  for (const models::model_family family : families) {
    core::two_head_config cfg;
    cfg.spec.family = family;
    cfg.spec.image_size = 16;
    cfg.spec.num_classes = 10;
    cfg.init_seed = 0xC07 + static_cast<std::uint64_t>(family);
    core::two_head_network net(cfg);
    net.prepare_for_inference();
    nn::sequential& extractor = net.extractor();
    ASSERT_FALSE(extractor.cuts().empty())
        << "family " << static_cast<int>(family) << " marks no cuts";

    util::rng gen(7);
    const tensor images = tensor::rand_uniform(
        shape{2, cfg.spec.in_channels, 16, 16}, gen, -1.0F, 1.0F);
    const tensor full = extractor.forward(images, /*training=*/false);
    for (std::size_t c = 0; c < extractor.cuts().size(); ++c) {
      const tensor feature = net.forward_to_cut(images, c);
      const tensor rejoined = extractor.forward_suffix(
          feature, extractor.cuts()[c].boundary);
      expect_bit_exact(rejoined, full, extractor.cuts()[c].name.c_str());
    }
  }
}

TEST(split_model, cut_table_survives_conv_batchnorm_fold) {
  // Folding removes batchnorm children; the cut boundaries must shift
  // with them so a folded and an unfolded build of the same architecture
  // expose the same cuts with the same feature geometry.
  cloud_model_config unfolded_cfg;
  unfolded_cfg.fold = false;
  cloud_model_config folded_cfg;
  folded_cfg.fold = true;
  const auto unfolded = make_cloud_model(unfolded_cfg);
  const auto folded = make_cloud_model(folded_cfg);

  ASSERT_EQ(unfolded->cuts().size(), folded->cuts().size());
  ASSERT_LT(folded->size(), unfolded->size()) << "fold removed no children";
  const shape in({1, unfolded_cfg.spec.in_channels,
                  unfolded_cfg.spec.image_size, unfolded_cfg.spec.image_size});
  const std::vector<nn::cut_info> before = unfolded->cut_table(in);
  const std::vector<nn::cut_info> after = folded->cut_table(in);
  for (std::size_t c = 0; c < before.size(); ++c) {
    EXPECT_EQ(before[c].name, after[c].name);
    EXPECT_EQ(before[c].output.dims(), after[c].output.dims())
        << "feature shape moved across the fold at cut " << before[c].name;
    EXPECT_EQ(before[c].feature_bytes, after[c].feature_bytes);
    EXPECT_LE(after[c].boundary, before[c].boundary)
        << "fold cannot push a boundary deeper";
  }

  // The folded model still rejoins bit-exactly at every (shifted) cut.
  util::rng gen(11);
  const tensor image = tensor::rand_uniform(
      shape{1, unfolded_cfg.spec.in_channels, unfolded_cfg.spec.image_size,
            unfolded_cfg.spec.image_size},
      gen, -1.0F, 1.0F);
  const tensor full = folded->forward(image, false);
  for (const nn::cut_point& cut : folded->cuts()) {
    const tensor feature = folded->forward_prefix(image, cut.boundary);
    expect_bit_exact(folded->forward_suffix(feature, cut.boundary), full,
                     cut.name.c_str());
  }
}

TEST(split_model, enumerate_cloud_cuts_matches_model_table) {
  // The shared spec both link ends derive their tables from: 1-based ids,
  // per-sample dims (batch axis stripped), float wire bytes.
  cloud_model_config cfg;
  const std::vector<split_cut_spec> cuts = enumerate_cloud_cuts(cfg);
  const auto net = make_cloud_model(cfg);
  ASSERT_EQ(cuts.size(), net->cuts().size());
  std::size_t raw_bytes = static_cast<std::size_t>(cfg.spec.in_channels) *
                          cfg.spec.image_size * cfg.spec.image_size *
                          sizeof(float);
  bool some_cut_sheds_bytes = false;
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    EXPECT_EQ(cuts[i].id, i + 1);
    EXPECT_EQ(cuts[i].name, net->cuts()[i].name);
    std::size_t count = 1;
    for (const std::size_t d : cuts[i].feature_dims) count *= d;
    EXPECT_EQ(cuts[i].wire_bytes, count * sizeof(float));
    if (cuts[i].wire_bytes < raw_bytes) some_cut_sheds_bytes = true;
  }
  EXPECT_TRUE(some_cut_sheds_bytes)
      << "no cut ships fewer bytes than the raw input; the split path "
         "could never win";
}

// ---------------------------------------------------------------------------
// Wire: split frames through torn reads.
// ---------------------------------------------------------------------------

TEST(wire_split, feature_frame_round_trips_through_torn_reads) {
  const tensor input = tensor::from_values(shape{3, 2, 2},
                                           std::vector<float>(12, 0.25F));
  const tensor feature =
      tensor::from_values(shape{8, 2}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                        13, 14, 15, 16});
  wire::appeal_view v;
  v.id = 42;
  v.key = 7;
  v.model = "split-test";
  v.input = &input;
  v.split_cut = 3;
  v.feature = &feature;
  const std::vector<std::uint8_t> bytes =
      wire::encode_appeal_batch({v});

  // A torn stream: the splitter sees the frame one byte at a time and
  // must yield exactly one well-formed frame at the final byte.
  wire::frame_splitter splitter;
  std::size_t frames = 0;
  wire::frame frame;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    splitter.feed(&bytes[i], 1);
    while (auto f = splitter.next()) {
      frame = std::move(*f);
      ++frames;
      EXPECT_EQ(i, bytes.size() - 1) << "frame completed early";
    }
  }
  ASSERT_EQ(frames, 1U);

  const std::vector<wire::appeal_record> records =
      wire::decode_appeal_batch(frame);
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records[0].id, 42U);
  EXPECT_EQ(records[0].split_cut, 3U);
  expect_bit_exact(records[0].input, feature, "feature payload");
}

// ---------------------------------------------------------------------------
// End-to-end over a UDS loopback stub.
// ---------------------------------------------------------------------------

/// Full-recompute reference predictions for `images` under the canonical
/// cloud model.
std::vector<std::size_t> reference_predictions(
    const cloud_model_config& model_cfg, const std::vector<tensor>& images) {
  auto net = make_cloud_model(model_cfg);
  network_cloud_backend local(*net);
  std::vector<std::size_t> expected(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    expected[i] = local.infer(make_image_request(i, images[i]));
  }
  return expected;
}

/// Ships every image through a channel configured with `split` and
/// returns (predictions, final channel counters).
struct split_run {
  std::vector<std::size_t> got;
  link_counters counters;
};
split_run run_split_appeals(const cloud_model_config& model_cfg,
                            const std::string& endpoint,
                            const split_config& split,
                            const std::vector<tensor>& images,
                            const std::string& name) {
  network_cloud_backend fallback(make_cloud_model(model_cfg));
  link_config cfg;
  cfg.transport = transport_kind::uds;
  cfg.endpoint = endpoint;
  cfg.coalesce_window_ms = 10.0;  // pack several appeals per frame
  cfg.split = split;
  cloud_channel channel(fallback, collab::cost_model{}, cfg, name);
  std::mutex mutex;
  split_run out;
  out.got.assign(images.size(), static_cast<std::size_t>(-1));
  for (std::uint64_t key = 0; key < images.size(); ++key) {
    channel.appeal(make_image_request(key, images[key]),
                   [&](request&& done, const appeal_outcome& outcome) {
                     EXPECT_FALSE(outcome.expired);
                     std::lock_guard<std::mutex> lock(mutex);
                     out.got[done.key] = outcome.prediction;
                   });
  }
  channel.drain();
  out.counters = channel.counters();
  return out;
}

TEST(serve_split, fixed_cut_bit_exact_over_uds_at_every_cut) {
  // The tentpole acceptance gate: at EVERY cut of the canonical model, a
  // feature-map appeal over a real socket must come back with the exact
  // prediction a full recompute produces — and shed uplink bytes whenever
  // the cut's feature is smaller than the raw input.
  cloud_model_config model_cfg;
  model_cfg.init_seed = 0x51157;

  const std::size_t n = 8;
  const std::vector<tensor> images = make_images(
      n, model_cfg.spec.in_channels, model_cfg.spec.image_size, 123);
  const std::vector<std::size_t> expected =
      reference_predictions(model_cfg, images);
  const std::size_t raw_bytes = static_cast<std::size_t>(
      model_cfg.spec.in_channels * model_cfg.spec.image_size *
      model_cfg.spec.image_size * sizeof(float));

  stub_server_config scfg;
  scfg.kind = transport_kind::uds;
  scfg.endpoint = unique_uds_path("fixed");
  scfg.workers = 2;
  scfg.max_cloud_batch = 8;
  stub_server stub(scfg, make_network_scorer_factory(model_cfg));
  stub.start();

  split_config split;
  split.mode = split_mode::fixed;
  split.cuts = enumerate_cloud_cuts(model_cfg);
  ASSERT_FALSE(split.cuts.empty());
  for (const split_cut_spec& cut : split.cuts) {
    split.cut = cut.id;
    const split_run run = run_split_appeals(
        model_cfg, scfg.endpoint, split, images,
        "split-fixed-" + cut.name);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(run.got[i], expected[i])
          << "cut " << cut.name << " diverged from full recompute at " << i;
    }
    EXPECT_EQ(run.counters.local_fallbacks, 0U) << "cut " << cut.name;
    EXPECT_EQ(run.counters.split_rejected, 0U) << "cut " << cut.name;
    EXPECT_EQ(run.counters.split_appeals, n) << "cut " << cut.name;
    EXPECT_EQ(run.counters.split_cut, cut.id);
    // +4: the cut id u32 rides each split record.
    if (cut.wire_bytes + 4 < raw_bytes) {
      EXPECT_EQ(run.counters.split_bytes_saved,
                n * (raw_bytes - cut.wire_bytes - 4))
          << "cut " << cut.name;
    } else {
      EXPECT_EQ(run.counters.split_bytes_saved, 0U) << "cut " << cut.name;
    }
  }
  stub.stop();
}

TEST(serve_split, rejected_cut_completes_locally_and_blacklists) {
  // A peer whose model lacks the cut answers `rejected`: the appeal must
  // complete from the edge's local copy (bit-exact full recompute), the
  // cut must be blacklisted, and every later appeal must ship raw input
  // the peer can score.
  cloud_model_config model_cfg;
  model_cfg.init_seed = 0xDEC1;

  const std::size_t n = 5;
  const std::vector<tensor> images = make_images(
      n, model_cfg.spec.in_channels, model_cfg.spec.image_size, 321);
  const std::vector<std::size_t> expected =
      reference_predictions(model_cfg, images);

  stub_server_config scfg;
  scfg.kind = transport_kind::uds;
  scfg.endpoint = unique_uds_path("reject");
  stub_server stub(scfg, [](const wire::appeal_record& a) -> std::size_t {
    // This cloud has no split support at all: any feature-map appeal is
    // unscorable as sent; raw input scores by key.
    if (a.split_cut != 0) return kRejectedPrediction;
    return static_cast<std::size_t>(a.key % 10);
  });
  stub.start();

  network_cloud_backend fallback(make_cloud_model(model_cfg));
  link_config cfg;
  cfg.transport = transport_kind::uds;
  cfg.endpoint = scfg.endpoint;
  cfg.split.mode = split_mode::fixed;
  cfg.split.cut = 1;
  cfg.split.cuts = enumerate_cloud_cuts(model_cfg);
  cloud_channel channel(fallback, collab::cost_model{}, cfg, "split-reject");

  std::mutex mutex;
  std::vector<std::size_t> got(n, static_cast<std::size_t>(-1));
  const auto submit = [&](std::uint64_t key) {
    channel.appeal(make_image_request(key, images[key]),
                   [&](request&& done, const appeal_outcome& outcome) {
                     EXPECT_FALSE(outcome.expired);
                     std::lock_guard<std::mutex> lock(mutex);
                     got[done.key] = outcome.prediction;
                   });
  };

  // Phase 1: the split appeal is rejected and answered locally.
  submit(0);
  channel.drain();
  EXPECT_EQ(got[0], expected[0])
      << "rejected appeal must complete from the bit-identical local copy";
  link_counters after = channel.counters();
  EXPECT_EQ(after.split_rejected, 1U);
  EXPECT_EQ(after.local_fallbacks, 1U);
  EXPECT_EQ(after.split_cut, 0U) << "rejected cut still active";

  // Phase 2: the cut is blacklisted — later appeals ship raw input and
  // the peer scores them on the wire (no further fallbacks).
  for (std::uint64_t key = 1; key < n; ++key) submit(key);
  channel.drain();
  after = channel.counters();
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_EQ(got[i], i % 10) << "raw-input appeal " << i
                              << " not scored by the peer";
  }
  EXPECT_EQ(after.split_rejected, 1U) << "blacklisted cut was re-shipped";
  EXPECT_EQ(after.split_appeals, 1U);
  EXPECT_EQ(after.local_fallbacks, 1U);
  stub.stop();
}

TEST(serve_split, auto_mode_sheds_wire_bytes_at_unchanged_answers) {
  // Auto mode must pick a feature-map cut on its own (cost model +
  // measured bandwidth), send strictly fewer uplink bytes than raw-input
  // appeals for the same images, and keep every prediction bit-exact.
  cloud_model_config model_cfg;
  model_cfg.init_seed = 0xA070;

  const std::size_t n = 16;
  const std::vector<tensor> images = make_images(
      n, model_cfg.spec.in_channels, model_cfg.spec.image_size, 777);
  const std::vector<std::size_t> expected =
      reference_predictions(model_cfg, images);

  stub_server_config scfg;
  scfg.kind = transport_kind::uds;
  scfg.endpoint = unique_uds_path("auto");
  scfg.workers = 2;
  scfg.max_cloud_batch = 8;
  stub_server stub(scfg, make_network_scorer_factory(model_cfg));
  stub.start();

  split_config off;  // reference: raw-input appeals
  const split_run raw =
      run_split_appeals(model_cfg, scfg.endpoint, off, images, "split-raw");
  split_config autosel;
  autosel.mode = split_mode::autosel;
  autosel.cuts = enumerate_cloud_cuts(model_cfg);
  const split_run split = run_split_appeals(model_cfg, scfg.endpoint, autosel,
                                            images, "split-auto");

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(raw.got[i], expected[i]) << "raw run diverged at " << i;
    EXPECT_EQ(split.got[i], expected[i]) << "auto run diverged at " << i;
  }
  EXPECT_NE(split.counters.split_cut, 0U) << "auto mode never left raw input";
  EXPECT_GT(split.counters.split_appeals, 0U);
  EXPECT_GT(split.counters.split_bytes_saved, 0U);
  EXPECT_LT(split.counters.wire.bytes_sent, raw.counters.wire.bytes_sent)
      << "split appeals must shed uplink bytes on this model";

  // The observability contract the CI gate scrapes: the active cut gauge
  // and the bytes-saved counter exist under the deployment label.
  const std::string metrics = obs::default_registry().render_prometheus();
  EXPECT_NE(metrics.find("appeal_split_cut{deployment=\"split-auto\"}"),
            std::string::npos)
      << metrics;
  EXPECT_NE(
      metrics.find("appeal_split_bytes_saved_total{deployment=\"split-auto\"}"),
      std::string::npos);
  stub.stop();
}

}  // namespace
