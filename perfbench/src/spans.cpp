#include "spans.hpp"

#include <utility>

namespace perfbench {

namespace {

namespace serve = appeal::serve;

class traced_edge final : public serve::edge_backend {
 public:
  traced_edge(std::unique_ptr<serve::edge_backend> inner, span_log& log)
      : inner_(std::move(inner)), log_(log) {}

  serve::edge_inference infer(const std::vector<serve::request>& batch) override {
    call_span span{"edge_infer", clock::now(), {}, {}};
    serve::edge_inference out = inner_->infer(batch);
    span.end = clock::now();
    span.keys.reserve(batch.size());
    for (const serve::request& r : batch) span.keys.push_back(r.key);
    log_.record(std::move(span));
    return out;
  }

 private:
  std::unique_ptr<serve::edge_backend> inner_;
  span_log& log_;
};

class traced_cloud final : public serve::cloud_backend {
 public:
  traced_cloud(std::unique_ptr<serve::cloud_backend> inner, span_log& log)
      : inner_(std::move(inner)), log_(log) {}

  std::size_t infer(const serve::request& r) override {
    call_span span{"fallback", clock::now(), {}, {r.key}};
    const std::size_t prediction = inner_->infer(r);
    span.end = clock::now();
    log_.record(std::move(span));
    return prediction;
  }

  appeal::tensor prefix_feature(const appeal::tensor& input,
                                std::uint32_t cut_id) override {
    return inner_->prefix_feature(input, cut_id);
  }

 private:
  std::unique_ptr<serve::cloud_backend> inner_;
  span_log& log_;
};

}  // namespace

void span_log::record(call_span&& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<call_span> span_log::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

std::unique_ptr<serve::edge_backend> traced(
    std::unique_ptr<serve::edge_backend> inner, span_log& log) {
  return std::make_unique<traced_edge>(std::move(inner), log);
}

std::unique_ptr<serve::cloud_backend> traced(
    std::unique_ptr<serve::cloud_backend> inner, span_log& log) {
  return std::make_unique<traced_cloud>(std::move(inner), log);
}

serve::stub_server::scorer_factory traced(
    serve::stub_server::scorer_factory inner, span_log& log) {
  return [inner = std::move(inner), &log](std::size_t worker) {
    return [score = inner(worker), &log](
               const std::vector<const serve::wire::appeal_record*>& batch) {
      call_span span{"stub_score", clock::now(), {}, {}};
      std::vector<std::size_t> out = score(batch);
      span.end = clock::now();
      span.keys.reserve(batch.size());
      for (const serve::wire::appeal_record* a : batch) {
        span.keys.push_back(a->key);
      }
      log.record(std::move(span));
      return out;
    };
  };
}

}  // namespace perfbench
