// Length-prefixed wire protocol of the edge→cloud appeal link.
//
// Every message is one frame:
//
//   ┌──────────┬─────────┬──────┬───────┬───────────────┬─────────────┐
//   │ magic u32│ ver u8  │ type │ count │ payload_bytes │   payload   │
//   │ "APL1"   │   (5)   │  u8  │  u16  │      u32      │  (records)  │
//   └──────────┴─────────┴──────┴───────┴───────────────┴─────────────┘
//     12-byte header, all integers little-endian, floats IEEE-754.
//
// There is one dialect, version 5; a frame stamped with any other
// version is rejected. Request ids are the demux key: the response side
// may reorder or split batches and the channel still completes the right
// appeal.
//
// An appeal_batch payload holds `count` appeal records:
//
//   id u64 · key u64 · label u64 · priority u8 · flags u8 ·
//   model_len u16 · deadline_ms f64 · [trace_id u64] · rank u32 ·
//   dims u32 × rank · values u32 · model · f32 × values
//
// flags bit0 ("traced"): a trace_id follows deadline_ms, propagating a
// sampled trace span across the link. Every other flag bit is reserved
// and must be zero; the decoder rejects a record that sets one. The
// tensor is always the raw input: the cloud scores the whole big model.
//
// A response_batch payload holds `count` response records:
//
//   id u64 · prediction u64 · status u8 · cloud_ms f64 ·
//   cloud_queue_ms f64 · cloud_score_ms f64 · retry_after_ms f64
//
// cloud_ms is the cloud-stamped cost (work-queue wait + batched
// scoring), split into its two parts for per-stage latency attribution;
// retry_after_ms is the back-off hint of an `overloaded` answer. See
// response_status for what each status means.
//
// Decoding is defensive: a frame_splitter accumulates an arbitrary byte
// stream (torn reads hand it any prefix) and yields only complete,
// well-formed frames; bad magic/version/type, a payload length above
// kMaxFrameBytes, and any record running past the payload end all throw
// util::error instead of reading out of bounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/request.hpp"
#include "tensor/tensor.hpp"

namespace appeal::serve::wire {

inline constexpr std::uint32_t kMagic = 0x314C5041;  // "APL1" little-endian
/// The protocol version every frame carries (and the only one accepted).
inline constexpr std::uint8_t kVersion = 5;
inline constexpr std::size_t kHeaderBytes = 12;
/// Upper bound on one frame's payload; a peer announcing more is treated
/// as corrupt (protects the receiver from attacker/garbage allocations).
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;  // 64 MiB

enum class frame_type : std::uint8_t {
  appeal_batch = 1,
  response_batch = 2,
};

/// One appealed request as it crosses the wire (decode side owns its
/// tensor; the encode side reads straight out of the serve::request).
struct appeal_record {
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  std::uint64_t label = request::no_label;
  priority_class priority = priority_class::interactive;
  /// Remaining deadline budget at send time (ms); < 0 means "none".
  double deadline_ms = -1.0;
  /// Trace span id riding the appeal (flags bit0); 0 = unsampled.
  std::uint64_t trace_id = 0;
  std::string model;  // deployment name
  tensor input;       // may be empty (replay workloads ship no pixels)
};

/// Non-owning encode-side view of an appeal (avoids copying the tensor
/// out of the in-flight request just to frame it).
struct appeal_view {
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  std::uint64_t label = request::no_label;
  priority_class priority = priority_class::interactive;
  double deadline_ms = -1.0;
  std::uint64_t trace_id = 0;  // 0 = unsampled (not encoded)
  std::string_view model;
  const tensor* input = nullptr;  // nullptr encodes as an empty tensor
};

/// How the cloud disposed of one appeal. `expired` means the appeal's
/// remaining deadline was already blown when a cloud worker reached it:
/// the cloud shed it without scoring, and `prediction` is meaningless.
/// `overloaded` means the cloud refused the appeal without
/// scoring — full work queue or a projected deadline miss — and the edge
/// should back off (retry after retry_after_ms, or answer locally).
/// Any other status byte is rejected by the decoder.
enum class response_status : std::uint8_t {
  ok = 0,
  expired = 1,
  overloaded = 2,
};

struct response_record {
  std::uint64_t id = 0;
  std::uint64_t prediction = 0;
  response_status status = response_status::ok;
  /// Stub-side cost of the appeal: work-queue wait + batch scoring time.
  /// The client compares this against its cost model's cloud term.
  double cloud_ms = 0.0;
  /// The cloud_ms total split into work-queue wait and batched scoring,
  /// stamped on the cloud's clock.
  double cloud_queue_ms = 0.0;
  double cloud_score_ms = 0.0;
  /// How long the cloud suggests the edge wait before retrying an
  /// `overloaded` appeal (its queue-wait estimate); 0 on other statuses.
  double retry_after_ms = 0.0;
};

/// One complete, validated frame (header parsed, payload bounds known).
struct frame {
  frame_type type = frame_type::appeal_batch;
  std::uint16_t count = 0;
  std::vector<std::uint8_t> payload;
};

/// Exact wire size of one appeal record (used by the simulator to count
/// the bytes a real link would carry without encoding anything).
std::size_t appeal_wire_bytes(const appeal_view& a);

/// Exact wire size of one response record (id + prediction + status +
/// cloud_ms + queue/score split + retry_after); the simulator uses it to
/// count equivalent downlink bytes.
inline constexpr std::size_t kResponseRecordBytes = 8 + 8 + 1 + 8 + 8 + 8 + 8;

/// Frame encoders.
std::vector<std::uint8_t> encode_appeal_batch(
    const std::vector<appeal_view>& batch);
std::vector<std::uint8_t> encode_response_batch(
    const std::vector<response_record>& batch);

/// Decodes the records of a validated frame. Throws util::error when the
/// frame type does not match, a record overruns the payload, an appeal
/// sets a reserved flag bit, or a response carries an unknown status.
std::vector<appeal_record> decode_appeal_batch(const frame& f);
std::vector<response_record> decode_response_batch(const frame& f);

/// Incremental frame assembly over an arbitrary byte stream. feed() any
/// chunking (a socket read, a single byte); next() yields complete
/// frames in order and std::nullopt while one is still partial. Malformed
/// input (bad magic/version/type, oversized payload) throws util::error
/// — the stream is unrecoverable at that point and the caller should
/// drop the connection.
class frame_splitter {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  std::optional<frame> next();

  /// Bytes buffered but not yet returned as frames.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace appeal::serve::wire
