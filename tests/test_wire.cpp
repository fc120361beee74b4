// Wire-protocol tests: field-exact round trips, torn/partial reads
// through the frame_splitter, malformed-stream rejection (bad magic /
// any version but the one dialect / type, oversized frames, truncated
// and tampered records), a deterministic mutation fuzzer over valid
// frames, and demux-relevant properties (ids survive arbitrary response
// ordering).
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "serve/transport/wire.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace appeal;
using namespace appeal::serve;

tensor make_tensor() {
  std::vector<float> values;
  for (int i = 0; i < 2 * 3 * 4; ++i) values.push_back(0.25F * i - 3.0F);
  return tensor::from_values(shape{2, 3, 4}, std::move(values));
}

std::vector<wire::appeal_view> make_views(const tensor& t) {
  std::vector<wire::appeal_view> views;
  wire::appeal_view a;
  a.id = 7;
  a.key = 0xDEADBEEFCAFEF00DULL;
  a.label = 3;
  a.priority = priority_class::batch;
  a.deadline_ms = 12.5;
  a.model = "vision";
  a.input = &t;
  views.push_back(a);
  wire::appeal_view b;  // unlabeled, no deadline, no pixels
  b.id = 8;
  b.key = 1;
  b.model = "vision";
  views.push_back(b);
  return views;
}

std::optional<wire::frame> split_one(const std::vector<std::uint8_t>& bytes) {
  wire::frame_splitter splitter;
  splitter.feed(bytes.data(), bytes.size());
  return splitter.next();
}

TEST(wire, appeal_batch_round_trips_every_field) {
  const tensor t = make_tensor();
  const std::vector<std::uint8_t> bytes =
      wire::encode_appeal_batch(make_views(t));
  const std::optional<wire::frame> f = split_one(bytes);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, wire::frame_type::appeal_batch);
  EXPECT_EQ(f->count, 2);

  const std::vector<wire::appeal_record> decoded =
      wire::decode_appeal_batch(*f);
  ASSERT_EQ(decoded.size(), 2U);
  const wire::appeal_record& a = decoded[0];
  EXPECT_EQ(a.id, 7U);
  EXPECT_EQ(a.key, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(a.label, 3U);
  EXPECT_EQ(a.priority, priority_class::batch);
  EXPECT_DOUBLE_EQ(a.deadline_ms, 12.5);
  EXPECT_EQ(a.model, "vision");
  ASSERT_EQ(a.input.dims(), t.dims());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(a.input[i], t[i]) << "payload float " << i;
  }
  const wire::appeal_record& b = decoded[1];
  EXPECT_EQ(b.id, 8U);
  EXPECT_EQ(b.label, request::no_label);
  EXPECT_EQ(b.priority, priority_class::interactive);
  EXPECT_LT(b.deadline_ms, 0.0);
  EXPECT_TRUE(b.input.empty());
}

TEST(wire, encoded_size_matches_wire_bytes_prediction) {
  const tensor t = make_tensor();
  const std::vector<wire::appeal_view> views = make_views(t);
  std::size_t expected = wire::kHeaderBytes;
  for (const wire::appeal_view& v : views) {
    expected += wire::appeal_wire_bytes(v);
  }
  EXPECT_EQ(wire::encode_appeal_batch(views).size(), expected);
}

TEST(wire, response_batch_round_trips_in_any_order) {
  // The cloud may answer a coalesced batch in any order (or split it);
  // the per-record id is the demux key and must survive untouched, and
  // so must every status (an answer that is not a prediction is the
  // whole point of answering instead of dropping).
  std::vector<wire::response_record> batch;
  for (const std::uint64_t id : {9ULL, 2ULL, 5ULL, 14ULL}) {
    wire::response_record r;
    r.id = id;
    r.prediction = 100 + id;
    r.status = static_cast<wire::response_status>(batch.size() % 3);
    r.cloud_ms = 0.5 * static_cast<double>(id);
    batch.push_back(r);
  }
  const std::optional<wire::frame> f =
      split_one(wire::encode_response_batch(batch));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, wire::frame_type::response_batch);
  const std::vector<wire::response_record> decoded =
      wire::decode_response_batch(*f);
  ASSERT_EQ(decoded.size(), batch.size());
  EXPECT_EQ(decoded[2].status, wire::response_status::overloaded);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(decoded[i].id, batch[i].id);
    EXPECT_EQ(decoded[i].prediction, batch[i].prediction);
    EXPECT_EQ(decoded[i].status, batch[i].status);
    EXPECT_DOUBLE_EQ(decoded[i].cloud_ms, batch[i].cloud_ms);
  }
}

TEST(wire, rejects_unknown_response_status) {
  wire::response_record r;
  r.id = 1;
  r.prediction = 4;
  // 3 was the retired `rejected` status of split-computing appeals; a
  // peer still sending it must fail loudly, like any unassigned status.
  for (const std::uint8_t status : {3, 4, 0x7F, 0xFF}) {
    std::vector<std::uint8_t> bytes = wire::encode_response_batch({r});
    // The status byte sits after the header and id + prediction.
    bytes[wire::kHeaderBytes + 16] = status;
    const std::optional<wire::frame> f = split_one(bytes);
    ASSERT_TRUE(f.has_value());
    EXPECT_THROW(wire::decode_response_batch(*f), util::error)
        << "status " << int(status);
  }
}

TEST(wire, splitter_assembles_frames_from_single_byte_reads) {
  const tensor t = make_tensor();
  const std::vector<std::uint8_t> bytes =
      wire::encode_appeal_batch(make_views(t));
  wire::frame_splitter splitter;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    splitter.feed(&bytes[i], 1);
    EXPECT_FALSE(splitter.next().has_value())
        << "frame yielded " << (bytes.size() - 1 - i) << " bytes early";
  }
  splitter.feed(&bytes.back(), 1);
  const std::optional<wire::frame> f = splitter.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(wire::decode_appeal_batch(*f).size(), 2U);
  EXPECT_EQ(splitter.buffered(), 0U);
}

TEST(wire, splitter_yields_back_to_back_frames_in_order) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t id = 0; id < 4; ++id) {
    wire::response_record r;
    r.id = id;
    r.prediction = id;
    const std::vector<std::uint8_t> one = wire::encode_response_batch({r});
    stream.insert(stream.end(), one.begin(), one.end());
  }
  wire::frame_splitter splitter;
  // Feed in two arbitrary chunks that straddle frame boundaries.
  const std::size_t cut = stream.size() / 2 + 3;
  splitter.feed(stream.data(), cut);
  splitter.feed(stream.data() + cut, stream.size() - cut);
  for (std::uint64_t id = 0; id < 4; ++id) {
    const std::optional<wire::frame> f = splitter.next();
    ASSERT_TRUE(f.has_value()) << "frame " << id;
    EXPECT_EQ(wire::decode_response_batch(*f).at(0).id, id);
  }
  EXPECT_FALSE(splitter.next().has_value());
}

TEST(wire, rejects_bad_magic_version_and_type) {
  const std::vector<std::uint8_t> good = wire::encode_response_batch({});
  {
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xFF;  // magic
    wire::frame_splitter s;
    s.feed(bad.data(), bad.size());
    EXPECT_THROW(s.next(), util::error);
  }
  // One dialect: every other version byte is rejected, including the
  // retired 2-4 and the unassigned ones on either side.
  for (const std::uint8_t version : {0, 1, 2, 3, 4, 6, 99, 255}) {
    std::vector<std::uint8_t> bad = good;
    bad[4] = version;
    wire::frame_splitter s;
    s.feed(bad.data(), bad.size());
    EXPECT_THROW(s.next(), util::error) << "version " << int(version);
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad[5] = 42;  // frame type
    wire::frame_splitter s;
    s.feed(bad.data(), bad.size());
    EXPECT_THROW(s.next(), util::error);
  }
}

TEST(wire, rejects_oversized_frame_before_buffering_it) {
  // A header announcing a payload beyond kMaxFrameBytes must throw from
  // the header alone — the receiver never allocates for it.
  std::vector<std::uint8_t> bad = wire::encode_response_batch({});
  const std::uint32_t huge = wire::kMaxFrameBytes + 1;
  std::memcpy(bad.data() + 8, &huge, 4);
  wire::frame_splitter s;
  s.feed(bad.data(), wire::kHeaderBytes);  // header only, no payload
  EXPECT_THROW(s.next(), util::error);
}

TEST(wire, rejects_truncated_and_tampered_records) {
  const tensor t = make_tensor();
  std::vector<std::uint8_t> bytes = wire::encode_appeal_batch(make_views(t));
  {
    // Shrink the payload but keep the header honest about it: the last
    // record now ends mid-field.
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 5);
    const std::uint32_t payload =
        static_cast<std::uint32_t>(cut.size() - wire::kHeaderBytes);
    std::memcpy(cut.data() + 8, &payload, 4);
    const std::optional<wire::frame> f = split_one(cut);
    ASSERT_TRUE(f.has_value());
    EXPECT_THROW(wire::decode_appeal_batch(*f), util::error);
  }
  {
    // Tamper the first record's tensor value count so it disagrees with
    // the shape.
    std::vector<std::uint8_t> tampered = bytes;
    // Offset: header + id/key/label (24) + prio/flags/model_len (4) +
    // deadline (8) + rank word (4) + 3 dims (12) = value-count word.
    const std::size_t off = wire::kHeaderBytes + 24 + 4 + 8 + 4 + 12;
    tampered[off] ^= 0x01;
    const std::optional<wire::frame> f = split_one(tampered);
    ASSERT_TRUE(f.has_value());
    EXPECT_THROW(wire::decode_appeal_batch(*f), util::error);
  }
  // Only flags bit0 (traced) is defined. Every other bit is reserved —
  // bit1 once announced a split-computing cut id — and a record setting
  // one must be rejected, not decoded with its fields misread.
  for (int bit = 1; bit < 8; ++bit) {
    std::vector<std::uint8_t> flagged = bytes;
    // Offset: header + id/key/label (24) + priority (1) = flags byte.
    flagged[wire::kHeaderBytes + 25] |= static_cast<std::uint8_t>(1 << bit);
    const std::optional<wire::frame> f = split_one(flagged);
    ASSERT_TRUE(f.has_value());
    EXPECT_THROW(wire::decode_appeal_batch(*f), util::error) << "bit " << bit;
  }
  {
    // Trailing garbage after the last record.
    std::vector<std::uint8_t> padded = bytes;
    padded.insert(padded.end(), {0, 0, 0});
    const std::uint32_t payload =
        static_cast<std::uint32_t>(padded.size() - wire::kHeaderBytes);
    std::memcpy(padded.data() + 8, &payload, 4);
    const std::optional<wire::frame> f = split_one(padded);
    ASSERT_TRUE(f.has_value());
    EXPECT_THROW(wire::decode_appeal_batch(*f), util::error);
  }
}

TEST(wire, rejects_dims_whose_product_overflows) {
  // A crafted record whose u32 dims multiply to 0 mod 2^64 would pass a
  // naive values == product check with values = 0 and yield a tensor
  // whose shape promises 2^224 elements over empty storage.
  std::vector<std::uint8_t> raw;
  const auto put = [&raw](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      raw.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put(wire::kMagic, 4);
  put(wire::kVersion, 1);
  put(static_cast<std::uint64_t>(wire::frame_type::appeal_batch), 1);
  put(1, 2);  // count
  const std::size_t payload_at = raw.size();
  put(0, 4);  // payload_bytes backpatched below
  put(1, 8);  // id
  put(2, 8);  // key
  put(3, 8);  // label
  put(0, 1);  // priority
  put(0, 1);  // flags
  put(0, 2);  // model_len
  put(0, 8);  // deadline bits
  put(8, 4);  // rank
  for (int d = 0; d < 8; ++d) put(1ull << 28, 4);  // product wraps to 0
  put(0, 4);  // value_count "matches" the wrapped product
  const std::uint64_t payload = raw.size() - wire::kHeaderBytes;
  for (int i = 0; i < 4; ++i) {
    raw[payload_at + i] = static_cast<std::uint8_t>(payload >> (8 * i));
  }
  const std::optional<wire::frame> f = split_one(raw);
  ASSERT_TRUE(f.has_value());
  EXPECT_THROW(wire::decode_appeal_batch(*f), util::error);
}

TEST(wire, appeal_trace_id_round_trips) {
  const tensor t = make_tensor();
  std::vector<wire::appeal_view> views = make_views(t);
  views[0].trace_id = 0xFEEDFACE12345678ULL;  // views[1] stays untraced
  const std::optional<wire::frame> f =
      split_one(wire::encode_appeal_batch(views));
  ASSERT_TRUE(f.has_value());
  const std::vector<wire::appeal_record> decoded =
      wire::decode_appeal_batch(*f);
  ASSERT_EQ(decoded.size(), 2U);
  EXPECT_EQ(decoded[0].trace_id, 0xFEEDFACE12345678ULL);
  EXPECT_EQ(decoded[1].trace_id, 0U);
}

TEST(wire, response_stage_split_round_trips) {
  wire::response_record r;
  r.id = 11;
  r.prediction = 4;
  r.cloud_ms = 3.5;
  r.cloud_queue_ms = 2.25;
  r.cloud_score_ms = 1.25;
  const std::optional<wire::frame> f =
      split_one(wire::encode_response_batch({r}));
  ASSERT_TRUE(f.has_value());
  const std::vector<wire::response_record> decoded =
      wire::decode_response_batch(*f);
  ASSERT_EQ(decoded.size(), 1U);
  EXPECT_DOUBLE_EQ(decoded[0].cloud_queue_ms, 2.25);
  EXPECT_DOUBLE_EQ(decoded[0].cloud_score_ms, 1.25);
}

TEST(wire, overloaded_status_round_trips_with_retry_hint) {
  // The backpressure answer: `overloaded` plus the cloud's queue-wait
  // estimate as a retry-after hint, alongside an ok record in the same
  // frame (whose hint must stay zero).
  wire::response_record shed;
  shed.id = 21;
  shed.status = wire::response_status::overloaded;
  shed.retry_after_ms = 37.5;
  wire::response_record ok;
  ok.id = 22;
  ok.prediction = 6;
  ok.cloud_ms = 1.5;
  const std::optional<wire::frame> f =
      split_one(wire::encode_response_batch({shed, ok}));
  ASSERT_TRUE(f.has_value());
  const std::vector<wire::response_record> decoded =
      wire::decode_response_batch(*f);
  ASSERT_EQ(decoded.size(), 2U);
  EXPECT_EQ(decoded[0].status, wire::response_status::overloaded);
  EXPECT_DOUBLE_EQ(decoded[0].retry_after_ms, 37.5);
  EXPECT_EQ(decoded[1].status, wire::response_status::ok);
  EXPECT_EQ(decoded[1].prediction, 6U);
  EXPECT_DOUBLE_EQ(decoded[1].retry_after_ms, 0.0);
}

// --- mutation fuzzing -------------------------------------------------------

/// Decodes a byte stream the way a receiver does. Every outcome must be
/// well-formed records or a util::error; any other exception escapes
/// and fails the test, and the sanitizer builds catch out-of-bounds
/// reads. Returns the number of records decoded.
std::size_t decode_or_reject(const std::vector<std::uint8_t>& bytes) {
  wire::frame_splitter splitter;
  splitter.feed(bytes.data(), bytes.size());
  std::size_t records = 0;
  try {
    while (std::optional<wire::frame> f = splitter.next()) {
      if (f->type == wire::frame_type::appeal_batch) {
        for (const wire::appeal_record& a : wire::decode_appeal_batch(*f)) {
          EXPECT_EQ(a.input.size(),
                    a.input.dims().rank() == 0
                        ? 0
                        : a.input.dims().element_count());
          EXPECT_LE(static_cast<int>(a.priority),
                    static_cast<int>(priority_class::batch));
          ++records;
        }
      } else {
        for (const wire::response_record& r :
             wire::decode_response_batch(*f)) {
          EXPECT_LE(static_cast<int>(r.status),
                    static_cast<int>(wire::response_status::overloaded));
          ++records;
        }
      }
    }
  } catch (const util::error&) {
    // Rejected: the one failure mode a malformed stream may have.
  }
  return records;
}

/// The fuzzer's seed frames: an appeal batch mixing plain, unlabeled and
/// traced records, and a response batch with every status.
std::vector<std::vector<std::uint8_t>> seed_frames(const tensor& input) {
  std::vector<wire::appeal_view> views = make_views(input);
  wire::appeal_view traced = views[0];
  traced.id = 9;
  traced.trace_id = 0xABCDEF;
  views.push_back(traced);

  std::vector<wire::response_record> responses;
  for (std::uint8_t s = 0;
       s <= static_cast<std::uint8_t>(wire::response_status::overloaded);
       ++s) {
    wire::response_record r;
    r.id = 20 + s;
    r.prediction = s;
    r.status = static_cast<wire::response_status>(s);
    r.cloud_ms = 1.0 + s;
    r.cloud_queue_ms = 0.5;
    r.cloud_score_ms = 0.5 + s;
    r.retry_after_ms = s == 2 ? 12.0 : 0.0;
    responses.push_back(r);
  }
  return {wire::encode_appeal_batch(views),
          wire::encode_response_batch(responses)};
}

void put_le(std::vector<std::uint8_t>& bytes, std::size_t at,
            std::uint64_t v, int width) {
  for (int i = 0; i < width && at + i < bytes.size(); ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

TEST(wire_fuzz, seed_frames_decode_cleanly) {
  const tensor input = make_tensor();
  const auto frames = seed_frames(input);
  EXPECT_EQ(decode_or_reject(frames[0]), 3U);
  EXPECT_EQ(decode_or_reject(frames[1]), 3U);
}

TEST(wire_fuzz, truncation_at_every_length) {
  const tensor input = make_tensor();
  for (const std::vector<std::uint8_t>& frame : seed_frames(input)) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      std::vector<std::uint8_t> cut(frame.begin(), frame.begin() + len);
      // A torn read: the splitter must wait for the rest, never yield.
      EXPECT_EQ(decode_or_reject(cut), 0U) << "prefix " << len;
      // The same cut with the header claiming exactly what is there:
      // the last record now ends early.
      if (len >= wire::kHeaderBytes) {
        put_le(cut, 8, len - wire::kHeaderBytes, 4);
        EXPECT_EQ(decode_or_reject(cut), 0U) << "honest prefix " << len;
      }
    }
  }
}

TEST(wire_fuzz, length_and_count_rewrites) {
  const tensor input = make_tensor();
  const auto frames = seed_frames(input);
  util::rng gen(17);
  // Offsets of the header's count and payload_bytes, and of the first
  // (plain) appeal record's model_len, rank, first dim and value count.
  constexpr std::size_t kRecord = wire::kHeaderBytes;
  const std::vector<std::pair<std::size_t, int>> appeal_fields = {
      {6, 2}, {8, 4}, {kRecord + 26, 2}, {kRecord + 36, 4},
      {kRecord + 40, 4}, {kRecord + 52, 4}};
  const std::vector<std::pair<std::size_t, int>> response_fields = {{6, 2},
                                                                   {8, 4}};
  for (std::size_t which = 0; which < frames.size(); ++which) {
    const auto& fields = which == 0 ? appeal_fields : response_fields;
    for (const auto& [at, width] : fields) {
      const std::uint64_t max = width == 2 ? 0xFFFF : 0xFFFFFFFF;
      std::vector<std::uint64_t> values = {0, 1, 2, 3, 8, 9, 255, 256,
                                           max - 1, max,
                                           wire::kMaxFrameBytes,
                                           wire::kMaxFrameBytes + 1};
      for (int i = 0; i < 64; ++i) values.push_back(gen.next_u64() & max);
      for (const std::uint64_t v : values) {
        std::vector<std::uint8_t> bytes = frames[which];
        put_le(bytes, at, v & max, width);
        decode_or_reject(bytes);
      }
    }
  }
}

TEST(wire_fuzz, random_byte_flips) {
  const tensor input = make_tensor();
  const auto frames = seed_frames(input);
  util::rng gen(4242);
  std::size_t survived = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::uint8_t> bytes = frames[iter % frames.size()];
    const int flips = 1 + static_cast<int>(gen.next_u64() % 4);
    for (int k = 0; k < flips; ++k) {
      const std::size_t at = gen.next_u64() % bytes.size();
      bytes[at] ^= static_cast<std::uint8_t>(1 + gen.next_u64() % 255);
    }
    if (decode_or_reject(bytes) > 0) ++survived;
  }
  // Flips inside float payloads and ids leave the frame well-formed; the
  // fuzzer must exercise both outcomes.
  EXPECT_GT(survived, 0U);
  EXPECT_LT(survived, 4000U);
}

TEST(wire, decoders_reject_mismatched_frame_type) {
  const std::optional<wire::frame> resp =
      split_one(wire::encode_response_batch({}));
  ASSERT_TRUE(resp.has_value());
  EXPECT_THROW(wire::decode_appeal_batch(*resp), util::error);
  const tensor t = make_tensor();
  const std::optional<wire::frame> appeal =
      split_one(wire::encode_appeal_batch(make_views(t)));
  ASSERT_TRUE(appeal.has_value());
  EXPECT_THROW(wire::decode_response_batch(*appeal), util::error);
}

}  // namespace
