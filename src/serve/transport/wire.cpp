#include "serve/transport/wire.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/error.hpp"

namespace appeal::serve::wire {

namespace {

// Integers cross the wire little-endian regardless of host order; floats
// as their IEEE-754 bit patterns through the same integer path.

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f32(std::vector<std::uint8_t>& out, float v) {
  put_u32(out, std::bit_cast<std::uint32_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked sequential reader over a frame payload.
class cursor {
 public:
  cursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { return take(1)[0]; }

  std::uint16_t u16() {
    const std::uint8_t* p = take(2);
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
  }

  std::uint32_t u32() {
    const std::uint8_t* p = take(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }

  std::uint64_t u64() {
    const std::uint8_t* p = take(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }

  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str(std::size_t n) {
    const std::uint8_t* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }

  void floats(float* dst, std::size_t n) {
    if (n == 0) return;
    const std::uint8_t* p = take(4 * n);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(dst, p, 4 * n);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t v = 0;
        for (int b = 3; b >= 0; --b) v = (v << 8) | p[4 * i + b];
        dst[i] = std::bit_cast<float>(v);
      }
    }
  }

  std::size_t remaining() const { return size_ - offset_; }

 private:
  const std::uint8_t* take(std::size_t n) {
    APPEAL_CHECK(n <= size_ - offset_,
                 "wire record truncated: payload ends mid-record");
    const std::uint8_t* p = data_ + offset_;
    offset_ += n;
    return p;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

void put_header(std::vector<std::uint8_t>& out, frame_type type,
                std::size_t count) {
  APPEAL_CHECK(count <= 0xFFFF, "wire batch too large for a u16 count");
  put_u32(out, kMagic);
  put_u8(out, kVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u16(out, static_cast<std::uint16_t>(count));
  put_u32(out, 0);  // payload_bytes backpatched below
}

void patch_payload_bytes(std::vector<std::uint8_t>& out) {
  const std::size_t payload = out.size() - kHeaderBytes;
  APPEAL_CHECK(payload <= kMaxFrameBytes, "encoded frame exceeds kMaxFrameBytes");
  for (int i = 0; i < 4; ++i) {
    out[8 + i] = static_cast<std::uint8_t>(payload >> (8 * i));
  }
}

/// Fixed fields of an appeal record (ids through deadline_ms: 36 bytes)
/// plus its rank and value-count words.
inline constexpr std::size_t kMinAppealBytes = 36 + 4 + 4;

/// flags bit0: a trace_id u64 follows deadline_ms.
inline constexpr std::uint8_t kAppealFlagTraced = 0x01;
/// flags bit1: a cut_id u32 follows the (optional) trace_id, and the
/// tensor payload is the feature map at that cut.
inline constexpr std::uint8_t kAppealFlagSplit = 0x02;

/// A split appeal needs a real feature tensor; without one it degrades
/// to the raw input the receiver can always score.
bool encodes_split(const appeal_view& a) {
  return a.split_cut != 0 && a.feature != nullptr && a.feature->size() > 0;
}

void put_appeal(std::vector<std::uint8_t>& out, const appeal_view& a) {
  static const tensor kEmpty;
  const bool split = encodes_split(a);
  const tensor& t = split ? *a.feature
                          : (a.input != nullptr ? *a.input : kEmpty);
  APPEAL_CHECK(a.model.size() <= 0xFFFF, "deployment name too long for wire");
  const bool traced = a.trace_id != 0;
  put_u64(out, a.id);
  put_u64(out, a.key);
  put_u64(out, a.label);
  put_u8(out, static_cast<std::uint8_t>(a.priority));
  put_u8(out, static_cast<std::uint8_t>((traced ? kAppealFlagTraced : 0) |
                                        (split ? kAppealFlagSplit : 0)));
  put_u16(out, static_cast<std::uint16_t>(a.model.size()));
  put_f64(out, a.deadline_ms);
  if (traced) put_u64(out, a.trace_id);
  if (split) put_u32(out, a.split_cut);
  put_u32(out, static_cast<std::uint32_t>(t.dims().rank()));
  for (const std::size_t d : t.dims().dims()) {
    put_u32(out, static_cast<std::uint32_t>(d));
  }
  put_u32(out, static_cast<std::uint32_t>(t.size()));
  out.insert(out.end(), a.model.begin(), a.model.end());
  if (t.size() == 0) return;
  const std::size_t base = out.size();
  out.resize(base + 4 * t.size());
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data() + base, t.data(), 4 * t.size());
  } else {
    out.resize(base);
    for (const float v : t.values()) put_f32(out, v);
  }
}

}  // namespace

std::size_t appeal_wire_bytes(const appeal_view& a) {
  const bool split = encodes_split(a);
  const tensor* payload = split ? a.feature : a.input;
  const std::size_t rank = payload != nullptr ? payload->dims().rank() : 0;
  const std::size_t values = payload != nullptr ? payload->size() : 0;
  const std::size_t trace = a.trace_id != 0 ? 8 : 0;
  const std::size_t cut = split ? 4 : 0;
  // Fixed fields + optional trace id + optional cut id + dims + name +
  // floats.
  return kMinAppealBytes + trace + cut + 4 * rank + a.model.size() +
         4 * values;
}

std::vector<std::uint8_t> encode_appeal_batch(
    const std::vector<appeal_view>& batch) {
  std::vector<std::uint8_t> out;
  std::size_t total = kHeaderBytes;
  for (const appeal_view& a : batch) total += appeal_wire_bytes(a);
  out.reserve(total);
  put_header(out, frame_type::appeal_batch, batch.size());
  for (const appeal_view& a : batch) put_appeal(out, a);
  patch_payload_bytes(out);
  return out;
}

std::vector<std::uint8_t> encode_response_batch(
    const std::vector<response_record>& batch) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + kResponseRecordBytes * batch.size());
  put_header(out, frame_type::response_batch, batch.size());
  for (const response_record& r : batch) {
    put_u64(out, r.id);
    put_u64(out, r.prediction);
    put_u8(out, static_cast<std::uint8_t>(r.status));
    put_f64(out, r.cloud_ms);
    put_f64(out, r.cloud_queue_ms);
    put_f64(out, r.cloud_score_ms);
    put_f64(out, r.retry_after_ms);
  }
  patch_payload_bytes(out);
  return out;
}

std::vector<appeal_record> decode_appeal_batch(const frame& f) {
  APPEAL_CHECK(f.type == frame_type::appeal_batch,
               "decode_appeal_batch on a non-appeal frame");
  cursor c(f.payload.data(), f.payload.size());
  std::vector<appeal_record> out;
  // A record takes at least kMinAppealBytes, so a forged count cannot
  // make the decoder reserve more than the payload could hold.
  out.reserve(std::min<std::size_t>(f.count,
                                    f.payload.size() / kMinAppealBytes));
  for (std::uint16_t i = 0; i < f.count; ++i) {
    appeal_record a;
    a.id = c.u64();
    a.key = c.u64();
    a.label = c.u64();
    const std::uint8_t prio = c.u8();
    APPEAL_CHECK(prio <= static_cast<std::uint8_t>(priority_class::batch),
                 "wire appeal carries an unknown priority class");
    a.priority = static_cast<priority_class>(prio);
    const std::uint8_t flags = c.u8();
    const std::uint16_t model_len = c.u16();
    a.deadline_ms = c.f64();
    if ((flags & kAppealFlagTraced) != 0) a.trace_id = c.u64();
    if ((flags & kAppealFlagSplit) != 0) {
      a.split_cut = c.u32();
      APPEAL_CHECK(a.split_cut != 0,
                   "wire split appeal carries cut id 0 (raw input)");
    }
    const std::uint32_t rank = c.u32();
    APPEAL_CHECK(rank <= 8, "wire tensor rank implausibly large");
    // No tensor a frame can carry has more floats than the frame cap;
    // checking per-dim keeps the product from wrapping std::size_t.
    constexpr std::size_t kElementCap = kMaxFrameBytes / 4;
    std::vector<std::size_t> dims(rank);
    std::size_t elements = rank == 0 ? 0 : 1;
    for (std::uint32_t d = 0; d < rank; ++d) {
      dims[d] = c.u32();
      APPEAL_CHECK(dims[d] == 0 || elements <= kElementCap / dims[d],
                   "wire tensor element count exceeds the frame cap");
      elements *= dims[d];
    }
    const std::uint32_t values = c.u32();
    APPEAL_CHECK(values == elements,
                 "wire tensor value count disagrees with its shape");
    APPEAL_CHECK(4ull * values <= c.remaining(),
                 "wire tensor payload larger than the frame");
    a.model = c.str(model_len);
    if (rank > 0) {
      std::vector<float> data(values);
      c.floats(data.data(), values);
      a.input = tensor(shape(std::move(dims)), std::move(data));
    }
    out.push_back(std::move(a));
  }
  APPEAL_CHECK(c.remaining() == 0, "trailing bytes after the last record");
  return out;
}

std::vector<response_record> decode_response_batch(const frame& f) {
  APPEAL_CHECK(f.type == frame_type::response_batch,
               "decode_response_batch on a non-response frame");
  cursor c(f.payload.data(), f.payload.size());
  std::vector<response_record> out;
  out.reserve(std::min<std::size_t>(f.count,
                                    f.payload.size() / kResponseRecordBytes));
  for (std::uint16_t i = 0; i < f.count; ++i) {
    response_record r;
    r.id = c.u64();
    r.prediction = c.u64();
    const std::uint8_t status = c.u8();
    APPEAL_CHECK(status <= static_cast<std::uint8_t>(response_status::rejected),
                 "wire response carries an unknown status");
    r.status = static_cast<response_status>(status);
    r.cloud_ms = c.f64();
    r.cloud_queue_ms = c.f64();
    r.cloud_score_ms = c.f64();
    r.retry_after_ms = c.f64();
    out.push_back(r);
  }
  APPEAL_CHECK(c.remaining() == 0, "trailing bytes after the last record");
  return out;
}

void frame_splitter::feed(const std::uint8_t* data, std::size_t n) {
  // Compact lazily: only when the consumed prefix dominates the buffer.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

std::optional<frame> frame_splitter::next() {
  if (buffered() < kHeaderBytes) return std::nullopt;
  cursor header(buffer_.data() + consumed_, kHeaderBytes);
  APPEAL_CHECK(header.u32() == kMagic, "wire stream lost framing (bad magic)");
  APPEAL_CHECK(header.u8() == kVersion, "unsupported wire protocol version");
  const std::uint8_t type = header.u8();
  APPEAL_CHECK(type == static_cast<std::uint8_t>(frame_type::appeal_batch) ||
                   type == static_cast<std::uint8_t>(frame_type::response_batch),
               "unknown wire frame type");
  const std::uint16_t count = header.u16();
  const std::uint32_t payload_bytes = header.u32();
  APPEAL_CHECK(payload_bytes <= kMaxFrameBytes,
               "oversized wire frame rejected");
  if (buffered() < kHeaderBytes + payload_bytes) return std::nullopt;
  frame f;
  f.type = static_cast<frame_type>(type);
  f.count = count;
  const std::uint8_t* body = buffer_.data() + consumed_ + kHeaderBytes;
  f.payload.assign(body, body + payload_bytes);
  consumed_ += kHeaderBytes + payload_bytes;
  return f;
}

}  // namespace appeal::serve::wire
