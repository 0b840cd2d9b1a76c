#include "runtime/marshal.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/assert.hpp"

namespace wishbone::runtime {

namespace {

constexpr std::size_t kHeaderBytes = 5;

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v & 0xff);
  out[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  out[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  out[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

}  // namespace

void marshal_into(const Frame& f, std::vector<std::uint8_t>& out) {
  // Every byte below is written, so stale contents never leak through.
  out.resize(kHeaderBytes + f.wire_bytes());
  std::uint8_t* p = out.data();
  put_u32(p, static_cast<std::uint32_t>(f.size()));
  p[4] = static_cast<std::uint8_t>(f.encoding());
  p += kHeaderBytes;
  if (f.encoding() == Encoding::kInt16) {
    for (float x : f.samples()) {
      const double clamped =
          std::clamp(static_cast<double>(std::nearbyint(x)), -32768.0, 32767.0);
      const auto v = static_cast<std::int16_t>(clamped);
      const auto u = static_cast<std::uint16_t>(v);
      p[0] = static_cast<std::uint8_t>(u & 0xff);
      p[1] = static_cast<std::uint8_t>(u >> 8);
      p += 2;
    }
  } else {
    for (float x : f.samples()) {
      std::uint32_t bits = 0;
      static_assert(sizeof bits == sizeof x);
      std::memcpy(&bits, &x, sizeof bits);
      put_u32(p, bits);
      p += 4;
    }
  }
}

std::vector<std::uint8_t> marshal(const Frame& f) {
  std::vector<std::uint8_t> out;
  marshal_into(f, out);
  return out;
}

Encoding unmarshal_into(const std::vector<std::uint8_t>& bytes,
                        std::vector<float>& samples) {
  WB_REQUIRE(bytes.size() >= kHeaderBytes, "unmarshal: truncated header");
  const std::uint32_t count = get_u32(bytes.data());
  const auto enc_raw = bytes[4];
  WB_REQUIRE(enc_raw == static_cast<std::uint8_t>(Encoding::kInt16) ||
                 enc_raw == static_cast<std::uint8_t>(Encoding::kFloat32),
             "unmarshal: unknown encoding");
  const Encoding enc = static_cast<Encoding>(enc_raw);
  const std::size_t value_bytes = static_cast<std::size_t>(enc);
  WB_REQUIRE(bytes.size() ==
                 kHeaderBytes + static_cast<std::size_t>(count) * value_bytes,
             "unmarshal: payload size mismatch");
  samples.resize(count);
  const std::uint8_t* p = bytes.data() + kHeaderBytes;
  if (enc == Encoding::kInt16) {
    for (std::uint32_t i = 0; i < count; ++i, p += 2) {
      const auto u = static_cast<std::uint16_t>(
          p[0] | (static_cast<std::uint16_t>(p[1]) << 8));
      samples[i] = static_cast<float>(static_cast<std::int16_t>(u));
    }
  } else {
    for (std::uint32_t i = 0; i < count; ++i, p += 4) {
      const std::uint32_t bits = get_u32(p);
      std::memcpy(&samples[i], &bits, sizeof bits);
    }
  }
  return enc;
}

Frame unmarshal(const std::vector<std::uint8_t>& bytes) {
  std::vector<float> samples;
  const Encoding enc = unmarshal_into(bytes, samples);
  return Frame(std::move(samples), enc);
}

std::size_t packet_count(std::size_t bytes, std::size_t payload_bytes) {
  WB_REQUIRE(payload_bytes >= 1, "packetize: payload must be >= 1 byte");
  return bytes == 0 ? 1 : (bytes + payload_bytes - 1) / payload_bytes;
}

std::vector<std::vector<std::uint8_t>> packetize(
    const std::vector<std::uint8_t>& bytes, std::size_t payload_bytes) {
  // An empty frame still travels as one (empty) packet.
  std::vector<std::vector<std::uint8_t>> out(
      packet_count(bytes.size(), payload_bytes));
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::size_t at = k * payload_bytes;
    const std::size_t n = std::min(payload_bytes, bytes.size() - at);
    out[k].assign(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                  bytes.begin() + static_cast<std::ptrdiff_t>(at + n));
  }
  return out;
}

std::vector<std::uint8_t> reassemble(
    const std::vector<std::vector<std::uint8_t>>& packets) {
  std::vector<std::uint8_t> out;
  for (const auto& p : packets) out.insert(out.end(), p.begin(), p.end());
  return out;
}

}  // namespace wishbone::runtime
