// Marshaling for cut edges (§3: "code generation proceeds, including
// generating communication code for cut edges (e.g., code to marshal
// and unmarshal data structures)") and packetization into link-layer
// messages (§5.2: "program objects must be serialized and split into
// small network packets").
//
// Wire format (little-endian):
//   u32 sample_count | u8 encoding | payload
// with payload either int16 (raw samples, saturating cast) or float32.
//
// The `_into` forms are the one encoder and the one decoder: they write
// into caller-owned storage, so a streaming caller that reuses its
// buffers marshals and unmarshals without touching the heap. `marshal`
// and `unmarshal` are thin allocating wrappers over them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/frame.hpp"

namespace wishbone::runtime {

using graph::Encoding;
using graph::Frame;

/// Serializes a frame into `out`, replacing its contents (`out` is
/// resized to exactly the wire size; its capacity is reused).
void marshal_into(const Frame& f, std::vector<std::uint8_t>& out);

/// Serializes a frame into its wire representation.
[[nodiscard]] std::vector<std::uint8_t> marshal(const Frame& f);

/// Parses a wire representation into `samples` (resized to the sample
/// count; its capacity is reused) and returns the encoding. Throws
/// ContractError on malformed input (truncated header, unknown
/// encoding, payload size mismatch), leaving `samples` untouched.
Encoding unmarshal_into(const std::vector<std::uint8_t>& bytes,
                        std::vector<float>& samples);

/// Parses a wire representation back into a frame. Throws ContractError
/// on malformed input, like unmarshal_into.
[[nodiscard]] Frame unmarshal(const std::vector<std::uint8_t>& bytes);

/// Number of messages packetize() splits `bytes` bytes into at
/// `payload_bytes` per message: ceil(bytes / payload), and 1 for an
/// empty buffer.
[[nodiscard]] std::size_t packet_count(std::size_t bytes,
                                       std::size_t payload_bytes);

/// Splits a wire buffer into messages of at most `payload_bytes` each.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> packetize(
    const std::vector<std::uint8_t>& bytes, std::size_t payload_bytes);

/// Reassembles packetized messages (inverse of packetize, assuming
/// in-order, complete delivery).
[[nodiscard]] std::vector<std::uint8_t> reassemble(
    const std::vector<std::vector<std::uint8_t>>& packets);

}  // namespace wishbone::runtime
