#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "runtime/marshal.hpp"
#include "util/assert.hpp"

using namespace wishbone;
using namespace wishbone::runtime;
using graph::Encoding;
using graph::Frame;
using wishbone::util::ContractError;

TEST(Marshal, Int16RoundTrip) {
  Frame f({100.0f, -200.0f, 0.0f, 32767.0f, -32768.0f}, Encoding::kInt16);
  const Frame back = unmarshal(marshal(f));
  ASSERT_EQ(back.size(), f.size());
  EXPECT_EQ(back.encoding(), Encoding::kInt16);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_FLOAT_EQ(back[i], f[i]);
  }
}

TEST(Marshal, Float32RoundTripExact) {
  Frame f({3.14159f, -2.71828f, 1e-20f, 1e20f, 0.0f}, Encoding::kFloat32);
  const Frame back = unmarshal(marshal(f));
  EXPECT_EQ(back.encoding(), Encoding::kFloat32);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(back[i], f[i]);  // bit-exact
  }
}

TEST(Marshal, Int16SaturatesOutOfRange) {
  Frame f({1e6f, -1e6f}, Encoding::kInt16);
  const Frame back = unmarshal(marshal(f));
  EXPECT_FLOAT_EQ(back[0], 32767.0f);
  EXPECT_FLOAT_EQ(back[1], -32768.0f);
}

TEST(Marshal, WireSizeMatchesHeaderPlusPayload) {
  Frame f(std::vector<float>(200, 1.0f), Encoding::kInt16);
  const auto wire = marshal(f);
  EXPECT_EQ(wire.size(), 5u + 400u);  // 5-byte header + 2 B/sample
  Frame g(std::vector<float>(13, 1.0f), Encoding::kFloat32);
  EXPECT_EQ(marshal(g).size(), 5u + 52u);  // the paper's 52-byte frame
}

TEST(Marshal, EmptyFrame) {
  Frame f(std::vector<float>{}, Encoding::kInt16);
  const Frame back = unmarshal(marshal(f));
  EXPECT_TRUE(back.empty());
}

TEST(Unmarshal, MalformedInputThrows) {
  EXPECT_THROW((void)unmarshal({}), ContractError);
  EXPECT_THROW((void)unmarshal({1, 2, 3}), ContractError);  // short header
  // Valid header claiming 4 samples but no payload.
  std::vector<std::uint8_t> bad{4, 0, 0, 0,
                                static_cast<std::uint8_t>(Encoding::kInt16)};
  EXPECT_THROW((void)unmarshal(bad), ContractError);
  // Unknown encoding byte.
  std::vector<std::uint8_t> enc{0, 0, 0, 0, 77};
  EXPECT_THROW((void)unmarshal(enc), ContractError);
}

TEST(Packetize, SplitsAndReassembles) {
  std::vector<std::uint8_t> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  const auto packets = packetize(data, 28);
  EXPECT_EQ(packets.size(), 4u);  // 28+28+28+16
  EXPECT_EQ(packets[0].size(), 28u);
  EXPECT_EQ(packets[3].size(), 16u);
  EXPECT_EQ(reassemble(packets), data);
}

TEST(Packetize, ExactMultiple) {
  std::vector<std::uint8_t> data(56, 7);
  const auto packets = packetize(data, 28);
  EXPECT_EQ(packets.size(), 2u);
}

TEST(Packetize, EmptyInputYieldsOneEmptyPacket) {
  const auto packets = packetize({}, 28);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_TRUE(packets[0].empty());
  EXPECT_THROW((void)packetize({1}, 0), ContractError);
}

TEST(Marshal, RandomizedRoundTripProperty) {
  std::mt19937 rng(17);
  std::uniform_real_distribution<float> u(-1000.0f, 1000.0f);
  std::uniform_int_distribution<std::size_t> len(0, 600);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> s(len(rng));
    for (auto& x : s) x = std::nearbyint(u(rng));
    const Encoding enc = trial % 2 ? Encoding::kInt16 : Encoding::kFloat32;
    Frame f(s, enc);
    // Round trip through marshal -> packetize -> reassemble -> unmarshal.
    const Frame back = unmarshal(reassemble(packetize(marshal(f), 28)));
    ASSERT_EQ(back.size(), f.size());
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_FLOAT_EQ(back[i], f[i]);
    }
  }
}

// The `_into` forms are the one encoder/decoder; the allocating API must
// agree with them byte for byte, whatever the reused buffer held before.
TEST(MarshalInto, MatchesMarshalOnReusedDirtyBuffer) {
  std::mt19937 rng(17);
  std::uniform_real_distribution<float> u(-1000.0f, 1000.0f);
  std::uniform_int_distribution<std::size_t> len(0, 600);
  // Dirty and larger than any frame below needs.
  std::vector<std::uint8_t> wire(5 + 4 * 700, 0xAB);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> s(len(rng));
    for (auto& x : s) x = std::nearbyint(u(rng));
    const Encoding enc = trial % 2 ? Encoding::kInt16 : Encoding::kFloat32;
    const Frame f(s, enc);
    marshal_into(f, wire);
    EXPECT_EQ(wire, marshal(f)) << "trial " << trial;
  }
}

TEST(UnmarshalInto, ReusesLargerBufferAndMatchesUnmarshal) {
  std::mt19937 rng(23);
  std::uniform_real_distribution<float> u(-40000.0f, 40000.0f);
  std::uniform_int_distribution<std::size_t> len(0, 300);
  std::vector<float> samples(1000, -7.0f);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> s(len(rng));
    for (auto& x : s) x = u(rng);  // fractional and out of int16 range
    const Encoding enc = trial % 2 ? Encoding::kInt16 : Encoding::kFloat32;
    const std::vector<std::uint8_t> wire = marshal(Frame(s, enc));
    const Frame want = unmarshal(wire);
    const float* storage = samples.data();
    EXPECT_EQ(unmarshal_into(wire, samples), want.encoding());
    EXPECT_EQ(samples.data(), storage);  // capacity reused, no realloc
    ASSERT_EQ(samples.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(samples[i], want[i]);  // bit-exact
    }
  }
}

TEST(UnmarshalInto, RejectsWhateverUnmarshalRejects) {
  constexpr auto kI16 = static_cast<std::uint8_t>(Encoding::kInt16);
  constexpr auto kF32 = static_cast<std::uint8_t>(Encoding::kFloat32);
  const std::vector<std::vector<std::uint8_t>> malformed = {
      {},                          // empty
      {1, 2, 3},                   // short header
      {4, 0, 0, 0, kI16},          // 4 samples claimed, no payload
      {0, 0, 0, 0, 77},            // unknown encoding
      {1, 0, 0, 0, kF32, 1, 2},    // truncated payload
      {0, 0, 0, 0, kI16, 9},       // trailing byte
  };
  for (const auto& bytes : malformed) {
    EXPECT_THROW((void)unmarshal(bytes), ContractError);
    std::vector<float> samples(3, 1.5f);
    EXPECT_THROW((void)unmarshal_into(bytes, samples), ContractError);
    EXPECT_EQ(samples, std::vector<float>(3, 1.5f));  // left untouched
  }
}

TEST(Packetize, PacketCountIsClosedFormOfPacketize) {
  for (std::size_t b = 0; b <= 300; ++b) {
    for (std::size_t p = 1; p <= 64; ++p) {
      ASSERT_EQ(packet_count(b, p),
                packetize(std::vector<std::uint8_t>(b), p).size())
          << "bytes " << b << " payload " << p;
    }
  }
  EXPECT_THROW((void)packet_count(10, 0), ContractError);
}
