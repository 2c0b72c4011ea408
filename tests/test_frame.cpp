#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "canbus/frame.hpp"
#include "util/random.hpp"

namespace rtec {
namespace {

// ------------------------------------------------------------- frame lengths

TEST(Frame, StuffableRegionLengths) {
  CanFrame ext;
  ext.extended = true;
  ext.dlc = 8;
  // SOF + 11 + SRR + IDE + 18 + RTR + r1 + r0 + DLC(4) + 64 + CRC(15) = 118
  EXPECT_EQ(frame_stuffable_bits(ext).count, 118);

  CanFrame base;
  base.extended = false;
  base.dlc = 0;
  // SOF + 11 + RTR + IDE + r0 + DLC(4) + CRC(15) = 34
  EXPECT_EQ(frame_stuffable_bits(base).count, 34);
}

TEST(Frame, WorstCaseFormulaMatchesClassicBound) {
  // Extended 8-byte frame: 54 + 64 stuffable, floor(117/4)=29 stuff bits,
  // + 10 tail bits = 157.
  EXPECT_EQ(worst_case_wire_bits(8, true), 157);
  // Base 8-byte frame: 34 + 64 + floor(97/4)=24 + 10 = 132.
  EXPECT_EQ(worst_case_wire_bits(8, false), 132);
  // Base 0-byte frame: 34 + 8 + 10 = 52.
  EXPECT_EQ(worst_case_wire_bits(0, false), 52);
}

TEST(Frame, ActualNeverExceedsWorstCase) {
  Rng r{42};
  for (int trial = 0; trial < 2000; ++trial) {
    CanFrame f;
    f.extended = r.bernoulli(0.5);
    f.id = static_cast<std::uint32_t>(
        r.uniform_int(0, f.extended ? kMaxExtendedId : kMaxBaseId));
    f.dlc = static_cast<std::uint8_t>(r.uniform_int(0, 8));
    for (auto& b : f.data) b = static_cast<std::uint8_t>(r.uniform_int(0, 255));
    EXPECT_LE(frame_wire_bits(f), worst_case_wire_bits(f.dlc, f.extended));
    // Lower bound: unstuffed region + tail.
    const int unstuffed = frame_stuffable_bits(f).count + 10;
    EXPECT_GE(frame_wire_bits(f), unstuffed);
  }
}

TEST(Frame, AlternatingPayloadHasNoDataStuffBits) {
  CanFrame f;
  f.extended = true;
  f.id = 0x0aaaaaaa & kMaxExtendedId;
  f.dlc = 8;
  for (auto& b : f.data) b = 0x55;  // 01010101 — never 5 equal bits
  const FrameBits fb = frame_stuffable_bits(f);
  // Count stuff bits only over the data region by comparing against the
  // same frame with dlc 0: the alternating payload itself adds none beyond
  // what the CRC tail introduces.
  const int stuff =
      count_stuff_bits({fb.bits.data(), static_cast<std::size_t>(fb.count)});
  EXPECT_LE(stuff, 6);  // header + CRC can still stuff a little
}

TEST(Frame, AllZeroPayloadStuffsHeavily) {
  CanFrame f;
  f.extended = true;
  f.id = 0;
  f.dlc = 8;
  f.data.fill(0);
  const FrameBits fb = frame_stuffable_bits(f);
  const int stuff =
      count_stuff_bits({fb.bits.data(), static_cast<std::size_t>(fb.count)});
  // A long run of zeros stuffs every 4 bits after the first 5.
  EXPECT_GE(stuff, 18);
}

TEST(Frame, StuffCountRule) {
  // 5 equal bits -> 1 stuff bit; the stuff bit breaks the run.
  const bool five[] = {false, false, false, false, false};
  EXPECT_EQ(count_stuff_bits(five), 1);
  const bool nine[] = {false, false, false, false, false,
                       false, false, false, false};
  // After the stuff bit (a 1), the remaining 4 zeros do not re-stuff.
  EXPECT_EQ(count_stuff_bits(nine), 1);
  const bool ten[] = {true, true, true, true, true,
                      true, true, true, true, true};
  // 5 ones -> stuff(0); then remaining 5 ones -> ... the stuff bit resets
  // the run, so positions 6..10 are 5 ones -> second stuff bit.
  EXPECT_EQ(count_stuff_bits(ten), 2);
  const bool alternating[] = {true, false, true, false, true, false};
  EXPECT_EQ(count_stuff_bits(alternating), 0);
}

TEST(Frame, DurationScalesWithBitrate) {
  CanFrame f;
  f.extended = true;
  f.dlc = 8;
  f.id = 0x15555555;
  for (auto& b : f.data) b = 0xA5;
  const BusConfig mbit{1'000'000};
  const BusConfig half{500'000};
  EXPECT_EQ(frame_duration(f, half).ns(), 2 * frame_duration(f, mbit).ns());
  EXPECT_EQ(frame_duration(f, mbit).ns(), frame_wire_bits(f) * 1000);
}

TEST(Frame, PaperBlockingTimeBallpark) {
  // The paper quotes ~154 us for the longest CAN message at 1 Mbit/s; our
  // exact worst case (29-bit ID, maximal stuffing) is 157 bits = 157 us.
  const BusConfig mbit{1'000'000};
  const Duration wc = worst_case_frame_duration(8, true, mbit);
  EXPECT_GE(wc.us(), 150.0);
  EXPECT_LE(wc.us(), 160.0);
}

TEST(Frame, RtrFrameHasNoDataField) {
  CanFrame f;
  f.extended = false;
  f.id = 0x123;
  f.rtr = true;
  f.dlc = 8;  // DLC of the requested frame; no data transmitted
  EXPECT_EQ(frame_stuffable_bits(f).count, 34);
}

TEST(Frame, CrcChangesWithPayload) {
  CanFrame a;
  a.extended = true;
  a.id = 0x100;
  a.dlc = 4;
  a.data = {1, 2, 3, 4, 0, 0, 0, 0};
  CanFrame b = a;
  b.data[2] = 9;
  const FrameBits fa = frame_stuffable_bits(a);
  const FrameBits fb = frame_stuffable_bits(b);
  bool differ = false;
  for (int i = 0; i < fa.count; ++i)
    differ |= fa.bits[static_cast<std::size_t>(i)] !=
              fb.bits[static_cast<std::size_t>(i)];
  EXPECT_TRUE(differ);
}

// ------------------------------------------ byte-wise vs bit-level encoder

/// Bit-level reference length: serialized region, stuff bits, fixed tail.
int reference_wire_bits(const CanFrame& f) {
  const FrameBits fb = frame_stuffable_bits(f);
  return fb.count +
         count_stuff_bits(
             {fb.bits.data(), static_cast<std::size_t>(fb.count)}) +
         kFrameTailBits;
}

std::string describe(const CanFrame& f) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s%s id=0x%x dlc=%d data=",
                f.extended ? "ext" : "base", f.rtr ? " rtr" : "", f.id,
                static_cast<int>(f.dlc));
  std::string out = buf;
  for (const std::uint8_t byte : f.data) {
    std::snprintf(buf, sizeof buf, "%02x", byte);
    out += buf;
  }
  return out;
}

TEST(FrameEncoder, MatchesBitLevelOnRandomFrames) {
  // Payload bytes are uniform, all-dominant or all-recessive at random, so
  // long runs cross byte boundaries in every run state.
  Rng r{151};
  for (int trial = 0; trial < 200'000; ++trial) {
    const std::uint64_t shape = r.next_u64();
    CanFrame f;
    f.extended = (shape & 1U) != 0;
    f.rtr = (shape & 6U) == 0;
    f.id = static_cast<std::uint32_t>(shape >> 32) &
           (f.extended ? kMaxExtendedId : kMaxBaseId);
    f.dlc = static_cast<std::uint8_t>((shape >> 3) % 9);
    const std::uint64_t bytes = r.next_u64();
    for (std::size_t i = 0; i < f.data.size(); ++i) {
      const auto kind = (shape >> (8 + 2 * i)) & 3U;
      f.data[i] = kind == 0   ? std::uint8_t{0x00}
                  : kind == 1 ? std::uint8_t{0xFF}
                              : static_cast<std::uint8_t>(bytes >> (8 * i));
    }
    ASSERT_EQ(frame_wire_bits(f), reference_wire_bits(f)) << describe(f);
  }
}

TEST(FrameEncoder, MatchesBitLevelOnAdversarialFrames) {
  // Constant fills and runs of four at every bit offset (0x0F rotated by
  // k), each also repeated across the identifier, plus every single-bit
  // identifier, for every DLC, format and frame type.
  std::vector<std::uint8_t> fills{0x00, 0xFF, 0x55};
  for (int k = 0; k < 8; ++k)
    fills.push_back(static_cast<std::uint8_t>(0x0F << k | 0x0F >> (8 - k)));
  int checked = 0;
  for (const bool extended : {false, true}) {
    const std::uint32_t id_mask = extended ? kMaxExtendedId : kMaxBaseId;
    std::vector<std::uint32_t> ids;
    for (const std::uint8_t fill : fills)
      ids.push_back(fill * 0x01010101U & id_mask);
    for (int b = 0; b < (extended ? 29 : 11); ++b) ids.push_back(1U << b);
    for (const bool rtr : {false, true}) {
      for (int dlc = 0; dlc <= 8; ++dlc) {
        for (const std::uint8_t fill : fills) {
          for (const std::uint32_t id : ids) {
            CanFrame f;
            f.extended = extended;
            f.rtr = rtr;
            f.id = id;
            f.dlc = static_cast<std::uint8_t>(dlc);
            f.data.fill(fill);
            ASSERT_EQ(frame_wire_bits(f), reference_wire_bits(f))
                << describe(f);
            ++checked;
          }
        }
      }
    }
  }
  // formats x types x DLCs x fills x ids (11 patterned + 11 or 29 single-bit)
  EXPECT_EQ(checked, 2 * 9 * 11 * ((11 + 11) + (11 + 29)));
}

}  // namespace
}  // namespace rtec
