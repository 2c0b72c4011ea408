#include "canbus/frame.hpp"

#include <cassert>

#include "util/crc15.hpp"

namespace rtec {

namespace {

void append_bit(FrameBits& fb, bool bit) {
  assert(fb.count < static_cast<int>(fb.bits.size()));
  fb.bits[static_cast<std::size_t>(fb.count++)] = bit;
}

void append_field(FrameBits& fb, std::uint32_t value, int width) {
  for (int i = width - 1; i >= 0; --i) append_bit(fb, ((value >> i) & 1u) != 0);
}

/// Up to 128 bits, right-aligned: the last appended bit is bit 0 of `lo`.
struct WireWord {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  /// Appends the low `width` bits of `value`, MSB first (1 <= width < 64).
  void append(std::uint64_t value, int width) {
    hi = hi << width | lo >> (64 - width);
    lo = lo << width | value;
  }

  /// Byte `k` counted from the least significant end.
  [[nodiscard]] std::uint8_t byte(int k) const {
    return static_cast<std::uint8_t>(k < 8 ? lo >> (8 * k)
                                           : hi >> (8 * (k - 8)));
  }
};

/// One bit of the 5-identical-bits stuffing rule (the rule of
/// count_stuff_bits). The run state packs the run length 0..4 and its bit as
/// `length + 5 * bit`; 0 is the state before the first bit. A completed run
/// of five adds a stuff bit, the complement, which starts a run of one.
constexpr unsigned stuff_step(unsigned state, bool bit, int& stuffed) {
  const unsigned run = state % 5;
  const bool run_bit = state >= 5;
  const unsigned next = (run == 0 || bit == run_bit) ? run + 1 : 1;
  if (next < 5) return next + (bit ? 5U : 0U);
  ++stuffed;
  return 1 + (bit ? 0U : 5U);
}

/// Byte-wise stuffing table indexed by [run state][next byte]: the low
/// nibble is the run state after the byte's eight bits (MSB first), the high
/// nibble the stuff bits they add (at most two).
constexpr auto kStuffTable = [] {
  std::array<std::array<std::uint8_t, 256>, 10> table{};
  for (unsigned state = 0; state < 10; ++state) {
    for (unsigned byte = 0; byte < 256; ++byte) {
      unsigned s = state;
      int stuffed = 0;
      for (int b = 7; b >= 0; --b)
        s = stuff_step(s, ((byte >> b) & 1U) != 0, stuffed);
      table[state][byte] =
          static_cast<std::uint8_t>(s | static_cast<unsigned>(stuffed) << 4);
    }
  }
  return table;
}();

}  // namespace

FrameBits frame_stuffable_bits(const CanFrame& f) {
  assert(f.dlc <= 8);
  FrameBits fb;
  append_bit(fb, false);  // SOF (dominant)
  if (f.extended) {
    assert(f.id <= kMaxExtendedId);
    append_field(fb, f.id >> 18, 11);  // ID-28..18
    append_bit(fb, true);              // SRR (recessive)
    append_bit(fb, true);              // IDE = 1 (extended)
    append_field(fb, f.id & 0x3ffff, 18);  // ID-17..0
    append_bit(fb, f.rtr);
    append_bit(fb, false);  // r1
    append_bit(fb, false);  // r0
  } else {
    assert(f.id <= kMaxBaseId);
    append_field(fb, f.id, 11);
    append_bit(fb, f.rtr);
    append_bit(fb, false);  // IDE = 0 (base)
    append_bit(fb, false);  // r0
  }
  append_field(fb, f.dlc, 4);
  const int data_bytes = f.rtr ? 0 : f.dlc;
  for (int i = 0; i < data_bytes; ++i)
    append_field(fb, f.data[static_cast<std::size_t>(i)], 8);

  const std::uint16_t crc =
      crc15({fb.bits.data(), static_cast<std::size_t>(fb.count)});
  append_field(fb, crc, 15);
  return fb;
}

int count_stuff_bits(std::span<const bool> region) {
  // Simulate the transmitter: after five consecutive identical bits a
  // complement bit is inserted; the inserted bit participates in subsequent
  // run counting.
  int stuffed = 0;
  int run = 0;
  bool run_bit = false;
  for (bool b : region) {
    if (run == 0 || b == run_bit) {
      run_bit = (run == 0) ? b : run_bit;
      ++run;
    } else {
      run_bit = b;
      run = 1;
    }
    if (run == 5) {
      ++stuffed;
      // The stuff bit is the complement and starts a new run of length 1.
      run_bit = !run_bit;
      run = 1;
    }
  }
  return stuffed;
}

int frame_wire_bits(const CanFrame& f) {
  assert(f.dlc <= 8);
  // Header from SOF through DLC as one field (SOF is the dominant MSB):
  // extended SOF|ID-28..18|SRR|IDE|ID-17..0|RTR|r1|r0|DLC, base
  // SOF|ID|RTR|IDE|r0|DLC; recessive SRR and IDE are 1, r0/r1 are 0.
  const std::uint64_t control = std::uint64_t{f.rtr} << 6 | f.dlc;
  WireWord w;
  int bits = 0;
  if (f.extended) {
    assert(f.id <= kMaxExtendedId);
    w.append(std::uint64_t{f.id >> 18} << 27 | std::uint64_t{3} << 25 |
                 std::uint64_t{f.id & 0x3ffff} << 7 | control,
             39);
    bits = 39;
  } else {
    assert(f.id <= kMaxBaseId);
    w.append(std::uint64_t{f.id} << 7 | control, 19);
    bits = 19;
  }
  const int data_bytes = f.rtr ? 0 : f.dlc;
  for (int i = 0; i < data_bytes; ++i)
    w.append(f.data[static_cast<std::size_t>(i)], 8);
  bits += 8 * data_bytes;

  // The word's high bits above the region are zero: reading it from the
  // top whole byte left-pads SOF..data to a byte boundary, which leaves the
  // CRC unchanged (see crc15_byte).
  std::uint16_t crc = 0;
  for (int k = (bits + 7) / 8 - 1; k >= 0; --k)
    crc = crc15_byte(crc, w.byte(k));
  w.append(crc, 15);
  bits += 15;

  // Stuffing: the bits above the last whole byte through the bit rule, then
  // one table step per byte.
  unsigned state = 0;
  int stuffed = 0;
  const std::uint8_t head = w.byte(bits / 8);
  for (int i = bits % 8 - 1; i >= 0; --i)
    state = stuff_step(state, ((head >> i) & 1U) != 0, stuffed);
  for (int k = bits / 8 - 1; k >= 0; --k) {
    const std::uint8_t step = kStuffTable[state][w.byte(k)];
    state = step & 0xfU;
    stuffed += step >> 4;
  }
  return bits + stuffed + kFrameTailBits;
}

Duration frame_duration(const CanFrame& f, const BusConfig& cfg) {
  return cfg.bit_time() * frame_wire_bits(f);
}

int frame_first_difference_bit(const CanFrame& a, const CanFrame& b) {
  const FrameBits fa = frame_stuffable_bits(a);
  const FrameBits fb = frame_stuffable_bits(b);
  const int common = fa.count < fb.count ? fa.count : fb.count;
  for (int i = 0; i < common; ++i) {
    if (fa.bits[static_cast<std::size_t>(i)] !=
        fb.bits[static_cast<std::size_t>(i)])
      return i + 1;
  }
  if (fa.count != fb.count) return common + 1;
  return 0;
}

int worst_case_wire_bits(int dlc, bool extended) {
  assert(dlc >= 0 && dlc <= 8);
  const int g = extended ? 54 : 34;  // stuffable control + CRC bits
  const int stuffable = g + 8 * dlc;
  const int max_stuff = (stuffable - 1) / 4;
  return stuffable + max_stuff + kFrameTailBits;
}

Duration worst_case_frame_duration(int dlc, bool extended, const BusConfig& cfg) {
  return cfg.bit_time() * worst_case_wire_bits(dlc, extended);
}

}  // namespace rtec
