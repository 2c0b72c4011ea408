#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

/// \file crc15.hpp
/// The CAN CRC-15 (polynomial x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1,
/// i.e. 0x4599) as specified in Bosch CAN 2.0 §3.1.1. The simulator computes
/// the real CRC over the frame's stuffable bit region so that the stuffed
/// frame length — and therefore every transmission duration — is exact for
/// the concrete payload, not just a worst-case formula.

namespace rtec {

inline constexpr std::uint16_t kCrc15Poly = 0x4599;

/// Feeds one bit into a running CRC-15 register (Bosch 2.0 §3.1.1 algorithm).
[[nodiscard]] constexpr std::uint16_t crc15_step(std::uint16_t crc, bool bit) {
  const bool crc_next = bit != (((crc >> 14) & 1U) != 0);
  crc = static_cast<std::uint16_t>((crc << 1) & 0x7fff);
  if (crc_next) crc = static_cast<std::uint16_t>(crc ^ kCrc15Poly);
  return crc;
}

/// Byte-wise CRC-15 table: entry i is the register after feeding the eight
/// bits of i (MSB first) into a zero register with crc15_step.
inline constexpr std::array<std::uint16_t, 256> kCrc15Table = [] {
  std::array<std::uint16_t, 256> table{};
  for (unsigned i = 0; i < 256; ++i) {
    std::uint16_t crc = 0;
    for (int b = 7; b >= 0; --b) crc = crc15_step(crc, ((i >> b) & 1U) != 0);
    table[i] = crc;
  }
  return table;
}();

/// Feeds one byte (MSB first) into a running CRC-15 register; equal to eight
/// crc15_step calls. The register is linear in its input, so its top eight
/// bits and the byte select one table entry and the rest shifts through.
/// A bit string left-padded with zero bits to a byte boundary has the same
/// CRC as the bits alone: the register starts at 0 and a zero bit keeps a
/// zero register at 0.
[[nodiscard]] constexpr std::uint16_t crc15_byte(std::uint16_t crc,
                                                 std::uint8_t byte) {
  const auto index = static_cast<std::size_t>(((crc >> 7) ^ byte) & 0xff);
  return static_cast<std::uint16_t>(((crc << 8) & 0x7fff) ^ kCrc15Table[index]);
}

/// CRC-15 of a bit sequence given as booleans (MSB-first frame order). The
/// bit-serial reference for the byte-wise path.
[[nodiscard]] std::uint16_t crc15(std::span<const bool> bits);

}  // namespace rtec
