#pragma once

/// \file checksum.hpp
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte strings.
///
/// Used by the persistence envelope (envelope.hpp) to detect on-disk
/// corruption of serialized models and tuning tables before any parser ever
/// sees the payload. The tables are built at compile time, so there is no
/// global initialisation order to worry about.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace synergy::common {

namespace detail {

/// Slicing-by-8 tables: row 0 is the classic byte-at-a-time table, and row k
/// advances a byte's contribution past k further zero bytes, so eight
/// lookups fold eight input bytes into the register at once.
consteval std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> crc32_tables =
    make_crc32_tables();

}  // namespace detail

/// CRC-32 of `data`, optionally chained from a previous checksum. Eight
/// bytes per step; the values are those of the byte-at-a-time definition.
[[nodiscard]] constexpr std::uint32_t crc32(std::string_view data,
                                            std::uint32_t seed = 0) {
  const auto& t = detail::crc32_tables;
  const auto at = [&data](std::size_t i) -> std::uint32_t {
    return static_cast<unsigned char>(data[i]);
  };
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8)
    c = t[7][(c ^ at(i)) & 0xFFu] ^ t[6][((c >> 8) ^ at(i + 1)) & 0xFFu] ^
        t[5][((c >> 16) ^ at(i + 2)) & 0xFFu] ^ t[4][(c >> 24) ^ at(i + 3)] ^
        t[3][at(i + 4)] ^ t[2][at(i + 5)] ^ t[1][at(i + 6)] ^ t[0][at(i + 7)];
  for (; i < data.size(); ++i) c = t[0][(c ^ at(i)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace synergy::common
