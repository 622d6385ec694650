#pragma once

/// \file parse.hpp
/// Whole-token number parsing for trace columns and command-line values.

#include <charconv>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace synergy::common {

/// `text`, all of it, as a `T`: decimal digits with a leading `-` only when
/// `T` is signed, and for a floating-point `T` also a fraction, an exponent,
/// `inf` and `nan` (so every `%.17g` rendering reads back to its bits). No
/// space, `+` or other character may come before or after the number.
/// std::stoi and kin stop at the first bad character ("2x" reads as 2) and
/// wrap a minus sign into an unsigned count ("-1" reads as 2^64 - 1); this
/// rejects both. Throws std::invalid_argument naming `what` (the column or
/// flag being parsed) and the text when nothing parses, characters are left
/// over, or the value is out of T's range.
template <class T>
[[nodiscard]] T parse_number(std::string_view text, std::string_view what) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc{} && ptr == end) return value;
  std::string message = std::string(what) + ": \"" + std::string(text) + "\" is ";
  if (ec == std::errc::result_out_of_range)
    message += "out of range";
  else if constexpr (std::is_floating_point_v<T>)
    message += "not a number";
  else
    message += std::is_signed_v<T> ? "not an integer" : "not a non-negative integer";
  throw std::invalid_argument(message);
}

}  // namespace synergy::common
