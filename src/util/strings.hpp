#pragma once

/// \file strings.hpp
/// Small string utilities shared by the frontends, prompt rendering and
/// report formatting. Kept dependency-free.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace genfv::util {

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Split `text` into non-empty whitespace-delimited tokens.
std::vector<std::string> split_ws(std::string_view text);

/// Trim ASCII whitespace from both ends.
std::string trim(std::string_view text);

/// Parse the whole of `text` as a number of type T with std::from_chars: no
/// surrounding whitespace, no '+' sign, no trailing characters. nullopt for
/// anything else — a non-number, a value outside T's range, a '-' sign for
/// an unsigned T, or a NaN/infinite floating-point value.
template <typename T>
std::optional<T> parse_number(std::string_view text) noexcept {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// Join `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

bool starts_with(std::string_view text, std::string_view prefix) noexcept;
bool ends_with(std::string_view text, std::string_view suffix) noexcept;
bool contains(std::string_view text, std::string_view needle) noexcept;

std::string to_lower(std::string_view text);

/// Format `value` (masked to `width` bits) as a Verilog-style sized hex
/// literal, e.g. 32'hdeadbeef.
std::string hex_literal(std::uint64_t value, unsigned width);

/// Format `value` as a `width`-character binary string, MSB first.
std::string bin_string(std::uint64_t value, unsigned width);

/// Render seconds as a human-friendly duration ("12.3 ms", "4.56 s").
std::string format_duration(double seconds);

/// Indent every line of `text` by `spaces` spaces.
std::string indent(std::string_view text, int spaces);

}  // namespace genfv::util
