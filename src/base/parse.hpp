#pragma once
// Whole-token number parsers shared by the WAVEHPC_* knob reader
// (base/knob.hpp), the fault and chaos plan grammars, and the bench CLI.
// A token either is exactly one number or is rejected: no leading
// whitespace, no trailing junk, no silent wrap or saturation.

#include <cstdint>
#include <optional>
#include <string_view>

namespace wavehpc::base {

/// Decimal digits only (no sign, no base prefix); nullopt when empty,
/// malformed, or past 2^64 - 1.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept;

/// A decimal floating-point number, optionally negative (no '+', no hex);
/// nullopt when empty, malformed, out of double range, inf or nan.
[[nodiscard]] std::optional<double> parse_f64(std::string_view text) noexcept;

}  // namespace wavehpc::base
