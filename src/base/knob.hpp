#pragma once
// The one reader of WAVEHPC_* environment knobs. Policy, for every knob:
//
//   - unset or empty: the caller's default;
//   - anything else must be one whole base/parse token lying in
//     [min, max], or the read throws std::invalid_argument naming the
//     variable, the value and the range.
//
// There is no clamping and no silent fallback: a misconfigured run fails
// at setup instead of running with a value nobody asked for.

#include <cstdint>
#include <limits>
#include <string>

namespace wavehpc::base {

[[nodiscard]] std::uint64_t env_u64(
    const char* name, std::uint64_t fallback, std::uint64_t min,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

[[nodiscard]] double env_f64(const char* name, double fallback, double min,
                             double max = std::numeric_limits<double>::max());

/// The variable's raw value; "" when unset.
[[nodiscard]] std::string env_text(const char* name);

}  // namespace wavehpc::base
