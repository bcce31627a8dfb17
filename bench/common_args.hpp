#pragma once
// Shared flag parsing for the bench binaries, so every regenerator spells
// its knobs the same way:
//
//   --smoke      reduced sizes / reduced sweep; a CI pipeline check, not a
//                measurement
//   --seed N     deterministic input seed (0 / unset = the bench default)
//   --size N     square scene edge length (0 / unset = the bench default)
//
// Both `--flag value` and `--flag=value` spellings are accepted. Benches
// with extra knobs pass an ExtraFlag hook; anything neither side claims is
// an error (exit non-zero) so typos never silently run the full sweep.

#include <cstdint>
#include <functional>
#include <iostream>
#include <string_view>

#include "base/parse.hpp"

namespace wavehpc::bench {

struct CommonArgs {
    bool smoke = false;
    std::uint64_t seed = 0;  ///< 0 = bench default
    std::size_t size = 0;    ///< 0 = bench default
};

/// What an ExtraFlag hook did with a flag it was offered.
enum class Consume {
    kNo,            ///< not mine — parser reports an unknown-flag error
    kFlag,          ///< took the flag; the offered value was not used
    kFlagAndValue,  ///< took the flag and its (possibly space-separated) value
};

/// Hook for bench-specific flags. `flag` includes the leading dashes;
/// `value` is the text after '=' or the next argv element ("" if absent).
using ExtraFlag = std::function<Consume(std::string_view flag, std::string_view value)>;

namespace detail {

/// base::parse_u64 (digits only, overflow rejected) in out-parameter form.
inline bool parse_u64(std::string_view text, std::uint64_t& out) {
    const auto v = base::parse_u64(text);
    if (v) out = *v;
    return v.has_value();
}

}  // namespace detail

/// Parse argv into `args`, offering unrecognized flags to `extra`.
/// Returns false (after printing to stderr) on any malformed or unknown
/// flag; callers should exit non-zero.
inline bool parse_bench_args(int argc, char** argv, CommonArgs& args,
                             const ExtraFlag& extra = {}) {
    for (int i = 1; i < argc; ++i) {
        std::string_view arg(argv[i]);
        std::string_view flag = arg;
        std::string_view inline_value;
        bool has_inline = false;
        if (const auto eq = arg.find('='); eq != std::string_view::npos) {
            flag = arg.substr(0, eq);
            inline_value = arg.substr(eq + 1);
            has_inline = true;
        }
        // The next argv element doubles as the value for `--flag value`.
        const std::string_view next_value =
            has_inline ? inline_value
                       : (i + 1 < argc ? std::string_view(argv[i + 1])
                                       : std::string_view());

        if (flag == "--smoke") {
            if (has_inline) {
                std::cerr << argv[0] << ": --smoke takes no value\n";
                return false;
            }
            args.smoke = true;
        } else if (flag == "--seed" || flag == "--size") {
            std::uint64_t v = 0;
            if (!detail::parse_u64(next_value, v)) {
                std::cerr << argv[0] << ": " << flag
                          << " needs an unsigned integer value\n";
                return false;
            }
            if (!has_inline) ++i;
            if (flag == "--seed") {
                args.seed = v;
            } else {
                args.size = static_cast<std::size_t>(v);
            }
        } else if (extra) {
            switch (extra(flag, next_value)) {
            case Consume::kFlag:
                break;
            case Consume::kFlagAndValue:
                if (!has_inline) ++i;
                break;
            case Consume::kNo:
                std::cerr << argv[0] << ": unknown flag '" << flag << "'\n";
                return false;
            }
        } else {
            std::cerr << argv[0] << ": unknown flag '" << flag << "'\n";
            return false;
        }
    }
    return true;
}

/// `value` if the user set it (non-zero), else the bench's default.
template <typename T>
[[nodiscard]] constexpr T or_default(T value, T fallback) {
    return value != T{} ? value : fallback;
}

}  // namespace wavehpc::bench
