#include "testing/seeds.hpp"

#include <sstream>

#include "base/knob.hpp"

namespace wavehpc::testing {

std::uint64_t env_seed(const char* name, std::uint64_t fallback) {
    return base::env_u64(name, fallback, 0);
}

std::size_t env_cases(const char* name, std::size_t fallback) {
    return base::env_u64(name, fallback, 1, 100000);
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
    // One splitmix step decorrelates consecutive indices; the result is
    // itself a valid base seed, so a derived seed pasted back into the env
    // variable replays exactly one case.
    SplitMix64 rng(base ^ (0xA5A5A5A5A5A5A5A5ULL * (index + 1)));
    return rng.next();
}

std::string repro_line(const char* env_name, std::uint64_t seed, const char* binary) {
    std::ostringstream os;
    os << "repro: " << env_name << '=' << seed << ' ' << binary;
    return os.str();
}

}  // namespace wavehpc::testing
