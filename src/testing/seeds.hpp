#pragma once
// Seed plumbing for the deterministic-simulation test harness.
//
// Every fuzzed artifact in this repo — a schedule interleaving, a fault
// plan, a traffic pattern — is a pure function of a 64-bit seed, so a
// failing case is fully described by one number. The helpers here read
// seeds from the environment (the CI matrix sweeps them), derive per-case
// seeds from a base seed, and format the one-line reproduction hint a
// failing assertion should carry.

#include <cstddef>
#include <cstdint>
#include <string>

#include "base/mix.hpp"

namespace wavehpc::testing {

/// The generator family FaultPlan draws from (base/mix.hpp).
using base::SplitMix64;

/// `name` as an unsigned 64-bit seed, or `fallback` when unset; a
/// malformed value throws (base/knob.hpp policy).
[[nodiscard]] std::uint64_t env_seed(const char* name, std::uint64_t fallback);

/// Case-count override for fuzz loops (e.g. WAVEHPC_FUZZ_CASES), 1-100000.
[[nodiscard]] std::size_t env_cases(const char* name, std::size_t fallback);

/// The seed of the `index`-th case derived from a base seed: distinct,
/// stable, and printable as a standalone repro seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

/// One-line reproduction hint for a failing seeded case:
///   "repro: WAVEHPC_SCHED_SEED=42 ./build/tests/test_schedule_fuzz"
[[nodiscard]] std::string repro_line(const char* env_name, std::uint64_t seed,
                                     const char* binary);

}  // namespace wavehpc::testing
