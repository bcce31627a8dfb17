#pragma once
// Deterministic fault injection for the mesh machine.
//
// A FaultPlan is a seeded, replayable schedule of network and node faults:
// per-message drop and bit-flip corruption draws, exact-index drops for
// targeted tests, link-degradation windows that dilate wire time, per-rank
// fail-stop times, and directed per-link fault windows (drop/corrupt/delay
// scoped to a (src, dst, tag) triple — the substrate for asymmetric
// partitions where A hears B but not vice versa). All per-message decisions
// are pure functions of (seed, message index); the discrete-event engine
// delivers messages in a deterministic order, so a run under a given plan
// replays bit-identically.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/crc32.hpp"

namespace wavehpc::mesh {

/// The frame CRC-32 (base/crc32.hpp), under the name mesh callers use.
using base::crc32;

/// One window of degraded wire performance: every transfer whose network
/// entry time falls in [t_begin, t_end) takes `factor` times as long
/// (factor > 1 models a link renegotiating down; the window applies
/// machine-wide, matching the single shared ledger clock).
struct LinkDegradation {
    double t_begin = 0.0;
    double t_end = 0.0;
    double factor = 1.0;
};

/// A rank that fail-stops at virtual time `at`: the node executes nothing
/// from `at` on — no sends, no acks, no further compute.
struct NodeFailure {
    int rank = 0;
    double at = 0.0;
};

/// A directed fault window on one link. Frames whose (src, dst, tag) match
/// (-1 wildcards any value) and whose network-entry time falls in
/// [t_begin, t_end) draw drop/corrupt against these probabilities instead of
/// only the plan-wide ones, and pick up `delay_seconds` of extra wire time.
/// Direction matters: a rule for src=0,dst=1 leaves 1→0 traffic untouched,
/// which is exactly how an asymmetric partition is expressed.
struct LinkFault {
    int src = -1;  ///< sender rank, -1 = any
    int dst = -1;  ///< receiver rank, -1 = any
    int tag = -1;  ///< message tag, -1 = any
    double t_begin = 0.0;
    double t_end = std::numeric_limits<double>::infinity();
    double drop_probability = 1.0;
    double corrupt_probability = 0.0;
    double delay_seconds = 0.0;

    [[nodiscard]] bool matches(int s, int d, int g, double t) const noexcept {
        return (src < 0 || src == s) && (dst < 0 || dst == d) &&
               (tag < 0 || tag == g) && t >= t_begin && t < t_end;
    }
};

/// Per-message fault decision, derived deterministically from the plan seed
/// and the global message index.
struct FaultDecision {
    bool drop = false;
    bool corrupt = false;
    std::size_t flip_byte = 0;  ///< byte index to flip (mod frame size)
    unsigned flip_bit = 0;      ///< bit 0-7 within that byte
    double delay = 0.0;         ///< extra wire seconds from matching links
};

struct FaultPlan {
    std::uint64_t seed = 1;
    double drop_probability = 0.0;     ///< i.i.d. per message (data and acks)
    double corrupt_probability = 0.0;  ///< i.i.d. per message, one bit flipped
    std::vector<std::uint64_t> drop_exact;  ///< message indices always dropped
    std::vector<LinkDegradation> degradations;
    std::vector<NodeFailure> failures;
    std::vector<LinkFault> links;  ///< directed per-link windows

    /// True if any fault source is configured.
    [[nodiscard]] bool enabled() const noexcept;

    /// Deterministic decision for the `index`-th message handed to the
    /// network (counting every frame: payloads, retransmissions, acks).
    [[nodiscard]] FaultDecision decide(std::uint64_t index) const;

    /// Link-aware decision: the plan-wide draw merged with every LinkFault
    /// window matching (src, dst, tag) at network-entry time `t`. Link rules
    /// draw from independent deterministic lanes of the same seed, so adding
    /// a directed rule never perturbs the plan-wide sequence.
    [[nodiscard]] FaultDecision decide_frame(std::uint64_t index, int src,
                                             int dst, int tag, double t) const;

    /// Wire-time dilation factor at network entry time `t` (>= 1).
    [[nodiscard]] double degradation_factor(double t) const noexcept;

    /// Fail-stop time of `rank`, if scheduled.
    [[nodiscard]] std::optional<double> fail_time(int rank) const noexcept;

    /// Parse a comma-separated spec into a plan, e.g.
    ///   "drop=0.01,corrupt=0.001,link=0>1:100:180:1.0;*>2:0:50:0.5:0.1:2,
    ///    fail=3:250,degrade=100:200:4,drop_exact=7:19"
    /// Keys: drop, corrupt (probabilities); drop_exact (':'-separated
    /// indices); fail (';'-separated RANK:AT_MS); degrade (';'-separated
    /// T0_MS:T1_MS:FACTOR); link (';'-separated
    /// SRC>DST:T0_MS:T1_MS:DROP[:CORRUPT[:DELAY_MS]], '*' wildcards, and
    /// an optional '@TAG' suffix on the SRC>DST pair scopes the rule to one
    /// message tag). Malformed input throws std::invalid_argument naming
    /// the offending token and its byte offset within `spec`.
    [[nodiscard]] static FaultPlan parse(std::string_view spec,
                                         std::uint64_t seed);
};

}  // namespace wavehpc::mesh
