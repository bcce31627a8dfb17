// Fault-plan fuzzing (stress tier): random — but seed-determined —
// mesh::FaultPlans drawn within testing::FaultFuzzLimits, driven against the
// invariants the transport and the resilient DWT claim to uphold:
//
//   * exactly-once, in-order, intact delivery per (src, dst, tag) channel
//     over the reliable transport, at any drawn drop/corrupt rate;
//   * after a give-up resync, a channel never duplicates or reorders — and
//     every payload the sender saw acknowledged was really delivered;
//   * perf-budget categories keep summing to the makespan under faults;
//   * the resilient DWT returns the serial pyramid bit-for-bit even when a
//     fuzzed plan drops frames and fail-stops a worker rank;
//   * the shard wire decoders (try_unseal, decode_request_payload,
//     decode_reply_payload) answer any mutated frame or payload with a
//     value, nullopt or WireError — never another exception.
//
// A failing case is reproduced by its printed seed:
//   WAVEHPC_FUZZ_SEED=<seed> WAVEHPC_FUZZ_CASES=1 ./build/tests/test_transport_fuzz

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/dwt.hpp"
#include "core/synthetic.hpp"
#include "mesh/machine.hpp"
#include "svc/shard/wire.hpp"
#include "testing/fuzz.hpp"
#include "testing/invariants.hpp"
#include "testing/seeds.hpp"
#include "wavelet/mesh_dwt_resilient.hpp"

namespace wtest = wavehpc::testing;

namespace {

using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::SequentialCostModel;
using wavehpc::mesh::FaultPlan;
using wavehpc::mesh::Machine;
using wavehpc::mesh::MachineProfile;
using wavehpc::mesh::ReliableParams;

constexpr const char* kSeedEnv = "WAVEHPC_FUZZ_SEED";
constexpr const char* kBinary = "./build/tests/test_transport_fuzz";

std::uint64_t base_seed() { return wtest::env_seed(kSeedEnv, 19960412); }
std::size_t case_count() { return wtest::env_cases("WAVEHPC_FUZZ_CASES", 10); }

std::string repro(std::uint64_t seed) {
    return wtest::repro_line(kSeedEnv, seed, kBinary);
}

// Network-only fuzzing at rates the transport must fully absorb: the
// traffic audit's exactly-once/in-order/intact checks and the closing
// collective must hold for every drawn plan.
TEST(TransportFuzz, ReliableTransportAbsorbsFuzzedNetworkFaults) {
    for (std::size_t i = 0; i < case_count(); ++i) {
        const std::uint64_t seed = wtest::derive_seed(base_seed(), i);
        wtest::SplitMix64 rng(seed);
        const FaultPlan plan = wtest::random_fault_plan(rng, wtest::FaultFuzzLimits{});
        Machine machine(MachineProfile::paragon_pvm());
        machine.set_faults(plan);
        machine.use_reliable_transport(true);
        const auto report = wtest::run_traffic_audit(machine, 5, 3);
        ASSERT_TRUE(report.ok()) << report.violation << "\n  plan: "
                                 << wtest::describe(plan) << "\n  " << repro(seed);
        ASSERT_EQ(wtest::check_budget(report.run), "")
            << "plan: " << wtest::describe(plan) << "\n  " << repro(seed);
        // Dropped frames cost retransmissions, never payloads.
        if (plan.drop_probability > 0.0 && report.run.injected_drops > 0) {
            std::size_t retransmits = 0;
            for (const auto& st : report.run.stats) retransmits += st.retransmits;
            EXPECT_GT(retransmits, 0U) << repro(seed);
        }
    }
}

// One-directional stream under fuzzed burst losses with a deliberately low
// retry cap, so give-ups actually happen. The receiver drains with a
// wildcard timeout; afterwards the delivered stamps must be strictly
// increasing (no duplicate, no reorder across the resync) and include every
// stamp whose send the transport acknowledged.
TEST(TransportFuzz, GiveUpResyncNeverDuplicatesOrReorders) {
    for (std::size_t i = 0; i < case_count(); ++i) {
        const std::uint64_t seed = wtest::derive_seed(base_seed(), i);
        wtest::SplitMix64 rng(seed);

        // Burst drops over the frame index stream: long enough runs to
        // exhaust max_retries=1 (2 attempts) somewhere in the run.
        FaultPlan plan;
        plan.seed = rng.next();
        std::vector<std::uint64_t> bursts;
        std::uint64_t idx = rng.below(6);
        for (int b = 0; b < 8; ++b) {
            const std::uint64_t len = 1 + rng.below(4);
            for (std::uint64_t k = 0; k < len; ++k) bursts.push_back(idx + k);
            idx += len + 1 + rng.below(8);
        }
        plan.drop_exact = bursts;

        Machine machine(MachineProfile::test_profile(4, 1));
        machine.set_faults(plan);
        ReliableParams params;
        params.max_retries = 1;

        constexpr int kTag = 5;
        constexpr std::uint32_t kCount = 24;
        std::vector<std::uint32_t> acked;
        std::vector<std::uint32_t> received;
        machine.run(2, [&](wavehpc::mesh::NodeCtx& ctx) {
            if (ctx.rank() == 0) {
                for (std::uint32_t s = 0; s < kCount; ++s) {
                    if (ctx.csend_reliable(kTag, 1,
                                           std::as_bytes(std::span<const std::uint32_t, 1>(
                                               &s, 1)),
                                           params)) {
                        acked.push_back(s);
                    }
                }
            } else {
                while (true) {
                    auto m = ctx.crecv_timeout(kTag, wavehpc::mesh::kAnySource, 30.0);
                    if (!m.has_value()) break;
                    std::uint32_t s = 0;
                    ASSERT_EQ(m->data.size(), sizeof s);
                    std::memcpy(&s, m->data.data(), sizeof s);
                    received.push_back(s);
                }
            }
        });

        for (std::size_t k = 1; k < received.size(); ++k) {
            ASSERT_LT(received[k - 1], received[k])
                << "duplicate or reordered stamp after give-up resync\n  "
                << repro(seed);
        }
        for (std::uint32_t s : acked) {
            ASSERT_NE(std::find(received.begin(), received.end(), s), received.end())
                << "acknowledged stamp " << s << " never delivered\n  " << repro(seed);
        }
        // The fuzzed bursts must exercise the give-up path at least once in
        // a while; over the sweep we only require the run stayed coherent.
        ASSERT_FALSE(received.empty()) << repro(seed);
    }
}

// Full-stack fuzz: drop/corrupt plus a fail-stopped worker rank. The
// resilient DWT must still hand back the serial pyramid bit-for-bit, name
// the dead rank, and book a budget that sums to the makespan.
TEST(TransportFuzz, ResilientDwtSurvivesFuzzedPlans) {
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 17);
    const FilterPair fp = FilterPair::daubechies(4);
    const auto serial = wavehpc::core::decompose(img, fp, 2,
                                                 wavehpc::core::BoundaryMode::Symmetric);
    constexpr std::size_t kProcs = 4;

    // Size the failure window from a clean run so a drawn fail-stop lands
    // mid-decomposition instead of after completion.
    double clean_makespan = 0.0;
    {
        Machine machine(MachineProfile::paragon_pvm());
        wavehpc::wavelet::ResilientDwtConfig cfg;
        cfg.levels = 2;
        clean_makespan = wavehpc::wavelet::mesh_decompose_resilient(
                             machine, img, fp, cfg, kProcs,
                             SequentialCostModel::paragon_node())
                             .seconds;
    }

    std::size_t cases_with_failures = 0;
    for (std::size_t i = 0; i < case_count(); ++i) {
        const std::uint64_t seed = wtest::derive_seed(base_seed(), i);
        wtest::SplitMix64 rng(seed);
        wtest::FaultFuzzLimits limits;
        limits.max_degradations = 0;  // wire slowdowns only stretch time
        limits.max_failures = 1;
        limits.nprocs = static_cast<int>(kProcs);
        limits.protected_rank = 0;  // the checkpoint holder must survive
        limits.horizon = clean_makespan;
        const FaultPlan plan = wtest::random_fault_plan(rng, limits);
        cases_with_failures += plan.failures.empty() ? 0U : 1U;

        Machine machine(MachineProfile::paragon_pvm());
        machine.set_faults(plan);
        wavehpc::wavelet::ResilientDwtConfig cfg;
        cfg.levels = 2;
        cfg.detect_timeout = 2.0 * clean_makespan;
        const auto res = wavehpc::wavelet::mesh_decompose_resilient(
            machine, img, fp, cfg, kProcs, SequentialCostModel::paragon_node());

        ASSERT_TRUE(wtest::pyramids_bit_identical(res.pyramid, serial))
            << "faults changed DWT coefficients\n  plan: " << wtest::describe(plan)
            << "\n  " << repro(seed);
        ASSERT_EQ(wtest::check_budget(res.run), "")
            << "plan: " << wtest::describe(plan) << "\n  " << repro(seed);
        for (int dead : res.failed_ranks) {
            EXPECT_TRUE(std::any_of(plan.failures.begin(), plan.failures.end(),
                                    [dead](const wavehpc::mesh::NodeFailure& f) {
                                        return f.rank == dead;
                                    }))
                << "declared rank " << dead << " dead without a scheduled failure\n  "
                << repro(seed);
        }
    }
    // The sweep must actually probe the recovery path now and then.
    EXPECT_GT(cases_with_failures, 0U)
        << "no drawn plan contained a fail-stop; widen limits or cases";
}

// ------------------------------------------------------- wire decoders

namespace wire = wavehpc::svc::shard::wire;

// One encoded payload with the byte offsets of its image (rows, cols)
// pairs and, for a value reply, of its pyramid depth.
struct WireSample {
    wire::MsgKind kind;
    std::vector<std::byte> payload;
    std::vector<std::size_t> image_dims;
    std::size_t depth_at = 0;  // 0: no pyramid depth field
};

std::vector<WireSample> wire_corpus(const wavehpc::svc::Clock::time_point now) {
    const ImageF img = wavehpc::core::landsat_tm_like(8, 8, 3);
    wavehpc::svc::TransformRequest req;
    req.image = std::make_shared<const ImageF>(img);
    std::vector<WireSample> corpus;
    corpus.push_back({wire::MsgKind::Request, wire::encode_request_payload(req, now), {16}, 0});

    wavehpc::svc::TransformResult res;
    res.pyramid = wavehpc::core::decompose(img, FilterPair::daubechies(2), 2,
                                           wavehpc::core::BoundaryMode::Periodic);
    wavehpc::svc::TransformReply reply;
    reply.result = std::make_shared<const wavehpc::svc::TransformResult>(res);
    WireSample value{wire::MsgKind::Reply, wire::encode_reply_payload(reply), {}, 91};
    std::size_t at = 95;  // the first image follows the fixed reply fields
    const auto add_image = [&](const ImageF& band) {
        value.image_dims.push_back(at);
        at += 8 + band.size() * sizeof(float);
    };
    for (const auto& lv : res.pyramid.levels) {
        add_image(lv.lh);
        add_image(lv.hl);
        add_image(lv.hh);
    }
    add_image(res.pyramid.approx);
    corpus.push_back(std::move(value));
    corpus.push_back({wire::MsgKind::Reply,
                      wire::encode_reply_error_payload(wire::ReplyErrorKind::Other, "boom"),
                      {},
                      0});
    return corpus;
}

void poke_u32(std::vector<std::byte>& buf, std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4 && at + i < buf.size(); ++i) {
        buf[at + i] = static_cast<std::byte>(v >> (8 * i));
    }
}

// A dimension or count drawn to hit the decoders' overflow and bound edges.
std::uint32_t hostile_u32(wtest::SplitMix64& rng) {
    switch (rng.below(4)) {
        case 0: return 0xFFFFFFFFU;
        case 1: return 0x80000000U;
        case 2: return static_cast<std::uint32_t>(1U << rng.below(32));
        default: return static_cast<std::uint32_t>(rng.next());
    }
}

void flip_bits(std::vector<std::byte>& buf, wtest::SplitMix64& rng) {
    if (buf.empty()) return;
    for (std::uint64_t k = 1 + rng.below(4); k > 0; --k) {
        buf[rng.below(buf.size())] ^= static_cast<std::byte>(1U << rng.below(8));
    }
}

// Decode a payload as its frame's kind says, the way the shard cluster
// does; only WireError may escape.
void decode_as(wire::MsgKind kind, std::span<const std::byte> payload,
               wavehpc::svc::Clock::time_point now) {
    if (kind == wire::MsgKind::Request) {
        (void)wire::decode_request_payload(payload, now);
    } else if (kind == wire::MsgKind::Reply) {
        (void)wire::decode_reply_payload(payload);
    } else {
        (void)wire::decode_roster_payload(payload);
    }
}

std::string first_foreign_exception(const std::function<void()>& fn) {
    try {
        fn();
    } catch (const wire::WireError&) {
    } catch (const std::exception& e) {
        return e.what();
    } catch (...) {
        return "non-std exception";
    }
    return "";
}

// Seeded mutation fuzzing of the shard wire decoders. Frame mutations
// (bit flips, truncation at every header field boundary, an inflated
// payload_size) go through try_unseal, which must answer nullopt or a
// verified view; payload mutations (bit flips, truncation, hostile image
// dims and pyramid depth) are resealed so they pass the CRC and reach the
// payload decoders, which may only throw WireError.
TEST(WireDecoderFuzz, MutatedFramesAndPayloadsOnlyFailAsWireErrors) {
    constexpr std::size_t kMutationsPerCase = 2000;
    // magic, version, kind, flags, src, dst, incarnation, epoch,
    // request_id, payload_size, payload_crc, payload.
    constexpr std::size_t kFieldStarts[] = {0, 4, 6, 7, 8, 12, 16, 24, 32, 40, 44, 48};
    const auto now = wavehpc::svc::Clock::now();
    const auto corpus = wire_corpus(now);
    std::size_t decoded = 0;
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < case_count(); ++i) {
        const std::uint64_t seed = wtest::derive_seed(base_seed(), i);
        wtest::SplitMix64 rng(seed);
        for (std::size_t m = 0; m < kMutationsPerCase; ++m) {
            const WireSample& sample = corpus[rng.below(corpus.size())];
            wire::Header h;
            h.kind = sample.kind;
            h.request_id = m;
            auto frame = wire::seal(h, sample.payload);
            auto payload = sample.payload;
            switch (rng.below(6)) {
                case 0:  // bit flips anywhere in the frame
                    flip_bits(frame, rng);
                    break;
                case 1: {  // truncation at a header field boundary
                    const std::size_t cut = kFieldStarts[rng.below(std::size(kFieldStarts))];
                    frame.resize(cut);
                    ASSERT_FALSE(wire::try_unseal(frame)) << "cut at " << cut << "\n  " << repro(seed);
                    break;
                }
                case 2: {  // inflated payload_size
                    poke_u32(frame, 40, static_cast<std::uint32_t>(frame.size() - wire::kHeaderBytes) +
                                            1 + static_cast<std::uint32_t>(rng.below(1U << 20)));
                    ASSERT_FALSE(wire::try_unseal(frame)) << repro(seed);
                    break;
                }
                case 3:  // payload bit flips behind a valid CRC
                    flip_bits(payload, rng);
                    frame = wire::seal(h, payload);
                    break;
                case 4:  // payload truncation behind a valid CRC
                    payload.resize(rng.below(payload.size() + 1));
                    frame = wire::seal(h, payload);
                    break;
                default: {  // hostile image dims or pyramid depth
                    if (!sample.image_dims.empty() && (sample.depth_at == 0 || rng.below(2) == 0)) {
                        const std::size_t at = sample.image_dims[rng.below(sample.image_dims.size())];
                        poke_u32(payload, at + 4 * rng.below(2), hostile_u32(rng));
                        if (rng.below(2) == 0) poke_u32(payload, at, hostile_u32(rng));
                    } else if (sample.depth_at != 0) {
                        poke_u32(payload, sample.depth_at, hostile_u32(rng));
                    }
                    frame = wire::seal(h, payload);
                    break;
                }
            }
            std::optional<wire::Unsealed> un;
            const std::string unseal_error =
                first_foreign_exception([&] { un = wire::try_unseal(frame); });
            ASSERT_EQ(unseal_error, "") << "try_unseal threw\n  " << repro(seed);
            if (!un) {
                ++rejected;
                continue;
            }
            const std::string decode_error =
                first_foreign_exception([&] { decode_as(un->header.kind, un->payload, now); });
            ASSERT_EQ(decode_error, "") << "decoder threw a non-WireError\n  " << repro(seed);
            ++decoded;
        }
    }
    // Both sides of the CRC must actually be exercised.
    EXPECT_GT(decoded, 0U);
    EXPECT_GT(rejected, 0U);
}

}  // namespace
