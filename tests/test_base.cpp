// The shared primitives in src/base: the splitmix mixer's known answers,
// the whole-token number parsers, and the WAVEHPC_* knob policy as seen
// through the real from_env entry points (unset/empty = default, anything
// else parses fully and in range or throws naming the variable).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/knob.hpp"
#include "base/mix.hpp"
#include "base/parse.hpp"
#include "svc/chaos.hpp"
#include "svc/service.hpp"
#include "svc/shard/cluster.hpp"
#include "testing/seeds.hpp"
#include "tile/plan.hpp"
#include "tile/progressive.hpp"

namespace {

using wavehpc::base::parse_f64;
using wavehpc::base::parse_u64;
using wavehpc::svc::ChaosPlan;
using wavehpc::svc::ServiceConfig;
using wavehpc::svc::shard::ShardClusterConfig;
using wavehpc::tile::TileConfig;

// ------------------------------------------------------------------ mixer

static_assert(wavehpc::base::splitmix64(0) == 0xE220A8397B1DCDAFULL,
              "the mixer is usable in constant expressions");

TEST(Mix, KnownAnswers) {
    using namespace wavehpc::base;
    EXPECT_EQ(splitmix64(0), 0xE220A8397B1DCDAFULL);
    EXPECT_EQ(splitmix64(1), 0x910A2DEC89025CC1ULL);
    EXPECT_EQ(fmix64(1), 0x5692161D100B05E5ULL);
    EXPECT_EQ(fmix64(0), 0U);
}

TEST(Mix, GeneratorStepsAreStatelessDrawsAtGammaMultiples) {
    using namespace wavehpc::base;
    SplitMix64 rng(0);
    for (std::uint64_t k = 0; k < 3; ++k) {
        EXPECT_EQ(rng.next(), splitmix64(k * 0x9E3779B97F4A7C15ULL)) << "k=" << k;
    }
    // The testing harness draws from the very same generator.
    wavehpc::testing::SplitMix64 harness(0);
    EXPECT_EQ(harness.next(), splitmix64(0));
}

TEST(Mix, UnitIntervalUsesTheTop53Bits) {
    using wavehpc::base::u01;
    EXPECT_EQ(u01(0), 0.0);
    EXPECT_EQ(u01(std::uint64_t{1} << 11), 0x1.0p-53);
    EXPECT_EQ(u01(0x7FF), 0.0);  // the low 11 bits are dropped
    EXPECT_LT(u01(~std::uint64_t{0}), 1.0);
}

// ---------------------------------------------------------------- parsers

TEST(Parse, U64AcceptsWholeDecimalTokensOnly) {
    EXPECT_EQ(parse_u64("0"), 0U);
    EXPECT_EQ(parse_u64("1996"), 1996U);
    EXPECT_EQ(parse_u64("18446744073709551615"), ~std::uint64_t{0});
    for (const char* bad : {"", "-1", "+1", " 1", "1 ", "12abc", "0x10", "1.0",
                            "18446744073709551616", "99999999999999999999999"}) {
        EXPECT_EQ(parse_u64(bad), std::nullopt) << "'" << bad << "'";
    }
}

TEST(Parse, F64AcceptsWholeFiniteDecimalTokensOnly) {
    EXPECT_EQ(parse_f64("0.5"), 0.5);
    EXPECT_EQ(parse_f64("5"), 5.0);
    EXPECT_EQ(parse_f64("1e-3"), 1e-3);
    EXPECT_EQ(parse_f64("-2.25"), -2.25);
    for (const char* bad : {"", " 0.5", "0.5 ", "nan", "inf", "-inf", "0x1p-1",
                            "1e400", "12abc", "+0.5", "."}) {
        EXPECT_EQ(parse_f64(bad), std::nullopt) << "'" << bad << "'";
    }
}

// ------------------------------------------------------------ knob policy

/// Sets (or, with nullptr, unsets) one variable for a scope and restores
/// whatever the process had before.
class ScopedEnv {
public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) old_ = old;
        if (value != nullptr) {
            ::setenv(name, value, 1);
        } else {
            ::unsetenv(name);
        }
    }
    ~ScopedEnv() {
        if (old_) {
            ::setenv(name_, old_->c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    const char* name_;
    std::optional<std::string> old_;
};

/// Every knob the from_env entry points below read.
const std::vector<const char*>& all_knobs() {
    static const std::vector<const char*> names = {
        "WAVEHPC_SVC_QUEUE_DEPTH", "WAVEHPC_SVC_QUEUE_BYTES",
        "WAVEHPC_SVC_CONCURRENCY", "WAVEHPC_SVC_CACHE_BYTES",
        "WAVEHPC_SVC_BATCH_MAX", "WAVEHPC_SVC_BATCH_WINDOW_US",
        "WAVEHPC_SVC_ARENA_BYTES", "WAVEHPC_SVC_ARENA_SLAB_CLASSES",
        "WAVEHPC_SVC_RETRY_MAX", "WAVEHPC_SVC_RETRY_BASE_MS",
        "WAVEHPC_SVC_RETRY_CAP_MS", "WAVEHPC_SVC_RETRY_JITTER",
        "WAVEHPC_SVC_BREAKER_THRESHOLD", "WAVEHPC_SVC_BREAKER_ALPHA",
        "WAVEHPC_SVC_BREAKER_MIN_SAMPLES", "WAVEHPC_SVC_BREAKER_OPEN_MS",
        "WAVEHPC_SVC_BREAKER_PROBES", "WAVEHPC_SVC_WATCHDOG_MS",
        "WAVEHPC_SHARD_COUNT", "WAVEHPC_SHARD_VNODES", "WAVEHPC_SHARD_REPLICAS",
        "WAVEHPC_SHARD_SEED", "WAVEHPC_SCHED_SEED", "WAVEHPC_SHARD_HB_MS",
        "WAVEHPC_SHARD_SUSPECT_MS", "WAVEHPC_SHARD_DEAD_MS",
        "WAVEHPC_SHARD_READMIT_OKS", "WAVEHPC_SHARD_GOSSIP_SEED",
        "WAVEHPC_SHARD_GOSSIP_FANOUT", "WAVEHPC_SHARD_WIRE_RETRIES",
        "WAVEHPC_SHARD_FAULTS", "WAVEHPC_TILE_ROWS", "WAVEHPC_TILE_COLS",
        "WAVEHPC_TILE_PREVIEW_BPS", "WAVEHPC_CHAOS_PLAN", "WAVEHPC_CHAOS_SEED",
        "WAVEHPC_FUZZ_CASES"};
    return names;
}

/// Every from_env reading equals the documented (default-constructed) value.
void expect_defaults() {
    const ShardClusterConfig want_shard;
    const ShardClusterConfig got_shard = ShardClusterConfig::from_env();
    EXPECT_EQ(got_shard.shard_count, want_shard.shard_count);
    EXPECT_EQ(got_shard.vnodes, want_shard.vnodes);
    EXPECT_EQ(got_shard.replicas, want_shard.replicas);
    EXPECT_EQ(got_shard.seed, want_shard.seed);
    EXPECT_EQ(got_shard.membership.heartbeat_interval,
              want_shard.membership.heartbeat_interval);
    EXPECT_EQ(got_shard.membership.suspect_after, want_shard.membership.suspect_after);
    EXPECT_EQ(got_shard.membership.dead_after, want_shard.membership.dead_after);
    EXPECT_EQ(got_shard.membership.readmit_oks, want_shard.membership.readmit_oks);
    EXPECT_EQ(got_shard.gossip_seed, want_shard.gossip_seed);
    EXPECT_EQ(got_shard.gossip_fanout, want_shard.gossip_fanout);
    EXPECT_EQ(got_shard.wire_retries, want_shard.wire_retries);
    EXPECT_FALSE(got_shard.transport_faults.enabled());

    const ServiceConfig want;
    const ServiceConfig& got = got_shard.service;
    EXPECT_EQ(got.max_queue_depth, want.max_queue_depth);
    EXPECT_EQ(got.max_queued_bytes, want.max_queued_bytes);
    EXPECT_EQ(got.max_concurrency, want.max_concurrency);
    EXPECT_EQ(got.cache_bytes, want.cache_bytes);
    EXPECT_EQ(got.batch_max, want.batch_max);
    EXPECT_EQ(got.batch_window_us, want.batch_window_us);
    EXPECT_EQ(got.arena.arena_bytes, want.arena.arena_bytes);
    EXPECT_EQ(got.arena.slab_classes, want.arena.slab_classes);
    const auto& r = got.resilience;
    const auto& wr = want.resilience;
    EXPECT_EQ(r.retry.max_attempts, wr.retry.max_attempts);
    EXPECT_EQ(r.retry.base_seconds, wr.retry.base_seconds);
    EXPECT_EQ(r.retry.cap_seconds, wr.retry.cap_seconds);
    EXPECT_EQ(r.retry.jitter, wr.retry.jitter);
    EXPECT_EQ(r.breaker.failure_threshold, wr.breaker.failure_threshold);
    EXPECT_EQ(r.breaker.ewma_alpha, wr.breaker.ewma_alpha);
    EXPECT_EQ(r.breaker.min_samples, wr.breaker.min_samples);
    EXPECT_EQ(r.breaker.open_seconds, wr.breaker.open_seconds);
    EXPECT_EQ(r.breaker.half_open_probes, wr.breaker.half_open_probes);
    EXPECT_EQ(r.watchdog_seconds, wr.watchdog_seconds);

    const TileConfig tile = TileConfig::from_env();
    EXPECT_EQ(tile.tile_rows, TileConfig{}.tile_rows);
    EXPECT_EQ(tile.tile_cols, TileConfig{}.tile_cols);
    EXPECT_EQ(wavehpc::tile::preview_bytes_per_second(), 8.0 * (1 << 20));

    EXPECT_FALSE(ChaosPlan::from_env().enabled());
    EXPECT_EQ(wavehpc::testing::env_cases("WAVEHPC_FUZZ_CASES", 12), 12U);
    EXPECT_EQ(wavehpc::testing::env_seed("WAVEHPC_SCHED_SEED", 42), 42U);
}

TEST(Knob, UnsetAndEmptyReadTheDocumentedDefaults) {
    {
        std::vector<std::unique_ptr<ScopedEnv>> unset;
        for (const char* name : all_knobs()) {
            unset.push_back(std::make_unique<ScopedEnv>(name, nullptr));
        }
        SCOPED_TRACE("unset");
        expect_defaults();
    }
    std::vector<std::unique_ptr<ScopedEnv>> empty;
    for (const char* name : all_knobs()) {
        empty.push_back(std::make_unique<ScopedEnv>(name, ""));
    }
    SCOPED_TRACE("empty");
    expect_defaults();
}

/// `read` must throw std::invalid_argument naming `name` and `value`.
void expect_knob_rejected(const char* name, const char* value,
                          const std::function<void()>& read) {
    const ScopedEnv env(name, value);
    try {
        read();
        ADD_FAILURE() << name << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(name), std::string::npos) << what;
        EXPECT_NE(what.find(std::string("'") + value + "'"), std::string::npos) << what;
    }
}

TEST(Knob, MalformedOrOutOfRangeValuesThrowThroughFromEnv) {
    const auto shard = [] { (void)ShardClusterConfig::from_env(); };
    const auto service = [] { (void)ServiceConfig::from_env(); };
    const auto tile = [] { (void)TileConfig::from_env(); };
    // Each of these was silently taken or defaulted by the old readers.
    expect_knob_rejected("WAVEHPC_SHARD_COUNT", "-1", shard);  // wrapped to 2^64-1
    expect_knob_rejected("WAVEHPC_SHARD_WIRE_RETRIES", "4294967296", shard);  // -> 0
    expect_knob_rejected("WAVEHPC_SVC_QUEUE_DEPTH", "64k", service);  // -> default
    expect_knob_rejected("WAVEHPC_TILE_ROWS", "0", tile);             // -> default
    expect_knob_rejected("WAVEHPC_TILE_COLS", "65537", tile);         // clamped
    expect_knob_rejected("WAVEHPC_SVC_RETRY_JITTER", "1.5", service);  // clamped
    expect_knob_rejected("WAVEHPC_SVC_BREAKER_ALPHA", "0", service);   // clamped
    expect_knob_rejected("WAVEHPC_SVC_ARENA_SLAB_CLASSES", "49", service);
    expect_knob_rejected("WAVEHPC_SVC_RETRY_MAX", "0", service);
    expect_knob_rejected("WAVEHPC_SVC_WATCHDOG_MS", "nan", service);
    expect_knob_rejected("WAVEHPC_SHARD_HB_MS", "0", shard);
    expect_knob_rejected("WAVEHPC_SCHED_SEED", "12abc", shard);
    expect_knob_rejected("WAVEHPC_SCHED_SEED", "12abc", [] {
        (void)wavehpc::testing::env_seed("WAVEHPC_SCHED_SEED", 1);
    });
    expect_knob_rejected("WAVEHPC_FUZZ_CASES", "0", [] {
        (void)wavehpc::testing::env_cases("WAVEHPC_FUZZ_CASES", 10);
    });
    expect_knob_rejected("WAVEHPC_SVC_CACHE_BYTES", "18446744073709551616", service);
    expect_knob_rejected("WAVEHPC_TILE_PREVIEW_BPS", "0.5", [] {
        (void)wavehpc::tile::preview_bytes_per_second();
    });
    const ScopedEnv plan("WAVEHPC_CHAOS_PLAN", "compute=0.1");
    expect_knob_rejected("WAVEHPC_CHAOS_SEED", "-1", [] { (void)ChaosPlan::from_env(); });
}

TEST(Knob, RejectionNamesTheRange) {
    const ScopedEnv env("WAVEHPC_TILE_ROWS", "0");
    try {
        (void)TileConfig::from_env();
        FAIL() << "expected a throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(),
                     "WAVEHPC_TILE_ROWS='0' is not an unsigned integer in [1, 65536]");
    }
}

TEST(Knob, ZeroStaysMeaningfulWhereItMeansSomething) {
    {
        const ScopedEnv window("WAVEHPC_SVC_BATCH_WINDOW_US", "250");
        EXPECT_EQ(ServiceConfig::from_env().batch_window_us, 250U);
    }
    {
        const ScopedEnv window("WAVEHPC_SVC_BATCH_WINDOW_US", "0");  // window off
        EXPECT_EQ(ServiceConfig::from_env().batch_window_us, 0U);
    }
    {
        const ScopedEnv fanout("WAVEHPC_SHARD_GOSSIP_FANOUT", "3");
        EXPECT_EQ(ShardClusterConfig::from_env().gossip_fanout, 3U);
    }
    {
        const ScopedEnv fanout("WAVEHPC_SHARD_GOSSIP_FANOUT", "0");  // all peers
        EXPECT_EQ(ShardClusterConfig::from_env().gossip_fanout, 0U);
    }
}

TEST(Knob, InRangeValuesParseToTheSameResultAsBefore) {
    const ScopedEnv rows("WAVEHPC_TILE_ROWS", "65536");
    const ScopedEnv classes("WAVEHPC_SVC_ARENA_SLAB_CLASSES", "48");
    const ScopedEnv base_ms("WAVEHPC_SVC_RETRY_BASE_MS", "1");
    const ScopedEnv jitter("WAVEHPC_SVC_RETRY_JITTER", "0");
    const ScopedEnv hb("WAVEHPC_SHARD_HB_MS", "5");
    const ScopedEnv retries("WAVEHPC_SHARD_WIRE_RETRIES", "0");
    EXPECT_EQ(TileConfig::from_env().tile_rows, 65536U);
    const ShardClusterConfig cfg = ShardClusterConfig::from_env();
    EXPECT_EQ(cfg.service.arena.slab_classes, 48U);
    EXPECT_EQ(cfg.service.resilience.retry.base_seconds, 1e-3);
    EXPECT_EQ(cfg.service.resilience.retry.jitter, 0.0);
    EXPECT_EQ(cfg.membership.heartbeat_interval, 5e-3);
    EXPECT_EQ(cfg.wire_retries, 0);
}

TEST(Knob, TextIsRawAndEmptyWhenUnset) {
    {
        const ScopedEnv env("WAVEHPC_DWT_KERNEL", nullptr);
        EXPECT_EQ(wavehpc::base::env_text("WAVEHPC_DWT_KERNEL"), "");
    }
    const ScopedEnv env("WAVEHPC_DWT_KERNEL", " lifting ");
    EXPECT_EQ(wavehpc::base::env_text("WAVEHPC_DWT_KERNEL"), " lifting ");
}

}  // namespace
