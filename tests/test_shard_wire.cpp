// Shard wire format + in-process reliable transport (ISSUE 10): sealed
// frame round-trips and rejection of every defect class (truncation, bad
// magic/version, payload CRC), the request/reply/roster/admit payload
// codecs, ARQ behavior under seeded fault plans (retransmits, duplicate
// suppression, give-up, per-channel draw independence), and the
// token+byte-offset contract of both fault-spec parsers.

#include "svc/shard/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/image.hpp"
#include "mesh/faults.hpp"
#include "svc/chaos.hpp"
#include "svc/shard/transport.hpp"

namespace {

using wavehpc::core::ImageF;
using wavehpc::mesh::FaultPlan;
using wavehpc::svc::ChaosPlan;
using wavehpc::svc::RejectReason;
using wavehpc::svc::TransformReply;
using wavehpc::svc::TransformRequest;
using wavehpc::svc::TransformResult;
namespace wire = wavehpc::svc::shard::wire;
using wavehpc::svc::shard::ShardTransport;

std::shared_ptr<const ImageF> tiny_image(std::size_t n = 4) {
    std::vector<float> px(n * n);
    for (std::size_t i = 0; i < px.size(); ++i) px[i] = 0.25f * static_cast<float>(i);
    return std::make_shared<const ImageF>(n, n, std::move(px));
}

// --------------------------------------------------------------- framing

TEST(WireFrame, SealUnsealRoundTripsEveryHeaderField) {
    wire::Header h;
    h.kind = wire::MsgKind::Reply;
    h.src = 3;
    h.dst = 7;
    h.incarnation = 0xDEADBEEFULL;
    h.epoch = 42;
    h.request_id = 0x1122334455667788ULL;
    const std::vector<std::byte> payload{std::byte{1}, std::byte{2}, std::byte{3}};
    const auto frame = wire::seal(h, payload);
    ASSERT_EQ(frame.size(), wire::kHeaderBytes + payload.size());

    const wire::Unsealed u = wire::unseal(frame);
    EXPECT_EQ(u.header.kind, h.kind);
    EXPECT_EQ(u.header.src, h.src);
    EXPECT_EQ(u.header.dst, h.dst);
    EXPECT_EQ(u.header.incarnation, h.incarnation);
    EXPECT_EQ(u.header.epoch, h.epoch);
    EXPECT_EQ(u.header.request_id, h.request_id);
    EXPECT_TRUE(std::ranges::equal(u.payload, payload));
    // The payload is a view into the frame, not a copy of it.
    EXPECT_EQ(u.payload.data(), frame.data() + wire::kHeaderBytes);
}

TEST(WireFrame, RejectsTruncationBadMagicBadVersionAndPayloadCorruption) {
    wire::Header h;
    const std::vector<std::byte> payload(16, std::byte{0x5A});
    auto frame = wire::seal(h, payload);

    // Truncated: shorter than the header, and header-only with a missing
    // payload tail.
    EXPECT_FALSE(wire::try_unseal({frame.data(), wire::kHeaderBytes - 1}));
    EXPECT_FALSE(wire::try_unseal({frame.data(), frame.size() - 1}));

    auto bad_magic = frame;
    bad_magic[0] ^= std::byte{0xFF};
    EXPECT_FALSE(wire::try_unseal(bad_magic));

    auto bad_version = frame;
    bad_version[4] ^= std::byte{0x01};
    EXPECT_THROW((void)wire::unseal(bad_version), wire::WireError);

    auto flipped = frame;  // payload bit flip -> CRC mismatch
    flipped[wire::kHeaderBytes + 5] ^= std::byte{0x10};
    EXPECT_FALSE(wire::try_unseal(flipped));

    EXPECT_TRUE(wire::try_unseal(frame));  // the original is still intact
}

// --------------------------------------------------------------- payloads

TEST(WireCodec, RequestPayloadRoundTripsParamsPixelsAndDeadline) {
    TransformRequest req;
    req.image = tiny_image();
    req.taps = 6;
    req.levels = 2;
    req.allow_degraded = true;
    req.progressive = true;
    const auto now = wavehpc::svc::Clock::now();
    req.deadline = now + std::chrono::milliseconds(250);

    const auto payload = wire::encode_request_payload(req, now);
    const TransformRequest back = wire::decode_request_payload(payload, now);
    EXPECT_EQ(back.taps, 6);
    EXPECT_EQ(back.levels, 2);
    EXPECT_TRUE(back.allow_degraded);
    EXPECT_TRUE(back.progressive);
    const double dl =
        std::chrono::duration<double>(back.deadline - now).count();
    EXPECT_NEAR(dl, 0.25, 1e-6);
    ASSERT_TRUE(back.image);
    EXPECT_NE(back.image.get(), req.image.get());  // pixels crossed the wire
    EXPECT_EQ(back.image->rows(), req.image->rows());
    EXPECT_EQ(back.image->flat()[5], req.image->flat()[5]);

    // No deadline stays no deadline (the +inf sentinel).
    TransformRequest open = req;
    open.deadline = wavehpc::svc::Clock::time_point::max();
    const auto back2 =
        wire::decode_request_payload(wire::encode_request_payload(open, now), now);
    EXPECT_EQ(back2.deadline, wavehpc::svc::Clock::time_point::max());

    // Trailing bytes are a defect, not padding.
    auto fat = payload;
    fat.push_back(std::byte{0});
    EXPECT_THROW((void)wire::decode_request_payload(fat, now), wire::WireError);
}

TEST(WireCodec, ReplyPayloadRoundTripsTheFullPyramidAndFlags) {
    TransformResult res;
    res.key.digest_lo = 11;
    res.key.digest_hi = 22;
    res.result_bytes = 1234;
    res.compute_seconds = 0.5;
    res.crc32 = 0xABCD1234U;
    res.first_band_seconds = 0.125;
    wavehpc::core::DetailBands lv;
    lv.lh = ImageF(2, 2, {1.f, 2.f, 3.f, 4.f});
    lv.hl = ImageF(2, 2, {5.f, 6.f, 7.f, 8.f});
    lv.hh = ImageF(2, 2, {9.f, 10.f, 11.f, 12.f});
    res.pyramid.levels.push_back(std::move(lv));
    res.pyramid.approx = ImageF(2, 2, {13.f, 14.f, 15.f, 16.f});

    TransformReply reply;
    reply.result = std::make_shared<const TransformResult>(std::move(res));
    reply.cache_hit = true;
    reply.degraded = true;
    reply.attempts = 3;
    reply.batch_size = 2;
    reply.queue_seconds = 0.01;
    reply.compute_seconds = 0.02;
    reply.total_seconds = 0.03;

    const wire::ReplyWire rw =
        wire::decode_reply_payload(wire::encode_reply_payload(reply));
    ASSERT_FALSE(rw.is_error);
    EXPECT_TRUE(rw.reply.cache_hit);
    EXPECT_TRUE(rw.reply.degraded);
    EXPECT_FALSE(rw.reply.shared_flight);
    EXPECT_EQ(rw.reply.attempts, 3U);
    EXPECT_EQ(rw.reply.batch_size, 2U);
    EXPECT_EQ(rw.reply.total_seconds, 0.03);
    ASSERT_TRUE(rw.reply.result);
    EXPECT_EQ(rw.reply.result->key.digest_hi, 22U);
    EXPECT_EQ(rw.reply.result->crc32, 0xABCD1234U);
    ASSERT_EQ(rw.reply.result->pyramid.levels.size(), 1U);
    EXPECT_EQ(rw.reply.result->pyramid.levels[0].hh.flat()[3], 12.f);
    EXPECT_EQ(rw.reply.result->pyramid.approx.flat()[0], 13.f);
}

TEST(WireCodec, ReplyErrorsCarryTheirTypeAcrossTheWire) {
    const auto payload = wire::encode_reply_error_payload(
        wire::ReplyErrorKind::Deadline, "too late");
    const wire::ReplyWire rw = wire::decode_reply_payload(payload);
    ASSERT_TRUE(rw.is_error);
    EXPECT_EQ(rw.error_kind, wire::ReplyErrorKind::Deadline);
    EXPECT_EQ(rw.error_message, "too late");
    EXPECT_THROW(wire::rethrow_reply_error(rw),
                 wavehpc::svc::DeadlineExpiredError);

    const wire::ReplyWire other = wire::decode_reply_payload(
        wire::encode_reply_error_payload(wire::ReplyErrorKind::Other, "boom"));
    try {
        wire::rethrow_reply_error(other);
        FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom");
    }
}

TEST(WireCodec, AdmitPayloadRoundTripsAndValidatesEnums) {
    wire::AdmitWire a;
    a.status = wire::AdmitStatus::Rejected;
    a.reject_reason = RejectReason::BreakerOpen;
    a.retry_after = 0.75;
    const wire::AdmitWire b =
        wire::decode_admit_payload(wire::encode_admit_payload(a));
    EXPECT_EQ(b.status, wire::AdmitStatus::Rejected);
    EXPECT_EQ(b.reject_reason, RejectReason::BreakerOpen);
    EXPECT_EQ(b.retry_after, 0.75);

    auto bad_status = wire::encode_admit_payload(a);
    bad_status[0] = std::byte{99};
    EXPECT_THROW((void)wire::decode_admit_payload(bad_status), wire::WireError);
    auto bad_reason = wire::encode_admit_payload(a);
    bad_reason[1] = std::byte{99};
    EXPECT_THROW((void)wire::decode_admit_payload(bad_reason), wire::WireError);
}

TEST(WireCodec, RosterPayloadRoundTripsAndRejectsTrailingBytes) {
    const std::vector<wire::RosterEntry> roster{
        {1, 0.5, 0}, {7, 0.25, 2}, {0, 0.0, 1}};
    auto payload = wire::encode_roster_payload(roster);
    const auto back = wire::decode_roster_payload(payload);
    ASSERT_EQ(back.size(), 3U);
    EXPECT_EQ(back[1].incarnation, 7U);
    EXPECT_EQ(back[1].last_ok, 0.25);
    EXPECT_EQ(back[1].health, 2);

    payload.push_back(std::byte{0});
    EXPECT_THROW((void)wire::decode_roster_payload(payload), wire::WireError);
}

// Overwrite the little-endian u32 at `offset` of an encoded payload.
void poke_u32(std::vector<std::byte>& buf, std::size_t offset, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        buf.at(offset + static_cast<std::size_t>(i)) =
            static_cast<std::byte>(v >> (8 * i));
    }
}

// Byte offsets of the first image's (rows, cols) and of the pyramid depth
// in the payload layouts documented in DESIGN.md §16.
constexpr std::size_t kRequestImageDims = 16;
constexpr std::size_t kReplyPyramidDepth = 91;
constexpr std::size_t kReplyImageDims = 95;

TEST(WireCodec, ImageDimsPastThePayloadAreWireErrorsBeforeAnyAllocation) {
    // rows = cols = 2^31: rows * cols * 4 wraps to 0 in u64, so a byte
    // count taken before the bound would pass the truncation check and
    // ask for a 2^62-float allocation.
    TransformRequest req;
    req.image = tiny_image();
    const auto now = wavehpc::svc::Clock::now();
    const auto request = wire::encode_request_payload(req, now);
    for (const auto& [rows, cols] :
         {std::pair{0x80000000U, 0x80000000U}, std::pair{0xFFFFFFFFU, 0xFFFFFFFFU},
          std::pair{5U, 4U}, std::pair{1U, 0x40000000U}}) {
        auto bad = request;
        poke_u32(bad, kRequestImageDims, rows);
        poke_u32(bad, kRequestImageDims + 4, cols);
        EXPECT_THROW((void)wire::decode_request_payload(bad, now), wire::WireError)
            << rows << "x" << cols;
    }

    TransformResult res;
    wavehpc::core::DetailBands lv;
    lv.lh = ImageF(2, 2, {1.f, 2.f, 3.f, 4.f});
    lv.hl = lv.lh;
    lv.hh = lv.lh;
    res.pyramid.levels.push_back(std::move(lv));
    res.pyramid.approx = ImageF(2, 2, {5.f, 6.f, 7.f, 8.f});
    TransformReply reply;
    reply.result = std::make_shared<const TransformResult>(std::move(res));
    const auto payload = wire::encode_reply_payload(reply);
    ASSERT_NO_THROW((void)wire::decode_reply_payload(payload));
    for (const std::uint32_t dim : {0x80000000U, 0xFFFFFFFFU}) {
        auto bad = payload;
        poke_u32(bad, kReplyImageDims, dim);
        poke_u32(bad, kReplyImageDims + 4, dim);
        EXPECT_THROW((void)wire::decode_reply_payload(bad), wire::WireError) << dim;
    }
    // An inflated pyramid depth must not reserve levels it cannot read.
    for (const std::uint32_t depth : {2U, 0x10000000U, 0xFFFFFFFFU}) {
        auto bad = payload;
        poke_u32(bad, kReplyPyramidDepth, depth);
        EXPECT_THROW((void)wire::decode_reply_payload(bad), wire::WireError) << depth;
    }
}

TEST(WireCodec, RosterSizePastThePayloadIsAWireError) {
    auto payload = wire::encode_roster_payload(std::vector<wire::RosterEntry>(2));
    poke_u32(payload, 0, 0xFFFFFFFFU);
    EXPECT_THROW((void)wire::decode_roster_payload(payload), wire::WireError);
}

// -------------------------------------------------------------- transport

std::vector<std::byte> bytes_of(const std::string& s) {
    std::vector<std::byte> v(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) v[i] = std::byte(s[i]);
    return v;
}

TEST(ShardTransportTest, RpcDeliversAndRetransmitsThroughALossyLink) {
    ShardTransport clean(3, 1);
    int handled = 0;
    clean.set_handler(1, 9, [&](int src, std::span<const std::byte> req) {
        ++handled;
        EXPECT_EQ(src, 0);
        std::vector<std::byte> resp(req.begin(), req.end());
        resp.push_back(std::byte{'!'});
        return resp;
    });
    const auto r = clean.rpc(0, 1, 9, bytes_of("ping"));
    ASSERT_TRUE(r);
    EXPECT_EQ(r->size(), 5U);
    EXPECT_EQ(handled, 1);
    EXPECT_EQ(clean.stats().retransmits, 0U);

    // 40% drop: ARQ still gets every payload through exactly once, paying
    // retransmits; the handler never sees a duplicate.
    ShardTransport lossy(3, 7, 16);
    FaultPlan plan;
    plan.drop_probability = 0.4;
    lossy.set_faults(plan);
    int lossy_handled = 0;
    lossy.set_handler(1, 9, [&](int, std::span<const std::byte> req) {
        ++lossy_handled;
        return std::vector<std::byte>(req.begin(), req.end());
    });
    for (int i = 0; i < 20; ++i) {
        const auto resp = lossy.rpc(0, 1, 9, bytes_of("m" + std::to_string(i)));
        ASSERT_TRUE(resp) << "transfer " << i;
    }
    EXPECT_EQ(lossy_handled, 20);
    const auto st = lossy.stats();
    EXPECT_GT(st.retransmits, 0U);
    EXPECT_GT(st.drops, 0U);
}

TEST(ShardTransportTest, UnreachableNodeFailsRpcWithoutConsumingFaultDraws) {
    ShardTransport t(3, 1);
    t.set_handler(1, 9, [](int, std::span<const std::byte> req) {
        return std::vector<std::byte>(req.begin(), req.end());
    });
    t.set_reachable(1, false);
    EXPECT_FALSE(t.rpc(0, 1, 9, bytes_of("x")));
    EXPECT_GE(t.stats().gave_up, 1U);
    EXPECT_EQ(t.stats().drops, 0U);  // the NIC was off; the wire saw nothing

    t.set_reachable(1, true);
    EXPECT_TRUE(t.rpc(0, 1, 9, bytes_of("y")));  // channel resynced
}

TEST(ShardTransportTest, SameSeedReplaysIdenticalWireStats) {
    struct Run {
        wavehpc::svc::shard::WireStats stats;
        std::vector<char> fates;  // per-message outcome sequence
    };
    const auto run = [](std::uint64_t seed) {
        ShardTransport t(4, seed, 8);
        FaultPlan plan;
        plan.seed = 0;  // inherit the transport's construction seed
        plan.drop_probability = 0.3;
        plan.corrupt_probability = 0.1;
        t.set_faults(plan);
        t.set_handler(2, 5, [](int, std::span<const std::byte> req) {
            return std::vector<std::byte>(req.begin(), req.end());
        });
        t.set_sink(2, 6, [](int, std::span<const std::byte>) {});
        Run r;
        for (int i = 0; i < 30; ++i) {
            r.fates.push_back(t.rpc(0, 2, 5, bytes_of(std::to_string(i))) ? 1 : 0);
            r.fates.push_back(t.send_datagram(1, 2, 6, bytes_of("beat")) ? 1 : 0);
        }
        r.stats = t.stats();
        return r;
    };
    const auto a = run(1996);
    const auto b = run(1996);
    EXPECT_EQ(a.fates, b.fates);
    EXPECT_EQ(a.stats.frames_sent, b.stats.frames_sent);
    EXPECT_EQ(a.stats.drops, b.stats.drops);
    EXPECT_EQ(a.stats.corrupt_rejections, b.stats.corrupt_rejections);
    EXPECT_EQ(a.stats.retransmits, b.stats.retransmits);
    EXPECT_EQ(a.stats.gave_up, b.stats.gave_up);
    const auto c = run(7);
    EXPECT_NE(a.fates, c.fates);  // the seed genuinely steers the draws
}

// The determinism the gossip rounds rely on: fault draws are counted per
// channel, so unrelated concurrent traffic (the reply pump's RPCs, say)
// can never shift a gossip channel's drop pattern.
TEST(ShardTransportTest, PerChannelDrawsIsolateChannelsFromEachOther) {
    const auto gossip_fates = [](bool with_noise) {
        ShardTransport t(4, 11);
        FaultPlan plan;
        plan.drop_probability = 0.5;
        t.set_faults(plan);
        t.set_sink(3, 83, [](int, std::span<const std::byte>) {});
        t.set_handler(2, 81, [](int, std::span<const std::byte> req) {
            return std::vector<std::byte>(req.begin(), req.end());
        });
        std::vector<bool> fates;
        for (int i = 0; i < 40; ++i) {
            if (with_noise) (void)t.rpc(0, 2, 81, bytes_of("noise"));
            fates.push_back(t.send_datagram(0, 3, 83, bytes_of("beat")));
        }
        return fates;
    };
    EXPECT_EQ(gossip_fates(false), gossip_fates(true));
}

// ----------------------------------------------------- parse diagnostics

TEST(FaultSpecErrors, FaultPlanParseNamesTheTokenAndByteOffset) {
    try {
        (void)FaultPlan::parse("drop=0.1,corrupt=nope", 1);
        FAIL() << "expected a throw";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'nope'"), std::string::npos) << what;
        EXPECT_NE(what.find("(byte 17)"), std::string::npos) << what;
    }
    try {
        (void)FaultPlan::parse("link=0>1:10:5:1.0", 1);  // window ends early
        FAIL() << "expected a throw";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'0>1:10:5:1.0'"), std::string::npos) << what;
        EXPECT_NE(what.find("(byte 5)"), std::string::npos) << what;
    }
    try {
        (void)FaultPlan::parse("link=0>1:0:50:1.0;2>x:0:50:1.0", 1);
        FAIL() << "expected a throw";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'x'"), std::string::npos) << what;
        EXPECT_NE(what.find("(byte 20)"), std::string::npos) << what;
    }
}

/// `spec` must throw std::invalid_argument naming `token` and its offset.
void expect_fault_spec_rejected(const std::string& spec, const std::string& token,
                                std::size_t byte) {
    try {
        (void)FaultPlan::parse(spec, 1);
        ADD_FAILURE() << "expected a throw for " << spec;
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'" + token + "'"), std::string::npos) << what;
        EXPECT_NE(what.find("(byte " + std::to_string(byte) + ")"), std::string::npos)
            << what;
    }
}

TEST(FaultSpecErrors, FaultPlanRejectsWrappedRanksAndNonFiniteOrPaddedNumbers) {
    // A rank past INT_MAX used to wrap (4294967297 targeted rank 1).
    expect_fault_spec_rejected("link=4294967297>0:0:50:1.0", "4294967297", 5);
    expect_fault_spec_rejected("fail=4294967296:10", "4294967296", 5);
    // nan compared false against [0, 1] and was kept, never dropping.
    expect_fault_spec_rejected("drop=nan", "nan", 5);
    expect_fault_spec_rejected("link=0>1:0:50:nan", "nan", 14);
    expect_fault_spec_rejected("degrade=0:10:inf", "inf", 13);
    // strtod skipped leading whitespace; a token is the whole token.
    expect_fault_spec_rejected("drop= 0.5", " 0.5", 5);
}

TEST(FaultSpecErrors, ChaosPlanParseNamesTheTokenAndByteOffset) {
    try {
        (void)ChaosPlan::parse("compute=0.1,stall=wat", 1);
        FAIL() << "expected a throw";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'wat'"), std::string::npos) << what;
        EXPECT_NE(what.find("(byte 18)"), std::string::npos) << what;
    }
    try {
        // The bad field is the second event's START_MS, 22 bytes in.
        (void)ChaosPlan::parse("shard_kill=0:100:50;1:bad:50", 1);
        FAIL() << "expected a throw";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'bad'"), std::string::npos) << what;
        EXPECT_NE(what.find("(byte 22)"), std::string::npos) << what;
    }
    try {
        (void)ChaosPlan::parse("compute=0.1,bogus_key=1", 1);
        FAIL() << "expected a throw";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'bogus_key'"), std::string::npos) << what;
        EXPECT_NE(what.find("(byte 12)"), std::string::npos) << what;
    }
}

}  // namespace
