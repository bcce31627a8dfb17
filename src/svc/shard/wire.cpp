#include "svc/shard/wire.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "base/crc32.hpp"

namespace wavehpc::svc::shard::wire {

namespace {

// Little-endian scalar writer/reader over a growable byte vector. The wire
// format is explicit about byte order so the two legs (live transport,
// mesh machine) and any future cross-process peer agree bit-for-bit.
// Pixel planes move as one bulk copy of the host's float bytes, which are
// the wire's little-endian IEEE-754 words only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "shard wire: bulk plane codec assumes a little-endian host");

struct ByteWriter {
    std::vector<std::byte> buf;

    void u8(std::uint8_t v) { buf.push_back(static_cast<std::byte>(v)); }
    void u16(std::uint16_t v) {
        for (int i = 0; i < 2; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void bytes(std::span<const std::byte> s) {
        buf.insert(buf.end(), s.begin(), s.end());
    }
};

struct ByteReader {
    std::span<const std::byte> buf;
    std::size_t pos = 0;

    [[nodiscard]] std::size_t remaining() const { return buf.size() - pos; }

    void need(std::size_t n, const char* what) const {
        if (remaining() < n) {
            throw WireError(std::string("wire: truncated ") + what);
        }
    }
    std::span<const std::byte> take(std::size_t n, const char* what) {
        need(n, what);
        const auto s = buf.subspan(pos, n);
        pos += n;
        return s;
    }
    std::uint8_t u8(const char* what = "u8") {
        need(1, what);
        return static_cast<std::uint8_t>(buf[pos++]);
    }
    std::uint16_t u16(const char* what = "u16") {
        need(2, what);
        std::uint16_t v = 0;
        for (int i = 0; i < 2; ++i) {
            v |= static_cast<std::uint16_t>(static_cast<std::uint8_t>(buf[pos++]))
                 << (8 * i);
        }
        return v;
    }
    std::uint32_t u32(const char* what = "u32") {
        need(4, what);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf[pos++]))
                 << (8 * i);
        }
        return v;
    }
    std::uint64_t u64(const char* what = "u64") {
        need(8, what);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf[pos++]))
                 << (8 * i);
        }
        return v;
    }
    double f64(const char* what = "f64") {
        return std::bit_cast<double>(u64(what));
    }
};

// Fixed-size parts of the payloads, for exact buffer reservations and for
// bounding decoded counts by the bytes that remain.
constexpr std::size_t kImageDimsBytes = 8;      // rows u32 + cols u32
constexpr std::size_t kRequestFixedBytes = 16;  // 8 x u8 + deadline f64
constexpr std::size_t kReplyFixedBytes =
    34 + 29 + 32;  // status..total_seconds + cache key + result scalars
constexpr std::size_t kRosterEntryBytes = 17;   // u64 + f64 + u8

/// Relative deadlines are clamped to +/- this many seconds (~31 years).
constexpr double kMaxDeadlineSeconds = 1e9;

[[nodiscard]] std::size_t image_wire_bytes(const core::ImageF& img) {
    return kImageDimsBytes + img.size() * sizeof(float);
}

void write_image(ByteWriter& w, const core::ImageF& img) {
    w.u32(static_cast<std::uint32_t>(img.rows()));
    w.u32(static_cast<std::uint32_t>(img.cols()));
    w.bytes(std::as_bytes(img.flat()));
}

[[nodiscard]] core::ImageF read_image(ByteReader& r) {
    const std::uint32_t rows = r.u32("image rows");
    const std::uint32_t cols = r.u32("image cols");
    // rows * cols fits in u64 but its byte count may not: bound the pixel
    // count by what the payload still holds before multiplying or
    // allocating anything.
    const std::uint64_t n = std::uint64_t{rows} * cols;
    if (n > r.remaining() / sizeof(float)) {
        throw WireError("wire: truncated image pixels");
    }
    std::vector<float> data(n);
    std::ranges::copy(r.take(n * sizeof(float), "image pixels"),
                      std::as_writable_bytes(std::span(data)).begin());
    return core::ImageF(rows, cols, std::move(data));
}

void write_cache_key(ByteWriter& w, const CacheKey& k) {
    w.u64(k.digest_lo);
    w.u64(k.digest_hi);
    w.u32(k.rows);
    w.u32(k.cols);
    w.u8(k.taps);
    w.u8(k.levels);
    w.u8(k.boundary);
    w.u8(k.kernel);
    w.u8(k.band);
}

[[nodiscard]] CacheKey read_cache_key(ByteReader& r) {
    CacheKey k;
    k.digest_lo = r.u64("key digest_lo");
    k.digest_hi = r.u64("key digest_hi");
    k.rows = r.u32("key rows");
    k.cols = r.u32("key cols");
    k.taps = r.u8("key taps");
    k.levels = r.u8("key levels");
    k.boundary = r.u8("key boundary");
    k.kernel = r.u8("key kernel");
    k.band = r.u8("key band");
    return k;
}

}  // namespace

std::vector<std::byte> seal(const Header& h, std::span<const std::byte> payload) {
    ByteWriter w;
    w.buf.reserve(kHeaderBytes + payload.size());
    w.u32(kMagic);
    w.u16(kVersion);
    w.u8(static_cast<std::uint8_t>(h.kind));
    w.u8(0);  // flags
    w.u32(h.src);
    w.u32(h.dst);
    w.u64(h.incarnation);
    w.u64(h.epoch);
    w.u64(h.request_id);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.u32(base::crc32(payload));
    w.bytes(payload);
    return std::move(w.buf);
}

Unsealed unseal(std::span<const std::byte> frame) {
    ByteReader r{frame};
    if (frame.size() < kHeaderBytes) throw WireError("wire: frame too short");
    if (r.u32() != kMagic) throw WireError("wire: bad magic");
    const std::uint16_t ver = r.u16();
    if (ver != kVersion) {
        throw WireError("wire: unsupported version " + std::to_string(ver));
    }
    Unsealed u;
    const std::uint8_t kind = r.u8();
    if (kind < static_cast<std::uint8_t>(MsgKind::Request) ||
        kind > static_cast<std::uint8_t>(MsgKind::Gossip)) {
        throw WireError("wire: unknown message kind " + std::to_string(kind));
    }
    u.header.kind = static_cast<MsgKind>(kind);
    (void)r.u8();  // flags
    u.header.src = r.u32();
    u.header.dst = r.u32();
    u.header.incarnation = r.u64();
    u.header.epoch = r.u64();
    u.header.request_id = r.u64();
    const std::uint32_t payload_size = r.u32();
    const std::uint32_t payload_crc = r.u32();
    if (r.remaining() != payload_size) {
        throw WireError("wire: payload size mismatch");
    }
    const auto payload = frame.subspan(kHeaderBytes);
    if (base::crc32(payload) != payload_crc) {
        throw WireError("wire: payload CRC mismatch");
    }
    u.payload = payload;
    return u;
}

std::optional<Unsealed> try_unseal(std::span<const std::byte> frame) {
    try {
        return unseal(frame);
    } catch (const WireError&) {
        return std::nullopt;
    }
}

// ------------------------------------------------------------ request

std::vector<std::byte> encode_request_payload(const TransformRequest& req,
                                              Clock::time_point now) {
    if (!req.image) throw WireError("wire: request has no image");
    ByteWriter w;
    w.buf.reserve(kRequestFixedBytes + image_wire_bytes(*req.image));
    w.u8(static_cast<std::uint8_t>(req.taps));
    w.u8(static_cast<std::uint8_t>(req.levels));
    w.u8(static_cast<std::uint8_t>(req.boundary));
    w.u8(static_cast<std::uint8_t>(req.kernel));
    w.u8(static_cast<std::uint8_t>(req.backend));
    w.u8(static_cast<std::uint8_t>(req.priority));
    w.u8(req.allow_degraded ? 1 : 0);
    w.u8(req.progressive ? 1 : 0);
    double deadline_rel = std::numeric_limits<double>::infinity();
    if (req.deadline != Clock::time_point::max()) {
        deadline_rel = std::chrono::duration<double>(req.deadline - now).count();
    }
    w.f64(deadline_rel);
    write_image(w, *req.image);
    return std::move(w.buf);
}

TransformRequest decode_request_payload(std::span<const std::byte> payload,
                                        Clock::time_point now) {
    ByteReader r{payload};
    TransformRequest req;
    req.taps = r.u8("taps");
    req.levels = r.u8("levels");
    req.boundary = static_cast<core::BoundaryMode>(r.u8("boundary"));
    req.kernel = static_cast<core::DwtKernel>(r.u8("kernel"));
    req.backend = static_cast<Backend>(r.u8("backend"));
    req.priority = static_cast<Priority>(r.u8("priority"));
    req.allow_degraded = r.u8("allow_degraded") != 0;
    req.progressive = r.u8("progressive") != 0;
    const double deadline_rel = r.f64("deadline");
    if (std::isfinite(deadline_rel)) {
        // Clamp before converting: a double beyond the integer Clock's
        // range has no defined conversion, and no request outlives this.
        const double rel = std::clamp(deadline_rel, -kMaxDeadlineSeconds,
                                      kMaxDeadlineSeconds);
        req.deadline = now + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(rel));
    }
    req.image = std::make_shared<const core::ImageF>(read_image(r));
    if (r.remaining() != 0) throw WireError("wire: trailing request bytes");
    return req;
}

// -------------------------------------------------------------- reply

std::vector<std::byte> encode_reply_payload(const TransformReply& reply) {
    if (!reply.result) throw WireError("wire: reply has no result");
    const TransformResult& res = *reply.result;
    std::size_t size = kReplyFixedBytes + image_wire_bytes(res.pyramid.approx);
    for (const core::DetailBands& lv : res.pyramid.levels) {
        size += image_wire_bytes(lv.lh) + image_wire_bytes(lv.hl) +
                image_wire_bytes(lv.hh);
    }
    ByteWriter w;
    w.buf.reserve(size);
    w.u8(0);  // status: value
    std::uint8_t flags = 0;
    if (reply.cache_hit) flags |= 1U;
    if (reply.shared_flight) flags |= 2U;
    if (reply.degraded) flags |= 4U;
    if (reply.preview) flags |= 8U;
    w.u8(flags);
    w.u32(reply.attempts);
    w.u32(reply.batch_size);
    w.f64(reply.queue_seconds);
    w.f64(reply.compute_seconds);
    w.f64(reply.total_seconds);
    write_cache_key(w, res.key);
    w.u64(res.result_bytes);
    w.f64(res.compute_seconds);
    w.u32(res.crc32);
    w.f64(res.first_band_seconds);
    w.u32(static_cast<std::uint32_t>(res.pyramid.levels.size()));
    for (const core::DetailBands& lv : res.pyramid.levels) {
        write_image(w, lv.lh);
        write_image(w, lv.hl);
        write_image(w, lv.hh);
    }
    write_image(w, res.pyramid.approx);
    return std::move(w.buf);
}

std::vector<std::byte> encode_reply_error_payload(ReplyErrorKind kind,
                                                  std::string_view message) {
    ByteWriter w;
    w.u8(1);  // status: error
    w.u8(static_cast<std::uint8_t>(kind));
    w.u32(static_cast<std::uint32_t>(message.size()));
    w.bytes(std::as_bytes(std::span(message.data(), message.size())));
    return std::move(w.buf);
}

ReplyWire decode_reply_payload(std::span<const std::byte> payload) {
    ByteReader r{payload};
    ReplyWire rw;
    const std::uint8_t status = r.u8("reply status");
    if (status == 1) {
        rw.is_error = true;
        rw.error_kind = static_cast<ReplyErrorKind>(r.u8("error kind"));
        const std::uint32_t n = r.u32("error message size");
        const auto msg = r.take(n, "error message");
        rw.error_message.assign(reinterpret_cast<const char*>(msg.data()), n);
        return rw;
    }
    if (status != 0) throw WireError("wire: bad reply status");
    const std::uint8_t flags = r.u8("reply flags");
    rw.reply.cache_hit = (flags & 1U) != 0;
    rw.reply.shared_flight = (flags & 2U) != 0;
    rw.reply.degraded = (flags & 4U) != 0;
    rw.reply.preview = (flags & 8U) != 0;
    rw.reply.attempts = r.u32("attempts");
    rw.reply.batch_size = r.u32("batch size");
    rw.reply.queue_seconds = r.f64("queue seconds");
    rw.reply.compute_seconds = r.f64("compute seconds");
    rw.reply.total_seconds = r.f64("total seconds");
    TransformResult res;
    res.key = read_cache_key(r);
    res.result_bytes = r.u64("result bytes");
    res.compute_seconds = r.f64("result compute seconds");
    res.crc32 = r.u32("result crc");
    res.first_band_seconds = r.f64("first band seconds");
    const std::uint32_t n_levels = r.u32("pyramid depth");
    if (n_levels > r.remaining() / (3 * kImageDimsBytes)) {
        throw WireError("wire: pyramid depth exceeds payload");
    }
    res.pyramid.levels.reserve(n_levels);
    for (std::uint32_t i = 0; i < n_levels; ++i) {
        core::DetailBands lv;
        lv.lh = read_image(r);
        lv.hl = read_image(r);
        lv.hh = read_image(r);
        res.pyramid.levels.push_back(std::move(lv));
    }
    res.pyramid.approx = read_image(r);
    if (r.remaining() != 0) throw WireError("wire: trailing reply bytes");
    rw.reply.result = std::make_shared<const TransformResult>(std::move(res));
    return rw;
}

void rethrow_reply_error(const ReplyWire& rw) {
    switch (rw.error_kind) {
        case ReplyErrorKind::Shutdown: throw ServiceShutdownError();
        case ReplyErrorKind::Deadline: throw DeadlineExpiredError();
        case ReplyErrorKind::Watchdog: throw WatchdogTimeoutError();
        case ReplyErrorKind::CrcAudit: throw CrcAuditError();
        case ReplyErrorKind::Other: break;
    }
    throw std::runtime_error(rw.error_message.empty()
                                 ? std::string("shard wire: remote error")
                                 : rw.error_message);
}

// ------------------------------------------------------------- roster

std::vector<std::byte> encode_roster_payload(
    std::span<const RosterEntry> roster) {
    ByteWriter w;
    w.buf.reserve(4 + roster.size() * kRosterEntryBytes);
    w.u32(static_cast<std::uint32_t>(roster.size()));
    for (const RosterEntry& e : roster) {
        w.u64(e.incarnation);
        w.f64(e.last_ok);
        w.u8(e.health);
    }
    return std::move(w.buf);
}

std::vector<RosterEntry> decode_roster_payload(
    std::span<const std::byte> payload) {
    ByteReader r{payload};
    const std::uint32_t n = r.u32("roster size");
    if (n > r.remaining() / kRosterEntryBytes) {
        throw WireError("wire: roster size exceeds payload");
    }
    std::vector<RosterEntry> roster;
    roster.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        RosterEntry e;
        e.incarnation = r.u64("roster incarnation");
        e.last_ok = r.f64("roster last_ok");
        e.health = r.u8("roster health");
        roster.push_back(e);
    }
    if (r.remaining() != 0) throw WireError("wire: trailing roster bytes");
    return roster;
}

std::vector<std::byte> encode_admit_payload(const AdmitWire& a) {
    ByteWriter w;
    w.buf.reserve(10);
    w.u8(static_cast<std::uint8_t>(a.status));
    w.u8(static_cast<std::uint8_t>(a.reject_reason));
    w.f64(a.retry_after);
    return std::move(w.buf);
}

AdmitWire decode_admit_payload(std::span<const std::byte> payload) {
    ByteReader r{payload};
    AdmitWire a;
    const std::uint8_t status = r.u8("admit status");
    if (status > static_cast<std::uint8_t>(AdmitStatus::Down)) {
        throw WireError("wire: bad admit status");
    }
    a.status = static_cast<AdmitStatus>(status);
    const std::uint8_t reason = r.u8("admit reject reason");
    if (reason > static_cast<std::uint8_t>(RejectReason::Quarantined)) {
        throw WireError("wire: bad admit reject reason");
    }
    a.reject_reason = static_cast<RejectReason>(reason);
    a.retry_after = r.f64("admit retry_after");
    if (r.remaining() != 0) throw WireError("wire: trailing admit bytes");
    return a;
}

}  // namespace wavehpc::svc::shard::wire
