#include "svc/shard/transport.hpp"

#include <algorithm>
#include <stdexcept>

#include "base/frame.hpp"
#include "base/mix.hpp"

namespace wavehpc::svc::shard {

namespace {

// Fault-draw index for the channel's n-th frame. Per-channel (not global)
// so concurrent traffic on other channels can never shift this channel's
// draw sequence: the gossip channels see the same deterministic stream no
// matter how request/reply RPCs interleave with the beat schedule.
[[nodiscard]] std::uint64_t draw_index(int src, int dst, int tag,
                                       std::uint64_t n) noexcept {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 40) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 20) ^
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
    return base::splitmix64(key) + n;
}

}  // namespace

ShardTransport::ShardTransport(int nodes, std::uint64_t seed, int max_retries)
    : nodes_(nodes), max_retries_(max_retries),
      reachable_(static_cast<std::size_t>(nodes), true) {
    if (nodes <= 0) throw std::invalid_argument("ShardTransport: nodes must be > 0");
    if (max_retries < 0) {
        throw std::invalid_argument("ShardTransport: negative max_retries");
    }
    plan_.seed = seed;
}

void ShardTransport::set_time(double now) {
    std::lock_guard lk(mu_);
    now_ = std::max(now_, now);
}

void ShardTransport::set_reachable(int node, bool on) {
    std::lock_guard lk(mu_);
    reachable_.at(static_cast<std::size_t>(node)) = on;
}

void ShardTransport::set_faults(mesh::FaultPlan plan) {
    std::lock_guard lk(mu_);
    const std::uint64_t seed = plan_.seed;
    plan_ = std::move(plan);
    if (plan_.seed == 0) plan_.seed = seed;
}

void ShardTransport::set_handler(int node, int tag, Handler h) {
    std::lock_guard lk(mu_);
    handlers_[{node, tag}] = std::move(h);
}

void ShardTransport::set_sink(int node, int tag, Sink s) {
    std::lock_guard lk(mu_);
    sinks_[{node, tag}] = std::move(s);
}

bool ShardTransport::reachable_locked(int node) const {
    return node >= 0 && node < nodes_ &&
           reachable_[static_cast<std::size_t>(node)];
}

bool ShardTransport::send_datagram(int src, int dst, int tag,
                                   std::span<const std::byte> data) {
    std::lock_guard lk(mu_);
    if (!reachable_locked(src) || !reachable_locked(dst)) return false;
    ++stats_.frames_sent;
    Channel& ch = channels_[{src, dst, tag}];
    const mesh::FaultDecision fd = plan_.decide_frame(
        draw_index(src, dst, tag, ch.draws++), src, dst, tag, now_);
    if (fd.drop) {
        ++stats_.drops;
        return false;
    }
    std::vector<std::byte> frame = base::build_frame(0, data);
    if (fd.corrupt) {
        frame[fd.flip_byte % frame.size()] ^=
            static_cast<std::byte>(1U << fd.flip_bit);
    }
    if (!base::frame_valid(frame)) {
        ++stats_.corrupt_rejections;
        return false;
    }
    const auto it = sinks_.find({dst, tag});
    if (it == sinks_.end()) return false;
    ++stats_.frames_delivered;
    it->second(src, base::frame_payload(frame));
    return true;
}

bool ShardTransport::arq_locked(
    int src, int dst, int tag, std::span<const std::byte> data,
    const std::function<void(std::span<const std::byte>)>& on_fresh) {
    Channel& ch = channels_[{src, dst, tag}];
    const std::uint32_t seq = ch.next_seq;
    const std::vector<std::byte> frame = base::build_frame(seq, data);

    for (int attempt = 0; attempt <= max_retries_; ++attempt) {
        if (attempt > 0) ++stats_.retransmits;
        ++stats_.frames_sent;
        if (!reachable_locked(src) || !reachable_locked(dst)) continue;

        const mesh::FaultDecision fd = plan_.decide_frame(
            draw_index(src, dst, tag, ch.draws++), src, dst, tag, now_);
        if (fd.drop) {
            ++stats_.drops;
            continue;
        }
        // Only a corrupted attempt needs its own copy of the frame.
        std::vector<std::byte> corrupted;
        std::span<const std::byte> wire_frame = frame;
        if (fd.corrupt) {
            corrupted = frame;
            corrupted[fd.flip_byte % corrupted.size()] ^=
                static_cast<std::byte>(1U << fd.flip_bit);
            wire_frame = corrupted;
        }
        if (!base::frame_valid(wire_frame)) {
            // Receiver NIC rejects the frame (CRC/magic); no ack.
            ++stats_.corrupt_rejections;
            continue;
        }
        if (seq == ch.expected_seq) {
            ++ch.expected_seq;
            ++stats_.frames_delivered;
            on_fresh(base::frame_payload(wire_frame));
        } else {
            ++stats_.duplicates_suppressed;
        }
        // Valid frames — fresh or duplicate — are acknowledged; the ack
        // travels the reverse direction and draws its own fault.
        ++stats_.frames_sent;
        // The ack draws from the data channel's sequence (not the reverse
        // channel's), keeping one transfer's fate a function of one stream.
        const mesh::FaultDecision fa = plan_.decide_frame(
            draw_index(src, dst, tag, ch.draws++), dst, src, tag, now_);
        if (fa.drop) {
            ++stats_.drops;
            continue;
        }
        if (fa.corrupt) {
            // A corrupted ack is rejected by the sender's NIC.
            ++stats_.corrupt_rejections;
            continue;
        }
        ch.next_seq = seq + 1;
        return true;
    }
    // Give up. The data frame may have been consumed even though every ack
    // was lost; mirror the receiver's expected seq (the model-level
    // stand-in for acks carrying it) so the channel stays in step.
    ++stats_.gave_up;
    ch.next_seq = ch.expected_seq;
    return false;
}

std::optional<std::vector<std::byte>> ShardTransport::rpc(
    int src, int dst, int tag, std::span<const std::byte> data) {
    std::lock_guard lk(mu_);
    Channel& fwd = channels_[{src, dst, tag}];
    const bool request_ok =
        arq_locked(src, dst, tag, data, [&](std::span<const std::byte> payload) {
            const auto it = handlers_.find({dst, tag});
            fwd.last_response =
                it != handlers_.end() ? it->second(src, payload)
                                      : std::vector<std::byte>{};
        });
    if (!request_ok) return std::nullopt;
    // Response leg: the cached response (ours — the channel is
    // stop-and-wait, so the last accepted request on it was this one)
    // travels back under its own ARQ channel.
    std::vector<std::byte> response = fwd.last_response;
    const bool response_ok = arq_locked(dst, src, tag, response,
                                        [](std::span<const std::byte>) {});
    if (!response_ok) return std::nullopt;
    return response;
}

WireStats ShardTransport::stats() const {
    std::lock_guard lk(mu_);
    return stats_;
}

}  // namespace wavehpc::svc::shard
