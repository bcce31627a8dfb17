#include "svc/shard/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <climits>
#include <limits>
#include <stdexcept>
#include <utility>

#include "base/knob.hpp"
#include "core/kernels.hpp"

namespace wavehpc::svc::shard {

namespace {

using base::env_u64;

/// A positive millisecond knob, read into seconds.
double env_millis(const char* name, double fallback_seconds) {
    return base::env_f64(name, fallback_seconds * 1e3,
                         std::numeric_limits<double>::min()) *
           1e-3;
}

void sleep_seconds(double seconds) {
    if (seconds <= 0.0) return;
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

[[nodiscard]] std::vector<std::byte> roster_payload(const FailureDetector& det) {
    std::vector<wire::RosterEntry> roster;
    roster.reserve(det.shard_count());
    for (const ShardStatus& st : det.snapshot()) {
        roster.push_back({st.incarnation, st.last_ok,
                          static_cast<std::uint8_t>(st.health)});
    }
    return wire::encode_roster_payload(roster);
}

}  // namespace

ShardClusterConfig ShardClusterConfig::from_env() {
    ShardClusterConfig cfg;
    // Shards are transport ranks (an int) next to the router's rank.
    cfg.shard_count = env_u64("WAVEHPC_SHARD_COUNT", cfg.shard_count, 1, INT_MAX - 1);
    cfg.vnodes = env_u64("WAVEHPC_SHARD_VNODES", cfg.vnodes, 1);
    cfg.replicas = env_u64("WAVEHPC_SHARD_REPLICAS", cfg.replicas, 1);
    cfg.seed = env_u64("WAVEHPC_SHARD_SEED",
                       env_u64("WAVEHPC_SCHED_SEED", cfg.seed, 1), 1);
    cfg.membership.heartbeat_interval =
        env_millis("WAVEHPC_SHARD_HB_MS", cfg.membership.heartbeat_interval);
    cfg.membership.suspect_after =
        env_millis("WAVEHPC_SHARD_SUSPECT_MS", cfg.membership.suspect_after);
    cfg.membership.dead_after =
        env_millis("WAVEHPC_SHARD_DEAD_MS", cfg.membership.dead_after);
    cfg.membership.readmit_oks = static_cast<std::uint32_t>(env_u64(
        "WAVEHPC_SHARD_READMIT_OKS", cfg.membership.readmit_oks, 1, UINT32_MAX));
    // 0 is meaningful for both: seed "inherit", fanout "all".
    cfg.gossip_seed = env_u64("WAVEHPC_SHARD_GOSSIP_SEED", cfg.gossip_seed, 0);
    cfg.gossip_fanout = env_u64("WAVEHPC_SHARD_GOSSIP_FANOUT", cfg.gossip_fanout, 0);
    cfg.wire_retries = static_cast<int>(env_u64(
        "WAVEHPC_SHARD_WIRE_RETRIES", static_cast<std::uint64_t>(cfg.wire_retries), 0,
        INT_MAX));
    if (const std::string spec = base::env_text("WAVEHPC_SHARD_FAULTS"); !spec.empty()) {
        cfg.transport_faults = mesh::FaultPlan::parse(
            spec, cfg.gossip_seed != 0 ? cfg.gossip_seed : cfg.seed);
    }
    cfg.service = ServiceConfig::from_env();
    return cfg;
}

ShardCluster::ShardCluster(runtime::ThreadPool& pool, ShardClusterConfig cfg)
    : pool_(pool),
      cfg_(cfg),
      ring_(cfg.shard_count, cfg.vnodes, cfg.seed),
      transport_(static_cast<int>(cfg.shard_count) + 1,
                 cfg.gossip_seed != 0 ? cfg.gossip_seed : cfg.seed,
                 cfg.wire_retries),
      detector_(cfg.shard_count, cfg.membership),
      nodes_(cfg.shard_count) {
    if (cfg_.transport_faults.enabled()) {
        transport_.set_faults(cfg_.transport_faults);
    }
    for (std::size_t s = 0; s < nodes_.size(); ++s) {
        Node& node = nodes_[s];
        node.service = std::make_shared<PyramidService>(pool_, cfg_.service);
        node.detector = FailureDetector(cfg_.shard_count, cfg_.membership);
        transport_.set_handler(
            static_cast<int>(s), wire::kRequestTag,
            [this, s](int, std::span<const std::byte> frame) {
                return handle_request(s, frame);
            });
        transport_.set_sink(
            static_cast<int>(s), wire::kGossipTag,
            [this, s](int src, std::span<const std::byte> frame) {
                nodes_[s].inbox.push_back({src, {frame.begin(), frame.end()}});
            });
    }
    // The router decodes incoming replies into the reply box; the ack the
    // rpc ships back is empty — the ARQ ack is the delivery receipt.
    transport_.set_handler(
        router_node(), wire::kReplyTag,
        [this](int, std::span<const std::byte> frame) -> std::vector<std::byte> {
            if (const auto un = wire::try_unseal(frame)) {
                try {
                    ReceivedReply rec;
                    rec.incarnation = un->header.incarnation;
                    rec.rw = wire::decode_reply_payload(un->payload);
                    std::lock_guard nk(nodes_mu_);
                    reply_box_[un->header.request_id] = std::move(rec);
                } catch (const wire::WireError&) {
                    // Malformed payload inside a CRC-valid frame: drop it;
                    // the pump falls back to the local outcome.
                }
            }
            return {};
        });
    transport_.set_sink(
        router_node(), wire::kGossipTag,
        [this](int src, std::span<const std::byte> frame) {
            router_inbox_.push_back({src, {frame.begin(), frame.end()}});
        });
    pump_ = std::thread([this] { pump_loop(); });
    if (!cfg_.manual_clock) {
        monitor_ = std::thread([this] { monitor_loop(); });
    }
}

ShardCluster::~ShardCluster() { shutdown(); }

double ShardCluster::now_seconds() const {
    return std::chrono::duration<double>(Clock::now() - epoch0_).count();
}

void ShardCluster::monitor_loop() {
    std::unique_lock lk(mu_);
    while (!stopping_) {
        cv_monitor_.wait_for(
            lk, std::chrono::duration<double>(cfg_.membership.heartbeat_interval),
            [this] { return stopping_; });
        if (stopping_) break;
        tick_locked(lk, std::max(now_, now_seconds()));
    }
}

void ShardCluster::tick(double now) {
    std::unique_lock lk(mu_);
    tick_locked(lk, now);
}

void ShardCluster::tick_locked(std::unique_lock<std::mutex>& lk, double now) {
    if (stopping_) return;
    now_ = std::max(now_, now);
    apply_due_actions(lk, now_);
    if (stopping_) return;
    gossip_round_locked(now_);
}

void ShardCluster::gossip_round_locked(double now) {
    transport_.set_time(now);
    const std::size_t n = nodes_.size();
    // Liveness + incarnation snapshot: the leaf lock is released before
    // any transport call (lock order mu_ -> transport -> nodes_mu_).
    std::vector<std::uint64_t> incs(n);
    std::vector<char> live(n);
    {
        std::lock_guard nk(nodes_mu_);
        for (std::size_t s = 0; s < n; ++s) {
            live[s] = nodes_[s].killed ? 0 : 1;
            incs[s] = nodes_[s].incarnation;
        }
    }
    const auto send_gossip = [this](int src, int dst, std::uint64_t inc,
                                    std::uint64_t epoch,
                                    const std::vector<std::byte>& payload) {
        wire::Header h;
        h.kind = wire::MsgKind::Gossip;
        h.src = static_cast<std::uint32_t>(src);
        h.dst = static_cast<std::uint32_t>(dst);
        h.incarnation = inc;
        h.epoch = epoch;
        const auto sealed = wire::seal(h, payload);
        (void)transport_.send_datagram(src, dst, wire::kGossipTag, sealed);
    };
    const std::size_t fanout = n <= 1 ? 0
                               : cfg_.gossip_fanout == 0
                                   ? n - 1
                                   : std::min(cfg_.gossip_fanout, n - 1);
    // Shard beats: self-observe, then ship the full roster to the router
    // and the fanout ring-successors. Partitioned shards still run — the
    // transport loses their frames without consuming a fault draw.
    for (std::size_t s = 0; s < n; ++s) {
        if (live[s] == 0) continue;
        FailureDetector& det = nodes_[s].detector;
        det.observe(s, true, now, incs[s]);
        const auto payload = roster_payload(det);
        send_gossip(static_cast<int>(s), router_node(), incs[s], det.epoch(),
                    payload);
        for (std::size_t k = 1; k <= fanout; ++k) {
            const std::size_t peer = (s + k) % n;
            if (peer == s) continue;
            send_gossip(static_cast<int>(s), static_cast<int>(peer), incs[s],
                        det.epoch(), payload);
        }
    }
    // Router broadcast: its PRE-merge roster, so a refutation lags the
    // accusation by exactly one tick — deterministically.
    {
        const auto payload = roster_payload(detector_);
        for (std::size_t s = 0; s < n; ++s) {
            if (live[s] == 0) continue;
            send_gossip(router_node(), static_cast<int>(s), 0, detector_.epoch(),
                        payload);
        }
    }
    // Merge phase: router inbox first, then shard inboxes in index order.
    // All relayed entries carry pre-round timestamps, so merge_entry's
    // freshness fence admits exactly the self-beats — the router's
    // detector sees the same observe() stream the old probe loop fed it.
    for (const GossipMsg& m : router_inbox_) {
        const auto un = wire::try_unseal(m.frame);
        if (!un) continue;
        std::vector<wire::RosterEntry> entries;
        try {
            entries = wire::decode_roster_payload(un->payload);
        } catch (const wire::WireError&) {
            continue;
        }
        for (std::size_t e = 0; e < entries.size() && e < n; ++e) {
            detector_.merge_entry(e, entries[e].incarnation, entries[e].last_ok,
                                  now);
        }
    }
    router_inbox_.clear();
    for (std::size_t s = 0; s < n; ++s) {
        Node& node = nodes_[s];
        if (live[s] == 0) {
            node.inbox.clear();
            continue;
        }
        for (const GossipMsg& m : node.inbox) {
            const auto un = wire::try_unseal(m.frame);
            if (!un) continue;
            std::vector<wire::RosterEntry> entries;
            try {
                entries = wire::decode_roster_payload(un->payload);
            } catch (const wire::WireError&) {
                continue;
            }
            for (std::size_t e = 0; e < entries.size() && e < n; ++e) {
                const wire::RosterEntry& ent = entries[e];
                if (e != s) {
                    node.detector.merge_entry(e, ent.incarnation, ent.last_ok,
                                              now);
                    continue;
                }
                // Split-brain refutation: someone claims *this* shard is
                // Dead at (or past) its current life, and the claim's
                // last_ok is stale enough to prove the claimant has not
                // heard its recent beats. Bump the incarnation: claimants
                // re-admit the new life through the ordinary epoch fence.
                // (A claimant mid-readmission gossips a *fresh* last_ok,
                // so counting is never restarted by a re-refutation.)
                const bool claims_dead =
                    ent.health == static_cast<std::uint8_t>(ShardHealth::Dead);
                bool refuted = false;
                std::uint64_t new_inc = 0;
                {
                    std::lock_guard nk(nodes_mu_);
                    if (claims_dead &&
                        ent.incarnation >= nodes_[s].incarnation &&
                        ent.last_ok + cfg_.membership.suspect_after <= now) {
                        new_inc = ent.incarnation + 1;
                        nodes_[s].incarnation = new_inc;
                        ++counters_.refutations;
                        refuted = true;
                    }
                }
                if (refuted) {
                    node.detector.observe(s, true, now, new_inc);
                }
            }
        }
        node.inbox.clear();
    }
    // Sweep every view at the same instant; only the router's transitions
    // feed the cluster counters (shard views are private).
    for (std::size_t s = 0; s < n; ++s) {
        if (live[s] == 0) continue;
        nodes_[s].detector.sweep(now);
        (void)nodes_[s].detector.drain_transitions();
    }
    detector_.sweep(now);
    absorb_transitions_locked();
}

void ShardCluster::absorb_transitions_locked() {
    std::lock_guard nk(nodes_mu_);
    for (const RosterTransition& t : detector_.drain_transitions()) {
        switch (t.to) {
        case ShardHealth::Suspect: ++counters_.suspicions; break;
        case ShardHealth::Dead: ++counters_.deaths; break;
        case ShardHealth::Alive:
            if (t.from == ShardHealth::Dead) ++counters_.readmissions;
            break;
        }
    }
}

void ShardCluster::set_chaos_plan(const ChaosPlan& plan) {
    // Validate and build first: a malformed plan must not half-install.
    std::vector<ChaosAction> actions;
    for (const ShardEvent& ev : plan.shard_events) {
        if (ev.shard >= cfg_.shard_count) {
            throw std::out_of_range("ShardCluster: chaos event names shard " +
                                    std::to_string(ev.shard) + " of " +
                                    std::to_string(cfg_.shard_count));
        }
        actions.push_back({ev.start_seconds, ev.shard, ev.kind, true,
                           ev.stall_seconds});
        actions.push_back({ev.start_seconds + ev.duration_seconds, ev.shard,
                           ev.kind, false, 0.0});
    }
    std::stable_sort(actions.begin(), actions.end(),
                     [](const ChaosAction& a, const ChaosAction& b) {
                         return a.at < b.at;
                     });

    std::lock_guard lk(mu_);
    service_plan_ = plan;
    have_service_plan_ = true;
    {
        std::lock_guard nk(nodes_mu_);
        for (Node& node : nodes_) {
            if (node.service) node.service->set_chaos_plan(plan);
        }
    }
    actions_ = std::move(actions);
    next_action_ = 0;
}

void ShardCluster::set_transport_faults(mesh::FaultPlan plan) {
    transport_.set_faults(std::move(plan));
}

void ShardCluster::sync_reachability(ShardId shard) {
    bool on = false;
    {
        std::lock_guard nk(nodes_mu_);
        const Node& node = nodes_[shard];
        on = !node.killed && !node.partitioned;
    }
    transport_.set_reachable(static_cast<int>(shard), on);
}

void ShardCluster::apply_due_actions(std::unique_lock<std::mutex>& lk, double now) {
    // Kills drain outside the lock (a drain blocks on in-flight compute and
    // submits need mu_); the state flip happens under it, so the transport
    // refuses from the instant the action is due.
    std::vector<std::shared_ptr<PyramidService>> drains;
    while (next_action_ < actions_.size() && actions_[next_action_].at <= now) {
        const ChaosAction a = actions_[next_action_++];
        switch (a.kind) {
        case ShardEventKind::Kill:
            if (a.begin) {
                kill_locked_phase1(a.shard, lk, drains);
            } else {
                revive_locked(a.shard);
            }
            break;
        case ShardEventKind::Partition: {
            {
                std::lock_guard nk(nodes_mu_);
                Node& node = nodes_[a.shard];
                if (node.partitioned == a.begin) break;
                node.partitioned = a.begin;
                a.begin ? ++counters_.partitions : ++counters_.heals;
            }
            sync_reachability(a.shard);
            break;
        }
        case ShardEventKind::Slow: {
            std::lock_guard nk(nodes_mu_);
            Node& node = nodes_[a.shard];
            if (a.begin) {
                node.stall_seconds = a.stall_seconds;
                ++counters_.slowdowns;
            } else {
                node.stall_seconds = 0.0;
                ++counters_.heals;
            }
            break;
        }
        }
    }
    if (!drains.empty()) {
        lk.unlock();
        drain_and_retire(drains);
        lk.lock();
    }
}

void ShardCluster::kill_locked_phase1(
    ShardId shard, std::unique_lock<std::mutex>& lk,
    std::vector<std::shared_ptr<PyramidService>>& drains) {
    (void)lk;  // documents the precondition: mu_ held
    {
        std::lock_guard nk(nodes_mu_);
        Node& node = nodes_[shard];
        if (node.killed) return;
        node.killed = true;
        node.pending.clear();
        ++counters_.kills;
        if (node.service) drains.push_back(std::move(node.service));
        node.service = nullptr;
    }
    sync_reachability(shard);
}

void ShardCluster::drain_and_retire(
    std::vector<std::shared_ptr<PyramidService>>& drains) {
    for (auto& svc : drains) {
        svc->shutdown();  // waiters resolve (ServiceShutdownError); nothing strands
        MetricsSnapshot m = svc->metrics();
        CacheStats c = svc->cache_stats();
        ArenaStats a = svc->arena_stats();
        // The dying life's pool is about to be freed with the service;
        // the fleet view keeps only its history, not its residency.
        a.bytes_pooled = 0;
        a.bytes_outstanding = 0;
        std::lock_guard lk(mu_);
        retired_.merge(m);
        retired_cache_.merge(c);
        retired_arena_.merge(a);
    }
    drains.clear();
}

void ShardCluster::revive_locked(ShardId shard) {
    {
        std::lock_guard nk(nodes_mu_);
        Node& node = nodes_[shard];
        if (!node.killed) return;
        node.service = std::make_shared<PyramidService>(pool_, cfg_.service);
        if (have_service_plan_) node.service->set_chaos_plan(service_plan_);
        node.killed = false;
        node.pending.clear();
        ++node.incarnation;  // the new life; the epoch fence keys on this
        ++counters_.revivals;
    }
    // The new life's membership view starts optimistic: every peer seeded
    // as heard-from-now, so the newborn neither mass-accuses the cluster
    // at its first sweep nor triggers spurious refutations.
    Node& node = nodes_[shard];
    node.detector = FailureDetector(nodes_.size(), cfg_.membership);
    for (std::size_t p = 0; p < nodes_.size(); ++p) {
        node.detector.observe(p, true, now_, 0);
    }
    node.inbox.clear();
    sync_reachability(shard);
}

void ShardCluster::kill(ShardId shard) {
    if (shard >= nodes_.size()) throw std::out_of_range("ShardCluster::kill");
    std::vector<std::shared_ptr<PyramidService>> drains;
    {
        std::unique_lock lk(mu_);
        kill_locked_phase1(shard, lk, drains);
    }
    drain_and_retire(drains);
}

void ShardCluster::revive(ShardId shard) {
    if (shard >= nodes_.size()) throw std::out_of_range("ShardCluster::revive");
    std::lock_guard lk(mu_);
    revive_locked(shard);
}

void ShardCluster::set_partitioned(ShardId shard, bool on) {
    if (shard >= nodes_.size()) throw std::out_of_range("ShardCluster::set_partitioned");
    {
        std::lock_guard nk(nodes_mu_);
        if (nodes_[shard].partitioned == on) return;
        nodes_[shard].partitioned = on;
        on ? ++counters_.partitions : ++counters_.heals;
    }
    sync_reachability(shard);
}

void ShardCluster::set_slow(ShardId shard, double stall_seconds) {
    if (shard >= nodes_.size()) throw std::out_of_range("ShardCluster::set_slow");
    std::lock_guard nk(nodes_mu_);
    if (stall_seconds > 0.0 && nodes_[shard].stall_seconds <= 0.0) {
        ++counters_.slowdowns;
    } else if (stall_seconds <= 0.0 && nodes_[shard].stall_seconds > 0.0) {
        ++counters_.heals;
    }
    nodes_[shard].stall_seconds = std::max(0.0, stall_seconds);
}

ShardCluster::Ticket ShardCluster::grab_ticket(ShardId shard) {
    std::lock_guard nk(nodes_mu_);
    Ticket t;
    Node& node = nodes_[shard];
    if (node.killed || node.partitioned || !node.service) {
        ++counters_.transport_refusals;
        t.refusal = RouteRefusal::Transport;
        return t;
    }
    t.service = node.service;  // ref held: a concurrent kill cannot free it
    t.stall_seconds = node.stall_seconds;
    return t;
}

std::vector<ShardId> ShardCluster::placement(const TransformRequest& request) const {
    if (!request.image) {
        throw std::invalid_argument("ShardCluster::placement: null image");
    }
    const CacheKey key = make_cache_key(*request.image, request.taps,
                                        request.levels, request.boundary,
                                        core::resolve_dwt_kernel(
                                            request.kernel,
                                            core::FilterPair::daubechies(request.taps)));
    return ring_.replicas(key, cfg_.replicas);
}

std::vector<std::byte> ShardCluster::handle_request(
    ShardId shard, std::span<const std::byte> frame) {
    // Runs under the transport mutex; takes only the leaf lock. The ARQ
    // layer already CRC-verified the frame, so unseal cannot fail short of
    // a router bug — the Down shape covers it defensively.
    wire::AdmitWire admit;  // defaults to Down
    const auto un = wire::try_unseal(frame);
    if (!un) return wire::encode_admit_payload(admit);
    std::shared_ptr<PyramidService> svc;
    {
        std::lock_guard nk(nodes_mu_);
        Node& node = nodes_[shard];
        if (node.killed || !node.service) {
            return wire::encode_admit_payload(admit);
        }
        // The receiver-side epoch fence: a request routed under a stale
        // belief must never reach a re-admitted shard's fresh life.
        if (node.incarnation != un->header.incarnation) {
            ++counters_.stale_epoch_refusals;
            admit.status = wire::AdmitStatus::StaleEpoch;
            return wire::encode_admit_payload(admit);
        }
        svc = node.service;
    }
    TransformRequest req;
    try {
        req = wire::decode_request_payload(un->payload, Clock::now());
    } catch (const wire::WireError&) {
        return wire::encode_admit_payload(admit);
    }
    SubmitResult r = svc->submit(std::move(req));
    if (!r.accepted) {
        admit.status = wire::AdmitStatus::Rejected;
        admit.reject_reason = r.reject_reason;
        admit.retry_after = r.retry_after_seconds;
        return wire::encode_admit_payload(admit);
    }
    {
        std::lock_guard nk(nodes_mu_);
        nodes_[shard].pending[un->header.request_id] = std::move(r.future);
    }
    admit.status = wire::AdmitStatus::Accepted;
    return wire::encode_admit_payload(admit);
}

ClusterSubmitResult ShardCluster::submit(TransformRequest request) {
    if (!request.image) {
        throw std::invalid_argument("ShardCluster::submit: null image");
    }
    // Resolve + hash once here, exactly as the shard's own submit would, so
    // routing, the epoch fence, and the degraded scan all talk about the
    // same key (the shard re-hashes on delivery; placement uses only the
    // digest + dims half of the key, which no shard ever recomputes
    // differently).
    const auto fp = core::FilterPair::daubechies(request.taps);
    request.kernel = core::resolve_dwt_kernel(request.kernel, fp);
    std::uint64_t digest_lo = 0;
    std::uint64_t digest_hi = 0;
    digest_memo_.digest(request.image, digest_lo, digest_hi);
    const CacheKey key =
        assemble_cache_key(digest_lo, digest_hi, *request.image, request.taps,
                           request.levels, request.boundary, request.kernel);
    const std::vector<ShardId> chain = ring_.replicas(key, cfg_.replicas);

    ClusterSubmitResult out;
    {
        std::lock_guard nk(nodes_mu_);
        ++counters_.routed;
    }
    // The pixels genuinely cross the wire: encode the request once, reseal
    // per replica (the header names the destination and its epoch).
    const auto req_payload = wire::encode_request_payload(request, Clock::now());
    for (const ShardId shard : chain) {
        // Roster check first: a Dead shard is skipped without touching its
        // transport (the whole point of the failure detector — no waiting
        // on a corpse's ARQ give-up per request).
        std::uint64_t expected = 0;
        {
            std::lock_guard lk(mu_);
            if (detector_.health(shard) == ShardHealth::Dead) {
                std::lock_guard nk(nodes_mu_);
                ++counters_.roster_skips;
                continue;
            }
            expected = detector_.incarnation(shard);
        }
        double stall = 0.0;
        std::uint64_t request_id = 0;
        {
            std::lock_guard nk(nodes_mu_);
            stall = nodes_[shard].stall_seconds;
            request_id = next_request_id_++;
        }
        sleep_seconds(stall);  // Slow shard: clients feel it before the wire
        wire::Header h;
        h.kind = wire::MsgKind::Request;
        h.src = static_cast<std::uint32_t>(router_node());
        h.dst = static_cast<std::uint32_t>(shard);
        h.incarnation = expected;
        h.request_id = request_id;
        const auto sealed = wire::seal(h, req_payload);
        const auto resp =
            transport_.rpc(router_node(), static_cast<int>(shard),
                           wire::kRequestTag, sealed);
        if (!resp) {
            // The request wire gave up: killed or partitioned. Fail over.
            std::lock_guard nk(nodes_mu_);
            ++counters_.transport_refusals;
            continue;
        }
        wire::AdmitWire admit;
        try {
            admit = wire::decode_admit_payload(*resp);
        } catch (const wire::WireError&) {
            std::lock_guard nk(nodes_mu_);
            ++counters_.transport_refusals;
            continue;
        }
        switch (admit.status) {
        case wire::AdmitStatus::Accepted: {
            ++out.hops;
            TransformFuture inner;
            {
                std::lock_guard nk(nodes_mu_);
                auto& pending = nodes_[shard].pending;
                if (const auto it = pending.find(request_id); it != pending.end()) {
                    inner = std::move(it->second);
                    pending.erase(it);
                }
            }
            if (!inner.valid()) {
                // A racing kill swept the pending future between the admit
                // and the claim: treat as a transport loss and fail over.
                std::lock_guard nk(nodes_mu_);
                ++counters_.transport_refusals;
                continue;
            }
            ReplyTask task;
            task.shard = shard;
            task.request_id = request_id;
            task.incarnation = expected;
            task.inner = std::move(inner);
            task.promise = std::make_shared<std::promise<TransformReply>>();
            out.shard = shard;
            out.result.accepted = true;
            out.result.reject_reason = RejectReason::None;
            out.result.future = task.promise->get_future().share();
            enqueue_reply(std::move(task));
            {
                std::lock_guard nk(nodes_mu_);
                ++counters_.accepted;
                if (shard != chain.front()) ++counters_.failovers;
            }
            return out;
        }
        case wire::AdmitStatus::Rejected:
            // Breaker-open / saturated / quarantined on this replica: the
            // next replica may be healthy. Keep the answer's shape for the
            // final reject if the whole chain refuses.
            ++out.hops;
            out.shard = shard;
            out.result.accepted = false;
            out.result.reject_reason = admit.reject_reason;
            out.result.retry_after_seconds = admit.retry_after;
            continue;
        case wire::AdmitStatus::StaleEpoch:
            // Counted by the receiver-side fence in handle_request.
            continue;
        case wire::AdmitStatus::Down: {
            std::lock_guard nk(nodes_mu_);
            ++counters_.transport_refusals;
            continue;
        }
        }
    }

    // Replica chain exhausted. Degraded clients take any live shard's
    // cached answer for the scene (exact key preferred).
    if (request.allow_degraded) {
        const auto started = Clock::now();
        for (std::size_t s = 0; s < shard_count(); ++s) {
            Ticket t = grab_ticket(s);
            if (t.refusal != RouteRefusal::None) continue;
            if (auto cached = t.service->peek_cached(key)) {
                TransformReply reply;
                reply.degraded = !(cached->key == key);
                reply.cache_hit = true;
                reply.result = std::move(cached);
                reply.total_seconds =
                    std::chrono::duration<double>(Clock::now() - started).count();
                std::promise<TransformReply> promise;
                promise.set_value(std::move(reply));
                out.shard = s;
                out.cross_shard_degraded = true;
                out.result = SubmitResult{};
                out.result.accepted = true;
                out.result.future = promise.get_future().share();
                std::lock_guard nk(nodes_mu_);
                ++counters_.accepted;
                ++counters_.cross_shard_degraded;
                return out;
            }
        }
    }
    std::lock_guard nk(nodes_mu_);
    ++counters_.rejected;
    if (out.result.reject_reason == RejectReason::None) {
        // Never reached a shard's admission: every replica was dead or
        // unreachable. Report it as saturation-shaped backpressure with a
        // heartbeat-scaled retry hint (the roster heals on that cadence).
        out.result.accepted = false;
        out.result.reject_reason = RejectReason::Saturated;
        out.result.retry_after_seconds = cfg_.membership.dead_after;
    }
    return out;
}

void ShardCluster::enqueue_reply(ReplyTask task) {
    bool inline_delivery = false;
    {
        std::lock_guard pk(pump_mu_);
        if (pump_stop_) {
            inline_delivery = true;
        } else {
            pump_queue_.push_back(std::move(task));
        }
    }
    if (inline_delivery) {
        // The pump is gone (post-shutdown race): deliver on this thread.
        deliver_reply(std::move(task));
        return;
    }
    cv_pump_.notify_one();
}

void ShardCluster::pump_loop() {
    for (;;) {
        ReplyTask task;
        {
            std::unique_lock pk(pump_mu_);
            cv_pump_.wait(pk, [this] { return pump_stop_ || !pump_queue_.empty(); });
            if (pump_queue_.empty()) return;  // pump_stop_ and drained
            task = std::move(pump_queue_.front());
            pump_queue_.pop_front();
        }
        deliver_reply(std::move(task));
    }
}

void ShardCluster::deliver_reply(ReplyTask task) {
    // Wait for the shard's outcome with no lock held, then encode it —
    // value or typed error — exactly as it crosses the wire.
    TransformReply local;
    std::exception_ptr error;
    std::vector<std::byte> payload;
    try {
        local = task.inner.get();
        payload = wire::encode_reply_payload(local);
    } catch (const ServiceShutdownError& e) {
        error = std::current_exception();
        payload = wire::encode_reply_error_payload(wire::ReplyErrorKind::Shutdown,
                                                   e.what());
    } catch (const DeadlineExpiredError& e) {
        error = std::current_exception();
        payload = wire::encode_reply_error_payload(wire::ReplyErrorKind::Deadline,
                                                   e.what());
    } catch (const WatchdogTimeoutError& e) {
        error = std::current_exception();
        payload = wire::encode_reply_error_payload(wire::ReplyErrorKind::Watchdog,
                                                   e.what());
    } catch (const CrcAuditError& e) {
        error = std::current_exception();
        payload = wire::encode_reply_error_payload(wire::ReplyErrorKind::CrcAudit,
                                                   e.what());
    } catch (const std::exception& e) {
        error = std::current_exception();
        payload = wire::encode_reply_error_payload(wire::ReplyErrorKind::Other,
                                                   e.what());
    }
    wire::Header h;
    h.kind = wire::MsgKind::Reply;
    h.src = static_cast<std::uint32_t>(task.shard);
    h.dst = static_cast<std::uint32_t>(router_node());
    h.incarnation = task.incarnation;
    h.request_id = task.request_id;
    const auto sealed = wire::seal(h, payload);
    const auto ack = transport_.rpc(static_cast<int>(task.shard), router_node(),
                                    wire::kReplyTag, sealed);
    bool have_rec = false;
    ReceivedReply rec;
    {
        std::lock_guard nk(nodes_mu_);
        if (const auto it = reply_box_.find(task.request_id);
            it != reply_box_.end()) {
            if (ack) {
                rec = std::move(it->second);
                have_rec = true;
            }
            reply_box_.erase(it);
        }
        if (!have_rec) ++counters_.reply_wire_fallbacks;
    }
    if (!have_rec) {
        // The reply wire gave up (shard killed or partitioned at
        // completion time): deliver the locally held outcome honestly.
        if (error) {
            task.promise->set_exception(error);
        } else {
            task.promise->set_value(std::move(local));
        }
        return;
    }
    // Deliver what the router received. A *value* reply arriving under a
    // different incarnation than the dispatch belief would be a
    // stale-epoch reply; the frame carries the dispatch incarnation, so
    // this is structurally impossible — the counter is the audited
    // invariant the partition drills assert stays zero.
    if (!rec.rw.is_error && rec.incarnation != task.incarnation) {
        {
            std::lock_guard nk(nodes_mu_);
            ++counters_.stale_replies_delivered;
        }
        task.promise->set_exception(std::make_exception_ptr(std::runtime_error(
            "shard wire: stale-epoch reply suppressed")));
        return;
    }
    if (rec.rw.is_error) {
        try {
            wire::rethrow_reply_error(rec.rw);
        } catch (...) {
            task.promise->set_exception(std::current_exception());
        }
        return;
    }
    task.promise->set_value(std::move(rec.rw.reply));
}

SubmitResult ShardCluster::submit_to_shard(ShardId shard, TransformRequest request) {
    if (shard >= nodes_.size()) {
        throw std::out_of_range("ShardCluster::submit_to_shard");
    }
    Ticket t = grab_ticket(shard);
    if (t.refusal != RouteRefusal::None) {
        SubmitResult r;
        r.accepted = false;
        r.reject_reason = RejectReason::ShuttingDown;
        return r;
    }
    sleep_seconds(t.stall_seconds);
    return t.service->submit(std::move(request));
}

PyramidService* ShardCluster::service(ShardId shard) {
    if (shard >= nodes_.size()) throw std::out_of_range("ShardCluster::service");
    std::lock_guard nk(nodes_mu_);
    return nodes_[shard].service.get();
}

std::size_t ShardCluster::shard_count() const noexcept { return nodes_.size(); }

ShardHealth ShardCluster::health(ShardId shard) const {
    std::lock_guard lk(mu_);
    return detector_.health(shard);
}

std::uint64_t ShardCluster::incarnation(ShardId shard) const {
    std::lock_guard lk(mu_);
    return detector_.incarnation(shard);
}

std::uint64_t ShardCluster::roster_epoch() const {
    std::lock_guard lk(mu_);
    return detector_.epoch();
}

std::uint64_t ShardCluster::roster_hash() const {
    std::lock_guard lk(mu_);
    return detector_.roster_hash();
}

std::uint64_t ShardCluster::node_roster_hash(ShardId shard) const {
    if (shard >= cfg_.shard_count) {
        throw std::out_of_range("ShardCluster::node_roster_hash");
    }
    std::lock_guard lk(mu_);
    return nodes_[shard].detector.roster_hash();
}

ClusterCounters ShardCluster::counters() const {
    std::lock_guard nk(nodes_mu_);
    return counters_;
}

WireStats ShardCluster::wire_stats() const { return transport_.stats(); }

MetricsSnapshot ShardCluster::fleet_metrics() const {
    std::vector<std::shared_ptr<PyramidService>> live;
    MetricsSnapshot fleet;
    {
        std::lock_guard lk(mu_);
        fleet = retired_;
    }
    {
        std::lock_guard nk(nodes_mu_);
        for (const Node& node : nodes_) {
            if (node.service) live.push_back(node.service);
        }
    }
    for (const auto& svc : live) fleet.merge(svc->metrics());
    return fleet;
}

CacheStats ShardCluster::fleet_cache_stats() const {
    std::vector<std::shared_ptr<PyramidService>> live;
    CacheStats fleet;
    {
        std::lock_guard lk(mu_);
        fleet = retired_cache_;
    }
    {
        std::lock_guard nk(nodes_mu_);
        for (const Node& node : nodes_) {
            if (node.service) live.push_back(node.service);
        }
    }
    for (const auto& svc : live) fleet.merge(svc->cache_stats());
    return fleet;
}

ArenaStats ShardCluster::fleet_arena_stats() const {
    std::vector<std::shared_ptr<PyramidService>> live;
    ArenaStats fleet;
    {
        std::lock_guard lk(mu_);
        fleet = retired_arena_;
    }
    {
        std::lock_guard nk(nodes_mu_);
        for (const Node& node : nodes_) {
            if (node.service) live.push_back(node.service);
        }
    }
    for (const auto& svc : live) fleet.merge(svc->arena_stats());
    return fleet;
}

void ShardCluster::shutdown() {
    std::vector<std::shared_ptr<PyramidService>> drains;
    bool first = false;
    {
        std::lock_guard lk(mu_);
        first = !stopping_;
        stopping_ = true;
        std::lock_guard nk(nodes_mu_);
        for (Node& node : nodes_) {
            if (node.service) drains.push_back(std::move(node.service));
            node.service = nullptr;
            node.killed = true;
            node.pending.clear();
        }
    }
    for (std::size_t s = 0; s < nodes_.size(); ++s) {
        transport_.set_reachable(static_cast<int>(s), false);
    }
    cv_monitor_.notify_all();
    if (first && monitor_.joinable()) monitor_.join();
    // Drain the services first (every inner future resolves), then let the
    // pump flush its queue: each remaining reply's wire attempt fails fast
    // (all NICs are off) and falls back to the local outcome, so every
    // client future is ready before shutdown returns.
    drain_and_retire(drains);
    {
        std::lock_guard pk(pump_mu_);
        pump_stop_ = true;
    }
    cv_pump_.notify_all();
    if (first && pump_.joinable()) pump_.join();
}

}  // namespace wavehpc::svc::shard
