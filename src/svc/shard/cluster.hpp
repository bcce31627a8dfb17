#pragma once
// Sharded pyramid service: N PyramidService instances ("shards") behind a
// consistent-hash router (ring.hpp) and a heartbeat failure detector
// (membership.hpp), sharing one runtime::ThreadPool.
//
// Since ISSUE 10 every byte between the router and a shard crosses the
// in-process ShardTransport (transport.hpp), which speaks the mesh
// machine's reliable-frame protocol against a link-aware FaultPlan:
//   * Requests: sealed wire::Request frames (wire.hpp) under ARQ; the
//     shard answers with an AdmitWire verdict on the same channel. The
//     admission fence runs on the *receiver*: a frame whose incarnation
//     is not the shard's current life is refused as StaleEpoch.
//   * Replies: when the compute finishes, the reply pump ships the full
//     TransformReply (or its typed error) back as a sealed wire::Reply
//     frame under ARQ; the client future resolves with what the router
//     received. If the reply wire gives up (shard killed or partitioned
//     at completion time), the locally held outcome is delivered honestly
//     and `reply_wire_fallbacks` counts it.
//   * Membership: no direct observe() probes. Each tick every live shard
//     gossips its full (incarnation, last_ok, health) roster vector to
//     the router and its peers as wire::Gossip datagrams; every receiver
//     folds the vector through FailureDetector::merge_entry. The router's
//     detector still drives routing, and under identical fault draws its
//     epoch/roster_hash sequence is bit-for-bit the old probe loop's.
//
// Split-brain resolution: a shard that reads a gossiped claim that *it*
// is Dead — at its own (or a later) incarnation, with a last_ok stale
// enough to prove the claimant has not heard its recent beats — refutes
// by bumping its incarnation. Claimants then re-admit it through the
// ordinary epoch fence (readmit_oks fresh beats of the new life), so an
// asymmetric partition heals to one roster on every node and a healed
// partition victim rejoins instead of staying a permanent corpse.
//
// Failure semantics (replayed from ChaosPlan::shard_events or injected by
// the kill/revive test seams):
//   * Kill — crash-stop. The node's NIC goes unreachable (requests fail
//     over on the very next submit, before any heartbeat lapses), the
//     service is drained (in-flight waiters resolve with
//     ServiceShutdownError — nothing strands), its metrics are folded
//     into the retired accumulator, and its cache dies with it.
//   * Partition — the NIC is off but the process survives: beats stop,
//     requests give up, the cache and counters are intact at heal time.
//     Asymmetric partitions (A hears B but not vice versa) come from
//     LinkFault rules in `transport_faults` instead.
//   * Slow — every request to the shard stalls first (noisy neighbour).
//
// Clocking: with `manual_clock` the owner drives tick(now) explicitly and
// the cluster starts no monitor thread — the deterministic mode every
// tier-1 test uses (the reply pump thread always runs; it performs no
// time-based work). Otherwise a monitor thread beats every
// heartbeat_interval: gossip rounds, roster sweeps, due chaos events.
//
// Lock order: mu_ (orchestration: detectors, chaos actions, clock,
// gossip inboxes) -> transport's internal mutex -> nodes_mu_ (leaf: node
// liveness flags, pending futures, counters). Transport handlers run
// under the transport mutex and may take only nodes_mu_.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "mesh/faults.hpp"
#include "svc/chaos.hpp"
#include "svc/service.hpp"
#include "svc/shard/membership.hpp"
#include "svc/shard/ring.hpp"
#include "svc/shard/transport.hpp"
#include "svc/shard/wire.hpp"

namespace wavehpc::svc::shard {

struct ShardClusterConfig {
    std::size_t shard_count = 4;
    std::size_t vnodes = 64;       ///< ring points per shard
    std::size_t replicas = 2;      ///< failover chain length per key
    std::uint64_t seed = 1;        ///< ring placement seed
    MembershipConfig membership;
    ServiceConfig service;         ///< per-shard service posture
    /// No monitor thread; the owner drives tick(now) with explicit
    /// seconds. Chaos events replay against that clock.
    bool manual_clock = false;

    /// Fault plan installed into the shard transport (drops, corruption,
    /// directed LinkFault windows — the partition-drill seam). A zero
    /// seed inherits `gossip_seed`.
    mesh::FaultPlan transport_faults;
    /// Transport fault-draw seed; 0 falls back to `seed`.
    std::uint64_t gossip_seed = 0;
    /// ARQ retries per transfer before the wire gives up.
    int wire_retries = 4;
    /// Peers each shard gossips its roster to per tick, in ring order
    /// after the router (which always hears every beat). 0 = all peers.
    std::size_t gossip_fanout = 0;

    /// Defaults overridden by WAVEHPC_SHARD_COUNT / WAVEHPC_SHARD_VNODES /
    /// WAVEHPC_SHARD_REPLICAS / WAVEHPC_SHARD_SEED (falling back to
    /// WAVEHPC_SCHED_SEED) / WAVEHPC_SHARD_HB_MS / WAVEHPC_SHARD_SUSPECT_MS
    /// / WAVEHPC_SHARD_DEAD_MS / WAVEHPC_SHARD_READMIT_OKS /
    /// WAVEHPC_SHARD_GOSSIP_SEED / WAVEHPC_SHARD_GOSSIP_FANOUT /
    /// WAVEHPC_SHARD_WIRE_RETRIES / WAVEHPC_SHARD_FAULTS (a
    /// mesh::FaultPlan spec string), plus ServiceConfig::from_env() for
    /// the per-shard service. base/knob.hpp policy: a malformed or
    /// out-of-range value throws std::invalid_argument.
    [[nodiscard]] static ShardClusterConfig from_env();
};

/// Why the cluster (not a shard's admission) refused a delivery attempt.
enum class RouteRefusal : std::uint8_t {
    None,        ///< delivered to the shard's submit()
    RosterDead,  ///< skipped: the roster marks the shard Dead
    Transport,   ///< refused: the request wire gave up (killed/partitioned)
    StaleEpoch,  ///< refused: shard incarnation != the router's belief
};

/// Synchronous answer of ShardCluster::submit.
struct ClusterSubmitResult {
    /// The shard that accepted (or the last one that answered), or
    /// `no_shard` when every replica was refused before any submit().
    static constexpr ShardId no_shard = static_cast<ShardId>(-1);
    ShardId shard = no_shard;
    std::size_t hops = 0;  ///< replicas whose admission answered (1 = primary)
    /// Served from another live shard's cache after the replica chain
    /// failed (allow_degraded only). result.future is ready.
    bool cross_shard_degraded = false;
    SubmitResult result;
};

/// Monotonic cluster-level counters (shard-internal counters live in each
/// service's own ServiceCounters; fleet_metrics() merges those).
struct ClusterCounters {
    std::uint64_t routed = 0;             ///< submit() calls
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;           ///< replica chain exhausted, no degrade
    std::uint64_t failovers = 0;          ///< deliveries past the primary
    std::uint64_t roster_skips = 0;       ///< replicas skipped as Dead
    std::uint64_t transport_refusals = 0; ///< request wire gave up / node down
    std::uint64_t stale_epoch_refusals = 0;
    std::uint64_t cross_shard_degraded = 0;
    std::uint64_t kills = 0;
    std::uint64_t revivals = 0;
    std::uint64_t partitions = 0;
    std::uint64_t heals = 0;              ///< partition/slow windows ended
    std::uint64_t slowdowns = 0;
    std::uint64_t deaths = 0;             ///< roster transitions into Dead
    std::uint64_t suspicions = 0;         ///< roster transitions into Suspect
    std::uint64_t readmissions = 0;       ///< Dead -> Alive re-admissions
    std::uint64_t refutations = 0;        ///< shards refuting their own Dead claim
    /// Value replies delivered under a mismatched incarnation. The wire
    /// format makes this structurally impossible; the drills assert 0.
    std::uint64_t stale_replies_delivered = 0;
    /// Replies delivered from the locally held outcome because the reply
    /// wire gave up (shard killed/partitioned at completion time).
    std::uint64_t reply_wire_fallbacks = 0;
};

class ShardCluster {
public:
    /// Builds `cfg.shard_count` services over `pool`. The pool must
    /// outlive the cluster; the cluster drains every shard on destruction.
    /// Futures returned by submit() must not outlive the cluster.
    ShardCluster(runtime::ThreadPool& pool, ShardClusterConfig cfg = {});
    ~ShardCluster();

    ShardCluster(const ShardCluster&) = delete;
    ShardCluster& operator=(const ShardCluster&) = delete;

    /// Route and deliver: hash the scene, walk its replica chain, fail
    /// over past dead/refusing shards, degrade cross-shard as a last
    /// resort. Synchronous like PyramidService::submit; never blocks on
    /// compute (a Slow shard's injected stall does block the caller — by
    /// design, that is what a slow shard does to its clients).
    [[nodiscard]] ClusterSubmitResult submit(TransformRequest request);

    /// Drain every live shard and stop the monitor + reply-pump threads.
    /// Idempotent.
    void shutdown();

    // --- fault seams (the chaos replay uses exactly these) ---

    /// Crash-stop `shard` now: the NIC goes unreachable, the service
    /// drains (waiters get ServiceShutdownError), metrics fold into the
    /// retired accumulator, cache state is lost. No-op if already killed.
    void kill(ShardId shard);

    /// Bring a killed shard back with a fresh service, a fresh membership
    /// view, and a *new* incarnation. The roster re-admits it only after
    /// readmit_oks heartbeats of the new life. No-op if not killed.
    void revive(ShardId shard);

    void set_partitioned(ShardId shard, bool on);
    void set_slow(ShardId shard, double stall_seconds);  ///< 0 clears

    /// Install `plan` cluster-wide: its shard events replay against the
    /// cluster clock, and its in-service faults (compute errors, stalls,
    /// corruptions) are pushed to every live shard — and re-installed on
    /// each revived life — so one spec string describes the whole run.
    void set_chaos_plan(const ChaosPlan& plan);

    /// Install a transport fault plan (drops / corruption / LinkFault
    /// windows) on the live wire — the partition-drill seam. A zero seed
    /// keeps the transport's current draw seed.
    void set_transport_faults(mesh::FaultPlan plan);

    /// Manual-clock step: advance to `now` seconds, replay due chaos
    /// events, run one gossip round over the wire, sweep every detector.
    /// The monitor thread calls this with wall-derived time; manual-clock
    /// owners call it directly. `now` never moves backwards.
    void tick(double now);

    // --- introspection ---
    [[nodiscard]] std::size_t shard_count() const noexcept;
    [[nodiscard]] const HashRing& ring() const noexcept { return ring_; }
    [[nodiscard]] ShardHealth health(ShardId shard) const;
    [[nodiscard]] std::uint64_t incarnation(ShardId shard) const;
    [[nodiscard]] std::uint64_t roster_epoch() const;
    [[nodiscard]] std::uint64_t roster_hash() const;
    /// The shard's *own* gossiped membership view (the drills assert that
    /// every live node converges to the router's roster_hash after heal).
    [[nodiscard]] std::uint64_t node_roster_hash(ShardId shard) const;
    [[nodiscard]] ClusterCounters counters() const;
    [[nodiscard]] WireStats wire_stats() const;
    [[nodiscard]] const ShardClusterConfig& config() const noexcept { return cfg_; }

    /// Fleet view: live shards' snapshots merged with every killed life's
    /// retired snapshot — counters never go backwards across a kill.
    [[nodiscard]] MetricsSnapshot fleet_metrics() const;
    [[nodiscard]] CacheStats fleet_cache_stats() const;
    /// Fleet slab-pool view (ISSUE 8): live shards' arena stats merged
    /// with every killed life's — a kill returns its pooled slabs to the
    /// allocator, but the hit/miss/fallback history still counts.
    [[nodiscard]] ArenaStats fleet_arena_stats() const;

    /// Replica chain the router would walk for this request's scene.
    [[nodiscard]] std::vector<ShardId> placement(const TransformRequest& request) const;

    // --- test hooks ---
    /// Direct delivery to one shard, bypassing ring + roster + wire
    /// (cache warming in tests). Throws std::out_of_range on a bad shard
    /// id; returns a Transport refusal shape if the shard is unreachable.
    [[nodiscard]] SubmitResult submit_to_shard(ShardId shard, TransformRequest request);

    /// The shard's live service, or nullptr while killed. The pointer is
    /// only stable while the caller prevents kills (test seam).
    [[nodiscard]] PyramidService* service(ShardId shard);

private:
    /// One sealed gossip frame waiting in a node's (or the router's)
    /// inbox. Filled by transport sinks during a tick's sends, drained by
    /// the same tick's merge phase — only mu_ holders ever touch inboxes.
    struct GossipMsg {
        int src = 0;
        std::vector<std::byte> frame;
    };

    struct Node {
        std::shared_ptr<PyramidService> service;  // null while killed
        std::uint64_t incarnation = 0;
        bool killed = false;
        bool partitioned = false;
        double stall_seconds = 0.0;  ///< injected per-delivery stall (Slow)
        /// Futures the shard accepted over the wire, keyed by request id,
        /// until the router claims them (nodes_mu_).
        std::map<std::uint64_t, TransformFuture> pending;
        /// The shard's own membership view, fed purely by gossip (mu_).
        FailureDetector detector;
        std::vector<GossipMsg> inbox;  ///< sealed roster frames (mu_)
    };

    /// One side of a timed ShardEvent, flattened for ordered replay.
    struct ChaosAction {
        double at = 0.0;
        ShardId shard = 0;
        ShardEventKind kind = ShardEventKind::Kill;
        bool begin = true;
        double stall_seconds = 0.0;
    };

    /// Grab a direct-delivery ticket for `shard` under nodes_mu_: the
    /// live service (ref held), the stall to apply, or the refusal.
    struct Ticket {
        std::shared_ptr<PyramidService> service;
        double stall_seconds = 0.0;
        RouteRefusal refusal = RouteRefusal::None;
    };
    [[nodiscard]] Ticket grab_ticket(ShardId shard);

    /// The fleet_* views: `retired` (under mu_) merged with `read` of every
    /// live service (refs taken under nodes_mu_, read with no lock held).
    template <typename Stats>
    [[nodiscard]] Stats fleet_merge(const Stats& retired,
                                    Stats (PyramidService::*read)() const) const;

    /// An accepted request waiting for its compute to finish so the reply
    /// can cross the wire; the pump resolves `promise` with what the
    /// router received (or the local outcome on wire give-up).
    struct ReplyTask {
        ShardId shard = 0;
        std::uint64_t request_id = 0;
        std::uint64_t incarnation = 0;  ///< the router's belief at dispatch
        TransformFuture inner;
        std::shared_ptr<std::promise<TransformReply>> promise;
    };

    /// A reply the router-side wire handler received and decoded, waiting
    /// for the pump to claim it (nodes_mu_).
    struct ReceivedReply {
        std::uint64_t incarnation = 0;
        wire::ReplyWire rw;
    };

    [[nodiscard]] int router_node() const noexcept {
        return static_cast<int>(cfg_.shard_count);
    }

    /// Shard-side request handler (transport mutex held; takes nodes_mu_
    /// only): fence, decode, admit into the shard's service.
    [[nodiscard]] std::vector<std::byte> handle_request(
        ShardId shard, std::span<const std::byte> frame);

    /// Wait for the task's compute, ship the reply over the wire, resolve
    /// the client promise. Runs on the pump thread (or inline after the
    /// pump stopped). Takes no lock while waiting.
    void deliver_reply(ReplyTask task);
    void pump_loop();
    void enqueue_reply(ReplyTask task);

    /// One gossip round at `now` (mu_ held): every live shard seals its
    /// roster and beats the router + fanout peers, the router broadcasts
    /// its pre-merge roster, then every inbox is merged (self-entries run
    /// the refutation rule) and every detector sweeps.
    void gossip_round_locked(double now);
    void tick_locked(std::unique_lock<std::mutex>& lk, double now);

    void kill_locked_phase1(ShardId shard, std::unique_lock<std::mutex>& lk,
                            std::vector<std::shared_ptr<PyramidService>>& drains);
    void revive_locked(ShardId shard);
    void apply_due_actions(std::unique_lock<std::mutex>& lk, double now);
    void drain_and_retire(std::vector<std::shared_ptr<PyramidService>>& drains);
    void absorb_transitions_locked();
    void sync_reachability(ShardId shard);
    void monitor_loop();
    [[nodiscard]] double now_seconds() const;

    runtime::ThreadPool& pool_;
    const ShardClusterConfig cfg_;
    HashRing ring_;
    DigestMemo digest_memo_;  ///< routing skips the pixel hash on reseen scenes
    const Clock::time_point epoch0_ = Clock::now();  ///< wall clock origin
    ShardTransport transport_;  ///< nodes 0..N-1 = shards, N = router

    mutable std::mutex mu_;
    bool stopping_ = false;
    double now_ = 0.0;  ///< cluster clock, monotonic (manual or wall-derived)
    FailureDetector detector_;          ///< the router's view; drives routing
    std::vector<GossipMsg> router_inbox_;
    std::vector<ChaosAction> actions_;  // sorted by at
    std::size_t next_action_ = 0;
    ChaosPlan service_plan_;            ///< pushed to every (re)born service
    bool have_service_plan_ = false;
    MetricsSnapshot retired_;      ///< merged snapshots of killed lives
    CacheStats retired_cache_;
    ArenaStats retired_arena_;

    mutable std::mutex nodes_mu_;  ///< leaf lock (see lock order above)
    std::vector<Node> nodes_;
    ClusterCounters counters_;
    std::map<std::uint64_t, ReceivedReply> reply_box_;
    std::uint64_t next_request_id_ = 1;

    std::mutex pump_mu_;
    std::condition_variable cv_pump_;
    std::deque<ReplyTask> pump_queue_;
    bool pump_stop_ = false;

    std::condition_variable cv_monitor_;
    std::thread pump_;
    std::thread monitor_;  // last member: joins before the rest tears down
};

}  // namespace wavehpc::svc::shard
