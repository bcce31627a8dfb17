#include "mesh/machine.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "base/frame.hpp"

namespace wavehpc::mesh {

namespace {

// Internal unwind signal for a fail-stopped node: tears down the node body
// without erroring the run. Deliberately not derived from std::exception so
// node programs cannot swallow it.
struct NodeFailStopSignal {};

constexpr std::size_t kAckBytes = 16;  // NIC-level ack frame

std::string recv_desc(int tag, int src, const char* verb) {
    std::ostringstream os;
    os << verb << "(tag=";
    if (tag == kAnyTag) {
        os << "any";
    } else {
        os << tag;
    }
    os << ", src=";
    if (src == kAnySource) {
        os << "any";
    } else {
        os << src;
    }
    os << ')';
    return os.str();
}

}  // namespace

MachineProfile MachineProfile::paragon_pvm() {
    return {
        .name = "paragon-pvm",
        .topo = Topology(4, 16),  // 64-node machine, partitions allocated 4 wide
        .send_overhead = 0.4e-3,
        .recv_overhead = 0.6e-3,
        .per_hop = 20e-6,
        .byte_time = 1.0 / 3.0e6,
        .faults = {},
    };
}

MachineProfile MachineProfile::paragon_nx() {
    return {
        .name = "paragon-nx",
        .topo = Topology(4, 16),
        .send_overhead = 60e-6,
        .recv_overhead = 60e-6,
        .per_hop = 10e-6,
        .byte_time = 1.0 / 35.0e6,
        .faults = {},
    };
}

MachineProfile MachineProfile::cray_t3d_pvm() {
    return {
        .name = "cray-t3d-pvm",
        .topo = Topology(8, 8, 4, true, true, true),
        .send_overhead = 150e-6,
        .recv_overhead = 150e-6,
        .per_hop = 2e-6,
        .byte_time = 1.0 / 25.0e6,
        .faults = {},
    };
}

MachineProfile MachineProfile::test_profile(std::size_t sx, std::size_t sy) {
    return {
        .name = "test",
        .topo = Topology(sx, sy),
        .send_overhead = 1e-3,
        .recv_overhead = 1e-3,
        .per_hop = 1e-4,
        .byte_time = 1e-6,
        .faults = {},
    };
}

int NodeCtx::nprocs() const noexcept {
    return static_cast<int>(machine_->rs_->pid_of_rank.size());
}

void NodeCtx::charge(double seconds, double NodeStats::*category) {
    machine_->advance_with_fail(*this, seconds, category);
}

void NodeCtx::compute(double seconds) { charge(seconds, &NodeStats::useful_seconds); }

void NodeCtx::compute_redundant(double seconds) {
    charge(seconds, &NodeStats::redundant_seconds);
}

void NodeCtx::charge_comm(double seconds) { charge(seconds, &NodeStats::comm_seconds); }

void NodeCtx::csend(int tag, int dst, std::span<const std::byte> data) {
    if (machine_->reliable_.has_value()) {
        if (!machine_->do_send_reliable(*this, tag, dst, data, *machine_->reliable_)) {
            std::ostringstream os;
            os << "csend_reliable: no ack from rank " << dst << " after "
               << machine_->reliable_->max_retries + 1 << " attempts (tag " << tag
               << ')';
            throw TransportError(os.str());
        }
        return;
    }
    machine_->do_send(*this, tag, dst, data);
}

Message NodeCtx::crecv(int tag, int src) {
    auto m = machine_->do_recv(*this, tag, src, std::nullopt);
    if (!m.has_value()) throw std::logic_error("crecv: impossible timeout");
    return std::move(*m);
}

std::optional<Message> NodeCtx::crecv_timeout(int tag, int src, double timeout) {
    if (timeout < 0.0) throw std::invalid_argument("crecv_timeout: negative timeout");
    return machine_->do_recv(*this, tag, src, timeout);
}

bool NodeCtx::csend_reliable(int tag, int dst, std::span<const std::byte> data,
                             const ReliableParams& params) {
    return machine_->do_send_reliable(*this, tag, dst, data, params);
}

const NodeStats& NodeCtx::stats() const {
    return machine_->rs_->stats[static_cast<std::size_t>(rank_)];
}

Machine::Machine(MachineProfile profile) : profile_(std::move(profile)) {}

void Machine::check_fail_stop(NodeCtx& ctx) const {
    const auto fail = fail_time_of(ctx.rank());
    if (fail.has_value() && ctx.proc_->now() >= *fail) throw NodeFailStopSignal{};
}

void Machine::advance_with_fail(NodeCtx& ctx, double dt, double NodeStats::*category) {
    if (dt < 0.0) throw std::invalid_argument("charge: negative seconds");
    NodeStats& st = rs_->stats[static_cast<std::size_t>(ctx.rank())];
    double* slot = ctx.recovery_ ? &st.recovery_seconds : &(st.*category);
    const auto fail = fail_time_of(ctx.rank());
    if (fail.has_value() && ctx.proc_->now() + dt >= *fail) {
        const double partial = std::max(0.0, *fail - ctx.proc_->now());
        *slot += partial;
        ctx.proc_->advance(partial);
        throw NodeFailStopSignal{};
    }
    *slot += dt;
    ctx.proc_->advance(dt);
}

void Machine::validate_send(const NodeCtx& ctx, int tag, int dst) const {
    const auto nprocs = static_cast<int>(rs_->pid_of_rank.size());
    if (dst < 0 || dst >= nprocs) throw std::invalid_argument("csend: bad destination");
    if (dst == ctx.rank()) throw std::invalid_argument("csend: self messages unsupported");
    if (tag < 0) throw std::invalid_argument("csend: tag must be >= 0");
}

void Machine::do_send(NodeCtx& ctx, int tag, int dst, std::span<const std::byte> data) {
    RunState& rs = *rs_;
    validate_send(ctx, tag, dst);
    check_fail_stop(ctx);

    NodeStats& st = rs.stats[static_cast<std::size_t>(ctx.rank())];

    // Software send overhead; the call returns once the message is handed
    // to the network (buffered send, NX csend flavour).
    advance_with_fail(ctx, profile_.send_overhead, &NodeStats::comm_seconds);
    const double ready = ctx.proc_->now();

    const Coord3 src_at = rs.placement[static_cast<std::size_t>(ctx.rank())];
    const Coord3 dst_at = rs.placement[static_cast<std::size_t>(dst)];
    const auto path = profile_.topo.route(src_at, dst_at);
    // The fault draw happens at network entry so a matching LinkFault delay
    // can stretch this frame's wire time before the path is reserved.
    const FaultDecision fd =
        profile_.faults.decide_frame(rs.msg_counter++, ctx.rank(), dst, tag, ready);
    const double duration =
        static_cast<double>(profile_.topo.hops(src_at, dst_at)) * profile_.per_hop +
        static_cast<double>(data.size()) * profile_.byte_time + fd.delay;
    const auto res = rs.ledger.reserve_path_ex(path, ready, duration);
    const double arrival = res.start + res.duration;

    if (fd.drop) {
        ++rs.injected_drops;
    } else {
        Message msg;
        msg.src = ctx.rank();
        msg.tag = tag;
        msg.data.assign(data.begin(), data.end());
        msg.arrival = arrival;
        if (fd.corrupt && !msg.data.empty()) {
            // Raw transport carries no checksum: the flipped payload is
            // delivered as-is and the receiver cannot tell.
            ++rs.injected_corruptions;
            msg.data[fd.flip_byte % msg.data.size()] ^=
                static_cast<std::byte>(1U << fd.flip_bit);
        }
        rs.mailbox[static_cast<std::size_t>(dst)].push_back(std::move(msg));
        ctx.proc_->notify(rs.pid_of_rank[static_cast<std::size_t>(dst)]);
    }

    if (record_trace_) {
        rs.trace.push_back({ready, res.start, arrival, ctx.rank(), dst, tag,
                            data.size()});
    }
    ++st.messages_sent;
    st.bytes_sent += data.size();
}

bool Machine::do_send_reliable(NodeCtx& ctx, int tag, int dst,
                               std::span<const std::byte> data,
                               const ReliableParams& params) {
    RunState& rs = *rs_;
    validate_send(ctx, tag, dst);
    check_fail_stop(ctx);

    NodeStats& st = rs.stats[static_cast<std::size_t>(ctx.rank())];
    NodeStats& peer_st = rs.stats[static_cast<std::size_t>(dst)];

    const Coord3 src_at = rs.placement[static_cast<std::size_t>(ctx.rank())];
    const Coord3 dst_at = rs.placement[static_cast<std::size_t>(dst)];
    const auto path = profile_.topo.route(src_at, dst_at);
    const auto back_path = profile_.topo.route(dst_at, src_at);
    const double hop_time =
        static_cast<double>(profile_.topo.hops(src_at, dst_at)) * profile_.per_hop;

    const auto key = std::make_tuple(ctx.rank(), dst, tag);
    const std::uint32_t seq = rs.next_seq[key];
    const std::vector<std::byte> frame = base::build_frame(seq, data);

    const double data_wire =
        hop_time + static_cast<double>(frame.size()) * profile_.byte_time;
    const double ack_wire =
        hop_time + static_cast<double>(kAckBytes) * profile_.byte_time;
    const double rtt =
        data_wire + ack_wire + profile_.send_overhead + profile_.recv_overhead;
    const double rto0 = params.rto0 > 0.0 ? params.rto0 : 2.0 * rtt;
    const double rto_cap = params.rto_cap > 0.0 ? params.rto_cap : 64.0 * rto0;

    double rto = rto0;
    for (int attempt = 0; attempt <= params.max_retries; ++attempt) {
        if (attempt > 0) ++st.retransmits;
        advance_with_fail(ctx, profile_.send_overhead, &NodeStats::comm_seconds);
        const double ready = ctx.proc_->now();

        const FaultDecision fd = profile_.faults.decide_frame(
            rs.msg_counter++, ctx.rank(), dst, tag, ready);
        const auto res =
            rs.ledger.reserve_path_ex(path, ready, data_wire + fd.delay);
        const double arrival = res.start + res.duration;
        ++st.messages_sent;
        st.bytes_sent += frame.size();
        if (record_trace_) {
            rs.trace.push_back({ready, res.start, arrival, ctx.rank(), dst, tag,
                                frame.size()});
        }

        // NIC-level outcome of this attempt, resolved synchronously: the
        // engine runs actions in causal virtual-time order and this channel
        // is stop-and-wait, so nothing can race on its sequence state.
        bool ack_ok = false;
        double ack_arrival = 0.0;
        const auto peer_fail = fail_time_of(dst);
        if (fd.drop) {
            ++rs.injected_drops;
        } else if (peer_fail.has_value() && arrival >= *peer_fail) {
            // The peer's NIC went down with it: the frame is lost on
            // arrival and no ack will ever come.
        } else {
            // Only a corrupted attempt needs its own copy of the frame.
            std::vector<std::byte> corrupted;
            std::span<const std::byte> wire_frame = frame;
            if (fd.corrupt) {
                ++rs.injected_corruptions;
                corrupted = frame;
                corrupted[fd.flip_byte % corrupted.size()] ^=
                    static_cast<std::byte>(1U << fd.flip_bit);
                wire_frame = corrupted;
            }
            if (!base::frame_valid(wire_frame)) {
                // Receiver NIC rejects the frame (CRC/magic); no ack.
                ++peer_st.corruptions_detected;
            } else {
                std::uint32_t& expected = rs.expected_seq[key];
                if (seq == expected) {
                    ++expected;
                    Message msg;
                    msg.src = ctx.rank();
                    msg.tag = tag;
                    const auto payload = base::frame_payload(wire_frame);
                    msg.data.assign(payload.begin(), payload.end());
                    msg.arrival = arrival;
                    rs.mailbox[static_cast<std::size_t>(dst)].push_back(std::move(msg));
                    ctx.proc_->notify(rs.pid_of_rank[static_cast<std::size_t>(dst)]);
                }
                // Valid frames — fresh or duplicate — are acknowledged by
                // the receiving NIC; the ack travels the reverse route and
                // is itself subject to the fault plan.
                const FaultDecision fa = profile_.faults.decide_frame(
                    rs.msg_counter++, dst, ctx.rank(), tag, arrival);
                const auto ares = rs.ledger.reserve_path_ex(
                    back_path, arrival, ack_wire + fa.delay);
                if (fa.drop) {
                    ++rs.injected_drops;
                } else if (fa.corrupt) {
                    // A corrupted ack is rejected by the sender's NIC.
                    ++rs.injected_corruptions;
                    ++st.corruptions_detected;
                } else {
                    ack_ok = true;
                    ack_arrival = ares.start + ares.duration;
                }
            }
        }

        if (ack_ok) {
            // Wait out the ack's flight time (dying mid-wait if the fail
            // time strikes first).
            const double wait = std::max(0.0, ack_arrival - ctx.proc_->now());
            advance_with_fail(ctx, wait, &NodeStats::comm_seconds);
            rs.next_seq[key] = seq + 1;
            return true;
        }

        // No ack will come from this attempt: sleep out the retransmission
        // timer (dying at the fail time if it strikes first), then back off.
        advance_with_fail(ctx, rto, &NodeStats::comm_seconds);
        ++st.recv_timeouts;
        rto = std::min(rto * 2.0, rto_cap);
    }
    // Giving up: the data frame may have been consumed even though every ack
    // was lost, in which case the receiver's expected seq already advanced.
    // Mirror it (the model-level stand-in for acks carrying the expected seq)
    // so the next send on this channel is neither suppressed as a duplicate
    // nor skipped ahead of a never-delivered frame.
    rs.next_seq[key] = rs.expected_seq[key];
    return false;
}

std::optional<Message> Machine::do_recv(NodeCtx& ctx, int tag, int src,
                                        std::optional<double> timeout) {
    RunState& rs = *rs_;
    const auto nprocs = static_cast<int>(rs.pid_of_rank.size());
    if (src != kAnySource && (src < 0 || src >= nprocs)) {
        throw std::invalid_argument("crecv: bad source");
    }
    check_fail_stop(ctx);

    auto& box = rs.mailbox[static_cast<std::size_t>(ctx.rank())];
    const auto match = [tag, src](const Message& m) {
        return (tag == kAnyTag || m.tag == tag) && (src == kAnySource || m.src == src);
    };
    // Earliest-arrival matching message (ties broken by insertion order),
    // so wildcard receives observe network arrival order, not the order in
    // which senders happened to be scheduled.
    const auto best_match = [&]() -> std::size_t {
        std::size_t best = box.size();
        for (std::size_t i = 0; i < box.size(); ++i) {
            if (match(box[i]) && (best == box.size() || box[i].arrival < box[best].arrival)) {
                best = i;
            }
        }
        return best;
    };

    NodeStats& st = rs.stats[static_cast<std::size_t>(ctx.rank())];
    const double t_call = ctx.proc_->now();
    const auto fail = fail_time_of(ctx.rank());

    std::optional<double> user_deadline;
    if (timeout.has_value()) user_deadline = t_call + *timeout;
    std::optional<double> deadline = user_deadline;
    if (fail.has_value() && (!deadline.has_value() || *fail < *deadline)) {
        deadline = fail;
    }

    const auto poll = [&]() -> std::optional<double> {
        const std::size_t i = best_match();
        if (i == box.size()) return std::nullopt;
        return box[i].arrival;
    };
    const std::string desc = recv_desc(tag, src, "crecv");

    bool satisfied;
    if (deadline.has_value()) {
        satisfied = ctx.proc_->block_until(poll, *deadline, desc);
    } else {
        ctx.proc_->block(poll, desc);
        satisfied = true;
    }

    const auto book_wait = [&] {
        const double wait = ctx.proc_->now() - t_call;
        double* slot =
            ctx.recovery_ ? &st.recovery_seconds : &st.comm_seconds;
        *slot += wait;
    };

    if (!satisfied) {
        book_wait();
        // The deadline that fired is the earlier of fail-stop and the user
        // timeout; fail-stop wins ties (the node is dead either way).
        if (fail.has_value() &&
            (!user_deadline.has_value() || *fail <= *user_deadline)) {
            throw NodeFailStopSignal{};
        }
        ++st.recv_timeouts;
        return std::nullopt;
    }

    const std::size_t found = best_match();
    if (found == box.size()) throw std::logic_error("crecv: woken without message");
    Message msg = std::move(box[found]);
    box.erase(box.begin() + static_cast<std::ptrdiff_t>(found));

    book_wait();
    advance_with_fail(ctx, profile_.recv_overhead, &NodeStats::comm_seconds);
    return msg;
}

Machine::RunResult Machine::run(std::size_t nprocs, const std::vector<Coord3>& placement,
                                const NodeBody& body) {
    if (nprocs == 0) throw std::invalid_argument("Machine::run: nprocs must be > 0");
    if (placement.size() != nprocs) {
        throw std::invalid_argument("Machine::run: placement size != nprocs");
    }
    for (std::size_t i = 0; i < nprocs; ++i) {
        (void)profile_.topo.node_id(placement[i]);  // bounds check
        for (std::size_t j = i + 1; j < nprocs; ++j) {
            if (placement[i] == placement[j]) {
                throw std::invalid_argument("Machine::run: duplicate placement");
            }
        }
    }

    rs_ = std::make_unique<RunState>(profile_.topo.link_count());
    // The run state must not outlive this call even when a node body (or the
    // engine) throws; a stale state would poison the next run().
    struct RunStateGuard {
        std::unique_ptr<RunState>& rs;
        ~RunStateGuard() { rs.reset(); }
    } guard{rs_};

    rs_->mailbox.resize(nprocs);
    rs_->placement = placement;
    rs_->stats.resize(nprocs);
    rs_->pid_of_rank.resize(nprocs);
    if (!profile_.faults.degradations.empty()) {
        rs_->ledger.set_time_dilation(
            [this](double t) { return profile_.faults.degradation_factor(t); });
    }

    sim::Engine engine;
    if (schedule_seed_.has_value()) {
        engine.set_schedule_policy(std::make_unique<sim::SeededTieBreak>(*schedule_seed_));
    }
    for (std::size_t r = 0; r < nprocs; ++r) {
        rs_->pid_of_rank[r] = engine.add_process(
            "rank" + std::to_string(r), [this, r, &body](sim::Proc& proc) {
                NodeCtx ctx(this, &proc, static_cast<int>(r));
                const auto annotate = [r](const char* what) {
                    return "rank" + std::to_string(r) + ": " + what;
                };
                try {
                    body(ctx);
                } catch (const NodeFailStopSignal&) {
                    // Scheduled fail-stop: the node simply ends here.
                    rs_->stats[r].fail_stopped = true;
                } catch (const std::invalid_argument& e) {
                    throw std::invalid_argument(annotate(e.what()));
                } catch (const std::logic_error& e) {
                    throw std::logic_error(annotate(e.what()));
                } catch (const TransportError& e) {
                    throw TransportError(annotate(e.what()));
                } catch (const std::runtime_error& e) {
                    throw std::runtime_error(annotate(e.what()));
                } catch (const std::exception& e) {
                    throw std::runtime_error(annotate(e.what()));
                }
                // Engine-internal signals (abort) pass through untouched.
                rs_->stats[r].finish_time = proc.now();
            });
    }
    engine.run();

    RunResult res;
    res.makespan = engine.makespan();
    res.stats = std::move(rs_->stats);
    res.contention_delay = rs_->ledger.total_contention_delay();
    res.messages = rs_->ledger.reservations();
    res.injected_drops = rs_->injected_drops;
    res.injected_corruptions = rs_->injected_corruptions;
    res.trace = std::move(rs_->trace);
    return res;
}

Machine::RunResult Machine::run(std::size_t nprocs, const NodeBody& body) {
    std::vector<Coord3> placement;
    placement.reserve(nprocs);
    for (std::size_t r = 0; r < nprocs; ++r) {
        placement.push_back(profile_.topo.coord(r));
    }
    return run(nprocs, placement, body);
}

}  // namespace wavehpc::mesh
