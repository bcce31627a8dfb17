#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>

namespace wavehpc::sim {

namespace {
// Internal unwind signal used to tear down process threads on abort. Not
// derived from std::exception so well-behaved user code won't swallow it.
struct AbortSignal {};
}  // namespace

std::size_t SeededTieBreak::choose(std::span<const std::size_t> tied) {
    // tied.size() is tiny (bounded by the process count), so the modulo
    // bias is irrelevant next to keeping the draw cheap under the lock.
    return static_cast<std::size_t>(rng_.below(tied.size()));
}

std::string SeededTieBreak::describe() const {
    return "sched_seed=" + std::to_string(seed_);
}

const std::string& Proc::name() const {
    std::lock_guard lk(engine_->mu_);
    return engine_->procs_[pid_]->name;
}

double Proc::now() const { return engine_->clock_of(pid_); }

void Proc::advance(double dt) { engine_->advance(pid_, dt); }

void Proc::block(Poll poll, std::string waiting_on) {
    (void)engine_->block(pid_, std::move(poll), std::nullopt, std::move(waiting_on));
}

bool Proc::block_until(Poll poll, double deadline, std::string waiting_on) {
    return engine_->block(pid_, std::move(poll), deadline, std::move(waiting_on));
}

void Proc::notify(std::size_t other_pid) { engine_->notify(other_pid); }

std::size_t Engine::add_process(std::string name, Body body) {
    std::lock_guard lk(mu_);
    if (started_) throw std::logic_error("Engine::add_process: engine already started");
    auto pcb = std::make_unique<Pcb>();
    pcb->name = std::move(name);
    pcb->body = std::move(body);
    pcb->state = State::Runnable;
    procs_.push_back(std::move(pcb));
    return procs_.size() - 1;
}

double Engine::clock_of(std::size_t pid) const {
    std::lock_guard lk(mu_);
    return procs_.at(pid)->clock;
}

void Engine::set_schedule_policy(std::unique_ptr<SchedulePolicy> policy) {
    std::lock_guard lk(mu_);
    if (started_) {
        throw std::logic_error("Engine::set_schedule_policy: engine already started");
    }
    policy_ = std::move(policy);
}

std::size_t Engine::pick_next(bool* via_timeout) {
    // Candidates are runnable processes (key: clock) and blocked processes
    // with a timeout (key: the virtual time the timeout fires). On equal
    // keys a runnable process wins — it may notify() and cancel the timeout
    // — and lower pid breaks remaining ties, keeping runs deterministic.
    std::size_t best = kNone;
    double best_key = 0.0;
    bool best_timeout = false;
    for (std::size_t i = 0; i < procs_.size(); ++i) {
        const Pcb& p = *procs_[i];
        double key = 0.0;
        bool is_timeout = false;
        if (p.state == State::Runnable) {
            key = p.clock;
        } else if (p.state == State::Blocked && p.timeout_at.has_value()) {
            key = std::max(p.clock, *p.timeout_at);
            is_timeout = true;
        } else {
            continue;
        }
        if (best == kNone || key < best_key ||
            (key == best_key && best_timeout && !is_timeout)) {
            best = i;
            best_key = key;
            best_timeout = is_timeout;
        }
    }
    if (via_timeout != nullptr) *via_timeout = best_timeout;
    if (best == kNone || best_timeout || !policy_) return best;
    // A policy only ever permutes the choice among runnable processes whose
    // clocks exactly tie at the minimum — the one place the causal order is
    // genuinely unconstrained. Timeout events and the runnable-over-timeout
    // preference are never subject to it.
    std::vector<std::size_t> tied;
    for (std::size_t i = 0; i < procs_.size(); ++i) {
        const Pcb& p = *procs_[i];
        if (p.state == State::Runnable && p.clock == best_key) tied.push_back(i);
    }
    if (tied.size() < 2) return best;
    const std::size_t idx = policy_->choose(tied);
    if (idx >= tied.size()) {
        throw std::logic_error("SchedulePolicy::choose returned out-of-range index");
    }
    return tied[idx];
}

void Engine::begin_abort() {
    if (aborting_) return;
    aborting_ = true;
    for (auto& p : procs_) p->cv.notify_all();
}

void Engine::give_turn_to_next(std::unique_lock<std::mutex>& /*lk*/) {
    if (aborting_) return;
    bool via_timeout = false;
    const std::size_t next = pick_next(&via_timeout);
    if (next == kNone) {
        if (live_ == 0) return;  // clean completion
        // Every live process is blocked with no pending timeout: deadlock.
        std::ostringstream os;
        os << "simulation deadlock; blocked processes:";
        for (const auto& p : procs_) {
            if (p->state != State::Blocked) continue;
            os << ' ' << p->name << "@t=" << p->clock;
            if (!p->waiting_on.empty()) os << " waiting on " << p->waiting_on;
            os << ';';
        }
        deadlock_message_ = os.str();
        begin_abort();
        return;
    }
    Pcb& np = *procs_[next];
    if (via_timeout) {
        np.clock = std::max(np.clock, *np.timeout_at);
        np.state = State::Runnable;
        np.timed_out = true;
        np.timeout_at.reset();
        np.poll = nullptr;
        np.waiting_on.clear();
    }
    np.has_turn = true;
    np.cv.notify_all();
}

void Engine::check_abort(std::size_t /*pid*/) const {
    if (aborting_) throw AbortSignal{};
}

void Engine::yield_and_wait(std::unique_lock<std::mutex>& lk, std::size_t pid) {
    Pcb& me = *procs_[pid];
    // Fast path: if we are still the minimum runnable process, keep the turn.
    if (me.state == State::Runnable) {
        const std::size_t next = pick_next(nullptr);
        if (next == pid && !aborting_) return;
    }
    me.has_turn = false;
    give_turn_to_next(lk);
    me.cv.wait(lk, [&] { return me.has_turn || aborting_; });
    check_abort(pid);
}

void Engine::advance(std::size_t pid, double dt) {
    if (dt < 0.0) throw std::invalid_argument("Proc::advance: negative dt");
    std::unique_lock lk(mu_);
    check_abort(pid);
    procs_[pid]->clock += dt;
    yield_and_wait(lk, pid);
}

bool Engine::block(std::size_t pid, Proc::Poll poll, std::optional<double> deadline,
                   std::string waiting_on) {
    std::unique_lock lk(mu_);
    check_abort(pid);
    Pcb& me = *procs_[pid];
    me.timed_out = false;
    if (auto wake = poll()) {
        if (deadline.has_value() && *wake > *deadline) {
            // Satisfiable, but only after the deadline: the timeout wins.
            me.clock = std::max(me.clock, *deadline);
            me.timed_out = true;
            yield_and_wait(lk, pid);
            return false;
        }
        me.clock = std::max(me.clock, *wake);
        // Condition already satisfiable: still yield so earlier processes run.
        yield_and_wait(lk, pid);
        return true;
    }
    me.state = State::Blocked;
    me.poll = std::move(poll);
    me.timeout_at = deadline;
    me.waiting_on = std::move(waiting_on);
    yield_and_wait(lk, pid);
    return !me.timed_out;
}

void Engine::notify(std::size_t pid) {
    std::unique_lock lk(mu_);
    Pcb& p = *procs_.at(pid);
    if (p.state != State::Blocked || !p.poll) return;
    if (auto wake = p.poll()) {
        // A wake past the deadline loses to the timeout; stay blocked and
        // let the scheduler fire the timeout event at the right time.
        if (p.timeout_at.has_value() && *wake > *p.timeout_at) return;
        p.clock = std::max(p.clock, *wake);
        p.state = State::Runnable;
        p.poll = nullptr;
        p.timeout_at.reset();
        p.waiting_on.clear();
        p.timed_out = false;
        // No turn handoff here: the notifier keeps running until its next
        // yield point, at which point min-clock-first takes over.
    }
}

void Engine::trampoline(std::size_t pid) {
    {
        std::unique_lock lk(mu_);
        Pcb& me = *procs_[pid];
        me.cv.wait(lk, [&] { return me.has_turn || aborting_; });
        if (aborting_) {
            me.state = State::Done;
            me.has_turn = false;
            --live_;
            if (live_ == 0) done_cv_.notify_all();
            return;
        }
    }

    bool aborted = false;
    try {
        Proc proc(this, pid);
        procs_[pid]->body(proc);
    } catch (const AbortSignal&) {
        aborted = true;
    } catch (...) {
        std::unique_lock lk(mu_);
        if (!first_error_) first_error_ = std::current_exception();
        begin_abort();
    }

    std::unique_lock lk(mu_);
    Pcb& me = *procs_[pid];
    me.state = State::Done;
    me.has_turn = false;
    makespan_ = std::max(makespan_, me.clock);
    --live_;
    if (live_ == 0) {
        done_cv_.notify_all();
    } else if (!aborted) {
        give_turn_to_next(lk);
    }
}

void Engine::run() {
    {
        std::lock_guard lk(mu_);
        if (started_) throw std::logic_error("Engine::run: already run");
        started_ = true;
        live_ = procs_.size();
    }
    if (procs_.empty()) return;

    for (std::size_t i = 0; i < procs_.size(); ++i) {
        procs_[i]->thread = std::thread([this, i] { trampoline(i); });
    }
    {
        std::unique_lock lk(mu_);
        give_turn_to_next(lk);
        done_cv_.wait(lk, [&] { return live_ == 0; });
    }
    for (auto& p : procs_) {
        if (p->thread.joinable()) p->thread.join();
    }

    std::lock_guard lk(mu_);
    if (first_error_) std::rethrow_exception(first_error_);
    if (!deadlock_message_.empty()) throw DeadlockError(deadlock_message_);
}

}  // namespace wavehpc::sim
