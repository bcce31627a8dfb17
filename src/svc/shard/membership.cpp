#include "svc/shard/membership.hpp"

#include <algorithm>
#include <stdexcept>

#include "base/mix.hpp"

namespace wavehpc::svc::shard {

using base::splitmix64;

const char* health_name(ShardHealth h) noexcept {
    switch (h) {
    case ShardHealth::Alive: return "alive";
    case ShardHealth::Suspect: return "suspect";
    case ShardHealth::Dead: return "dead";
    }
    return "?";
}

FailureDetector::FailureDetector(std::size_t n_shards, MembershipConfig cfg)
    : cfg_(cfg), status_(n_shards) {
    if (n_shards == 0) {
        throw std::invalid_argument("FailureDetector: shard count must be > 0");
    }
    if (!(cfg.suspect_after > 0.0) || !(cfg.dead_after >= cfg.suspect_after)) {
        throw std::invalid_argument(
            "FailureDetector: need 0 < suspect_after <= dead_after");
    }
}

void FailureDetector::transition(std::size_t shard, ShardHealth to, double now) {
    ShardStatus& st = status_[shard];
    transitions_.push_back({shard, st.health, to, st.incarnation, now});
    st.health = to;
    ++epoch_;
}

void FailureDetector::observe(std::size_t shard, bool ok, double now,
                              std::uint64_t incarnation) {
    ShardStatus& st = status_.at(shard);
    if (!ok) return;  // misses are time-based; sweep() does the demotion
    if (incarnation < st.incarnation) return;  // stale traffic, previous life
    switch (st.health) {
    case ShardHealth::Alive:
    case ShardHealth::Suspect:
        st.incarnation = incarnation;
        // max(): merged gossip entries may land out of order with direct
        // probes; last_ok never regresses.
        st.last_ok = std::max(st.last_ok, now);
        if (st.health == ShardHealth::Suspect) {
            transition(shard, ShardHealth::Alive, now);
        }
        break;
    case ShardHealth::Dead:
        // Epoch fence: only a *newer* incarnation may work toward
        // re-admission; beats from the dead life are ignored above.
        if (incarnation == st.incarnation && st.consecutive_oks == 0) return;
        if (incarnation > st.incarnation) {
            st.incarnation = incarnation;
            st.consecutive_oks = 0;
        }
        ++st.consecutive_oks;
        st.last_ok = std::max(st.last_ok, now);
        if (st.consecutive_oks >= cfg_.readmit_oks) {
            st.consecutive_oks = 0;
            transition(shard, ShardHealth::Alive, now);
        }
        break;
    }
}

bool FailureDetector::merge_entry(std::size_t shard, std::uint64_t incarnation,
                                  double last_ok, double now) {
    ShardStatus& st = status_.at(shard);
    // Freshness fence: only strictly newer information counts as a beat.
    // Stale incarnations are a previous life; an equal incarnation with an
    // equal-or-older last_ok is a relayed duplicate of a beat this
    // detector already merged.
    if (incarnation < st.incarnation) return false;
    if (incarnation == st.incarnation && !(last_ok > st.last_ok)) return false;
    // Clamp against the local clock so a peer's timestamp can never push
    // last_ok into this detector's future.
    observe(shard, true, std::min(last_ok, now), incarnation);
    return true;
}

void FailureDetector::sweep(double now) {
    for (std::size_t s = 0; s < status_.size(); ++s) {
        ShardStatus& st = status_[s];
        const double silent = now - st.last_ok;
        if (st.health == ShardHealth::Alive && silent >= cfg_.suspect_after) {
            transition(s, ShardHealth::Suspect, now);
        }
        if (st.health == ShardHealth::Suspect && silent >= cfg_.dead_after) {
            st.consecutive_oks = 0;
            transition(s, ShardHealth::Dead, now);
        }
    }
}

ShardHealth FailureDetector::health(std::size_t shard) const {
    return status_.at(shard).health;
}

std::uint64_t FailureDetector::incarnation(std::size_t shard) const {
    return status_.at(shard).incarnation;
}

std::size_t FailureDetector::alive_count() const {
    std::size_t n = 0;
    for (const auto& st : status_) {
        if (st.health == ShardHealth::Alive) ++n;
    }
    return n;
}

std::uint64_t FailureDetector::roster_hash() const {
    std::uint64_t h = splitmix64(status_.size());
    for (std::size_t s = 0; s < status_.size(); ++s) {
        const auto& st = status_[s];
        h = splitmix64(h ^ splitmix64(s * 3 + static_cast<std::uint64_t>(st.health)) ^
                  splitmix64(st.incarnation + 0x5bd1e995ULL));
    }
    return h;
}

std::vector<RosterTransition> FailureDetector::drain_transitions() {
    std::vector<RosterTransition> out;
    out.swap(transitions_);
    return out;
}

}  // namespace wavehpc::svc::shard
