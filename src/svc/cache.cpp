#include "svc/cache.hpp"

#include <span>

#include "base/crc32.hpp"

namespace wavehpc::svc {

std::uint64_t pyramid_bytes(const core::Pyramid& pyr) noexcept {
    std::uint64_t n = pyr.approx.size();
    for (const auto& level : pyr.levels) {
        n += level.lh.size() + level.hl.size() + level.hh.size();
    }
    return n * sizeof(float);
}

namespace {

std::uint32_t crc_band(std::span<const float> band, std::uint32_t seed) {
    return base::crc32(std::as_bytes(band), seed);
}

}  // namespace

std::uint32_t pyramid_crc32(const core::Pyramid& pyr) noexcept {
    std::uint32_t crc = 0;
    for (const auto& level : pyr.levels) {
        crc = crc_band(level.lh.flat(), crc);
        crc = crc_band(level.hl.flat(), crc);
        crc = crc_band(level.hh.flat(), crc);
    }
    return crc_band(pyr.approx.flat(), crc);
}

bool audit_result(const TransformResult& result) noexcept {
    return result.crc32 == 0 || pyramid_crc32(result.pyramid) == result.crc32;
}

std::shared_ptr<const TransformResult> ResultCache::lookup(const CacheKey& key) {
    std::lock_guard lk(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++stats_.misses;
        return nullptr;
    }
    if (audit_lookups_ && !audit_result(*it->second->result)) {
        // Resident entry rotted (or chaos flipped a bit): drop it and
        // report a miss so the caller recomputes instead of serving junk.
        ++stats_.audit_failures;
        ++stats_.misses;
        erase_entry_locked(it->second);
        return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
    return it->second->result;
}

std::shared_ptr<const TransformResult> ResultCache::lookup_variant(
    const CacheKey& key) {
    std::lock_guard lk(mu_);
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
        const CacheKey& k = it->key;
        if (k.digest_lo != key.digest_lo || k.digest_hi != key.digest_hi ||
            k.rows != key.rows || k.cols != key.cols) {
            continue;
        }
        // Previews (band != 0) are served only through an explicit
        // preview_key lookup; the variant scan offers full pyramids.
        if (k.band != 0) continue;
        if (audit_lookups_ && !audit_result(*it->result)) {
            ++stats_.audit_failures;
            ++stats_.misses;  // the caller recomputes; hit-rate must see it
            erase_entry_locked(it);
            return nullptr;  // one shot; the next variant request rescans
        }
        ++stats_.variant_hits;
        lru_.splice(lru_.begin(), lru_, it);
        return lru_.front().result;
    }
    ++stats_.misses;  // scanned the whole cache and found no variant
    return nullptr;
}

void ResultCache::insert(const CacheKey& key,
                         std::shared_ptr<const TransformResult> result) {
    const std::uint64_t bytes = result->result_bytes;
    const bool clean = audit_result(*result);  // checksum pass outside the lock
    std::lock_guard lk(mu_);
    if (!clean) {
        ++stats_.audit_failures;
        return;
    }
    if (bytes > byte_budget_) {
        ++stats_.rejected_oversize;
        return;
    }
    if (const auto it = index_.find(key); it != index_.end()) {
        // Refresh (identical content — keys are content-addressed); keep
        // the existing buffer so earlier waiters still share it.
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    while (bytes_in_use_ + bytes > byte_budget_) evict_lru_locked();
    lru_.push_front(Entry{key, std::move(result)});
    index_.emplace(key, lru_.begin());
    bytes_in_use_ += bytes;
    ++stats_.insertions;
}

void ResultCache::evict_lru_locked() {
    const Entry& victim = lru_.back();
    const std::uint64_t bytes = victim.result->result_bytes;
    index_.erase(victim.key);
    bytes_in_use_ -= bytes;
    ++stats_.evictions;
    stats_.evicted_bytes += bytes;
    lru_.pop_back();
}

void ResultCache::erase_entry_locked(std::list<Entry>::iterator it) {
    bytes_in_use_ -= it->result->result_bytes;
    index_.erase(it->key);
    lru_.erase(it);
}

CacheStats ResultCache::stats() const {
    std::lock_guard lk(mu_);
    CacheStats s = stats_;
    s.bytes_in_use = bytes_in_use_;
    s.entries = index_.size();
    s.byte_budget = byte_budget_;
    return s;
}

std::vector<CacheKey> ResultCache::keys_mru_first() const {
    std::lock_guard lk(mu_);
    std::vector<CacheKey> keys;
    keys.reserve(lru_.size());
    for (const auto& e : lru_) keys.push_back(e.key);
    return keys;
}

}  // namespace wavehpc::svc
