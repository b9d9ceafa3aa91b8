#include "cache/hot_cache.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace laoram::cache {

namespace {

using S = CacheStats;

/** One counter: its snake_case series name, help text and member. */
struct CountField
{
    const char *name;
    const char *help;
    S::Count S::*member;
};

/**
 * Every counter in checkpoint order: accumulate(), deltaFrom(),
 * save()/restore() and the live cache.* series all walk it.
 */
const CountField kCounts[] = {
    {"hits", "scheduled accesses served from the hot cache", &S::hits},
    {"misses", "scheduled accesses served from ORAM", &S::misses},
    {"evictions", "hot-cache rows evicted", &S::evictions},
    {"writeback_coalesced",
     "deferred updates flushed into scheduled accesses",
     &S::writebackCoalesced},
    {"admission_hits", "operations served at admission time",
     &S::admissionHits},
};

/** Every cache's counters, pulled as the live cache.* series. */
obs::LedgerSet<S> &
liveCache()
{
    static obs::LedgerSet<S> &set = []() -> obs::LedgerSet<S> & {
        std::vector<obs::LedgerField<S>> fields;
        for (const CountField &f : kCounts)
            fields.emplace_back(f.name, f.help, f.member);
        return obs::MetricsRegistry::instance().ledgers(
            "cache.", std::move(fields));
    }();
    return set;
}

} // namespace

void
CacheStats::accumulate(const CacheStats &other)
{
    for (const CountField &f : kCounts)
        this->*f.member += other.*f.member;
    residentRows += other.residentRows;
    residentBytes += other.residentBytes;
    capacityRows += other.capacityRows;
}

CacheStats
CacheStats::deltaFrom(const CacheStats &start) const
{
    CacheStats d = *this;
    for (const CountField &f : kCounts)
        d.*f.member = this->*f.member - start.*f.member;
    return d;
}

HotEmbeddingCache::HotEmbeddingCache(const CacheConfig &config,
                                     std::uint64_t rowBytes)
    : cfg(config), bytesPerRow(rowBytes),
      maxRows(std::max<std::uint64_t>(
          1, rowBytes > 0 ? config.capacityBytes / rowBytes : 0))
{
    LAORAM_ASSERT(rowBytes > 0,
                  "hot cache requires a non-zero payload width");
    liveCache().attach(&st);
}

HotEmbeddingCache::~HotEmbeddingCache()
{
    liveCache().detach(&st);
}

AccessOutcome
HotEmbeddingCache::beginScheduledAccess(oram::BlockId id,
                                        std::vector<std::uint8_t> &payload)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = rows.find(id);
    if (it == rows.end()) {
        ++st.misses;
        return AccessOutcome::Miss;
    }
    Row &row = it->second;
    ++st.hits;
    lru.splice(lru.end(), lru, row.recency);
    // The row is authoritative on every kind of hit: the stash
    // payload takes the cached value so the bytes written back to the
    // ORAM tree are identical to the cache-off run.
    payload.assign(row.data.begin(), row.data.end());
    if (row.pinned > 0) {
        // One scheduled touch is the write-back for every deferred
        // admission-time op on this row: several ops on one id in a
        // window share a single bin-member touch, so release all
        // pins, not one.
        st.writebackCoalesced += row.pinned;
        row.pinned = 0;
        return AccessOutcome::Flushed;
    }
    return AccessOutcome::HitInPlace;
}

void
HotEmbeddingCache::completeScheduledAccess(
    oram::BlockId id, const std::vector<std::uint8_t> &payload)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = rows.find(id);
    LAORAM_ASSERT(it != rows.end(),
                  "row vanished between begin/completeScheduledAccess");
    Row &row = it->second;
    // A pin acquired since beginScheduledAccess means an assembler
    // thread served a newer op from this row while the access was in
    // flight. The fast path is gated off whenever planned ops on the
    // id are outstanding, so the access can only have been a pure
    // dummy for this row and any pin here always postdates
    // @p payload: keep the newer value and let its own scheduled
    // access flush it (lost-update guard).
    if (row.pinned > 0)
        return;
    row.data.assign(payload.begin(), payload.end());
}

void
HotEmbeddingCache::evictForSpaceLocked()
{
    while (rows.size() >= maxRows) {
        // Least recently used first; pinned rows hold deferred
        // write-backs and are not evictable, so skip past them.
        auto victim = std::find_if(lru.begin(), lru.end(),
                                   [this](oram::BlockId id) {
                                       return rows.at(id).pinned == 0;
                                   });
        if (victim == lru.end())
            return; // everything pinned: caller skips the insert
        rows.erase(*victim);
        lru.erase(victim);
        ++st.evictions;
    }
}

void
HotEmbeddingCache::insertLocked(oram::BlockId id,
                                std::vector<std::uint8_t> data)
{
    evictForSpaceLocked();
    if (rows.size() >= maxRows)
        return; // all resident rows pinned; drop the fill
    Row row;
    row.data = std::move(data);
    row.recency = lru.insert(lru.end(), id);
    rows.emplace(id, std::move(row));
}

void
HotEmbeddingCache::fill(oram::BlockId id,
                        const std::vector<std::uint8_t> &payload)
{
    LAORAM_ASSERT(payload.size() == bytesPerRow,
                  "hot-cache fill width mismatch");
    std::lock_guard<std::mutex> lock(mu);
    auto it = rows.find(id);
    if (it != rows.end()) {
        it->second.data.assign(payload.begin(), payload.end());
        return;
    }
    insertLocked(id, {payload.begin(), payload.end()});
}

bool
HotEmbeddingCache::tryServeAtAdmission(
    oram::BlockId id,
    const std::function<void(std::vector<std::uint8_t> &)> &fn)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = rows.find(id);
    if (it == rows.end())
        return false;
    Row &row = it->second;
    fn(row.data);
    ++row.pinned;
    ++st.admissionHits;
    return true;
}

void
HotEmbeddingCache::assertNoPinsLocked(const char *op) const
{
    for (const auto &[id, row] : rows)
        LAORAM_ASSERT(row.pinned == 0, op, " would drop ", row.pinned,
                      " deferred write-back(s) on block ", id,
                      "; quiesce (drain the frontend) first");
}

CacheStats
HotEmbeddingCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    CacheStats out = st;
    out.residentRows = rows.size();
    out.residentBytes = rows.size() * bytesPerRow;
    out.capacityRows = maxRows;
    return out;
}

void
HotEmbeddingCache::save(serde::Serializer &s) const
{
    std::lock_guard<std::mutex> lock(mu);
    assertNoPinsLocked("hot-cache save()");
    s.u64(bytesPerRow);
    s.u64(cfg.capacityBytes);
    for (const CountField &f : kCounts)
        s.u64(st.*f.member);
    s.u64(rows.size());
    // Least recently used first, so restore's in-order insertions
    // rebuild the same recency list.
    for (const oram::BlockId id : lru) {
        const Row &row = rows.at(id);
        s.u64(id);
        s.bytes(row.data.data(), row.data.size());
    }
}

void
HotEmbeddingCache::restore(serde::Deserializer &d)
{
    std::lock_guard<std::mutex> lock(mu);
    const std::uint64_t snapRowBytes = d.u64();
    if (snapRowBytes != bytesPerRow)
        throw serde::SnapshotError(
            "hot-cache snapshot row width " +
            std::to_string(snapRowBytes) +
            " does not match the engine payload width " +
            std::to_string(bytesPerRow));
    const std::uint64_t snapCapacity = d.u64();
    if (snapCapacity != cfg.capacityBytes)
        throw serde::SnapshotError(
            "hot-cache snapshot capacity " +
            std::to_string(snapCapacity) +
            " bytes does not match the configured capacity " +
            std::to_string(cfg.capacityBytes) + " bytes");
    CacheStats restored;
    for (const CountField &f : kCounts)
        restored.*f.member = d.u64();
    const std::uint64_t nRows = d.u64();
    if (nRows > maxRows)
        throw serde::SnapshotError(
            "hot-cache snapshot holds " + std::to_string(nRows) +
            " rows but the configured capacity is " +
            std::to_string(maxRows) + " rows");
    assertNoPinsLocked("hot-cache restore()");
    rows.clear();
    lru.clear();
    liveCache().rebase(&st, restored);
    for (std::uint64_t i = 0; i < nRows; ++i) {
        const oram::BlockId id = d.u64();
        std::vector<std::uint8_t> data(bytesPerRow);
        d.bytes(data.data(), data.size());
        insertLocked(id, std::move(data));
    }
}

void
HotEmbeddingCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    // Same quiesced-boundary contract as save(): a pinned row is the
    // only copy of an acknowledged deferred write-back.
    assertNoPinsLocked("hot-cache clear()");
    rows.clear();
    lru.clear();
}

} // namespace laoram::cache
