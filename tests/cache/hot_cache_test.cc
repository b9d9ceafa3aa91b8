/**
 * @file
 * Unit tests of the trusted-client hot-embedding cache: the scheduled
 * access protocol (miss/fill, hit-in-place, coalesced flush), bounded
 * capacity with LRU eviction order, pinning, stats accounting, and
 * the checkpoint codec (round trip with recency + strict config
 * matching).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/hot_cache.hh"
#include "util/serde.hh"

namespace laoram::cache {
namespace {

constexpr std::uint64_t kRow = 16;

CacheConfig
configFor(std::uint64_t rows)
{
    CacheConfig cfg;
    cfg.capacityBytes = rows * kRow;
    return cfg;
}

std::vector<std::uint8_t>
rowOf(std::uint8_t fill)
{
    return std::vector<std::uint8_t>(kRow, fill);
}

/** Run one miss-path scheduled access: begin, mutate, fill. */
void
missAccess(HotEmbeddingCache &cache, oram::BlockId id,
           std::uint8_t fill)
{
    std::vector<std::uint8_t> payload = rowOf(fill);
    ASSERT_EQ(cache.beginScheduledAccess(id, payload),
              AccessOutcome::Miss);
    cache.fill(id, payload);
}

TEST(HotCache, MissFillThenHitServesCachedBytes)
{
    HotEmbeddingCache cache(configFor(4), kRow);
    missAccess(cache, 7, 0xAB);

    // Second access: resident. The stash payload arrives stale (the
    // ORAM path read returns whatever was written back last); the
    // cache copy is authoritative and must overwrite it.
    std::vector<std::uint8_t> payload = rowOf(0x00);
    ASSERT_EQ(cache.beginScheduledAccess(7, payload),
              AccessOutcome::HitInPlace);
    EXPECT_EQ(payload, rowOf(0xAB));

    // The touched payload flows back into the row.
    payload = rowOf(0xCD);
    cache.completeScheduledAccess(7, payload);
    std::vector<std::uint8_t> again = rowOf(0x00);
    ASSERT_EQ(cache.beginScheduledAccess(7, again),
              AccessOutcome::HitInPlace);
    EXPECT_EQ(again, rowOf(0xCD));
    cache.completeScheduledAccess(7, again);

    const CacheStats st = cache.stats();
    EXPECT_EQ(st.hits, 2u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.residentRows, 1u);
    EXPECT_EQ(st.residentBytes, kRow);
    EXPECT_DOUBLE_EQ(st.hitRate(), 2.0 / 3.0);
}

TEST(HotCache, CapacityBoundedWithLruEvictionOrder)
{
    HotEmbeddingCache cache(configFor(2), kRow);
    EXPECT_EQ(cache.capacityRows(), 2u);

    missAccess(cache, 1, 1);
    missAccess(cache, 2, 2);

    // Touch 1 so 2 becomes least-recently-used.
    std::vector<std::uint8_t> payload = rowOf(0);
    ASSERT_EQ(cache.beginScheduledAccess(1, payload),
              AccessOutcome::HitInPlace);
    cache.completeScheduledAccess(1, payload);

    // Admitting 3 must evict 2, not 1.
    missAccess(cache, 3, 3);
    EXPECT_EQ(cache.stats().residentRows, 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    payload = rowOf(0);
    EXPECT_EQ(cache.beginScheduledAccess(2, payload),
              AccessOutcome::Miss);
    payload = rowOf(0);
    EXPECT_EQ(cache.beginScheduledAccess(1, payload),
              AccessOutcome::HitInPlace);
}

TEST(HotCache, AdmissionPinFlushesIntoScheduledAccess)
{
    HotEmbeddingCache cache(configFor(2), kRow);
    missAccess(cache, 5, 0x11);

    // Frontend fast path: apply an update to the resident row.
    const bool served = cache.tryServeAtAdmission(
        5, [](std::vector<std::uint8_t> &row) {
            row.assign(kRow, 0x22);
        });
    ASSERT_TRUE(served);
    EXPECT_EQ(cache.stats().admissionHits, 1u);

    // Non-resident id: fast path declines.
    EXPECT_FALSE(cache.tryServeAtAdmission(
        99, [](std::vector<std::uint8_t> &) { FAIL(); }));

    // The scheduled access that was already planned for 5 now flushes
    // the admitted value: payload <- row, pin released, no touchFn.
    std::vector<std::uint8_t> payload = rowOf(0x00);
    ASSERT_EQ(cache.beginScheduledAccess(5, payload),
              AccessOutcome::Flushed);
    EXPECT_EQ(payload, rowOf(0x22));
    EXPECT_EQ(cache.stats().writebackCoalesced, 1u);
}

TEST(HotCache, PinArrivingMidAccessIsNotClobberedByComplete)
{
    HotEmbeddingCache cache(configFor(2), kRow);
    missAccess(cache, 5, 0x11);

    // The serving thread begins a scheduled access for a window in
    // which 5 carries no planned ops (a pure dummy touch)...
    std::vector<std::uint8_t> payload = rowOf(0);
    ASSERT_EQ(cache.beginScheduledAccess(5, payload),
              AccessOutcome::HitInPlace);
    EXPECT_EQ(payload, rowOf(0x11));

    // ...and an assembler thread races in with a fast-path update
    // before the serving thread completes the access.
    ASSERT_TRUE(cache.tryServeAtAdmission(
        5, [](std::vector<std::uint8_t> &row) {
            row.assign(kRow, 0x22);
        }));

    // complete must NOT overwrite the newer pinned value with the
    // stale in-flight payload: the acknowledged update has to survive
    // until its own scheduled access flushes it.
    cache.completeScheduledAccess(5, payload);
    std::vector<std::uint8_t> again = rowOf(0);
    ASSERT_EQ(cache.beginScheduledAccess(5, again),
              AccessOutcome::Flushed);
    EXPECT_EQ(again, rowOf(0x22));
    EXPECT_EQ(cache.stats().writebackCoalesced, 1u);
}

TEST(HotCache, PinnedRowsAreNeverEvicted)
{
    HotEmbeddingCache cache(configFor(2), kRow);
    missAccess(cache, 1, 1);
    missAccess(cache, 2, 2);

    // Pin the LRU victim candidate (1).
    ASSERT_TRUE(cache.tryServeAtAdmission(
        1, [](std::vector<std::uint8_t> &row) { row[0] = 0xFF; }));

    // Admitting 3 must skip pinned 1 and evict 2 instead.
    missAccess(cache, 3, 3);
    std::vector<std::uint8_t> payload = rowOf(0);
    ASSERT_EQ(cache.beginScheduledAccess(1, payload),
              AccessOutcome::Flushed);
    EXPECT_EQ(payload[0], 0xFF);
    payload = rowOf(0);
    EXPECT_EQ(cache.beginScheduledAccess(2, payload),
              AccessOutcome::Miss);
}

TEST(HotCache, SaveRestoreRoundTripsRowsAndCounters)
{
    HotEmbeddingCache cache(configFor(4), kRow);
    missAccess(cache, 3, 0x33);
    missAccess(cache, 9, 0x99);
    missAccess(cache, 5, 0x55);
    missAccess(cache, 7, 0x77);
    // Touch 3: recency is now 9, 5, 7, 3 (oldest first), which is
    // neither the insertion order nor the id order.
    std::vector<std::uint8_t> payload = rowOf(0);
    ASSERT_EQ(cache.beginScheduledAccess(3, payload),
              AccessOutcome::HitInPlace);
    payload = rowOf(0x3C);
    cache.completeScheduledAccess(3, payload);

    serde::Serializer s;
    cache.save(s);
    const std::vector<std::uint8_t> bytes = s.take();

    HotEmbeddingCache restored(configFor(4), kRow);
    serde::Deserializer d(bytes);
    restored.restore(d);
    EXPECT_TRUE(d.atEnd());

    const CacheStats a = cache.stats();
    const CacheStats b = restored.stats();
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.residentRows, b.residentRows);
    EXPECT_EQ(a.residentBytes, b.residentBytes);

    // Recency survives restore: one row past capacity evicts the same
    // least recently used row (9) from both caches, and the rows that
    // stay serve the same bytes (3 was rewritten by its hit).
    for (HotEmbeddingCache *c : {&cache, &restored}) {
        missAccess(*c, 11, 0xBB);
        EXPECT_EQ(c->stats().evictions, 1u);
        payload = rowOf(0);
        EXPECT_EQ(c->beginScheduledAccess(9, payload),
                  AccessOutcome::Miss);
        payload = rowOf(0);
        ASSERT_EQ(c->beginScheduledAccess(5, payload),
                  AccessOutcome::HitInPlace);
        EXPECT_EQ(payload, rowOf(0x55));
        c->completeScheduledAccess(5, payload);
        payload = rowOf(0);
        ASSERT_EQ(c->beginScheduledAccess(3, payload),
                  AccessOutcome::HitInPlace);
        EXPECT_EQ(payload, rowOf(0x3C));
        c->completeScheduledAccess(3, payload);
    }
}

TEST(HotCache, RestoreRejectsMismatchedConfig)
{
    HotEmbeddingCache cache(configFor(4), kRow);
    missAccess(cache, 1, 1);
    serde::Serializer s;
    cache.save(s);
    const std::vector<std::uint8_t> bytes = s.take();

    {
        HotEmbeddingCache wrongCapacity(configFor(2), kRow);
        serde::Deserializer d(bytes);
        EXPECT_THROW(wrongCapacity.restore(d), serde::SnapshotError);
    }
    {
        HotEmbeddingCache wrongRow(CacheConfig{4 * 2 * kRow}, 2 * kRow);
        serde::Deserializer d(bytes);
        EXPECT_THROW(wrongRow.restore(d), serde::SnapshotError);
    }
}

TEST(HotCache, ClearDropsRowsButKeepsCounters)
{
    HotEmbeddingCache cache(configFor(4), kRow);
    missAccess(cache, 1, 1);
    std::vector<std::uint8_t> payload = rowOf(0);
    ASSERT_EQ(cache.beginScheduledAccess(1, payload),
              AccessOutcome::HitInPlace);
    cache.completeScheduledAccess(1, payload);

    cache.clear();
    EXPECT_EQ(cache.stats().residentRows, 0u);
    EXPECT_EQ(cache.stats().hits, 1u);
    payload = rowOf(0);
    EXPECT_EQ(cache.beginScheduledAccess(1, payload),
              AccessOutcome::Miss);
}

TEST(HotCacheDeathTest, ClearWithPinnedWritebackPanics)
{
    HotEmbeddingCache cache(configFor(2), kRow);
    missAccess(cache, 1, 1);
    ASSERT_TRUE(cache.tryServeAtAdmission(
        1, [](std::vector<std::uint8_t> &row) { row[0] = 0xFF; }));
    // Dropping the row would discard the acknowledged deferred
    // write-back it holds — same quiesced-boundary contract as save().
    EXPECT_DEATH(cache.clear(), "deferred write-back");
}

TEST(HotCacheStats, AccumulateAndDelta)
{
    CacheStats a;
    a.hits = 10;
    a.misses = 5;
    a.evictions = 2;
    a.residentRows = 3;
    a.capacityRows = 8;
    CacheStats b;
    b.hits = 1;
    b.misses = 1;
    b.admissionHits = 4;
    b.residentRows = 2;
    b.capacityRows = 8;

    CacheStats sum = a;
    sum.accumulate(b);
    EXPECT_EQ(sum.hits, 11u);
    EXPECT_EQ(sum.misses, 6u);
    EXPECT_EQ(sum.admissionHits, 4u);
    EXPECT_EQ(sum.residentRows, 5u);
    EXPECT_EQ(sum.capacityRows, 16u);

    CacheStats start;
    start.hits = 4;
    start.misses = 5;
    const CacheStats delta = a.deltaFrom(start);
    EXPECT_EQ(delta.hits, 6u);
    EXPECT_EQ(delta.misses, 0u);
    EXPECT_EQ(delta.residentRows, 3u); // levels keep end values
}

} // namespace
} // namespace laoram::cache
