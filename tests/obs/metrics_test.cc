/**
 * @file
 * MetricsRegistry tests: handle identity, snapshot/exposition shape,
 * the concurrent increment-while-sampling contract the background
 * sampler relies on, and the pull model behind the oram.*,
 * storage.<kind>.*, cache.* and pipeline.* series (the suites run
 * under TSan in CI).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/laoram_client.hh"
#include "core/sharded_laoram.hh"
#include "obs/metrics.hh"
#include "util/rng.hh"

namespace laoram::obs {
namespace {

class ObsMetricsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        MetricsRegistry::instance().resetForTest();
        setMetricsEnabled(false);
    }

    void
    TearDown() override
    {
        MetricsRegistry::instance().resetForTest();
        setMetricsEnabled(false);
    }
};

TEST_F(ObsMetricsTest, SameNameReturnsSameHandle)
{
    auto &reg = MetricsRegistry::instance();
    Counter &a = reg.counter("test.same_name");
    Counter &b = reg.counter("test.same_name");
    EXPECT_EQ(&a, &b);
    a.inc();
    b.add(2);
    EXPECT_EQ(a.get(), 3u);
}

TEST_F(ObsMetricsTest, GaugeSetMaxIsMonotonic)
{
    Gauge &g = MetricsRegistry::instance().gauge("test.peak");
    g.setMax(10);
    g.setMax(4);
    EXPECT_EQ(g.get(), 10);
    g.setMax(12);
    EXPECT_EQ(g.get(), 12);
}

TEST_F(ObsMetricsTest, HistogramTracksCountSumMaxAndQuantiles)
{
    Histogram &h = MetricsRegistry::instance().histogram("test.sizes");
    for (std::uint64_t v : {1u, 2u, 4u, 8u, 1024u})
        h.record(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 1039u);
    EXPECT_EQ(h.max(), 1024u);
    EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
}

TEST_F(ObsMetricsTest, SnapshotExpandsHistograms)
{
    auto &reg = MetricsRegistry::instance();
    reg.counter("test.c").add(7);
    reg.gauge("test.g").set(-3);
    reg.histogram("test.h").record(16);

    const MetricsSnapshot snap = reg.snapshot();
    bool sawCounter = false, sawGauge = false, sawHistCount = false,
         sawHistP99 = false;
    for (const auto &v : snap.values) {
        if (v.name == "test.c") {
            sawCounter = true;
            EXPECT_DOUBLE_EQ(v.value, 7.0);
        } else if (v.name == "test.g") {
            sawGauge = true;
            EXPECT_DOUBLE_EQ(v.value, -3.0);
        } else if (v.name == "test.h.count") {
            sawHistCount = true;
            EXPECT_DOUBLE_EQ(v.value, 1.0);
        } else if (v.name == "test.h.p99") {
            sawHistP99 = true;
        }
    }
    EXPECT_TRUE(sawCounter);
    EXPECT_TRUE(sawGauge);
    EXPECT_TRUE(sawHistCount);
    EXPECT_TRUE(sawHistP99);
}

TEST_F(ObsMetricsTest, PrometheusTextMapsNames)
{
    auto &reg = MetricsRegistry::instance();
    reg.counter("test.prom.reads", "read ops").add(5);
    const std::string text = reg.prometheusText();
    EXPECT_NE(text.find("laoram_test_prom_reads 5"), std::string::npos);
    EXPECT_NE(text.find("# TYPE laoram_test_prom_reads counter"),
              std::string::npos);
}

TEST_F(ObsMetricsTest, EnabledGateFlips)
{
    EXPECT_FALSE(metricsEnabled());
    setMetricsEnabled(true);
    EXPECT_TRUE(metricsEnabled());
    setMetricsEnabled(false);
    EXPECT_FALSE(metricsEnabled());
}

/**
 * The sampler contract: snapshot() runs concurrently with hot-path
 * updates and must stay race-free (this is the suite CI runs under
 * TSan) and never lose a counted increment by the time the writers
 * have joined.
 */
TEST_F(ObsMetricsTest, ConcurrentIncrementsSurviveSampling)
{
    auto &reg = MetricsRegistry::instance();
    Counter &c = reg.counter("test.race.counter");
    Histogram &h = reg.histogram("test.race.hist");

    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 50000;

    std::atomic<bool> stop{false};
    std::thread sampler([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const MetricsSnapshot snap = reg.snapshot();
            for (const auto &v : snap.values)
                EXPECT_GE(v.value, 0.0);
        }
    });

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                c.inc();
                h.record(i & 0xFF);
            }
        });
    }
    for (std::thread &t : writers)
        t.join();
    stop.store(true, std::memory_order_relaxed);
    sampler.join();

    EXPECT_EQ(c.get(), kThreads * kPerThread);
    EXPECT_EQ(h.count(), kThreads * kPerThread);
}

// ------------------------------------------------------ pulled ledgers

/**
 * Every pulled series (oram.*, storage.*, cache.*, pipeline.*) in one
 * snapshot. The pushed levels that share the pipeline. prefix are
 * left out.
 */
std::map<std::string, double>
pulledSeries()
{
    std::map<std::string, double> out;
    for (const auto &v : MetricsRegistry::instance().snapshot().values) {
        const bool pulled = v.name.rfind("oram.", 0) == 0
                            || v.name.rfind("storage.", 0) == 0
                            || v.name.rfind("cache.", 0) == 0
                            || v.name.rfind("pipeline.", 0) == 0;
        const bool pushed = v.name == "pipeline.reorder.buffered"
                            || v.name == "pipeline.lanes_active";
        if (pulled && !pushed)
            out[v.name] = v.value;
    }
    return out;
}

/** @p name in @p series; 0 before any ledger registered it. */
double
at(const std::map<std::string, double> &series, const std::string &name)
{
    const auto it = series.find(name);
    return it == series.end() ? 0.0 : it->second;
}

std::vector<oram::BlockId>
randomTrace(std::uint64_t n, std::uint64_t blocks, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<oram::BlockId> trace;
    trace.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        trace.push_back(rng.nextBounded(blocks));
    return trace;
}

core::LaoramConfig
smallEngine(std::uint64_t seed)
{
    core::LaoramConfig cfg;
    cfg.base.numBlocks = 256;
    cfg.base.blockBytes = 64;
    cfg.base.seed = seed;
    cfg.superblockSize = 4;
    cfg.lookaheadWindow = 64;
    return cfg;
}

/** smallEngine() with payloads and a hot cache of 32 rows. */
core::LaoramConfig
cachedEngine(std::uint64_t seed)
{
    core::LaoramConfig cfg = smallEngine(seed);
    cfg.base.payloadBytes = 8;
    cfg.cache.capacityBytes = 32 * cfg.base.payloadBytes;
    return cfg;
}

class ObsMetricsPull : public ::testing::Test
{
  protected:
    void SetUp() override { setMetricsEnabled(false); }
    void TearDown() override { setMetricsEnabled(false); }
};

/**
 * A sampler snapshots while a 2-shard concurrent pipeline writes its
 * ledgers (the race TSan watches), and no sample ever sees a pulled
 * counter go down. Once the engines are destroyed, the exported
 * deltas equal what their own ledgers and the run report counted:
 * the retire path loses nothing.
 */
TEST_F(ObsMetricsPull, SamplerPullsLiveShardsAndRetiredTotals)
{
    setMetricsEnabled(true);
    const auto before = pulledSeries();

    core::ShardedLaoramConfig cfg;
    cfg.engine = cachedEngine(31);
    cfg.numShards = 2;
    cfg.pipeline.windowAccesses = 64;
    cfg.pipeline.prepThreads = 2;
    cfg.pipeline.mode = core::PipelineMode::Concurrent;

    std::atomic<bool> stop{false};
    std::atomic<int> samples{0};
    std::thread sampler([&] {
        double lastAccesses = 0.0;
        double lastSlots = 0.0;
        while (!stop.load(std::memory_order_relaxed)) {
            const auto now = pulledSeries();
            const double accesses = at(now, "oram.logical_accesses");
            const double slots = at(now, "storage.dram.slots_read");
            EXPECT_GE(accesses, lastAccesses);
            EXPECT_GE(slots, lastSlots);
            lastAccesses = accesses;
            lastSlots = slots;
            samples.fetch_add(1, std::memory_order_relaxed);
        }
    });

    core::ShardedPipelineReport rep;
    std::uint64_t ledgerAccesses = 0;
    std::uint64_t ledgerSlotsRead = 0;
    std::uint64_t ledgerHits = 0;
    {
        core::ShardedLaoram engine(cfg);
        rep = engine.runTrace(randomTrace(16384, 256, 7));
        for (std::uint32_t s = 0; s < cfg.numShards; ++s) {
            ledgerAccesses +=
                engine.shard(s).meter().counters().logicalAccesses;
            ledgerSlotsRead +=
                engine.shard(s).storageForAudit().ioStats().slotsRead;
            ledgerHits += engine.shard(s).hotCache()->stats().hits;
        }
    }
    stop.store(true, std::memory_order_relaxed);
    sampler.join();
    EXPECT_GT(samples.load(), 0);

    const auto after = pulledSeries();
    const double accesses = at(after, "oram.logical_accesses")
                            - at(before, "oram.logical_accesses");
    const double slots = at(after, "storage.dram.slots_read")
                         - at(before, "storage.dram.slots_read");
    EXPECT_EQ(accesses, static_cast<double>(ledgerAccesses));
    EXPECT_EQ(accesses, static_cast<double>(rep.traffic.logicalAccesses));
    EXPECT_EQ(slots, static_cast<double>(ledgerSlotsRead));
    EXPECT_GT(slots, 0.0);
    auto delta = [&](const char *name) {
        return at(after, name) - at(before, name);
    };
    EXPECT_EQ(delta("cache.hits"), static_cast<double>(ledgerHits));
    EXPECT_EQ(delta("cache.hits"),
              static_cast<double>(rep.aggregate.cache.hits));
    EXPECT_GT(delta("cache.hits"), 0.0);
    EXPECT_EQ(delta("pipeline.windows_served"),
              static_cast<double>(rep.aggregate.windows));
    EXPECT_GT(delta("pipeline.windows_served"), 0.0);

    for (const char *name :
         {"oram.logical_accesses", "oram.path_reads", "oram.path_writes",
          "oram.dummy_reads", "oram.bytes_read", "oram.bytes_written",
          "oram.stash_hits", "oram.reshuffles", "oram.stash_peak",
          "storage.dram.read_ops", "storage.dram.write_ops",
          "storage.dram.slots_read", "storage.dram.slots_written",
          "storage.dram.bytes_read", "storage.dram.bytes_written",
          "storage.dram.flushes", "storage.dram.read_ns",
          "storage.dram.write_ns", "cache.hits", "cache.misses",
          "cache.evictions", "cache.writeback_coalesced",
          "cache.admission_hits", "pipeline.windows_served",
          "pipeline.fill_ns", "pipeline.stall_ns",
          "pipeline.reorder.hol_waits", "pipeline.reorder.hol_wait_ns"})
        EXPECT_EQ(after.count(name), 1u) << name << " not exported";
}

/**
 * Restoring a checkpoint in place rewinds (or advances) the engine's
 * own counters, warm hot cache included, but the exported series
 * count what this process executed: they neither move on a restore
 * nor double-count on the way forward. reset() obeys the same rule.
 */
TEST_F(ObsMetricsPull, RestoreNeverLowersExportedCounters)
{
    core::Laoram engine(cachedEngine(41));
    const cache::HotEmbeddingCache &hot = *engine.hotCache();
    engine.runTrace(randomTrace(256, 256, 1));
    const std::vector<std::uint8_t> early = engine.checkpoint();
    const std::uint64_t atEarly =
        engine.meter().counters().logicalAccesses;
    engine.runTrace(randomTrace(256, 256, 2));
    // The DRAM tree stays at this boundary, so only `late` can be
    // served from; `early` is restored just to rewind the counters.
    const std::vector<std::uint8_t> late = engine.checkpoint();
    const std::uint64_t atLate =
        engine.meter().counters().logicalAccesses;
    const std::uint64_t hitsAtLate = hot.stats().hits;
    ASSERT_GT(hot.stats().residentRows, 0u);
    const double exported = at(pulledSeries(), "oram.logical_accesses");
    const double exportedHits = at(pulledSeries(), "cache.hits");
    EXPECT_GT(exportedHits, 0.0);

    engine.restoreFrom(early);
    EXPECT_EQ(engine.meter().counters().logicalAccesses, atEarly);
    EXPECT_LT(hot.stats().hits, hitsAtLate);
    EXPECT_EQ(at(pulledSeries(), "oram.logical_accesses"), exported);
    EXPECT_EQ(at(pulledSeries(), "cache.hits"), exportedHits);
    engine.restoreFrom(late);
    EXPECT_EQ(hot.stats().hits, hitsAtLate);
    EXPECT_EQ(at(pulledSeries(), "oram.logical_accesses"), exported);
    EXPECT_EQ(at(pulledSeries(), "cache.hits"), exportedHits);

    engine.runTrace(randomTrace(256, 256, 3));
    const std::uint64_t resumed =
        engine.meter().counters().logicalAccesses - atLate;
    const std::uint64_t resumedHits = hot.stats().hits - hitsAtLate;
    EXPECT_GT(resumed, 0u);
    EXPECT_GT(resumedHits, 0u);
    EXPECT_EQ(at(pulledSeries(), "oram.logical_accesses"),
              exported + static_cast<double>(resumed));
    EXPECT_EQ(at(pulledSeries(), "cache.hits"),
              exportedHits + static_cast<double>(resumedHits));

    mem::TrafficMeter meter;
    meter.recordLogicalAccesses(5);
    const double beforeReset =
        at(pulledSeries(), "oram.logical_accesses");
    meter.reset();
    meter.recordLogicalAccesses(2);
    EXPECT_EQ(at(pulledSeries(), "oram.logical_accesses"),
              beforeReset + 2.0);
}

/**
 * The pulled series have no gate: the same run exports the same
 * totals whether or not metrics were enabled while it ran.
 */
TEST_F(ObsMetricsPull, TotalsIgnoreTheGate)
{
    auto runDelta = [](bool gate) {
        setMetricsEnabled(gate);
        const auto before = pulledSeries();
        {
            core::Laoram engine(cachedEngine(51));
            engine.runTrace(randomTrace(1024, 256, 9));
        }
        setMetricsEnabled(false);
        std::map<std::string, double> delta;
        for (const auto &[name, value] : pulledSeries()) {
            // Measured nanoseconds differ run to run; peaks are levels.
            const bool timed = name.size() > 3
                               && name.compare(name.size() - 3, 3, "_ns")
                                      == 0;
            if (!timed && name != "oram.stash_peak")
                delta[name] = value - at(before, name);
        }
        return delta;
    };
    const auto off = runDelta(false);
    const auto on = runDelta(true);
    EXPECT_EQ(off, on);
    EXPECT_GT(at(off, "oram.logical_accesses"), 0.0);
    EXPECT_GT(at(off, "storage.dram.slots_written"), 0.0);
    EXPECT_GT(at(off, "cache.hits"), 0.0);
    EXPECT_GT(at(off, "pipeline.windows_served"), 0.0);
}

} // namespace
} // namespace laoram::obs
