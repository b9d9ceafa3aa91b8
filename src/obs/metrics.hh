/**
 * @file
 * Process-wide live metrics: named counters, gauges and histograms
 * with relaxed-atomic hot-path updates, snapshot-able from a
 * background sampler thread while traffic is flowing.
 *
 *  - Pulled names have one counting path: the owner's ledger of
 *    Relaxed<T> fields (oram.* TrafficCounters, storage.<kind>.*
 *    IoStats, cache.* CacheStats, pipeline.reorder.hol_* ReorderStats,
 *    and pipeline.windows_served / fill_ns / stall_ns, one run's
 *    PipelineCounters). Each ledger joins a LedgerSet for its
 *    lifetime and snapshot() sums the live ledgers plus what
 *    destroyed ones retired. They need no gate and cost nothing extra.
 *  - Pushed names are the levels (pipeline.reorder.buffered,
 *    pipeline.lanes_active, serve.admission_depth,
 *    node.active_connections, storage.remote.inflight_writes) and the
 *    counters and histograms no struct holds (serve.*, node.*). Each
 *    site wraps its update block in one branch on metricsEnabled(),
 *    so a run without --metrics-out pays one predicted-not-taken
 *    branch per site (verified by bench_obs_overhead).
 *
 * Handles are registered once and returned as stable references;
 * registration takes a mutex, updates never do. One name is one
 * handle everywhere, so sampled series are process-wide totals that
 * reconcile with the end-of-run report sums.
 */

#ifndef LAORAM_OBS_METRICS_HH
#define LAORAM_OBS_METRICS_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace laoram::obs {

namespace detail {
extern std::atomic<bool> gMetricsEnabled;
} // namespace detail

/**
 * The hot-path gate: instrumentation sites wrap their updates in
 * `if (obs::metricsEnabled()) { ... }`. A relaxed load of one global
 * atomic bool — set once at startup, before traffic — is the entire
 * disabled-path cost.
 */
inline bool
metricsEnabled()
{
    return detail::gMetricsEnabled.load(std::memory_order_relaxed);
}

/** Flip the gate (ObsSession at startup; tests). */
void setMetricsEnabled(bool on);

/**
 * One field of a single-writer ledger that any thread may read. The
 * owner updates it with a relaxed load plus a relaxed store (not a
 * fetch_add), which compiles to the same plain mov/add/mov as a bare
 * integer, so a ledger struct of these stays a copyable value type
 * that a sampler thread reads race-free mid-run. Two concurrent
 * writers would lose updates: a ledger has one writer at a time.
 */
template <typename T>
class Relaxed
{
  public:
    Relaxed(T x = T{}) noexcept : v(x) {}
    Relaxed(const Relaxed &o) noexcept : v(T(o)) {}

    Relaxed &
    operator=(const Relaxed &o) noexcept
    {
        v.store(T(o), std::memory_order_relaxed);
        return *this;
    }

    operator T() const noexcept { return v.load(std::memory_order_relaxed); }

    Relaxed &
    operator+=(T d) noexcept
    {
        v.store(T(*this) + d, std::memory_order_relaxed);
        return *this;
    }

    Relaxed &operator++() noexcept { return *this += T{1}; }

  private:
    std::atomic<T> v;
};

/** Monotonic counter (relaxed increments; no hot-path gate inside). */
class Counter
{
  public:
    void
    add(std::uint64_t d)
    {
        v.fetch_add(d, std::memory_order_relaxed);
    }

    void inc() { add(1); }

    std::uint64_t
    get() const
    {
        return v.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    std::atomic<std::uint64_t> v{0};
};

/** Signed instantaneous level (queue depths, in-flight windows). */
class Gauge
{
  public:
    void
    add(std::int64_t d)
    {
        v.fetch_add(d, std::memory_order_relaxed);
    }

    void inc() { add(1); }
    void dec() { add(-1); }

    void
    set(std::int64_t x)
    {
        v.store(x, std::memory_order_relaxed);
    }

    /** Raise to @p x if larger (high-water marks, e.g. stash peak). */
    void
    setMax(std::int64_t x)
    {
        std::int64_t cur = v.load(std::memory_order_relaxed);
        while (cur < x
               && !v.compare_exchange_weak(cur, x,
                                           std::memory_order_relaxed)) {
        }
    }

    std::int64_t
    get() const
    {
        return v.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    std::atomic<std::int64_t> v{0};
};

/**
 * Lock-free power-of-two histogram for hot-path size/duration
 * distributions (coalesced batch sizes). Bucket i counts values whose
 * bit width is i (bucket 0 holds zeros), so record() is a bit-scan
 * plus three relaxed adds.
 */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = 65;

    void record(std::uint64_t value);

    std::uint64_t
    count() const
    {
        return n.load(std::memory_order_relaxed);
    }

    std::uint64_t
    sum() const
    {
        return total.load(std::memory_order_relaxed);
    }

    std::uint64_t
    max() const
    {
        return maxV.load(std::memory_order_relaxed);
    }

    /**
     * Approximate p-quantile (0..1) from the bucket counts: the lower
     * bound of the bucket the quantile lands in. Zero when empty.
     */
    std::uint64_t quantile(double p) const;

  private:
    friend class MetricsRegistry;
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
    std::atomic<std::uint64_t> n{0};
    std::atomic<std::uint64_t> total{0};
    std::atomic<std::uint64_t> maxV{0};
};

/** Registry side of a pulled family (see LedgerSet). */
class Collector
{
  public:
    virtual ~Collector() = default;

    /** Process-wide value of field @p i: retired plus live. */
    virtual std::uint64_t value(std::size_t i) const = 0;
};

/** One exported field of ledger type L: reads member @p m. */
template <typename L>
struct LedgerField
{
    template <typename T>
    LedgerField(std::string name, std::string help, Relaxed<T> L::*m,
                bool peak = false)
        : name(std::move(name)), help(std::move(help)),
          read([m](const L &l) { return std::uint64_t(T(l.*m)); }),
          peak(peak)
    {
    }

    std::string name; ///< appended to the family prefix
    std::string help;
    std::function<std::uint64_t(const L &)> read;
    bool peak; ///< a level: max over ledgers, a gauge
};

template <typename L>
class LedgerSet;

/** One flattened sample of the registry (histograms expanded). */
struct MetricsSnapshot
{
    struct Value
    {
        std::string name;
        double value = 0.0;
    };

    std::vector<Value> values; ///< registration order, stable names
};

/**
 * The process-wide registry. counter()/gauge()/histogram() register
 * on first use and return the same stable handle for the same name
 * ever after (help text of the first registration wins).
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    Counter &counter(const std::string &name,
                     const std::string &help = "");
    Gauge &gauge(const std::string &name, const std::string &help = "");
    Histogram &histogram(const std::string &name,
                         const std::string &help = "");

    /**
     * Flatten every metric into one sample (relaxed reads; safe
     * against concurrent updates). Histograms expand into
     * .count/.sum/.mean/.max/.p50/.p99 entries.
     */
    MetricsSnapshot snapshot() const;

    /**
     * Prometheus-style text exposition: names are prefixed "laoram_"
     * with dots mapped to underscores, each preceded by # HELP/# TYPE
     * lines.
     */
    std::string prometheusText() const;

    /**
     * The pulled family under @p prefix, created on first use from
     * @p fields (later calls ignore @p fields). Each field registers
     * prefix+name as a counter, or a gauge when peak, whose handle
     * holds the retired total.
     */
    template <typename L>
    LedgerSet<L> &
    ledgers(const std::string &prefix, std::vector<LedgerField<L>> fields)
    {
        std::lock_guard<std::mutex> lock(setsMu);
        std::unique_ptr<Collector> &set = sets[prefix];
        if (set == nullptr) {
            set = std::make_unique<LedgerSet<L>>(*this, prefix,
                                                 std::move(fields));
        }
        return static_cast<LedgerSet<L> &>(*set);
    }

    /**
     * Export the registered counter or gauge @p name as field @p field
     * of @p from; its own handle then holds only the retired part.
     */
    void pull(const std::string &name, Collector &from, std::size_t field);

    /**
     * Test hook: zero every registered metric (handles stay valid).
     * Callers must quiesce updaters and hold no live ledgers.
     */
    void resetForTest();

  private:
    MetricsRegistry() = default;

    enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

    struct Entry; ///< name + help + owned metric storage

    Entry &findOrCreate(const std::string &name,
                        const std::string &help, Kind kind);

    mutable std::mutex mu;
    std::vector<std::unique_ptr<Entry>> entries;

    std::mutex setsMu; ///< taken before `mu`, never after
    std::map<std::string, std::unique_ptr<Collector>> sets;
};

/**
 * The live ledgers of one type under one name prefix ("oram.",
 * "storage.dram."). An owner attaches its ledger for its lifetime.
 * A count field exports its registered counter, which holds what
 * detached ledgers retired, plus each live ledger's growth since its
 * base; a peak field exports the max over all ledgers. rebase()
 * (checkpoint restore, reset) retires the growth so far before it
 * overwrites the ledger, so exported counters count only events this
 * process executed and never move backwards. Every method locks; the
 * ledgers' own updates never do.
 */
template <typename L>
class LedgerSet final : public Collector
{
  public:
    LedgerSet(MetricsRegistry &reg, const std::string &prefix,
              std::vector<LedgerField<L>> fieldList)
        : fields(std::move(fieldList))
    {
        for (const LedgerField<L> &f : fields) {
            const std::string name = prefix + f.name;
            retired.push_back(f.peak ? nullptr : &reg.counter(name, f.help));
            peaks.push_back(f.peak ? &reg.gauge(name, f.help) : nullptr);
        }
        // Only now may a snapshot reach value(): both tables are built.
        for (std::size_t i = 0; i < fields.size(); ++i)
            reg.pull(prefix + fields[i].name, *this, i);
    }

    void
    attach(const L *ledger)
    {
        std::lock_guard<std::mutex> lock(mu);
        live.emplace(ledger, *ledger);
    }

    void
    detach(const L *ledger)
    {
        std::lock_guard<std::mutex> lock(mu);
        retire(*ledger, live.at(ledger));
        live.erase(ledger);
    }

    /** Overwrite the attached @p ledger with @p value. */
    void
    rebase(L *ledger, const L &value)
    {
        std::lock_guard<std::mutex> lock(mu);
        L &base = live.at(ledger);
        retire(*ledger, base);
        *ledger = base = value;
    }

    std::uint64_t
    value(std::size_t i) const override
    {
        const LedgerField<L> &f = fields[i];
        std::lock_guard<std::mutex> lock(mu);
        std::uint64_t v = f.peak ? peaks[i]->get() : retired[i]->get();
        for (const auto &[ledger, base] : live)
            v = f.peak ? std::max(v, f.read(*ledger))
                       : v + f.read(*ledger) - f.read(base);
        return v;
    }

  private:
    void
    retire(const L &ledger, const L &base)
    {
        for (std::size_t i = 0; i < fields.size(); ++i) {
            const std::uint64_t now = fields[i].read(ledger);
            if (fields[i].peak)
                peaks[i]->setMax(static_cast<std::int64_t>(now));
            else
                retired[i]->add(now - fields[i].read(base));
        }
    }

    const std::vector<LedgerField<L>> fields;
    std::vector<Counter *> retired; ///< per field; null for peaks
    std::vector<Gauge *> peaks;     ///< per field; null for counts
    mutable std::mutex mu;
    std::map<const L *, L> live; ///< ledger -> its base
};

} // namespace laoram::obs

#endif // LAORAM_OBS_METRICS_HH
