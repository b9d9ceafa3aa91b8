#include "obs/metrics.hh"

#include <sstream>

#include "util/logging.hh"

namespace laoram::obs {

namespace detail {
std::atomic<bool> gMetricsEnabled{false};
} // namespace detail

void
setMetricsEnabled(bool on)
{
    detail::gMetricsEnabled.store(on, std::memory_order_relaxed);
}

namespace {

/** Bit width of @p v: 0 for 0, else 1 + floor(log2 v). */
std::size_t
bitWidth(std::uint64_t v)
{
    std::size_t w = 0;
    while (v != 0) {
        ++w;
        v >>= 1;
    }
    return w;
}

} // namespace

void
Histogram::record(std::uint64_t value)
{
    buckets[bitWidth(value)].fetch_add(1, std::memory_order_relaxed);
    n.fetch_add(1, std::memory_order_relaxed);
    total.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t cur = maxV.load(std::memory_order_relaxed);
    while (cur < value
           && !maxV.compare_exchange_weak(cur, value,
                                          std::memory_order_relaxed)) {
    }
}

std::uint64_t
Histogram::quantile(double p) const
{
    const std::uint64_t samples = count();
    if (samples == 0)
        return 0;
    const double target = p * static_cast<double>(samples);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += buckets[i].load(std::memory_order_relaxed);
        if (static_cast<double>(seen) >= target) {
            // Lower bound of bucket i: 0 for i==0, else 2^(i-1).
            return i == 0 ? 0 : (std::uint64_t{1} << (i - 1));
        }
    }
    return max();
}

struct MetricsRegistry::Entry
{
    std::string name;
    std::string help;
    Kind kind = Kind::Counter;
    // Exactly one of these is live, by kind; unique_ptr members keep
    // handle addresses stable as `entries` grows.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    // A pulled name's exported value comes from its collector; the
    // handle above then holds only what retired ledgers left.
    Collector *pull = nullptr;
    std::size_t field = 0;

    /** The exported value of a counter or gauge. */
    std::int64_t
    value() const
    {
        if (pull != nullptr)
            return static_cast<std::int64_t>(pull->value(field));
        return kind == Kind::Counter
                   ? static_cast<std::int64_t>(counter->get())
                   : gauge->get();
    }
};

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry reg;
    return reg;
}

MetricsRegistry::Entry &
MetricsRegistry::findOrCreate(const std::string &name,
                              const std::string &help, Kind kind)
{
    std::lock_guard<std::mutex> lock(mu);
    for (const std::unique_ptr<Entry> &e : entries) {
        if (e->name == name) {
            LAORAM_ASSERT(e->kind == kind, "metric '", name,
                          "' re-registered with a different kind");
            return *e;
        }
    }
    auto entry = std::make_unique<Entry>();
    entry->name = name;
    entry->help = help;
    entry->kind = kind;
    switch (kind) {
      case Kind::Counter:
        entry->counter = std::make_unique<Counter>();
        break;
      case Kind::Gauge:
        entry->gauge = std::make_unique<Gauge>();
        break;
      case Kind::Histogram:
        entry->histogram = std::make_unique<Histogram>();
        break;
    }
    entries.push_back(std::move(entry));
    return *entries.back();
}

Counter &
MetricsRegistry::counter(const std::string &name,
                         const std::string &help)
{
    return *findOrCreate(name, help, Kind::Counter).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &help)
{
    return *findOrCreate(name, help, Kind::Gauge).gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help)
{
    return *findOrCreate(name, help, Kind::Histogram).histogram;
}

void
MetricsRegistry::pull(const std::string &name, Collector &from,
                      std::size_t field)
{
    std::lock_guard<std::mutex> lock(mu);
    for (const std::unique_ptr<Entry> &e : entries) {
        if (e->name == name) {
            e->pull = &from;
            e->field = field;
        }
    }
}

void
MetricsRegistry::resetForTest()
{
    std::lock_guard<std::mutex> lock(mu);
    for (const std::unique_ptr<Entry> &e : entries) {
        switch (e->kind) {
          case Kind::Counter:
            e->counter->v.store(0, std::memory_order_relaxed);
            break;
          case Kind::Gauge:
            e->gauge->v.store(0, std::memory_order_relaxed);
            break;
          case Kind::Histogram: {
            Histogram &h = *e->histogram;
            for (auto &b : h.buckets)
                b.store(0, std::memory_order_relaxed);
            h.n.store(0, std::memory_order_relaxed);
            h.total.store(0, std::memory_order_relaxed);
            h.maxV.store(0, std::memory_order_relaxed);
            break;
          }
        }
    }
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    MetricsSnapshot snap;
    snap.values.reserve(entries.size());
    for (const std::unique_ptr<Entry> &e : entries) {
        switch (e->kind) {
          case Kind::Counter:
          case Kind::Gauge:
            snap.values.push_back(
                {e->name, static_cast<double>(e->value())});
            break;
          case Kind::Histogram: {
            const Histogram &h = *e->histogram;
            const double cnt = static_cast<double>(h.count());
            const double sum = static_cast<double>(h.sum());
            snap.values.push_back({e->name + ".count", cnt});
            snap.values.push_back({e->name + ".sum", sum});
            snap.values.push_back(
                {e->name + ".mean", cnt > 0.0 ? sum / cnt : 0.0});
            snap.values.push_back(
                {e->name + ".max", static_cast<double>(h.max())});
            snap.values.push_back(
                {e->name + ".p50",
                 static_cast<double>(h.quantile(0.5))});
            snap.values.push_back(
                {e->name + ".p99",
                 static_cast<double>(h.quantile(0.99))});
            break;
          }
        }
    }
    return snap;
}

namespace {

/** laoram_<name with dots/dashes as underscores>. */
std::string
promName(const std::string &name)
{
    std::string out = "laoram_";
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                        || (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

} // namespace

std::string
MetricsRegistry::prometheusText() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::ostringstream os;
    for (const std::unique_ptr<Entry> &e : entries) {
        const std::string base = promName(e->name);
        const char *type = e->kind == Kind::Counter ? "counter"
                                                    : "gauge";
        if (e->kind == Kind::Histogram) {
            // Exposed as a summary-ish pair plus the tracked max; the
            // power-of-two buckets are a sampler-side detail.
            const Histogram &h = *e->histogram;
            if (!e->help.empty())
                os << "# HELP " << base << " " << e->help << "\n";
            os << "# TYPE " << base << " summary\n"
               << base << "_count " << h.count() << "\n"
               << base << "_sum " << h.sum() << "\n"
               << base << "_max " << h.max() << "\n";
            continue;
        }
        if (!e->help.empty())
            os << "# HELP " << base << " " << e->help << "\n";
        os << "# TYPE " << base << " " << type << "\n"
           << base << " " << e->value() << "\n";
    }
    return os.str();
}

} // namespace laoram::obs
