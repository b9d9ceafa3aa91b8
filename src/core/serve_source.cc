#include "core/serve_source.hh"

#include <algorithm>

#include "util/logging.hh"

namespace laoram::core {

TraceSource::TraceSource(const std::vector<BlockId> &trace,
                         std::uint64_t windowAccesses,
                         std::uint64_t firstWindowIndex)
    : trace(trace),
      window(windowAccesses == 0
                 ? std::max<std::uint64_t>(trace.size(), 1)
                 : windowAccesses),
      firstWindow(firstWindowIndex),
      known{trace.data(), trace.size(), window, firstWindowIndex}
{
}

std::uint64_t
TraceSource::numWindows() const
{
    return (trace.size() + window - 1) / window;
}

bool
TraceSource::nextWindow(SourceWindow &out)
{
    // A single atomic ticket keeps indices contiguous under any
    // number of claiming threads; the slice copy is what decouples
    // the window's lifetime from this source (a few KiB per window,
    // negligible next to the preprocessing it feeds).
    const std::uint64_t w =
        nextIndex.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t start = w * window;
    if (start >= trace.size())
        return false;
    const std::uint64_t stop =
        std::min<std::uint64_t>(start + window, trace.size());
    // Resumed streams continue the original numbering: window index
    // and trace offset are both rebased past the windows the engine
    // already served before its checkpoint.
    out.windowIndex = firstWindow + w;
    out.traceOffset = firstWindow * window + start;
    out.accesses.assign(trace.begin() + start, trace.begin() + stop);
    out.stream = &known;
    return true;
}

} // namespace laoram::core
