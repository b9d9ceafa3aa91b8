/**
 * @file
 * ReorderWindow tests: strict in-sequence delivery under out-of-order
 * arrival, window-full backpressure, shutdown-while-pending drain
 * semantics, release-token unwind, the consumer stall accounting the
 * pipeline report surfaces, and the live buffered-level gauge.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/reorder_window.hh"
#include "obs/metrics.hh"

namespace laoram::core {
namespace {

/**
 * Pop the next item and wake blocked producers at once: popDeferred
 * with its release token dropped on return.
 */
template <typename T>
bool
popNext(ReorderWindow<T> &window, T &out)
{
    typename ReorderWindow<T>::ReleaseToken token;
    return window.popDeferred(out, token);
}

TEST(ReorderWindow, OutOfOrderArrivalDeliversInSequence)
{
    ReorderWindow<int> window(4);
    // Arrivals scrambled within the capacity bound.
    EXPECT_TRUE(window.push(2, 102));
    EXPECT_TRUE(window.push(0, 100));
    EXPECT_TRUE(window.push(3, 103));
    EXPECT_TRUE(window.push(1, 101));

    int out = 0;
    for (int seq = 0; seq < 4; ++seq) {
        ASSERT_TRUE(popNext(window, out));
        EXPECT_EQ(out, 100 + seq);
    }
    EXPECT_EQ(window.size(), 0u);
    EXPECT_EQ(window.nextSequence(), 4u);
    EXPECT_EQ(window.stats().delivered, 4u);
}

TEST(ReorderWindow, ConsumerBlocksOnSequenceGapUntilItArrives)
{
    ReorderWindow<int> window(4);
    ASSERT_TRUE(window.push(1, 11));
    ASSERT_TRUE(window.push(2, 12));

    std::atomic<bool> popping{false};
    std::atomic<int> delivered{0};
    std::thread consumer([&] {
        int out = 0;
        for (int seq = 0; seq < 3; ++seq) {
            popping.store(true, std::memory_order_release);
            ASSERT_TRUE(popNext(window, out));
            EXPECT_EQ(out, 10 + seq);
            delivered.fetch_add(1, std::memory_order_relaxed);
        }
    });

    // Handshake: wait for the consumer to reach popNext(), then give it
    // time to enter the gap wait (nothing is deliverable while 0 is
    // missing — that part is deterministic regardless of timing).
    while (!popping.load(std::memory_order_acquire))
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(delivered.load(), 0);

    ASSERT_TRUE(window.push(0, 10));
    consumer.join();
    EXPECT_EQ(delivered.load(), 3);

    // The gap wait happened while items 1 and 2 sat buffered, so it
    // must be classified as head-of-line (reorder) stall.
    const auto st = window.stats();
    EXPECT_GT(st.popWaitNs, 0);
    EXPECT_GT(st.headOfLineWaitNs, 0);
    EXPECT_LE(st.headOfLineWaitNs, st.popWaitNs);
    EXPECT_GE(st.headOfLineWaits, 1u);
    EXPECT_EQ(st.maxOccupancy, 3u);
}

TEST(ReorderWindow, FullWindowExertsBackpressure)
{
    ReorderWindow<int> window(2);
    ASSERT_TRUE(window.push(0, 0));
    ASSERT_TRUE(window.push(1, 1));

    // Sequence 2 is capacity ahead of the cursor: the producer must
    // block until the consumer vacates sequence 0.
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(window.push(2, 2));
        pushed.store(true, std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load(std::memory_order_acquire));

    int out = -1;
    ASSERT_TRUE(popNext(window, out));
    EXPECT_EQ(out, 0);
    producer.join();
    EXPECT_TRUE(pushed.load());

    ASSERT_TRUE(popNext(window, out));
    EXPECT_EQ(out, 1);
    ASSERT_TRUE(popNext(window, out));
    EXPECT_EQ(out, 2);
}

TEST(ReorderWindow, LowestOutstandingSequenceIsAlwaysAdmitted)
{
    // The deadlock-freedom invariant: the producer holding the
    // consumer's cursor sequence never blocks, even on a window
    // whose later slots are all taken.
    ReorderWindow<int> window(3);
    ASSERT_TRUE(window.push(1, 1));
    ASSERT_TRUE(window.push(2, 2));
    ASSERT_TRUE(window.push(0, 0)); // must not block
    int out = -1;
    for (int seq = 0; seq < 3; ++seq) {
        ASSERT_TRUE(popNext(window, out));
        EXPECT_EQ(out, seq);
    }
}

TEST(ReorderWindow, ShutdownDrainsContiguousPrefixThenStops)
{
    ReorderWindow<int> window(8);
    // Contiguous 0..2 buffered, then a gap at 3, then 4 and 5.
    ASSERT_TRUE(window.push(0, 0));
    ASSERT_TRUE(window.push(1, 1));
    ASSERT_TRUE(window.push(2, 2));
    ASSERT_TRUE(window.push(4, 4));
    ASSERT_TRUE(window.push(5, 5));
    window.close();

    // Push after close fails.
    EXPECT_FALSE(window.push(3, 3));

    // The in-order prefix drains; the first gap ends the stream even
    // though later items sit buffered (they can never be delivered
    // deterministically).
    int out = -1;
    for (int seq = 0; seq < 3; ++seq) {
        ASSERT_TRUE(popNext(window, out));
        EXPECT_EQ(out, seq);
    }
    EXPECT_FALSE(popNext(window, out));
    EXPECT_EQ(window.stats().delivered, 3u);
}

TEST(ReorderWindow, DestroyedLeftoversLeaveTheBufferedGauge)
{
    // A failed run closes its window with undeliverable items still
    // buffered; destroying the window must take them off the
    // process-wide level, or every failed run inflates it for good.
    obs::setMetricsEnabled(true);
    const obs::Gauge &buffered = obs::MetricsRegistry::instance().gauge(
        "pipeline.reorder.buffered");
    const std::int64_t before = buffered.get();
    {
        ReorderWindow<int> window(4);
        ASSERT_TRUE(window.push(1, 7));
        window.close();
        EXPECT_EQ(buffered.get(), before + 1);
    }
    EXPECT_EQ(buffered.get(), before);
    obs::setMetricsEnabled(false);
}

TEST(ReorderWindow, CloseWakesBlockedProducerAndConsumer)
{
    ReorderWindow<int> window(1);
    ASSERT_TRUE(window.push(0, 0));

    std::thread producer([&] {
        // Blocked: sequence 1 is capacity ahead.
        EXPECT_FALSE(window.push(1, 1));
    });
    std::thread closer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        window.close();
    });
    producer.join();
    closer.join();

    // Buffered sequence 0 still drains after close.
    int out = -1;
    EXPECT_TRUE(popNext(window, out));
    EXPECT_EQ(out, 0);
    EXPECT_FALSE(popNext(window, out));
}

TEST(ReorderWindow, ReleaseTokenWakesProducerOnUnwind)
{
    ReorderWindow<int> window(1);
    ASSERT_TRUE(window.push(0, 10));

    std::thread producer([&] { EXPECT_TRUE(window.push(1, 11)); });

    auto consumeAndThrow = [&] {
        int out = 0;
        ReorderWindow<int>::ReleaseToken token;
        ASSERT_TRUE(window.popDeferred(out, token));
        EXPECT_EQ(out, 10);
        EXPECT_TRUE(token.held());
        throw std::runtime_error("consumer died mid-window");
    };
    EXPECT_THROW(consumeAndThrow(), std::runtime_error);

    // Producer unblocks only if the unwound token freed the slot.
    producer.join();
    int out = 0;
    EXPECT_TRUE(popNext(window, out));
    EXPECT_EQ(out, 11);
}

TEST(ReorderWindow, ReleaseTokenMoveTransfersTheWakeup)
{
    ReorderWindow<int> window(1);
    ASSERT_TRUE(window.push(0, 7));

    int out = 0;
    ReorderWindow<int>::ReleaseToken token;
    ASSERT_TRUE(window.popDeferred(out, token));
    EXPECT_TRUE(token.held());

    ReorderWindow<int>::ReleaseToken moved(std::move(token));
    EXPECT_FALSE(token.held());
    EXPECT_TRUE(moved.held());
    moved.release();
    EXPECT_FALSE(moved.held());

    ASSERT_TRUE(window.push(1, 8));
    EXPECT_TRUE(popNext(window, out));
    EXPECT_EQ(out, 8);

    // Exhaustion leaves a popDeferred token empty.
    window.close();
    ReorderWindow<int>::ReleaseToken empty;
    EXPECT_FALSE(window.popDeferred(out, empty));
    EXPECT_FALSE(empty.held());
}

TEST(ReorderWindow, ManyProducersContendedDeliveryStaysOrdered)
{
    // The pipeline shape: producers claim sequence numbers
    // contiguously off an atomic ticket and push directly into the
    // window; the consumer must see 0, 1, 2, ... regardless of
    // scheduling.
    constexpr std::uint64_t kProducers = 8;
    constexpr std::uint64_t kTotal = 4000;

    ReorderWindow<std::uint64_t> window(4);
    std::atomic<std::uint64_t> ticket{0};
    std::atomic<std::uint64_t> live{kProducers};

    std::vector<std::thread> producers;
    for (std::uint64_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&] {
            while (true) {
                const std::uint64_t seq =
                    ticket.fetch_add(1, std::memory_order_relaxed);
                if (seq >= kTotal)
                    break;
                ASSERT_TRUE(window.push(seq, seq * 3));
            }
            if (live.fetch_sub(1, std::memory_order_acq_rel) == 1)
                window.close();
        });
    }

    std::uint64_t expect = 0;
    std::uint64_t out = 0;
    while (popNext(window, out)) {
        ASSERT_EQ(out, expect * 3) << "out of order at " << expect;
        ++expect;
    }
    EXPECT_EQ(expect, kTotal);

    for (auto &t : producers)
        t.join();
    EXPECT_LE(window.stats().maxOccupancy, window.capacity());
}

} // namespace
} // namespace laoram::core
