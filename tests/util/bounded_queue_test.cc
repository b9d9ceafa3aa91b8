/**
 * @file
 * BoundedQueue tests: MPMC stress for the serving-pool regime
 * (several producers and consumers on one queue), delivery into a
 * ReorderWindow across consumer unwinds, and end-of-stream drain.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/reorder_window.hh"
#include "util/bounded_queue.hh"

namespace laoram {
namespace {

/**
 * Pop the next item and wake blocked producers at once: popDeferred
 * with its release token dropped on return.
 */
template <typename T>
bool
popNext(core::ReorderWindow<T> &window, T &out)
{
    typename core::ReorderWindow<T>::ReleaseToken token;
    return window.popDeferred(out, token);
}

TEST(BoundedQueue, MultiProducerMultiConsumerDeliversEachItemOnce)
{
    constexpr std::uint64_t kProducers = 4;
    constexpr std::uint64_t kConsumers = 3;
    constexpr std::uint64_t kPerProducer = 5000;
    constexpr std::uint64_t kTotal = kProducers * kPerProducer;

    BoundedQueue<std::uint64_t> queue(4);
    std::atomic<std::uint64_t> produced{0};
    std::vector<std::uint8_t> seen(kTotal, 0);
    std::mutex seenMu;

    std::vector<std::thread> producers;
    for (std::uint64_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                ASSERT_TRUE(queue.push(p * kPerProducer + i));
                produced.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    std::vector<std::thread> consumers;
    std::atomic<std::uint64_t> consumed{0};
    for (std::uint64_t c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&] {
            std::uint64_t item = 0;
            while (queue.pop(item)) {
                {
                    std::lock_guard<std::mutex> lock(seenMu);
                    ASSERT_LT(item, kTotal);
                    ASSERT_EQ(seen[item], 0)
                        << "item " << item << " delivered twice";
                    seen[item] = 1;
                }
                consumed.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    for (auto &t : producers)
        t.join();
    queue.close();
    for (auto &t : consumers)
        t.join();

    EXPECT_EQ(produced.load(), kTotal);
    EXPECT_EQ(consumed.load(), kTotal);
    for (std::uint64_t i = 0; i < kTotal; ++i)
        ASSERT_EQ(seen[i], 1) << "item " << i << " lost";
}

TEST(BoundedQueue, ManyProducersReorderDeliveryAndTokenUnwindStress)
{
    // The multi-preprocessor hand-off under contention, end to end:
    // many producers claim contiguous sequence numbers and push them
    // through the MPMC queue (arrival order scrambles), one consumer
    // drains with pop() — periodically unwinding right after a
    // delivery — and forwards everything into a ReorderWindow,
    // which must restore exact sequence order. The window capacity
    // covers the whole stream because a single relay behind a queue
    // does not satisfy the reorder window's lowest-outstanding-
    // sequence admission invariant (see reorder_window.hh): a small
    // window could legitimately block the relay while the missing
    // sequence still sits in the queue.
    constexpr std::uint64_t kProducers = 6;
    constexpr std::uint64_t kTotal = 6000;

    BoundedQueue<std::uint64_t> queue(3);
    core::ReorderWindow<std::uint64_t> window(kTotal);
    std::atomic<std::uint64_t> ticket{0};

    std::vector<std::thread> producers;
    for (std::uint64_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&] {
            while (true) {
                const std::uint64_t seq =
                    ticket.fetch_add(1, std::memory_order_relaxed);
                if (seq >= kTotal)
                    break;
                ASSERT_TRUE(queue.push(seq));
            }
        });
    }

    std::thread consumer([&] {
        std::uint64_t drained = 0;
        while (true) {
            std::uint64_t seq = 0;
            bool got = false;
            auto popMaybeThrowing = [&] {
                got = queue.pop(seq);
                // Every 7th delivery unwinds: producers must not
                // strand on the vacated slot, and the popped item
                // must still be forwardable by the catch site below.
                if (got && drained % 7 == 3)
                    throw std::runtime_error("mid-window failure");
            };
            try {
                popMaybeThrowing();
            } catch (const std::runtime_error &) {
                // Unwound after the pop; the item is in `seq`.
            }
            if (!got)
                break;
            ++drained;
            ASSERT_TRUE(window.push(seq, seq));
        }
        window.close();
        EXPECT_EQ(drained, kTotal);
    });

    // End-of-stream plumbing: producers finish first, then the
    // closed queue lets the consumer drain out and close the window
    // (its kTotal capacity means the consumer never waits on the
    // checker below).
    for (auto &t : producers)
        t.join();
    queue.close();
    consumer.join();

    // Checker: strict sequence order out of the reorder stage.
    std::uint64_t expect = 0;
    std::uint64_t out = 0;
    while (popNext(window, out)) {
        ASSERT_EQ(out, expect) << "reorder delivered out of order";
        ++expect;
    }
    EXPECT_EQ(expect, kTotal);
}

TEST(BoundedQueue, CloseDrainsThenReportsExhaustion)
{
    BoundedQueue<int> queue(4);
    ASSERT_TRUE(queue.push(1));
    ASSERT_TRUE(queue.push(2));
    queue.close();

    EXPECT_FALSE(queue.push(3)); // closed: rejected

    int item = 0;
    EXPECT_TRUE(queue.pop(item));
    EXPECT_EQ(item, 1);
    EXPECT_TRUE(queue.pop(item));
    EXPECT_EQ(item, 2);
    EXPECT_FALSE(queue.pop(item)); // drained
    EXPECT_FALSE(queue.pop(item)); // exhaustion is sticky
}

} // namespace
} // namespace laoram
