/**
 * @file
 * A bounded, blocking, multi-producer multi-consumer queue — the
 * serving frontend's per-shard admission queue between client
 * sessions and the window coalescer.
 *
 * The bound is the admission backpressure: push() blocks a submitter
 * while the queue is full. close() lets producers signal
 * end-of-stream; pop() then drains the remaining items before
 * reporting exhaustion.
 */

#ifndef LAORAM_UTIL_BOUNDED_QUEUE_HH
#define LAORAM_UTIL_BOUNDED_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "util/logging.hh"

namespace laoram {

/** Bounded blocking FIFO; safe for concurrent push/pop/close. */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity) : cap(capacity)
    {
        LAORAM_ASSERT(capacity >= 1,
                      "queue capacity must be at least 1");
    }

    BoundedQueue(const BoundedQueue &) = delete;
    BoundedQueue &operator=(const BoundedQueue &) = delete;

    /**
     * Block until there is room, then enqueue @p item.
     *
     * @return false iff the queue was closed (item dropped)
     */
    bool
    push(T item)
    {
        std::unique_lock<std::mutex> lock(mu);
        notFull.wait(lock, [&] {
            return closed || items.size() < cap;
        });
        if (closed)
            return false;
        items.push_back(std::move(item));
        lock.unlock();
        notEmpty.notify_one();
        return true;
    }

    /**
     * Block until an item is available or the queue is closed and
     * drained.
     *
     * @return true with @p out filled, or false on exhaustion
     */
    bool
    pop(T &out)
    {
        std::unique_lock<std::mutex> lock(mu);
        notEmpty.wait(lock, [&] { return closed || !items.empty(); });
        if (items.empty())
            return false; // closed and drained
        out = std::move(items.front());
        items.pop_front();
        lock.unlock();
        notFull.notify_one();
        return true;
    }

    /** End-of-stream: wake all waiters; further push() calls fail. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            closed = true;
        }
        notFull.notify_all();
        notEmpty.notify_all();
    }

  private:
    std::mutex mu;
    std::condition_variable notFull;
    std::condition_variable notEmpty;
    std::deque<T> items;
    std::size_t cap;
    bool closed = false;
};

} // namespace laoram

#endif // LAORAM_UTIL_BOUNDED_QUEUE_HH
