/**
 * @file
 * Bounded FIFO queue: the server's request channel.
 *
 * One mutex guards a deque holding at most `capacity` items.  tryPush
 * never blocks and fails when the queue is full -- that failure IS the
 * server's backpressure signal, surfaced to clients as
 * `status:"overloaded"`.  waitPop parks a consumer on a condition
 * variable until an item arrives, its patience runs out, or interrupt()
 * is called, so an idle server parks its session lanes instead of
 * spinning.  The server has one producer (the reader thread) and a few
 * lanes, each holding the lock only to move one request, so a lock-free
 * ring has no contention to remove.
 */
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "support/check.hpp"

namespace isamore {
namespace server {

template <typename T>
class BoundedQueue {
 public:
    /** A queue holding at most @p capacity (>= 1) items. */
    explicit BoundedQueue(size_t capacity) : capacity_(capacity)
    {
        ISAMORE_CHECK_MSG(capacity > 0, "queue capacity must be positive");
    }

    size_t capacity() const { return capacity_; }

    /**
     * Enqueue @p value.  Returns false -- without blocking and without
     * touching @p value -- when the queue is full; the caller turns that
     * into an explicit overload response.
     */
    bool
    tryPush(T&& value)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (items_.size() >= capacity_) {
                return false;
            }
            items_.push_back(std::move(value));
        }
        ready_.notify_one();
        return true;
    }

    /** Dequeue into @p out.  Returns false when the queue is empty. */
    bool
    tryPop(T& out)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return popLocked(out);
    }

    /**
     * Dequeue, parking until an item arrives, @p patience passes, or
     * interrupt() is called.  Returns false on timeout/interrupt with the
     * queue still empty: after interrupt() the backlog still drains.
     */
    bool
    waitPop(T& out, std::chrono::milliseconds patience)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait_for(lock, patience,
                        [&] { return !items_.empty() || interrupted_; });
        return popLocked(out);
    }

    /** Wake every parked consumer (shutdown path). */
    void
    interrupt()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            interrupted_ = true;
        }
        ready_.notify_all();
    }

    BoundedQueue(const BoundedQueue&) = delete;
    BoundedQueue& operator=(const BoundedQueue&) = delete;

 private:
    bool
    popLocked(T& out)
    {
        if (items_.empty()) {
            return false;
        }
        out = std::move(items_.front());
        items_.pop_front();
        return true;
    }

    const size_t capacity_;
    std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<T> items_;       // guarded by mutex_
    bool interrupted_ = false;  // guarded by mutex_
};

}  // namespace server
}  // namespace isamore
