/**
 * @file
 * A shared work-stealing thread pool for the AU pair sweep, the
 * pipeline's one embarrassingly parallel phase.
 *
 * Each lane (the calling thread plus N-1 persistent workers) owns a
 * Chase--Lev-style deque of task indices: the owner pushes and pops at
 * the bottom, idle lanes steal from the top.  parallelFor() preloads the
 * index range block-wise across the lanes -- a lane starts on its own
 * contiguous block (good locality for chunked sweeps) and steals from its
 * neighbours once it drains -- so the pool load-balances skewed workloads
 * without a central queue.
 *
 * Determinism contract: parallelFor(n, body) invokes body(i) exactly once
 * for every i in [0, n), in an unspecified order and from unspecified
 * threads.  Callers that need deterministic output must make each body(i)
 * independent and merge results by index afterwards (see rii/au.cpp).
 * Results then do not depend on the thread count.
 *
 * Thread-count resolution: the process-global pool is sized from, in
 * priority order, setGlobalThreads() (the CLI's --threads flag), the
 * ISAMORE_THREADS environment variable, and the hardware concurrency.
 * A size of 1 (or a 1-core host) degrades every parallelFor to a plain
 * serial loop -- no threads are ever spawned and the only atomic touched
 * is one task-counter add per job (see PoolStats).
 *
 * The pool runs one parallelFor at a time (a mutex serializes concurrent
 * submitters); nested parallelFor from inside a task would deadlock and
 * is checked against in debug builds by the reentrancy flag.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

namespace isamore {

namespace telemetry {
class RequestSink;
}  // namespace telemetry

/**
 * Cumulative work accounting for one ThreadPool since construction.
 * `tasks` counts body(i) invocations per lane (serial fallbacks charge
 * lane 0); `steals` counts the subset a lane claimed from another lane's
 * deque.  Values are relaxed-atomic snapshots: exact at quiescent points,
 * approximate while a job runs.  Steal counts depend on scheduling and
 * are NOT deterministic across runs or thread counts.
 */
struct PoolStats {
    size_t lanes = 1;
    uint64_t tasks = 0;
    uint64_t steals = 0;
    std::vector<uint64_t> perLaneTasks;
    std::vector<uint64_t> perLaneSteals;
};

class ThreadPool {
 public:
    /**
     * Create a pool with @p threads lanes (caller + threads-1 workers).
     * 0 means defaultThreadCount().  A single-lane pool spawns nothing.
     */
    explicit ThreadPool(size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of lanes (worker threads + the submitting thread). */
    size_t threadCount() const { return lanes_; }

    /**
     * Run body(i) for every i in [0, n), distributing the indices across
     * the lanes with work stealing; blocks until all calls returned.  The
     * first exception a task throws is rethrown here after the remaining
     * tasks finish.
     */
    void parallelFor(size_t n, const std::function<void(size_t)>& body);

    /** parallelFor that collects fn(i) into a vector indexed by i. */
    template <typename T, typename F>
    std::vector<T>
    parallelMap(size_t n, F&& fn)
    {
        std::vector<T> out(n);
        parallelFor(n, [&](size_t i) { out[i] = fn(i); });
        return out;
    }

    /** ISAMORE_THREADS if it parses (parseThreadCount), else the
     *  hardware concurrency. */
    static size_t defaultThreadCount();

    /** Snapshot the cumulative task/steal counters (see PoolStats). */
    PoolStats stats() const;

 private:
    /**
     * Chase--Lev deque of task indices, preloaded before a job starts.
     * Slots are never rewritten while a job runs, so pop/steal only race
     * on top/bottom (plain seq_cst atomics; no standalone fences, which
     * keeps TSan able to see every ordering edge).
     */
    struct alignas(64) Deque {
        std::vector<size_t> items;
        std::atomic<int64_t> top{0};
        std::atomic<int64_t> bottom{0};
    };

    /**
     * Per-lane work counters, cache-line separated so the hot-loop
     * increments never share a line across lanes.  Always-on relaxed
     * adds: the cost is one uncontended add per executed task, which the
     * bench harness showed is noise next to the task bodies themselves.
     */
    struct alignas(64) LaneCounters {
        std::atomic<uint64_t> tasks{0};
        std::atomic<uint64_t> steals{0};
    };

    bool popOwn(Deque& deque, size_t& out);
    bool steal(Deque& deque, size_t& out);
    void runLane(size_t lane);
    void execute(size_t index);
    void workerMain(size_t lane);

    size_t lanes_ = 1;
    std::vector<std::thread> workers_;
    std::unique_ptr<Deque[]> deques_;  // atomics make Deque non-movable
    std::unique_ptr<LaneCounters[]> counters_;  // one per lane, always set

    // Job slot (one job at a time; submitMutex_ serializes submitters).
    std::mutex submitMutex_;
    bool inParallelFor_ = false;  // reentrancy check
    const std::function<void(size_t)>* body_ = nullptr;
    /** The submitter's per-request telemetry sink, forwarded to worker
     *  lanes for the job's duration so spans closed on workers still
     *  attribute to the request being served (see telemetry.hpp). */
    telemetry::RequestSink* jobSink_ = nullptr;
    std::mutex errorMutex_;
    std::exception_ptr error_;

    // Worker wakeup: epoch bump announces a new job, stop_ shuts down.
    std::mutex wakeMutex_;
    std::condition_variable wakeCv_;
    uint64_t epoch_ = 0;
    bool stop_ = false;

    // Completion signal back to the submitter: a worker "joins" an epoch
    // once it has fully drained its lane and stopped touching the deques.
    std::mutex doneMutex_;
    std::condition_variable doneCv_;
    size_t joined_ = 0;  // guarded by doneMutex_
};

/**
 * Parse a count flag value: decimal digits only (no sign, no spaces),
 * no overflow, and nonzero unless @p allowZero.
 * @return the count, or nullopt when @p text is anything else.
 */
std::optional<size_t> parseCount(std::string_view text, bool allowZero);

/** parseCount() of a thread count as given to --threads or
 *  ISAMORE_THREADS (zero refused). */
std::optional<size_t> parseThreadCount(std::string_view text);

/**
 * The process-global pool.  First use creates it with
 * defaultThreadCount() lanes unless setGlobalThreads() ran earlier.
 */
ThreadPool& globalPool();

/**
 * Resize the global pool (0 = back to the default).  Takes effect on the
 * next globalPool() call; must not run concurrently with work on the
 * pool.  The CLI maps --threads onto this.
 */
void setGlobalThreads(size_t threads);

/** Lane count the next globalPool() call will have. */
size_t globalThreadCount();

}  // namespace isamore
