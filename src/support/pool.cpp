#include "support/pool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <memory>

#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace isamore {

std::optional<size_t>
parseCount(std::string_view text, bool allowZero)
{
    if (text.empty() || !std::all_of(text.begin(), text.end(), [](char c) {
            return c >= '0' && c <= '9';
        })) {
        return std::nullopt;
    }
    size_t value = 0;
    const auto result =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (result.ec != std::errc() || (value == 0 && !allowZero)) {
        return std::nullopt;  // overflow, or a refused zero
    }
    return value;
}

std::optional<size_t>
parseThreadCount(std::string_view text)
{
    return parseCount(text, /*allowZero=*/false);
}

size_t
ThreadPool::defaultThreadCount()
{
    if (const char* env = std::getenv("ISAMORE_THREADS"); env != nullptr) {
        if (const std::optional<size_t> count = parseThreadCount(env)) {
            return *count;
        }
    }
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : static_cast<size_t>(hardware);
}

ThreadPool::ThreadPool(size_t threads)
    : lanes_(threads == 0 ? defaultThreadCount() : threads)
{
    if (lanes_ <= 1) {
        lanes_ = 1;
        counters_ = std::make_unique<LaneCounters[]>(1);
        return;
    }
    counters_ = std::make_unique<LaneCounters[]>(lanes_);
    deques_ = std::make_unique<Deque[]>(lanes_);
    workers_.reserve(lanes_ - 1);
    for (size_t lane = 1; lane < lanes_; ++lane) {
        workers_.emplace_back([this, lane] { workerMain(lane); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        stop_ = true;
    }
    wakeCv_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

bool
ThreadPool::popOwn(Deque& deque, size_t& out)
{
    // Owner end (bottom).  Slots are preloaded and read-only during the
    // job, so only the top/bottom indices need synchronization.
    const int64_t b = deque.bottom.load(std::memory_order_seq_cst) - 1;
    deque.bottom.store(b, std::memory_order_seq_cst);
    int64_t t = deque.top.load(std::memory_order_seq_cst);
    if (t > b) {
        // Empty: restore and fail.
        deque.bottom.store(b + 1, std::memory_order_seq_cst);
        return false;
    }
    out = deque.items[static_cast<size_t>(b)];
    if (t == b) {
        // Last item: race the thieves for it.
        const bool won = deque.top.compare_exchange_strong(
            t, t + 1, std::memory_order_seq_cst);
        deque.bottom.store(b + 1, std::memory_order_seq_cst);
        return won;
    }
    return true;
}

bool
ThreadPool::steal(Deque& deque, size_t& out)
{
    int64_t t = deque.top.load(std::memory_order_seq_cst);
    const int64_t b = deque.bottom.load(std::memory_order_seq_cst);
    if (t >= b) {
        return false;
    }
    out = deque.items[static_cast<size_t>(t)];
    return deque.top.compare_exchange_strong(t, t + 1,
                                             std::memory_order_seq_cst);
}

void
ThreadPool::execute(size_t index)
{
    try {
        (*body_)(index);
    } catch (...) {
        std::lock_guard<std::mutex> lock(errorMutex_);
        if (!error_) {
            error_ = std::current_exception();
        }
    }
}

void
ThreadPool::runLane(size_t lane)
{
    size_t index;
    LaneCounters& counters = counters_[lane];
    while (true) {
        if (popOwn(deques_[lane], index)) {
            counters.tasks.fetch_add(1, std::memory_order_relaxed);
            execute(index);
            continue;
        }
        // Own deque drained: sweep the other lanes for leftovers.  No new
        // tasks appear mid-job and owners always drain their own deques,
        // so bailing out of the sweep (even on a lost steal race) cannot
        // strand work.
        bool stole = false;
        for (size_t k = 1; k < lanes_; ++k) {
            if (steal(deques_[(lane + k) % lanes_], index)) {
                counters.tasks.fetch_add(1, std::memory_order_relaxed);
                counters.steals.fetch_add(1, std::memory_order_relaxed);
                execute(index);
                stole = true;
                break;
            }
        }
        if (!stole) {
            return;
        }
    }
}

void
ThreadPool::workerMain(size_t lane)
{
    uint64_t seen = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(wakeMutex_);
            wakeCv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
            if (stop_) {
                return;
            }
            seen = epoch_;
        }
        // Adopt the submitter's request sink for this job (published
        // before the epoch bump, so the wait above orders the read), and
        // drop it before joining: a worker must never hold a sink past
        // the job that installed it.
        telemetry::setThreadRequestSink(jobSink_);
        runLane(lane);
        telemetry::setThreadRequestSink(nullptr);
        // Check back in.  The submitter returns only after every worker
        // joined the epoch, so no stale thief can still be sweeping the
        // deques when the next job is preloaded.
        {
            std::lock_guard<std::mutex> lock(doneMutex_);
            ++joined_;
        }
        doneCv_.notify_one();
    }
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)>& body)
{
    if (n == 0) {
        return;
    }
    if (lanes_ <= 1 || n == 1) {
        for (size_t i = 0; i < n; ++i) {
            body(i);
        }
        counters_[0].tasks.fetch_add(n, std::memory_order_relaxed);
        return;
    }

    std::lock_guard<std::mutex> submit(submitMutex_);
    ISAMORE_CHECK_MSG(!inParallelFor_,
                      "nested ThreadPool::parallelFor would deadlock");
    inParallelFor_ = true;

    // Preload the index range block-wise: lane L starts on block L and
    // steals from its neighbours once it drains.
    for (size_t lane = 0; lane < lanes_; ++lane) {
        Deque& deque = deques_[lane];
        const size_t begin = lane * n / lanes_;
        const size_t end = (lane + 1) * n / lanes_;
        deque.items.resize(std::max<size_t>(1, end - begin));
        for (size_t i = begin; i < end; ++i) {
            deque.items[i - begin] = i;
        }
        deque.top.store(0, std::memory_order_seq_cst);
        deque.bottom.store(static_cast<int64_t>(end - begin),
                           std::memory_order_seq_cst);
    }
    body_ = &body;
    jobSink_ = telemetry::threadRequestSink();
    error_ = nullptr;
    joined_ = 0;

    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        ++epoch_;
    }
    wakeCv_.notify_all();

    // The submitting thread is lane 0; afterwards wait for every worker
    // to finish the epoch (all work is claimed and executed by then).
    runLane(0);
    {
        std::unique_lock<std::mutex> lock(doneMutex_);
        doneCv_.wait(lock, [&] { return joined_ == lanes_ - 1; });
    }
    body_ = nullptr;
    jobSink_ = nullptr;
    inParallelFor_ = false;
    if (error_) {
        std::exception_ptr error = error_;
        error_ = nullptr;
        std::rethrow_exception(error);
    }
}

PoolStats
ThreadPool::stats() const
{
    PoolStats out;
    out.lanes = lanes_;
    out.perLaneTasks.reserve(lanes_);
    out.perLaneSteals.reserve(lanes_);
    for (size_t lane = 0; lane < lanes_; ++lane) {
        const uint64_t tasks =
            counters_[lane].tasks.load(std::memory_order_relaxed);
        const uint64_t steals =
            counters_[lane].steals.load(std::memory_order_relaxed);
        out.perLaneTasks.push_back(tasks);
        out.perLaneSteals.push_back(steals);
        out.tasks += tasks;
        out.steals += steals;
    }
    return out;
}

namespace {

std::mutex g_poolMutex;
std::unique_ptr<ThreadPool> g_pool;
size_t g_requestedThreads = 0;  // 0 = default

}  // namespace

ThreadPool&
globalPool()
{
    std::lock_guard<std::mutex> lock(g_poolMutex);
    const size_t want = g_requestedThreads == 0
                            ? ThreadPool::defaultThreadCount()
                            : g_requestedThreads;
    if (!g_pool || g_pool->threadCount() != want) {
        g_pool.reset();  // join the old workers before respawning
        g_pool = std::make_unique<ThreadPool>(want);
    }
    return *g_pool;
}

void
setGlobalThreads(size_t threads)
{
    std::lock_guard<std::mutex> lock(g_poolMutex);
    g_requestedThreads = threads;
}

size_t
globalThreadCount()
{
    std::lock_guard<std::mutex> lock(g_poolMutex);
    if (g_requestedThreads != 0) {
        return g_requestedThreads;
    }
    return ThreadPool::defaultThreadCount();
}

}  // namespace isamore
