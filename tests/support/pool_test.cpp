/** Tests for the work-stealing thread pool (support/pool). */
#include "support/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/check.hpp"

namespace isamore {
namespace {

TEST(PoolTest, SingleLanePoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    pool.parallelFor(5, [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(PoolTest, EveryIndexRunsExactlyOnce)
{
    ThreadPool pool(4);
    constexpr size_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(kN, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(PoolTest, SkewedTasksAreStolen)
{
    // One heavy block plus many light ones: with stealing, all indices
    // still run exactly once and the sum is exact.
    ThreadPool pool(4);
    constexpr size_t kN = 512;
    std::atomic<size_t> sum{0};
    pool.parallelFor(kN, [&](size_t i) {
        size_t work = (i == 0) ? 20000 : 10;
        size_t acc = 0;
        for (size_t k = 0; k < work; ++k) {
            acc += k;
        }
        sum.fetch_add(i + (acc & 1), std::memory_order_relaxed);
    });
    EXPECT_GE(sum.load(), kN * (kN - 1) / 2);
}

TEST(PoolTest, ParallelMapCollectsByIndex)
{
    ThreadPool pool(3);
    auto out = pool.parallelMap<size_t>(100, [](size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], i * i);
    }
}

TEST(PoolTest, FirstExceptionIsRethrownAfterCompletion)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64);
    EXPECT_THROW(
        pool.parallelFor(64,
                         [&](size_t i) {
                             hits[i].fetch_add(1);
                             if (i == 7) {
                                 throw std::runtime_error("boom");
                             }
                         }),
        std::runtime_error);
    // Remaining tasks still ran: the throw cancels nothing.
    for (size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
    // The pool is reusable after an exceptional job.
    std::atomic<size_t> count{0};
    pool.parallelFor(16, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 16u);
}

TEST(PoolTest, BackToBackJobsReuseWorkers)
{
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        std::atomic<size_t> sum{0};
        pool.parallelFor(97, [&](size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        ASSERT_EQ(sum.load(), 97u * 96u / 2u) << "round " << round;
    }
}

TEST(PoolTest, ZeroAndOneTaskJobs)
{
    ThreadPool pool(4);
    size_t ran = 0;
    pool.parallelFor(0, [&](size_t) { ++ran; });
    EXPECT_EQ(ran, 0u);
    pool.parallelFor(1, [&](size_t i) {
        EXPECT_EQ(i, 0u);
        ++ran;
    });
    EXPECT_EQ(ran, 1u);
}

TEST(PoolTest, MoreLanesThanTasks)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    pool.parallelFor(3, [&](size_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(PoolTest, DefaultThreadCountHonorsEnvironment)
{
    unsetenv("ISAMORE_THREADS");
    const size_t hardware = ThreadPool::defaultThreadCount();
    EXPECT_GE(hardware, 1u);
    setenv("ISAMORE_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
    // Anything parseThreadCount rejects falls back to the hardware count.
    for (const char* bad : {"not-a-number", "-1", "0"}) {
        setenv("ISAMORE_THREADS", bad, 1);
        EXPECT_EQ(ThreadPool::defaultThreadCount(), hardware) << bad;
    }
    unsetenv("ISAMORE_THREADS");
}

TEST(PoolTest, ParseThreadCountAcceptsPositiveDecimalsOnly)
{
    EXPECT_EQ(parseThreadCount("1"), std::optional<size_t>(1));
    EXPECT_EQ(parseThreadCount("4"), std::optional<size_t>(4));
    EXPECT_EQ(parseThreadCount("016"), std::optional<size_t>(16));
    for (const char* bad : {"", "0", "00", "-1", "-0", "+2", " 2", "2 ",
                            "2x", "0x4", "1.5", "four",
                            "99999999999999999999999"}) {
        EXPECT_EQ(parseThreadCount(bad), std::nullopt) << '"' << bad << '"';
    }
}

TEST(PoolTest, ParseCountIsStrictAndGatesZero)
{
    // Every count flag of the tools goes through parseCount, so a sign,
    // a space or a suffix is refused rather than wrapped or truncated:
    // strtoul would read "-1" as 2^64-1.
    for (const bool allowZero : {false, true}) {
        EXPECT_EQ(parseCount("1", allowZero), std::optional<size_t>(1));
        EXPECT_EQ(parseCount("250", allowZero),
                  std::optional<size_t>(250));
        for (const char* bad : {"-1", "+1", " 1", "1x", "",
                                "999999999999999999999"}) {
            EXPECT_EQ(parseCount(bad, allowZero), std::nullopt)
                << '"' << bad << "\" allowZero=" << allowZero;
        }
    }
    EXPECT_EQ(parseCount("0", /*allowZero=*/false), std::nullopt);
    EXPECT_EQ(parseCount("0", /*allowZero=*/true),
              std::optional<size_t>(0));
}

TEST(PoolTest, GlobalPoolResizes)
{
    setGlobalThreads(2);
    EXPECT_EQ(globalThreadCount(), 2u);
    EXPECT_EQ(globalPool().threadCount(), 2u);
    setGlobalThreads(3);
    EXPECT_EQ(globalPool().threadCount(), 3u);
    setGlobalThreads(0);  // back to the default
}

}  // namespace
}  // namespace isamore
