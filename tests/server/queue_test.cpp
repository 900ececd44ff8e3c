#include "server/queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace isamore {
namespace server {
namespace {

TEST(BoundedQueueTest, CapacityIsExact)
{
    for (const size_t capacity : {1u, 2u, 3u, 64u, 65u}) {
        BoundedQueue<int> queue(capacity);
        EXPECT_EQ(queue.capacity(), capacity);
        for (size_t i = 0; i < capacity; ++i) {
            EXPECT_TRUE(queue.tryPush(int(i)));
        }
        EXPECT_FALSE(queue.tryPush(-1)) << "capacity " << capacity;
    }
}

TEST(BoundedQueueTest, FifoWithinCapacity)
{
    BoundedQueue<int> queue(8);
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(queue.tryPush(int(i)));
    }
    int out = -1;
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(queue.tryPop(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_FALSE(queue.tryPop(out));
}

TEST(BoundedQueueTest, PushFailsWhenFullAndValueSurvives)
{
    BoundedQueue<std::string> queue(2);
    EXPECT_TRUE(queue.tryPush("a"));
    EXPECT_TRUE(queue.tryPush("b"));
    // The rejected value must be untouched: the server answers the shed
    // request from it.
    std::string shed = "overflow";
    EXPECT_FALSE(queue.tryPush(std::move(shed)));
    EXPECT_EQ(shed, "overflow");

    std::string out;
    EXPECT_TRUE(queue.tryPop(out));
    EXPECT_EQ(out, "a");
    // Space again: the ring recycles cells across laps.
    EXPECT_TRUE(queue.tryPush(std::move(shed)));
}

TEST(BoundedQueueTest, RecyclesAcrossManyLaps)
{
    BoundedQueue<int> queue(4);
    int out = -1;
    for (int lap = 0; lap < 1000; ++lap) {
        EXPECT_TRUE(queue.tryPush(int(lap)));
        EXPECT_TRUE(queue.tryPop(out));
        EXPECT_EQ(out, lap);
    }
}

TEST(BoundedQueueTest, WaitPopTimesOutOnEmpty)
{
    BoundedQueue<int> queue(4);
    int out = -1;
    EXPECT_FALSE(queue.waitPop(out, std::chrono::milliseconds(10)));
}

TEST(BoundedQueueTest, WaitPopSeesConcurrentPush)
{
    BoundedQueue<int> queue(4);
    int out = -1;
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_TRUE(queue.tryPush(42));
    });
    EXPECT_TRUE(queue.waitPop(out, std::chrono::seconds(10)));
    EXPECT_EQ(out, 42);
    producer.join();
}

TEST(BoundedQueueTest, InterruptWakesParkedConsumer)
{
    BoundedQueue<int> queue(4);
    std::atomic<bool> woke{false};
    std::thread consumer([&] {
        int out = -1;
        EXPECT_FALSE(queue.waitPop(out, std::chrono::seconds(60)));
        woke.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.interrupt();
    consumer.join();
    EXPECT_TRUE(woke.load());
}

TEST(BoundedQueueTest, InterruptedWaitPopStillDrainsBacklog)
{
    // Shutdown contract: after interrupt(), queued items keep coming out
    // until the ring is empty -- only then does waitPop return false.
    BoundedQueue<int> queue(8);
    EXPECT_TRUE(queue.tryPush(1));
    EXPECT_TRUE(queue.tryPush(2));
    queue.interrupt();
    int out = -1;
    EXPECT_TRUE(queue.waitPop(out, std::chrono::milliseconds(50)));
    EXPECT_EQ(out, 1);
    EXPECT_TRUE(queue.waitPop(out, std::chrono::milliseconds(50)));
    EXPECT_EQ(out, 2);
    EXPECT_FALSE(queue.waitPop(out, std::chrono::milliseconds(50)));
}

TEST(BoundedQueueTest, MpmcStressDeliversEveryItemExactlyOnce)
{
    // 4 producers x 4 consumers over a small ring: every pushed value
    // must be popped exactly once, with per-producer FIFO preserved.
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 5000;
    BoundedQueue<int> queue(16);

    std::atomic<int> consumed{0};
    std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
    std::vector<std::vector<int>> perConsumer(kConsumers);

    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                int value = p * kPerProducer + i;
                while (!queue.tryPush(std::move(value))) {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&, c] {
            int out = -1;
            while (consumed.load(std::memory_order_relaxed) <
                   kProducers * kPerProducer) {
                if (queue.tryPop(out)) {
                    consumed.fetch_add(1, std::memory_order_relaxed);
                    seen[static_cast<size_t>(out)].fetch_add(1);
                    perConsumer[static_cast<size_t>(c)].push_back(out);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }

    for (size_t i = 0; i < seen.size(); ++i) {
        ASSERT_EQ(seen[i].load(), 1) << "value " << i;
    }
    // Per-producer FIFO: within one consumer's stream, two values from
    // the same producer must appear in production order.
    for (const std::vector<int>& stream : perConsumer) {
        std::vector<int> lastFrom(kProducers, -1);
        for (int value : stream) {
            const int producer = value / kPerProducer;
            EXPECT_LT(lastFrom[static_cast<size_t>(producer)], value);
            lastFrom[static_cast<size_t>(producer)] = value;
        }
    }
}

}  // namespace
}  // namespace server
}  // namespace isamore
