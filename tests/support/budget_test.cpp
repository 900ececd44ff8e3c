#include "support/budget.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace isamore {
namespace {

TEST(BudgetTest, DefaultIsUnlimited)
{
    Budget budget;
    EXPECT_TRUE(budget.ok());
    EXPECT_FALSE(budget.expired());
    EXPECT_EQ(budget.stop(), BudgetStop::None);
    EXPECT_EQ(budget.effectiveStop(), BudgetStop::None);
    EXPECT_EQ(budget.remainingSeconds(), kUnlimitedSeconds);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_TRUE(budget.charge());
    }
    EXPECT_EQ(budget.usedUnits(), 1000u);
    EXPECT_TRUE(budget.ok());
}

TEST(BudgetTest, SpecUnlimitedPredicate)
{
    EXPECT_TRUE(BudgetSpec{}.unlimited());
    BudgetSpec limited;
    limited.maxUnits = 10;
    EXPECT_FALSE(limited.unlimited());
}

TEST(BudgetTest, UnitLimitTripsStrictlyAboveMax)
{
    BudgetSpec spec;
    spec.maxUnits = 3;
    Budget budget(spec);
    // Charges up to max succeed; the charge that *exceeds* max fails,
    // matching the historical `rawCandidates > maxCandidates` trip point.
    EXPECT_TRUE(budget.charge());
    EXPECT_TRUE(budget.charge());
    EXPECT_TRUE(budget.charge());
    EXPECT_TRUE(budget.ok());
    EXPECT_FALSE(budget.charge());
    EXPECT_FALSE(budget.ok());
    EXPECT_EQ(budget.stop(), BudgetStop::Units);
}

TEST(BudgetTest, TripIsSticky)
{
    BudgetSpec spec;
    spec.maxUnits = 1;
    Budget budget(spec);
    EXPECT_TRUE(budget.charge());
    EXPECT_FALSE(budget.charge());
    // Stays tripped regardless of later polls.
    EXPECT_TRUE(budget.expired());
    EXPECT_TRUE(budget.expired());
    EXPECT_FALSE(budget.charge());
    EXPECT_EQ(budget.stop(), BudgetStop::Units);
}

TEST(BudgetTest, ZeroDeadlineExpiresImmediately)
{
    BudgetSpec spec;
    spec.maxSeconds = 0.0;
    Budget budget(spec);
    EXPECT_TRUE(budget.expired());
    EXPECT_EQ(budget.stop(), BudgetStop::Deadline);
    EXPECT_EQ(budget.remainingSeconds(), 0.0);
}

TEST(BudgetTest, ChildChargePropagatesToParent)
{
    BudgetSpec parent_spec;
    parent_spec.maxUnits = 5;
    Budget parent(parent_spec);
    Budget child = parent.child(BudgetSpec{});

    // The child itself is unlimited but the parent's allowance bounds it.
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(child.charge());
    }
    EXPECT_FALSE(child.charge());
    EXPECT_EQ(parent.usedUnits(), 6u);
    EXPECT_EQ(parent.stop(), BudgetStop::Units);
    // The child's own counter never tripped, but effectiveStop sees the
    // ancestor's trip.
    EXPECT_EQ(child.stop(), BudgetStop::None);
    EXPECT_EQ(child.effectiveStop(), BudgetStop::Units);
    EXPECT_TRUE(child.expired());
}

TEST(BudgetTest, ChildTripsBeforeParentWhenTighter)
{
    BudgetSpec parent_spec;
    parent_spec.maxUnits = 100;
    Budget parent(parent_spec);
    BudgetSpec child_spec;
    child_spec.maxUnits = 2;
    Budget child = parent.child(child_spec);

    EXPECT_TRUE(child.charge());
    EXPECT_TRUE(child.charge());
    EXPECT_FALSE(child.charge());
    EXPECT_EQ(child.stop(), BudgetStop::Units);
    // The parent absorbed the charges but still has headroom.
    EXPECT_EQ(parent.usedUnits(), 3u);
    EXPECT_TRUE(parent.ok());
}

TEST(BudgetTest, ChildDeadlineClampedToParent)
{
    BudgetSpec parent_spec;
    parent_spec.maxSeconds = 0.0;
    Budget parent(parent_spec);
    // Child asks for a generous deadline but inherits the parent's.
    BudgetSpec child_spec;
    child_spec.maxSeconds = 3600.0;
    Budget child = parent.child(child_spec);
    EXPECT_TRUE(child.expired());
    EXPECT_EQ(child.stop(), BudgetStop::Deadline);
}

TEST(BudgetTest, GrandchildChargesReachRoot)
{
    BudgetSpec root_spec;
    root_spec.maxUnits = 10;
    Budget root(root_spec);
    Budget mid = root.child(BudgetSpec{});
    Budget leaf = mid.child(BudgetSpec{});
    EXPECT_TRUE(leaf.charge(4));
    EXPECT_EQ(root.usedUnits(), 4u);
    EXPECT_EQ(mid.usedUnits(), 4u);
    EXPECT_FALSE(leaf.charge(7));
    EXPECT_EQ(root.stop(), BudgetStop::Units);
    EXPECT_EQ(leaf.effectiveStop(), BudgetStop::Units);
}

TEST(BudgetTest, ConcurrentChargesLoseNone)
{
    // AU shards charge one shared parent budget from worker threads;
    // the atomic counter must account for every unit and latch the trip
    // exactly at the limit crossing.
    BudgetSpec spec;
    spec.maxUnits = 100000;
    Budget budget(spec);

    constexpr size_t kThreads = 4;
    constexpr size_t kChargesPerThread = 10000;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (size_t i = 0; i < kChargesPerThread; ++i) {
                budget.charge();
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(budget.usedUnits(), kThreads * kChargesPerThread);
    EXPECT_TRUE(budget.ok());
}

TEST(BudgetTest, ConcurrentTripLatchesOnce)
{
    BudgetSpec spec;
    spec.maxUnits = 500;
    Budget budget(spec);

    std::atomic<size_t> successes{0};
    auto hammer = [&] {
        for (size_t i = 0; i < 1000; ++i) {
            if (budget.charge()) {
                successes.fetch_add(1, std::memory_order_relaxed);
            }
        }
    };
    std::thread a(hammer);
    std::thread b(hammer);
    a.join();
    b.join();

    // 2000 charges against a 500-unit allowance: the atomic counter
    // grants exactly the first 500 no matter the interleaving (charges
    // that arrive after the trip latched skip the counter entirely, so
    // usedUnits only bounds from above).
    EXPECT_EQ(successes.load(), 500u);
    EXPECT_GE(budget.usedUnits(), 501u);
    EXPECT_LE(budget.usedUnits(), 2000u);
    EXPECT_EQ(budget.stop(), BudgetStop::Units);
    EXPECT_TRUE(budget.expired());
}

TEST(BudgetTest, ConcurrentChildChargesReachParent)
{
    BudgetSpec parent_spec;
    parent_spec.maxUnits = 100000;
    Budget parent(parent_spec);
    Budget childA = parent.child(BudgetSpec{});
    Budget childB = parent.child(BudgetSpec{});

    std::thread a([&] {
        for (size_t i = 0; i < 5000; ++i) {
            childA.charge();
        }
    });
    std::thread b([&] {
        for (size_t i = 0; i < 5000; ++i) {
            childB.charge();
        }
    });
    a.join();
    b.join();
    EXPECT_EQ(parent.usedUnits(), 10000u);
    EXPECT_EQ(childA.usedUnits(), 5000u);
    EXPECT_EQ(childB.usedUnits(), 5000u);
}

TEST(BudgetTest, DescribeAndStopNames)
{
    EXPECT_STREQ(budgetStopName(BudgetStop::None), "none");
    EXPECT_STREQ(budgetStopName(BudgetStop::Deadline), "deadline");
    EXPECT_STREQ(budgetStopName(BudgetStop::Units), "units");
    BudgetSpec spec;
    spec.maxUnits = 7;
    Budget budget(spec);
    budget.charge(2);
    EXPECT_NE(budget.describe().find("2/7"), std::string::npos);
}

}  // namespace
}  // namespace isamore
