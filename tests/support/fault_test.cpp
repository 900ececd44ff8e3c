#include "support/fault.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "support/check.hpp"
#include "support/pool.hpp"

namespace isamore {
namespace fault {
namespace {

/** Every test leaves the process-wide registry disarmed. */
class FaultTest : public ::testing::Test {
 protected:
    void SetUp() override { Registry::instance().reset(); }
    void TearDown() override { Registry::instance().reset(); }
};

TEST_F(FaultTest, DisabledByDefault)
{
    EXPECT_FALSE(Registry::instance().enabled());
    EXPECT_FALSE(tripped("au.pair"));
    EXPECT_FALSE(tripped("au.pair"));
    // Disarmed sites are not even counted (the fast path skips the map).
    EXPECT_EQ(Registry::instance().hitCount("au.pair"), 0u);
    EXPECT_EQ(Registry::instance().firedCount(), 0u);
}

TEST_F(FaultTest, TripFiresOnExactHit)
{
    Registry::instance().configure("au.pair=trip@3");
    EXPECT_FALSE(tripped("au.pair"));  // hit 1
    EXPECT_FALSE(tripped("au.pair"));  // hit 2
    EXPECT_TRUE(tripped("au.pair"));   // hit 3: fires
    EXPECT_FALSE(tripped("au.pair"));  // hit 4: one-shot, disarmed again
    EXPECT_EQ(Registry::instance().hitCount("au.pair"), 4u);
    EXPECT_EQ(Registry::instance().firedCount(), 1u);
}

TEST_F(FaultTest, RepeatFiresOnEveryLaterHit)
{
    Registry::instance().configure("eqsat.apply=trip@2+");
    EXPECT_FALSE(tripped("eqsat.apply"));
    EXPECT_TRUE(tripped("eqsat.apply"));
    EXPECT_TRUE(tripped("eqsat.apply"));
    EXPECT_TRUE(tripped("eqsat.apply"));
    EXPECT_EQ(Registry::instance().firedCount(), 3u);
}

TEST_F(FaultTest, SitesAreIndependent)
{
    Registry::instance().configure("au.pair=trip@1");
    EXPECT_FALSE(tripped("au.sweep"));
    EXPECT_FALSE(tripped("eqsat.search"));
    EXPECT_TRUE(tripped("au.pair"));
}

TEST_F(FaultTest, TimeoutIsAnAliasForTrip)
{
    Registry::instance().configure("au.sweep=timeout");
    EXPECT_TRUE(tripped("au.sweep"));
}

TEST_F(FaultTest, MultipleClauses)
{
    Registry::instance().configure(
        "eqsat.nodes=trip@1; au.pair=trip@2");
    EXPECT_TRUE(tripped("eqsat.nodes"));
    EXPECT_FALSE(tripped("au.pair"));
    EXPECT_TRUE(tripped("au.pair"));
    EXPECT_EQ(Registry::instance().firedCount(), 2u);
}

TEST_F(FaultTest, AllocFaultThrowsBadAlloc)
{
    Registry::instance().configure("profile.run=alloc");
    EXPECT_THROW(tripped("profile.run"), std::bad_alloc);
}

TEST_F(FaultTest, InvariantFaultThrowsInternalError)
{
    Registry::instance().configure("backend.emit=invariant");
    EXPECT_THROW(tripped("backend.emit"), InternalError);
}

TEST_F(FaultTest, MalformedSpecIsAUserError)
{
    EXPECT_THROW(Registry::instance().configure("nonsense"), UserError);
    EXPECT_THROW(Registry::instance().configure("au.pair=explode"),
                 UserError);
    EXPECT_THROW(Registry::instance().configure("au.pair=trip@zero"),
                 UserError);
    EXPECT_THROW(Registry::instance().configure("=trip"), UserError);
    // A failed configure must not leave the registry half-armed.
    EXPECT_FALSE(tripped("au.pair"));
}

TEST_F(FaultTest, HitIndexIsStrictDecimal)
{
    // A sign, trailing junk, an empty index or one past 2^64 is refused,
    // not read as some other hit (`@-1` used to arm hit 2^64-1, a fault
    // that never fires).
    for (const char* spec :
         {"au.pair=timeout@-1", "au.pair=timeout@+1", "au.pair=timeout@1x",
          "au.pair=timeout@", "au.pair=timeout@100000000000000000000"}) {
        EXPECT_THROW(Registry::instance().configure(spec), UserError)
            << spec;
    }
    EXPECT_TRUE(Registry::instance().arms().empty());

    Registry::instance().configure("au.pair=timeout@3");
    Registry::instance().configure("eqsat.apply=trip@3+");
    const std::vector<FaultArm> arms = Registry::instance().arms();
    ASSERT_EQ(arms.size(), 2u);
    EXPECT_EQ(arms[0].hit, 3u);
    EXPECT_FALSE(arms[0].repeat);
    EXPECT_EQ(arms[1].hit, 3u);
    EXPECT_TRUE(arms[1].repeat);
}

TEST_F(FaultTest, ConcurrentVisitsFireExactlyOnce)
{
    // Two threads hammer an armed site: shouldTrip() makes the
    // visit-count increment and the arm scan one atomic step, so the
    // @N arm fires for exactly one visit no matter how the threads
    // interleave, and every visit is counted.
    constexpr size_t kVisitsPerThread = 500;
    Registry::instance().configure("au.pair=trip@750");

    std::atomic<size_t> fires{0};
    auto hammer = [&] {
        for (size_t i = 0; i < kVisitsPerThread; ++i) {
            if (tripped("au.pair")) {
                fires.fetch_add(1, std::memory_order_relaxed);
            }
        }
    };
    std::thread a(hammer);
    std::thread b(hammer);
    a.join();
    b.join();

    EXPECT_EQ(fires.load(), 1u);
    EXPECT_EQ(Registry::instance().firedCount(), 1u);
    EXPECT_EQ(Registry::instance().hitCount("au.pair"),
              2 * kVisitsPerThread);
}

TEST_F(FaultTest, ConcurrentRepeatArmCountsEveryLaterHit)
{
    // The @N+ repeat arm under contention: every visit from N on fires.
    constexpr size_t kVisitsPerThread = 200;
    Registry::instance().configure("eqsat.apply=trip@101+");

    std::atomic<size_t> fires{0};
    auto hammer = [&] {
        for (size_t i = 0; i < kVisitsPerThread; ++i) {
            if (tripped("eqsat.apply")) {
                fires.fetch_add(1, std::memory_order_relaxed);
            }
        }
    };
    std::thread a(hammer);
    std::thread b(hammer);
    a.join();
    b.join();

    // Hits 101..400 all fire: 300 fires regardless of interleaving.
    EXPECT_EQ(fires.load(), 2 * kVisitsPerThread - 100);
    EXPECT_EQ(Registry::instance().firedCount(), fires.load());
}

TEST_F(FaultTest, ResetDisarmsAndZeroesCounters)
{
    Registry::instance().configure("au.pair=trip@1+");
    EXPECT_TRUE(tripped("au.pair"));
    Registry::instance().reset();
    EXPECT_FALSE(Registry::instance().enabled());
    EXPECT_FALSE(tripped("au.pair"));
    EXPECT_EQ(Registry::instance().firedCount(), 0u);
    EXPECT_EQ(Registry::instance().hitCount("au.pair"), 0u);
}

TEST_F(FaultTest, ScopeArmsAndRestoresOnExit)
{
    // The server arms faults per request through Scope: inside the
    // scope only the scoped spec is live, and destruction restores
    // whatever was armed before (here: nothing).
    {
        Scope scope("au.pair=trip@1");
        EXPECT_TRUE(Registry::instance().enabled());
        EXPECT_TRUE(tripped("au.pair"));
    }
    EXPECT_FALSE(Registry::instance().enabled());
    EXPECT_FALSE(tripped("au.pair"));
    EXPECT_EQ(Registry::instance().firedCount(), 0u);
}

TEST_F(FaultTest, ScopeRestoresPriorArms)
{
    Registry::instance().configure("eqsat.apply=trip@1+");
    {
        Scope scope("au.pair=trip@1");
        // The prior arm is swapped out, not merged.
        EXPECT_FALSE(tripped("eqsat.apply"));
        EXPECT_TRUE(tripped("au.pair"));
    }
    // The outer arm is re-armed with a fresh hit counter.
    EXPECT_TRUE(tripped("eqsat.apply"));
}

TEST_F(FaultTest, ScopeHitCountersAreScopeRelative)
{
    // Two back-to-back scopes of the same spec behave identically: the
    // @N index is relative to the scope, not to process history.  This
    // is what makes a replayed server request deterministic.
    for (int round = 0; round < 2; ++round) {
        Scope scope("au.pair=trip@3");
        EXPECT_FALSE(tripped("au.pair"));
        EXPECT_FALSE(tripped("au.pair"));
        EXPECT_TRUE(tripped("au.pair"));
        EXPECT_FALSE(tripped("au.pair"));
    }
}

TEST_F(FaultTest, ScopeMalformedSpecThrowsAndRestores)
{
    Registry::instance().configure("eqsat.apply=trip@1");
    EXPECT_THROW(Scope("au.pair=explode"), UserError);
    // The failed scope must not have eaten the prior arms.
    EXPECT_TRUE(tripped("eqsat.apply"));
}

TEST_F(FaultTest, ScopedExactlyOnceArmAcrossPoolLanes)
{
    // The server's end-to-end injection path: a per-request Scope arms
    // a one-shot @N fault and the pipeline then hammers the site from
    // every pool lane.  The arm must fire for exactly one visit, with
    // every visit counted, and repeating the request (a fresh Scope)
    // must reproduce the exact same behavior.
    constexpr size_t kVisits = 1000;
    for (int request = 0; request < 3; ++request) {
        Scope scope("au.pair=trip@500");
        std::atomic<size_t> fires{0};
        globalPool().parallelFor(kVisits, [&](size_t) {
            if (tripped("au.pair")) {
                fires.fetch_add(1, std::memory_order_relaxed);
            }
        });
        EXPECT_EQ(fires.load(), 1u) << "request " << request;
        EXPECT_EQ(Registry::instance().firedCount(), 1u)
            << "request " << request;
        EXPECT_EQ(Registry::instance().hitCount("au.pair"), kVisits)
            << "request " << request;
    }
}

}  // namespace
}  // namespace fault
}  // namespace isamore
