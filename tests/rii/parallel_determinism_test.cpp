/**
 * The determinism contract of the work-stealing parallelization: the AU
 * sweep and the EqSat match phase must produce results that are
 * byte-identical to a serial run at every thread count (DESIGN.md
 * "Threading model").
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "egraph/dump.hpp"
#include "egraph/rewrite.hpp"
#include "rii/au.hpp"
#include "support/pool.hpp"
#include "support/telemetry.hpp"

namespace isamore {
namespace rii {
namespace {

/** A saturated graph busy enough that chunks land on several threads. */
EGraph
buildSweepGraph()
{
    EGraph g;
    for (int i = 0; i < 12; ++i) {
        g.addTerm(makeTerm(
            Op::Add,
            {makeTerm(Op::Mul, {makeTerm(Op::Add, {arg(0, i), lit(1)}),
                                arg(0, i + 12)}),
             makeTerm(Op::Mul, {arg(0, i + 24), lit(2)})}));
    }
    std::vector<RewriteRule> comm = {
        makeRule("add-comm", "(+ ?0 ?1)", "(+ ?1 ?0)", kRuleSat),
        makeRule("mul-comm", "(* ?0 ?1)", "(* ?1 ?0)", kRuleSat),
    };
    runEqSat(g, comm);
    return g;
}

std::vector<std::string>
patternStrings(const AuResult& result)
{
    std::vector<std::string> out;
    for (const TermPtr& p : result.patterns) {
        out.push_back(termToString(p));
    }
    return out;
}

void
expectSameStats(const AuStats& a, const AuStats& b)
{
    EXPECT_EQ(a.pairsConsidered, b.pairsConsidered);
    EXPECT_EQ(a.pairsExplored, b.pairsExplored);
    EXPECT_EQ(a.rawCandidates, b.rawCandidates);
    EXPECT_EQ(a.skippedPairs, b.skippedPairs);
    EXPECT_EQ(a.aborted, b.aborted);
    EXPECT_EQ(a.timedOut, b.timedOut);
}

/** Run one sweep on a global pool of @p threads lanes. */
AuResult
sweepAt(const EGraph& g, const AuOptions& options, size_t threads)
{
    setGlobalThreads(threads);
    AuResult result = identifyPatterns(g, options);
    setGlobalThreads(0);
    return result;
}

TEST(ParallelDeterminismTest, AuSweepIdenticalAcrossThreadCounts)
{
    const EGraph g = buildSweepGraph();
    const AuResult base = sweepAt(g, AuOptions{}, 1);
    ASSERT_FALSE(base.patterns.empty());

    for (size_t threads : {2u, 4u, 7u}) {
        const AuResult parallel = sweepAt(g, AuOptions{}, threads);
        EXPECT_EQ(patternStrings(parallel), patternStrings(base))
            << "threads=" << threads;
        expectSameStats(parallel.stats, base.stats);
    }
}

TEST(ParallelDeterminismTest, AuCandidateAbortIdenticalAcrossThreads)
{
    // The candidate-budget cutoff is part of the merged control flow:
    // the abort point (and therefore the kept pattern prefix) must not
    // move with the thread count.
    const EGraph g = buildSweepGraph();
    AuOptions options;
    options.maxCandidates = 60;
    const AuResult base = sweepAt(g, options, 1);
    ASSERT_TRUE(base.stats.aborted);

    const AuResult result = sweepAt(g, options, 4);
    EXPECT_EQ(patternStrings(result), patternStrings(base));
    expectSameStats(result.stats, base.stats);
}

TEST(ParallelDeterminismTest, AuResultPatternCapIdenticalAcrossThreads)
{
    const EGraph g = buildSweepGraph();
    AuOptions options;
    options.maxResultPatterns = 5;
    const AuResult base = sweepAt(g, options, 1);
    ASSERT_EQ(base.patterns.size(), 5u);

    const AuResult result = sweepAt(g, options, 3);
    EXPECT_EQ(patternStrings(result), patternStrings(base));
    expectSameStats(result.stats, base.stats);
}

/**
 * The AU work counters -- per-shard feature walks, feature-memo hits and
 * composed candidate features beside the pair-memo counts -- are a side
 * channel that must not move with the thread count either: each shard's
 * memos are private, the chunk partition is fixed, and whether a
 * candidate's feature is composed or walked depends on structural
 * hashes, never on addresses.
 */
TEST(ParallelDeterminismTest, AuWorkCountersIdenticalAcrossThreadCounts)
{
    if (!telemetry::kCompiled) {
        GTEST_SKIP() << "telemetry compiled out";
    }
    const EGraph g = buildSweepGraph();
    auto& registry = telemetry::Registry::instance();
    for (Sampling sampling : {Sampling::Boundary, Sampling::KdTree}) {
        std::string base;
        for (size_t threads : {1u, 2u, 4u}) {
            AuOptions opt;
            opt.sampling = sampling;
            registry.reset();
            telemetry::setEnabled(true);
            sweepAt(g, opt, threads);
            telemetry::setEnabled(false);
            EXPECT_GT(registry.counter("au.feature_evals").value(), 0u);
            EXPECT_GT(registry.counter("au.feature_hits").value(), 0u);
            EXPECT_GT(registry.counter("au.feature_composed").value(), 0u);
            const std::string metrics = registry.toJson();
            if (threads == 1) {
                base = metrics;
            } else {
                EXPECT_EQ(metrics, base)
                    << "sampling=" << static_cast<int>(sampling)
                    << " threads=" << threads;
            }
        }
    }
    registry.reset();
    telemetry::Tracer::instance().clear();
}

TEST(ParallelDeterminismTest, EqSatMatchPhaseIdenticalAcrossThreads)
{
    // The parallel match fan-out merges per-rule results in rule order,
    // so iteration-by-iteration the applies -- and with them class-id
    // assignment -- replay the serial run exactly: the dumps are
    // byte-identical, not just isomorphic.
    auto build = [] {
        EGraph g;
        for (int i = 0; i < 6; ++i) {
            g.addTerm(makeTerm(
                Op::Add,
                {makeTerm(Op::Mul, {arg(0, i), lit(4)}),
                 makeTerm(Op::Mul, {arg(0, i + 6), arg(0, i + 12)})}));
        }
        return g;
    };
    std::vector<RewriteRule> rules = {
        makeRule("add-comm", "(+ ?0 ?1)", "(+ ?1 ?0)", kRuleSat),
        makeRule("mul-shift", "(* ?0 4)", "(<< ?0 2)", 0),
        makeRule("mul-comm", "(* ?0 ?1)", "(* ?1 ?0)", kRuleSat),
    };

    setGlobalThreads(1);
    EGraph serialGraph = build();
    const EqSatStats serialStats = runEqSat(serialGraph, rules);
    const std::string serialDump = dumpText(serialGraph);

    for (size_t threads : {2u, 4u}) {
        setGlobalThreads(threads);
        EGraph parallelGraph = build();
        const EqSatStats stats = runEqSat(parallelGraph, rules);
        EXPECT_EQ(dumpText(parallelGraph), serialDump)
            << "threads=" << threads;
        EXPECT_EQ(stats.iterations, serialStats.iterations);
        EXPECT_EQ(stats.applications, serialStats.applications);
        EXPECT_EQ(stats.peakNodes, serialStats.peakNodes);
        EXPECT_EQ(stats.stopReason, serialStats.stopReason);
    }
    setGlobalThreads(0);
}

}  // namespace
}  // namespace rii
}  // namespace isamore
