/**
 * Thread-count independence of EqSat: the e-graph is serial, but runEqSat
 * runs inside a process whose global pool may have any lane count (the
 * CLI's --threads flag).  The e-graph and statistics must be
 * byte-identical whether the pool has one lane or four.  A seeded
 * generator sweeps 1000 random term sets through both settings.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "egraph/dump.hpp"
#include "egraph/rewrite.hpp"
#include "support/pool.hpp"
#include "support/rng.hpp"

namespace isamore {
namespace {

/** Random expression over +, *, -, << with shared leaves. */
TermPtr
randomTerm(Rng& rng, int depth)
{
    if (depth <= 0 || rng.next() % 4 == 0) {
        if (rng.next() % 2 == 0) {
            return lit(static_cast<int64_t>(rng.next() % 4));
        }
        return arg(0, static_cast<int64_t>(rng.next() % 3));
    }
    static const Op kOps[] = {Op::Add, Op::Mul, Op::Sub, Op::Shl};
    const Op op = kOps[rng.next() % 4];
    return makeTerm(op,
                    {randomTerm(rng, depth - 1), randomTerm(rng, depth - 1)});
}

std::vector<RewriteRule>
differentialRules()
{
    return {
        makeRule("add-comm", "(+ ?0 ?1)", "(+ ?1 ?0)", kRuleSat | kRuleInt),
        makeRule("mul-comm", "(* ?0 ?1)", "(* ?1 ?0)", kRuleSat | kRuleInt),
        makeRule("mul2-shift", "(* ?0 2)", "(<< ?0 1)", kRuleInt),
        makeRule("distribute", "(* (+ ?0 ?1) ?2)", "(+ (* ?0 ?2) (* ?1 ?2))",
                 kRuleInt),
        makeRule("add-zero", "(+ ?0 0)", "?0", kRuleSat | kRuleInt),
    };
}

struct RunResult {
    std::string dump;
    size_t iterations;
    size_t applications;
    size_t peakNodes;
    size_t peakClasses;
    StopReason stopReason;
    std::vector<std::pair<std::string, RuleTotals>> perRule;
};

RunResult
runCase(uint64_t seed, size_t threads)
{
    setGlobalThreads(threads);
    Rng rng(seed);
    EGraph g;
    const size_t terms = 2 + rng.next() % 5;
    for (size_t t = 0; t < terms; ++t) {
        g.addTerm(randomTerm(rng, 2 + static_cast<int>(rng.next() % 3)));
    }
    EqSatLimits limits;
    limits.maxIterations = 4;
    limits.maxNodes = 4000;
    const EqSatStats stats = runEqSat(g, differentialRules(), limits);
    RunResult out;
    out.dump = dumpText(g);
    out.iterations = stats.iterations;
    out.applications = stats.applications;
    out.peakNodes = stats.peakNodes;
    out.peakClasses = stats.peakClasses;
    out.stopReason = stats.stopReason;
    out.perRule = stats.perRule;
    return out;
}

TEST(RewriteParallelTest, ThousandCaseSerialParallelDifferential)
{
    constexpr uint64_t kCases = 1000;
    for (uint64_t seed = 0; seed < kCases; ++seed) {
        const RunResult serial = runCase(seed, 1);
        const RunResult parallel = runCase(seed, 4);
        ASSERT_EQ(serial.dump, parallel.dump) << "seed " << seed;
        ASSERT_EQ(serial.iterations, parallel.iterations) << "seed " << seed;
        ASSERT_EQ(serial.applications, parallel.applications)
            << "seed " << seed;
        ASSERT_EQ(serial.peakNodes, parallel.peakNodes) << "seed " << seed;
        ASSERT_EQ(serial.peakClasses, parallel.peakClasses)
            << "seed " << seed;
        ASSERT_EQ(serial.stopReason, parallel.stopReason) << "seed " << seed;
        ASSERT_EQ(serial.perRule.size(), parallel.perRule.size());
        for (size_t r = 0; r < serial.perRule.size(); ++r) {
            ASSERT_EQ(serial.perRule[r].first, parallel.perRule[r].first);
            ASSERT_EQ(serial.perRule[r].second.matches,
                      parallel.perRule[r].second.matches)
                << "seed " << seed << " rule " << serial.perRule[r].first;
            ASSERT_EQ(serial.perRule[r].second.applications,
                      parallel.perRule[r].second.applications)
                << "seed " << seed << " rule " << serial.perRule[r].first;
        }
    }
    setGlobalThreads(0);
}

TEST(RewriteParallelTest, MatchCapBandMatchesSerial)
{
    // A tight match cap changes which matches are applied; spot check a
    // band of seeds under it.
    for (uint64_t seed = 0; seed < 32; ++seed) {
        EqSatLimits limits;
        limits.maxIterations = 5;
        limits.maxMatchesPerRule = 8;
        auto run = [&](size_t threads) {
            setGlobalThreads(threads);
            Rng rng(seed);
            EGraph g;
            for (size_t t = 0; t < 3; ++t) {
                g.addTerm(randomTerm(rng, 3));
            }
            runEqSat(g, differentialRules(), limits);
            return dumpText(g);
        };
        const std::string serial = run(1);
        const std::string parallel = run(4);
        ASSERT_EQ(serial, parallel) << "seed " << seed;
    }
    setGlobalThreads(0);
}

}  // namespace
}  // namespace isamore
