/**
 * Graceful-degradation tests: fault injection and budget trips must turn
 * into skip-and-record diagnostics, never into a failed run, and the
 * degraded Pareto front must keep the front invariants (just possibly
 * with fewer solutions).
 */
#include <gtest/gtest.h>

#include "isamore/isamore.hpp"
#include "rii/rii.hpp"
#include "support/fault.hpp"
#include "support/telemetry.hpp"

namespace isamore {
namespace rii {
namespace {

const AnalyzedWorkload&
matmulAnalyzed()
{
    static const AnalyzedWorkload analyzed =
        analyzeWorkload(workloads::makeMatMul());
    return analyzed;
}

const rules::RulesetLibrary&
library()
{
    static const rules::RulesetLibrary lib = rules::defaultLibrary();
    return lib;
}

RiiResult
runWithFaults(const std::string& faults,
              RiiConfig cfg = RiiConfig::forMode(Mode::Default))
{
    fault::Registry::instance().reset();
    if (!faults.empty()) {
        fault::Registry::instance().configure(faults);
    }
    RiiResult result = runRii(matmulAnalyzed().program,
                              matmulAnalyzed().profile, library(), cfg);
    fault::Registry::instance().reset();
    return result;
}

void
expectParetoInvariant(const RiiResult& result)
{
    // Sorted by area ascending, speedup must strictly improve: no point
    // on a degraded front may dominate another.
    for (size_t i = 1; i < result.front.size(); ++i) {
        EXPECT_GT(result.front[i].speedup, result.front[i - 1].speedup);
        EXPECT_GT(result.front[i].areaUm2, result.front[i - 1].areaUm2);
    }
}

class DegradationTest : public ::testing::Test {
 protected:
    void SetUp() override { fault::Registry::instance().reset(); }
    void TearDown() override { fault::Registry::instance().reset(); }
};

TEST_F(DegradationTest, CleanRunIsNotDegraded)
{
    auto result = runWithFaults("");
    EXPECT_FALSE(result.diagnostics.degraded());
    EXPECT_EQ(result.diagnostics.skippedPairs, 0u);
    EXPECT_EQ(result.diagnostics.skippedPhases, 0u);
    EXPECT_EQ(result.diagnostics.faultsInjected, 0u);
    EXPECT_GE(result.front.size(), 2u);
}

TEST_F(DegradationTest, SkippedAuPairDegradesButCompletes)
{
    auto result = runWithFaults("au.pair=timeout@2");
    EXPECT_TRUE(result.diagnostics.degraded());
    EXPECT_GE(result.diagnostics.skippedPairs, 1u);
    EXPECT_GE(result.diagnostics.faultsInjected, 1u);
    // The run survives the dropped pair with useful results intact.
    EXPECT_FALSE(result.front.empty());
    EXPECT_GT(result.best().speedup, 1.0);
    expectParetoInvariant(result);
}

TEST_F(DegradationTest, CandidateBudgetTripMidEnumeration)
{
    // Firing au.candidate mid-enumeration is the AU candidate budget
    // blowing; RII records the abort (the LLMT analogue) and completes.
    // The injected fault marks the run degraded; auBudgetTripped stays
    // false because the *run* budget is fine (candidate caps are
    // experiment policy, exceeded by the LLMT baseline on purpose).
    auto result = runWithFaults("au.candidate=trip@50");
    EXPECT_TRUE(result.stats.auAborted);
    EXPECT_FALSE(result.diagnostics.auBudgetTripped);
    EXPECT_GE(result.diagnostics.faultsInjected, 1u);
    EXPECT_TRUE(result.diagnostics.degraded());
    expectParetoInvariant(result);
}

/** A root budget whose deadline has already passed. */
Budget
expiredBudget()
{
    BudgetSpec spec;
    spec.maxSeconds = 0.0;
    return Budget(spec);
}

TEST_F(DegradationTest, SweepDeadlineSetsTimedOut)
{
    // The whole sweep is out of time: every selected pair is skipped,
    // before the reps are extracted or any shard runs.
    const EGraph& egraph = matmulAnalyzed().program.egraph;
    const AuOptions options = RiiConfig::forMode(Mode::Default).au;
    const size_t selected = selectAuPairs(egraph, options).size();
    ASSERT_GT(selected, 0u);
    Budget parent = expiredBudget();
    telemetry::Tracer::instance().clear();
    telemetry::setEnabled(true);
    const AuResult result = identifyPatterns(egraph, options, &parent);
    telemetry::setEnabled(false);
    const std::string trace = telemetry::Tracer::instance().toChromeJson();
    telemetry::Tracer::instance().clear();
    telemetry::Registry::instance().reset();
    EXPECT_TRUE(result.stats.timedOut);
    EXPECT_EQ(result.stats.pairsExplored, 0u);
    EXPECT_EQ(result.stats.skippedPairs, selected);
    EXPECT_TRUE(result.patterns.empty());
    if (telemetry::kCompiled) {
        EXPECT_NE(trace.find("\"au.sweep\""), std::string::npos);
        EXPECT_EQ(trace.find("\"au.reprs\""), std::string::npos);
        EXPECT_EQ(trace.find("\"au.chunk\""), std::string::npos);
    }
}

TEST_F(DegradationTest, WholeRunBudgetSkipsPhases)
{
    Budget parent = expiredBudget();  // run-level budget already expired
    RiiConfig cfg = RiiConfig::forMode(Mode::Default);
    cfg.parentBudget = &parent;
    auto result = runWithFaults("", cfg);
    EXPECT_TRUE(result.diagnostics.budgetExhausted);
    EXPECT_GT(result.diagnostics.skippedPhases, 0u);
    EXPECT_EQ(result.stats.phasesRun, 0u);
    EXPECT_TRUE(result.diagnostics.degraded());
}

TEST_F(DegradationTest, InvariantFaultCostsOnePhaseOnly)
{
    // An InternalError out of the AU sweep is contained to its phase.
    auto result = runWithFaults("au.sweep=invariant@1");
    EXPECT_GE(result.diagnostics.skippedPhases, 1u);
    EXPECT_TRUE(result.diagnostics.degraded());
    // Later phases still ran and produced solutions.
    EXPECT_GE(result.stats.phasesRun, 2u);
    EXPECT_FALSE(result.front.empty());
    expectParetoInvariant(result);
}

TEST_F(DegradationTest, CombinedInjectionAcceptanceScenario)
{
    // The PR's acceptance scenario: an EqSat node-limit trip plus a
    // skipped AU pair in one run.  The run completes, reports itself
    // degraded, and still presents a valid front.
    auto result = runWithFaults("eqsat.nodes=trip@1; au.pair=timeout@2");
    EXPECT_TRUE(result.diagnostics.degraded());
    EXPECT_GE(result.diagnostics.eqsatNodeTrips, 1u);
    EXPECT_GE(result.diagnostics.skippedPairs, 1u);
    EXPECT_GE(result.diagnostics.faultsInjected, 2u);
    EXPECT_FALSE(result.front.empty());
    expectParetoInvariant(result);
    // And the summary mentions the degradation for human consumption.
    EXPECT_NE(result.diagnostics.summary().find("degraded=yes"),
              std::string::npos);
}

TEST_F(DegradationTest, RoutineEqSatLimitsAreNotDegradation)
{
    // Bounded saturation (node/iteration limits) is the normal operating
    // mode, not a degraded run.
    auto result = runWithFaults("");
    EXPECT_FALSE(result.diagnostics.degraded());
    EXPECT_EQ(result.diagnostics.skippedRules, 0u);
}

TEST_F(DegradationTest, DescribeResultMentionsDegradation)
{
    auto degraded = runWithFaults("au.pair=timeout@2");
    EXPECT_NE(describeResult(degraded).find("Degraded run"),
              std::string::npos);
    auto clean = runWithFaults("");
    EXPECT_EQ(describeResult(clean).find("Degraded run"),
              std::string::npos);
}

}  // namespace
}  // namespace rii
}  // namespace isamore
