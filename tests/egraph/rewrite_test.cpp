#include "egraph/rewrite.hpp"

#include <gtest/gtest.h>

#include "support/check.hpp"
#include "support/fault.hpp"

namespace isamore {
namespace {

TEST(RewriteTest, CommutativityUnionsSwappedForm)
{
    EGraph g;
    EClassId root = g.addTerm(parseTerm("(+ $0.0 $0.1)"));
    EClassId swapped = g.addTerm(parseTerm("(+ $0.1 $0.0)"));
    EXPECT_NE(g.find(root), g.find(swapped));

    auto rule = makeRule("add-comm", "(+ ?0 ?1)", "(+ ?1 ?0)",
                         kRuleSat | kRuleInt);
    auto stats = runEqSat(g, {rule});
    EXPECT_EQ(g.find(root), g.find(swapped));
    EXPECT_EQ(stats.stopReason, StopReason::Saturated);
}

TEST(RewriteTest, SaturationTerminates)
{
    EGraph g;
    g.addTerm(parseTerm("(+ (+ $0.0 $0.1) $0.2)"));
    auto rule = makeRule("add-comm", "(+ ?0 ?1)", "(+ ?1 ?0)",
                         kRuleSat | kRuleInt);
    auto stats = runEqSat(g, {rule});
    EXPECT_EQ(stats.stopReason, StopReason::Saturated);
    EXPECT_LE(stats.iterations, 4u);
}

TEST(RewriteTest, FactorizationDiscoversEquivalence)
{
    // The paper's Fig. 3: a*2 + b*2 rewrites to (a+b)*2 via factoring.
    EGraph g;
    EClassId lhs = g.addTerm(parseTerm("(+ (* $0.0 2) (* $0.1 2))"));
    EClassId rhs = g.addTerm(parseTerm("(* (+ $0.0 $0.1) 2)"));
    auto rule = makeRule("factor", "(+ (* ?0 ?2) (* ?1 ?2))",
                         "(* (+ ?0 ?1) ?2)", kRuleInt);
    runEqSat(g, {rule});
    EXPECT_EQ(g.find(lhs), g.find(rhs));
}

TEST(RewriteTest, ChainedRulesCompose)
{
    // x*2 => x<<1 and (a+b)*c => a*c + b*c jointly prove
    // (a+b)*2 == (a*2) + (b<<1) ... via shared classes.
    EGraph g;
    EClassId a = g.addTerm(parseTerm("(* (+ $0.0 $0.1) 2)"));
    EClassId b = g.addTerm(parseTerm("(+ (* $0.0 2) (<< $0.1 1))"));
    std::vector<RewriteRule> rules = {
        makeRule("mul2-shift", "(* ?0 2)", "(<< ?0 1)", kRuleInt),
        makeRule("distribute", "(* (+ ?0 ?1) ?2)", "(+ (* ?0 ?2) (* ?1 ?2))",
                 kRuleInt),
    };
    runEqSat(g, rules);
    EXPECT_EQ(g.find(a), g.find(b));
}

TEST(RewriteTest, GuardBlocksRewrites)
{
    EGraph g;
    EClassId root = g.addTerm(parseTerm("(+ $0.0 $0.1)"));
    EClassId swapped = g.addTerm(parseTerm("(+ $0.1 $0.0)"));
    auto rule = makeRule("add-comm", "(+ ?0 ?1)", "(+ ?1 ?0)", kRuleSat);
    rule.guard = [](const EGraph&, const EMatch&) { return false; };
    auto stats = runEqSat(g, {rule});
    EXPECT_NE(g.find(root), g.find(swapped));
    EXPECT_EQ(stats.stopReason, StopReason::Saturated);
    EXPECT_EQ(stats.applications, 0u);
}

TEST(RewriteTest, NodeLimitStopsExplosion)
{
    EGraph g;
    g.addTerm(parseTerm("(+ $0.0 $0.1)"));
    // x + y => (x+1) + (y-1) keeps introducing fresh subterms.
    auto rule = makeRule("grow", "(+ ?0 ?1)", "(+ (+ ?0 1) (- ?1 1))", 0);
    EqSatLimits limits;
    limits.maxNodes = 50;
    limits.maxIterations = 100;
    auto stats = runEqSat(g, {rule}, limits);
    EXPECT_EQ(stats.stopReason, StopReason::NodeLimit);
    EXPECT_LT(g.numNodes(), 500u);
}

TEST(RewriteTest, IterLimitRespected)
{
    EGraph g;
    g.addTerm(parseTerm("(+ $0.0 $0.1)"));
    auto rule = makeRule("grow", "(+ ?0 ?1)", "(+ (+ ?0 1) (- ?1 1))", 0);
    EqSatLimits limits;
    limits.maxIterations = 2;
    limits.maxNodes = 1u << 20;
    auto stats = runEqSat(g, {rule}, limits);
    EXPECT_EQ(stats.iterations, 2u);
    EXPECT_EQ(stats.stopReason, StopReason::IterLimit);
}

TEST(RewriteTest, PeakStatsRecorded)
{
    EGraph g;
    g.addTerm(parseTerm("(* (+ $0.0 $0.1) 2)"));
    auto rule = makeRule("distribute", "(* (+ ?0 ?1) ?2)",
                         "(+ (* ?0 ?2) (* ?1 ?2))", kRuleInt);
    auto stats = runEqSat(g, {rule});
    EXPECT_GE(stats.peakNodes, g.numNodes());
    EXPECT_GT(stats.applications, 0u);
}

TEST(RewriteTest, RuleParsingValidates)
{
    EXPECT_THROW(makeRule("bad", "?0", "(+ ?0 0)", 0), UserError);
}

TEST(RewriteTest, SaturatingRulesPreserveClassCount)
{
    // Saturating rules only union existing classes or add nodes to them;
    // the class count never grows.
    EGraph g;
    g.addTerm(parseTerm("(+ (* $0.0 4) (* 4 $0.1))"));
    size_t before = g.numClasses();
    auto rule = makeRule("mul-comm", "(* ?0 ?1)", "(* ?1 ?0)",
                         kRuleSat | kRuleInt);
    runEqSat(g, {rule});
    EXPECT_LE(g.numClasses(), before);
}

TEST(RewriteTest, TimeLimitNotMaskedBySaturation)
{
    // Regression: an expired deadline stops the run with rules left
    // unsearched.  It must report TimeLimit, never Saturated -- rules
    // that were never searched might still have fired.
    EGraph g;
    g.addTerm(parseTerm("(* (+ $0.0 $0.1) 2)"));
    std::vector<RewriteRule> rules = {
        makeRule("mul-comm", "(* ?0 ?1)", "(* ?1 ?0)", kRuleSat | kRuleInt),
        makeRule("distribute", "(* (+ ?0 ?1) ?2)",
                 "(+ (* ?0 ?2) (* ?1 ?2))", kRuleInt),
    };
    BudgetSpec spec;
    spec.maxSeconds = 0.0;
    Budget parent(spec);
    auto stats = runEqSat(g, rules, EqSatLimits{}, &parent);
    EXPECT_EQ(stats.stopReason, StopReason::TimeLimit);
}

TEST(RewriteTest, SpentBudgetSearchesNothing)
{
    // The budget is polled before the first search: an expired parent
    // deadline finds no match and applies nothing.
    EGraph g;
    const EClassId a = g.addTerm(parseTerm("(* $0.0 2)"));
    const EClassId b = g.addTerm(parseTerm("(<< $0.0 1)"));
    std::vector<RewriteRule> rules = {
        makeRule("mul2-shift", "(* ?0 2)", "(<< ?0 1)", kRuleInt),
        makeRule("mul-comm", "(* ?0 ?1)", "(* ?1 ?0)", kRuleSat | kRuleInt),
    };
    BudgetSpec spec;
    spec.maxSeconds = 0.0;
    Budget parent(spec);
    const EqSatStats stats = runEqSat(g, rules, EqSatLimits{}, &parent);
    EXPECT_EQ(stats.stopReason, StopReason::TimeLimit);
    EXPECT_EQ(stats.iterations, 0u);
    EXPECT_EQ(stats.applications, 0u);
    ASSERT_EQ(stats.perRule.size(), rules.size());
    for (const auto& [name, totals] : stats.perRule) {
        EXPECT_EQ(totals.matches, 0u) << name;
        EXPECT_EQ(totals.applications, 0u) << name;
    }
    EXPECT_NE(g.find(a), g.find(b));
}

TEST(RewriteTest, ParentBudgetUnitsStopApplications)
{
    EGraph g;
    g.addTerm(parseTerm("(+ $0.0 $0.1)"));
    auto rule = makeRule("grow", "(+ ?0 ?1)", "(+ (+ ?0 1) (- ?1 1))", 0);
    BudgetSpec spec;
    spec.maxUnits = 3;  // three rewrite applications, then stop
    Budget parent(spec);
    EqSatLimits limits;
    limits.maxIterations = 100;
    limits.maxNodes = 1u << 20;
    auto stats = runEqSat(g, {rule}, limits, &parent);
    EXPECT_EQ(stats.stopReason, StopReason::Budget);
    EXPECT_LE(stats.applications, 4u);
    EXPECT_FALSE(parent.ok());
}

TEST(RewriteTest, SearchFaultReportsTimeLimit)
{
    fault::Registry::instance().reset();
    fault::Registry::instance().configure("eqsat.search=timeout@1");
    EGraph g;
    EClassId a = g.addTerm(parseTerm("(* $0.0 2)"));
    EClassId b = g.addTerm(parseTerm("(<< $0.0 1)"));
    auto rule = makeRule("mul2-shift", "(* ?0 2)", "(<< ?0 1)", kRuleInt);
    auto stats = runEqSat(g, {rule});
    fault::Registry::instance().reset();
    // The injected timeout fires after the first rule's matches were
    // already collected, so the rewrite still lands -- but the stop
    // reason records the truncated iteration.
    EXPECT_EQ(stats.stopReason, StopReason::TimeLimit);
    EXPECT_EQ(g.find(a), g.find(b));
}

TEST(RewriteTest, FaultedRuleSearchIsSkippedNotFatal)
{
    fault::Registry::instance().reset();
    // An invariant fault inside a rule's search drops that rule for the
    // iteration (recorded in skippedRules); it must neither escape the
    // run nor let the quiet iteration claim saturation.
    fault::Registry::instance().configure("eqsat.search=invariant@1");
    EGraph g;
    g.addTerm(parseTerm("(* $0.0 2)"));
    auto rule = makeRule("mul2-shift", "(* ?0 2)", "(<< ?0 1)", kRuleInt);
    EqSatLimits limits;
    limits.maxIterations = 1;
    auto stats = runEqSat(g, {rule}, limits);
    fault::Registry::instance().reset();
    EXPECT_EQ(stats.skippedRules, 1u);
    EXPECT_NE(stats.stopReason, StopReason::Saturated);
}

}  // namespace
}  // namespace isamore
