#include "rii/au.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "egraph/rewrite.hpp"
#include "support/pool.hpp"

namespace isamore {
namespace rii {
namespace {

bool
containsPattern(const AuResult& result, const std::string& text)
{
    TermPtr wanted = canonicalizeHoles(parseTerm(text));
    for (const TermPtr& p : result.patterns) {
        if (termEquals(p, wanted)) {
            return true;
        }
    }
    return false;
}

TEST(AuTest, FindsSyntacticCommonStructure)
{
    // a*2+b and c*2+d share (+ (* ?x 2) ?y).
    EGraph g;
    g.addTerm(parseTerm("(+ (* $0.0 2) $0.1)"));
    g.addTerm(parseTerm("(+ (* $0.2 2) $0.3)"));
    AuOptions opt;
    auto result = identifyPatterns(g, opt);
    EXPECT_TRUE(containsPattern(result, "(+ (* ?0 2) ?1)"))
        << "patterns found: " << result.patterns.size();
}

TEST(AuTest, PaperFig3SemanticPattern)
{
    // Fig. 3: after factoring a*2 + b*2 into (a+b)*2, anti-unifying with
    // (1+i)*2 yields (?x + ?y) * 2.
    EGraph g;
    EClassId sum2 = g.addTerm(parseTerm("(+ (* $0.0 2) (* $0.1 2))"));
    g.addTerm(parseTerm("(* (+ 1 $0.2) 2)"));
    auto factor = makeRule("factor", "(+ (* ?0 ?2) (* ?1 ?2))",
                           "(* (+ ?0 ?1) ?2)", 0);
    runEqSat(g, {factor});
    (void)sum2;

    AuOptions opt;
    auto result = identifyPatterns(g, opt);
    EXPECT_TRUE(containsPattern(result, "(* (+ ?0 ?1) 2)"));
}

TEST(AuTest, TypeFilterExcludesMismatchedPairs)
{
    EGraph g;
    g.addTerm(parseTerm("(+ (* $0.0 2) $0.1)"));
    g.addTerm(parseTerm("(f+ (f* $0.0:f32 2.0f) $0.1:f32)"));
    AuOptions opt;
    auto result = identifyPatterns(g, opt);
    // The int and float trees must not anti-unify into anything (their
    // constructors differ anyway), and the pairing stats show filtering.
    for (const TermPtr& p : result.patterns) {
        // No pattern can mix f+ with int *.
        std::string s = termToString(p);
        EXPECT_FALSE(s.find("f+") != std::string::npos &&
                     s.find("(* ") != std::string::npos)
            << s;
    }
}

TEST(AuTest, HoleConsistencyAcrossOccurrences)
{
    // (x+x)*x vs (y+y)*y: the LGG must reuse ONE hole: (?0+?0)*?0.
    EGraph g;
    g.addTerm(parseTerm("(* (+ $0.0 $0.0) $0.0)"));
    g.addTerm(parseTerm("(* (+ $0.1 $0.1) $0.1)"));
    AuOptions opt;
    auto result = identifyPatterns(g, opt);
    EXPECT_TRUE(containsPattern(result, "(* (+ ?0 ?0) ?0)"));
}

TEST(AuTest, MinOpsFilters)
{
    EGraph g;
    g.addTerm(parseTerm("(+ $0.0 1)"));
    g.addTerm(parseTerm("(+ $0.1 2)"));
    AuOptions opt;
    auto result = identifyPatterns(g, opt);
    for (const TermPtr& p : result.patterns) {
        EXPECT_GE(termOpCount(p), 2u);
    }
}

TEST(AuTest, ExhaustiveModeGeneratesMoreCandidates)
{
    // Saturate with commutativity so classes hold several node forms;
    // exhaustive AU enumerates all cross products while boundary samples.
    EGraph g;
    for (int i = 0; i < 6; ++i) {
        g.addTerm(makeTerm(
            Op::Add,
            {makeTerm(Op::Mul, {makeTerm(Op::Add, {arg(0, i), lit(1)}),
                                arg(0, i + 6)}),
             makeTerm(Op::Mul, {arg(0, i + 12), arg(0, i + 18)})}));
    }
    std::vector<RewriteRule> comm = {
        makeRule("add-comm", "(+ ?0 ?1)", "(+ ?1 ?0)", kRuleSat),
        makeRule("mul-comm", "(* ?0 ?1)", "(* ?1 ?0)", kRuleSat),
    };
    runEqSat(g, comm);

    AuOptions sampled;
    sampled.sampling = Sampling::Boundary;
    sampled.maxPatternsPerPair = 4;
    AuOptions full;
    full.sampling = Sampling::Exhaustive;
    full.typeFilter = false;
    full.hashFilter = false;
    auto a = identifyPatterns(g, sampled);
    auto b = identifyPatterns(g, full);
    EXPECT_GT(b.stats.rawCandidates, a.stats.rawCandidates);
    EXPECT_GE(b.stats.pairsExplored, a.stats.pairsExplored);
}

TEST(AuTest, CandidateBudgetAborts)
{
    // A saturated graph with many equivalent forms blows a tiny budget.
    EGraph g;
    g.addTerm(parseTerm(
        "(+ (+ (* $0.0 2) (* $0.1 2)) (+ (* $0.2 2) (* $0.3 2)))"));
    g.addTerm(parseTerm(
        "(+ (+ (* $0.4 2) (* $0.5 2)) (+ (* $0.6 2) (* $0.7 2)))"));
    AuOptions opt;
    opt.sampling = Sampling::Exhaustive;
    opt.typeFilter = false;
    opt.hashFilter = false;
    opt.maxCandidates = 50;
    auto result = identifyPatterns(g, opt);
    EXPECT_TRUE(result.stats.aborted);
}

TEST(AuTest, KdTreeSamplingKeepsWithinCaps)
{
    EGraph g;
    for (int i = 0; i < 8; ++i) {
        g.addTerm(makeTerm(
            Op::Add, {makeTerm(Op::Mul, {arg(0, i), arg(0, i + 8)}),
                      makeTerm(Op::Shl, {arg(0, i), lit(2)})}));
    }
    AuOptions opt;
    opt.sampling = Sampling::KdTree;
    opt.maxPatternsPerPair = 8;
    auto result = identifyPatterns(g, opt);
    EXPECT_FALSE(result.stats.aborted);
    EXPECT_LE(result.patterns.size(), opt.maxResultPatterns);
}

TEST(AuTest, PatternsAreCanonicalAndDeduplicated)
{
    EGraph g;
    g.addTerm(parseTerm("(+ (* $0.0 3) $0.1)"));
    g.addTerm(parseTerm("(+ (* $0.2 3) $0.3)"));
    auto result = identifyPatterns(g, AuOptions{});
    std::set<std::string> seen;
    for (const TermPtr& p : result.patterns) {
        EXPECT_TRUE(seen.insert(termToString(p)).second)
            << "duplicate: " << termToString(p);
        // Canonical hole numbering starts at 0.
        auto holes = termHoles(p);
        if (!holes.empty()) {
            EXPECT_EQ(holes[0], 0);
        }
    }
}

TEST(AuTest, WellFormedAppsOnly)
{
    EGraph g;
    // Two different Apps; anti-unifying their heads must not survive.
    EClassId x = g.addTerm(parseTerm("(+ $0.0 1)"));
    EClassId patA = g.addTerm(parseTerm("(pat 0)"));
    EClassId patB = g.addTerm(parseTerm("(pat 1)"));
    g.add(ENode(Op::App, Payload::none(), {patA, x, x}));
    g.add(ENode(Op::App, Payload::none(), {patB, x, x}));
    auto result = identifyPatterns(g, AuOptions{});
    for (const TermPtr& p : result.patterns) {
        std::function<void(const TermPtr&)> check =
            [&](const TermPtr& t) {
                if (t->op == Op::App) {
                    ASSERT_FALSE(t->children.empty());
                    EXPECT_EQ(t->children[0]->op, Op::PatRef)
                        << termToString(p);
                }
                for (const auto& c : t->children) {
                    check(c);
                }
            };
        check(p);
    }
}

/**
 * A small saturated graph for the output pins below.  The first two
 * roots feed one child pair into both operands of an add, so candidates
 * over it reuse one child pattern in two positions (the feature model's
 * shared-node case); the other two mix adds, multiplies, shifts and
 * loads over literals, so the pairs' products are large enough to be
 * sampled.
 */
EGraph
buildPinGraph()
{
    EGraph g;
    g.addTerm(parseTerm("(+ (* $0.0 $0.1) (* $0.0 $0.1))"));
    g.addTerm(parseTerm("(+ (* $0.2 $0.3) (* $0.2 $0.3))"));
    g.addTerm(parseTerm(
        "(+ (* (+ $0.4 1) $0.5) (<< (load i32 $0.6 4) 2))"));
    g.addTerm(parseTerm(
        "(+ (* (+ $0.7 1) $0.8) (<< (load i32 $0.9 8) 2))"));
    std::vector<RewriteRule> comm = {
        makeRule("add-comm", "(+ ?0 ?1)", "(+ ?1 ?0)", kRuleSat),
        makeRule("mul-comm", "(* ?0 ?1)", "(* ?1 ?0)", kRuleSat),
    };
    runEqSat(g, comm);
    return g;
}

/** The stats line and every pattern, in result order. */
std::string
describe(const AuResult& result)
{
    std::ostringstream out;
    out << "considered=" << result.stats.pairsConsidered
        << " explored=" << result.stats.pairsExplored
        << " raw=" << result.stats.rawCandidates
        << " skipped=" << result.stats.skippedPairs
        << " aborted=" << result.stats.aborted
        << " timedOut=" << result.stats.timedOut << "\n";
    for (const TermPtr& p : result.patterns) {
        out << termToString(p) << "\n";
    }
    return out.str();
}

std::string
pinnedRun(Sampling sampling, size_t maxCandidates, size_t threads)
{
    AuOptions opt;
    opt.sampling = sampling;
    opt.maxCandidates = maxCandidates;
    setGlobalThreads(threads);
    const std::string out = describe(identifyPatterns(buildPinGraph(), opt));
    setGlobalThreads(0);
    return out;
}

// The exact results of three sweeps over buildPinGraph().  Sampling
// ranks each pair's candidates by their HLS feature, so the pins also
// hold the feature's ordering of candidates that were discarded.

const char* const kPinBoundary =
    "considered=378 explored=59 raw=222 skipped=0 aborted=0 timedOut=0\n"
    "(+ (* ?0 ?1) (* ?2 ?3))\n"
    "(+ (* ?0 ?1) (* ?1 ?0))\n"
    "(+ (* ?0 ?1) (* ?0 ?1))\n"
    "(+ ?0 (* ?1 ?2))\n"
    "(+ (* ?0 ?1) ?2)\n"
    "(* ?0 (+ ?1 ?2))\n"
    "(* ?0 (+ 1 ?1))\n"
    "(<< (load i32 ?0 ?1) 2)\n"
    "(<< (load i32 ?0 ?1) ?2)\n"
    "(+ (* ?0 (+ ?1 ?2)) (<< (load i32 ?3 ?4) ?5))\n"
    "(+ (* ?0 (+ 1 ?1)) (<< (load i32 ?2 ?3) ?4))\n";

const char* const kPinKdTree =
    "considered=378 explored=59 raw=222 skipped=0 aborted=0 timedOut=0\n"
    "(+ ?0 (* ?1 ?2))\n"
    "(+ (* ?0 ?1) (* ?0 ?1))\n"
    "(+ (* ?0 ?1) (* ?1 ?0))\n"
    "(+ (* ?0 ?1) ?2)\n"
    "(+ (* ?0 ?1) (* ?2 ?3))\n"
    "(* ?0 (+ 1 ?1))\n"
    "(* ?0 (+ ?1 ?2))\n"
    "(* ?0 (+ ?1 1))\n"
    "(* (+ ?0 ?1) ?2)\n"
    "(* (+ 1 ?0) ?1)\n"
    "(* (+ ?0 1) ?1)\n"
    "(<< (load i32 ?0 ?1) 2)\n"
    "(<< (load i32 ?0 ?1) ?2)\n"
    "(+ (* ?0 ?1) (<< (load i32 ?2 ?3) ?4))\n"
    "(+ ?0 (* ?1 (+ 1 ?2)))\n"
    "(+ (<< (load i32 ?0 ?1) 2) (* (+ ?2 1) ?3))\n"
    "(+ (<< (load i32 ?0 ?1) 2) ?2)\n"
    "(+ (* ?0 (+ 1 ?1)) (<< (load i32 ?2 ?3) 2))\n"
    "(+ (* ?0 (+ ?1 ?2)) (<< (load i32 ?3 ?4) 2))\n"
    "(+ (* (+ 1 ?0) ?1) (<< (load i32 ?2 ?3) ?4))\n";

// Exhaustive with a candidate cap that trips mid-product.
const char* const kPinExhaustiveAbort =
    "considered=378 explored=54 raw=151 skipped=0 aborted=1 timedOut=0\n"
    "(+ (* ?0 ?1) ?2)\n"
    "(+ ?0 (* ?1 ?2))\n"
    "(+ (* ?0 ?1) (* ?0 ?1))\n"
    "(+ (* ?0 ?1) (* ?2 ?3))\n"
    "(+ (* ?0 ?1) (* ?1 ?0))\n"
    "(* (+ ?0 1) ?1)\n"
    "(* (+ ?0 ?1) ?2)\n"
    "(* (+ 1 ?0) ?1)\n"
    "(* ?0 (+ ?1 1))\n"
    "(* ?0 (+ ?1 ?2))\n"
    "(* ?0 (+ 1 ?1))\n"
    "(<< (load i32 ?0 ?1) 2)\n"
    "(<< (load i32 ?0 ?1) ?2)\n"
    "(+ (* (+ ?0 ?1) ?2) ?3)\n"
    "(+ (* (+ 1 ?0) ?1) ?2)\n"
    "(+ (* (+ ?0 1) ?1) ?2)\n"
    "(+ (* ?0 (+ ?1 1)) ?2)\n"
    "(+ (* ?0 (+ ?1 ?2)) ?3)\n"
    "(+ (* ?0 (+ 1 ?1)) ?2)\n"
    "(+ ?0 (<< ?1 2))\n"
    "(+ (* ?0 ?1) (<< ?2 2))\n";

TEST(AuTest, BoundaryOutputPinned)
{
    for (size_t threads : {1u, 2u, 4u}) {
        EXPECT_EQ(pinnedRun(Sampling::Boundary, 200000, threads),
                  kPinBoundary)
            << "threads=" << threads;
    }
}

TEST(AuTest, KdTreeOutputPinned)
{
    for (size_t threads : {1u, 2u, 4u}) {
        EXPECT_EQ(pinnedRun(Sampling::KdTree, 200000, threads), kPinKdTree)
            << "threads=" << threads;
    }
}

TEST(AuTest, ExhaustiveAbortOutputPinned)
{
    EXPECT_EQ(pinnedRun(Sampling::Exhaustive, 150, 1), kPinExhaustiveAbort);
}

}  // namespace
}  // namespace rii
}  // namespace isamore
