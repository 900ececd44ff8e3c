/**
 * @file
 * Property tests on the identification invariants (paper §1/§2.2):
 *  - every identified pattern e-matches at least two distinct e-classes
 *    of the graph it was mined from (reuse by construction: patterns come
 *    from anti-unifying *pairs* of classes);
 *  - identified patterns are stable under hole canonicalization;
 *  - the smart filters never admit ill-typed pattern roots.
 */
#include <gtest/gtest.h>

#include "egraph/ematch.hpp"
#include "egraph/rewrite.hpp"
#include "rii/au.hpp"
#include "rules/rulesets.hpp"
#include "support/rng.hpp"

namespace isamore {
namespace rii {
namespace {

TermPtr
randomExpr(Rng& rng, int depth)
{
    if (depth == 0 || rng.below(3) == 0) {
        if (rng.below(2) == 0) {
            return arg(0, static_cast<int64_t>(rng.below(6)));
        }
        return lit(static_cast<int64_t>(rng.below(5)));
    }
    static const Op ops[] = {Op::Add, Op::Sub, Op::Mul, Op::And,
                             Op::Xor, Op::Shl, Op::Min, Op::Max};
    return makeTerm(ops[rng.below(std::size(ops))],
                    {randomExpr(rng, depth - 1),
                     randomExpr(rng, depth - 1)});
}

class AuReuseInvariant : public ::testing::TestWithParam<int> {};

TEST_P(AuReuseInvariant, EveryPatternMatchesAtLeastTwoClasses)
{
    Rng rng(5500 + static_cast<uint64_t>(GetParam()));
    EGraph g;
    for (int i = 0; i < 8; ++i) {
        g.addTerm(randomExpr(rng, 3));
    }
    static const auto sat = rules::defaultLibrary().intSat();
    EqSatLimits limits;
    limits.maxIterations = 4;
    limits.maxNodes = 3000;
    runEqSat(g, sat, limits);

    AuOptions opt;
    auto result = identifyPatterns(g, opt);
    for (const TermPtr& p : result.patterns) {
        std::set<EClassId> roots;
        for (const EMatch& m : ematchAll(g, p, 2048)) {
            roots.insert(g.find(m.root));
        }
        EXPECT_GE(roots.size(), 2u)
            << "pattern " << termToString(p)
            << " is not reusable in its own source graph";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuReuseInvariant, ::testing::Range(0, 10));

class AuCanonicalInvariant : public ::testing::TestWithParam<int> {};

TEST_P(AuCanonicalInvariant, PatternsCanonicalAndWellFormed)
{
    Rng rng(7700 + static_cast<uint64_t>(GetParam()));
    EGraph g;
    for (int i = 0; i < 8; ++i) {
        g.addTerm(randomExpr(rng, 3));
    }
    AuOptions opt;
    opt.sampling =
        GetParam() % 2 == 0 ? Sampling::Boundary : Sampling::KdTree;
    auto result = identifyPatterns(g, opt);
    for (const TermPtr& p : result.patterns) {
        // Canonical hole numbering.
        EXPECT_TRUE(termEquals(p, canonicalizeHoles(p)))
            << termToString(p);
        // At least kMinOps real operations and at least one hole.
        EXPECT_GE(termOpCount(p), kMinOps);
        EXPECT_FALSE(termHoles(p).empty());
        // Never rooted at an aggregation List.
        EXPECT_NE(p->op, Op::List);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuCanonicalInvariant,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace rii
}  // namespace isamore
