/**
 * @file
 * Property tests for the equality-saturation stack: random integer terms
 * are saturated with the core ruleset and re-extracted; the extracted
 * term must evaluate identically to the original on random inputs.  This
 * exercises hashcons + congruence closure + e-matching + rule application
 * + extraction end to end, with the DSL evaluator as the oracle.
 */
#include <gtest/gtest.h>

#include "dsl/eval.hpp"
#include "egraph/extract.hpp"
#include "egraph/rewrite.hpp"
#include "rules/rulesets.hpp"
#include "support/rng.hpp"

namespace isamore {
namespace {

/** Random integer term over Args $0.0..$0.3 and small literals. */
TermPtr
randomIntTerm(Rng& rng, int depth)
{
    if (depth == 0 || rng.below(4) == 0) {
        if (rng.below(2) == 0) {
            return arg(0, static_cast<int64_t>(rng.below(4)));
        }
        static const int64_t lits[] = {0, 1, 2, 3, 8};
        return lit(lits[rng.below(std::size(lits))]);
    }
    static const Op unary[] = {Op::Neg, Op::Not, Op::Abs};
    static const Op binary[] = {Op::Add, Op::Sub, Op::Mul, Op::And,
                                Op::Or,  Op::Xor, Op::Min, Op::Max,
                                Op::Shl, Op::Shr};
    if (rng.below(5) == 0) {
        return makeTerm(unary[rng.below(std::size(unary))],
                        {randomIntTerm(rng, depth - 1)});
    }
    if (rng.below(8) == 0) {
        return makeTerm(Op::Select,
                        {makeTerm(Op::Lt, {randomIntTerm(rng, depth - 1),
                                           randomIntTerm(rng, depth - 1)}),
                         randomIntTerm(rng, depth - 1),
                         randomIntTerm(rng, depth - 1)});
    }
    return makeTerm(binary[rng.below(std::size(binary))],
                    {randomIntTerm(rng, depth - 1),
                     randomIntTerm(rng, depth - 1)});
}

int64_t
evalWithArgs(const TermPtr& term, const std::vector<int64_t>& args)
{
    EvalContext ctx;
    for (int64_t a : args) {
        ctx.functionArgs.push_back(Value::ofInt(a));
    }
    return evaluate(term, ctx).i;
}

class EqSatSoundness : public ::testing::TestWithParam<int> {};

TEST_P(EqSatSoundness, SaturateAndExtractPreservesSemantics)
{
    Rng rng(1000 + static_cast<uint64_t>(GetParam()));
    TermPtr original = randomIntTerm(rng, 4);

    EGraph g;
    EClassId root = g.addTerm(original);
    static const auto rules =
        rules::defaultLibrary().select(kRuleInt, kRuleVector | kRuleFloat);
    EqSatLimits limits;
    limits.maxNodes = 4000;
    limits.maxIterations = 5;
    runEqSat(g, rules, limits);

    Extractor extractor(g, astSizeCost);
    TermPtr extracted = extractor.extract(root).term;

    // The extracted form is never larger than the original term.
    EXPECT_LE(termSize(extracted), termSize(original));

    Rng inputs(2000 + static_cast<uint64_t>(GetParam()));
    for (int trial = 0; trial < 24; ++trial) {
        std::vector<int64_t> args(4);
        for (auto& a : args) {
            a = (inputs.next() & 1) ? static_cast<int64_t>(
                                          inputs.below(19)) -
                                          9
                                    : inputs.nextInt64();
        }
        EXPECT_EQ(evalWithArgs(original, args),
                  evalWithArgs(extracted, args))
            << "original:  " << termToString(original)
            << "\nextracted: " << termToString(extracted);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomTerms, EqSatSoundness,
                         ::testing::Range(0, 30));

class CongruenceInvariant : public ::testing::TestWithParam<int> {};

TEST_P(CongruenceInvariant, RandomMergesKeepHashconsCoherent)
{
    // After arbitrary merges + rebuild, looking up any canonicalized
    // member node must return its own class.
    Rng rng(4242 + static_cast<uint64_t>(GetParam()));
    EGraph g;
    std::vector<EClassId> roots;
    for (int i = 0; i < 6; ++i) {
        roots.push_back(g.addTerm(randomIntTerm(rng, 3)));
    }
    for (int i = 0; i < 4; ++i) {
        auto ids = g.classIds();
        g.merge(ids[rng.below(ids.size())], ids[rng.below(ids.size())]);
        g.rebuild();
    }
    for (EClassId id : g.classIds()) {
        for (const ENode& node : g.cls(id).nodes) {
            EXPECT_EQ(g.lookup(node), id)
                << "hashcons lost node " << node.str();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, CongruenceInvariant,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace isamore
