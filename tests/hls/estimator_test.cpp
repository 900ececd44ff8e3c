#include "hls/estimator.hpp"

#include <bit>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "dsl/intern.hpp"
#include "support/rng.hpp"

namespace isamore {
namespace hls {
namespace {

HwCost
costOf(const std::string& text)
{
    return estimatePattern(parseTerm(text));
}

TEST(HlsTest, SingleOpFitsOneCycle)
{
    EXPECT_EQ(costOf("(+ ?0 ?1)").cycles, 1);
    EXPECT_EQ(costOf("(& ?0 ?1)").cycles, 1);
}

TEST(HlsTest, ChainingPacksOpsIntoCycles)
{
    // add(280) + add(280) + add(280) = 840 ps < 1 cycle.
    EXPECT_EQ(costOf("(+ (+ (+ ?0 ?1) ?2) ?3)").cycles, 1);
    // mul(850) + mul(850) = 1700 ps -> 2 cycles.
    EXPECT_EQ(costOf("(* (* ?0 ?1) ?2)").cycles, 2);
}

TEST(HlsTest, DividerDominatesLatency)
{
    EXPECT_GE(costOf("(/ ?0 ?1)").cycles, 4);
    EXPECT_GT(costOf("(/ ?0 ?1)").areaUm2, costOf("(+ ?0 ?1)").areaUm2);
}

TEST(HlsTest, AreaSumsOverOperators)
{
    double one = costOf("(* ?0 ?1)").areaUm2;
    double two = costOf("(+ (* ?0 ?1) (* ?2 ?3))").areaUm2;
    EXPECT_GT(two, 2 * one * 0.99);
}

TEST(HlsTest, SharedSubtermsChargedOnce)
{
    // (* ?0 ?1) used twice as the same shared node must not double area.
    TermPtr prod = parseTerm("(* ?0 ?1)");
    TermPtr sum = makeTerm(Op::Add, {prod, prod});
    double shared = estimatePattern(sum).areaUm2;
    double separate = costOf("(+ (* ?0 ?1) (* ?2 ?3))").areaUm2;
    EXPECT_LT(shared, separate);
}

TEST(HlsTest, VectorOpPaysAreaPerLaneButOneDelay)
{
    HwCost scalar = costOf("(* ?0 ?1)");
    HwCost vec = costOf("(vop * (vec ?0 ?1 ?2 ?3) (vec ?4 ?5 ?6 ?7))");
    EXPECT_EQ(vec.cycles, scalar.cycles);
    EXPECT_GE(vec.areaUm2, 4 * opAreaUm2(Op::Mul));
}

TEST(HlsTest, LoopPatternsPipelined)
{
    // A loop body with a multiply: latency grows with the trip hint, but
    // far less than trips * body latency thanks to pipelining.
    const std::string loop =
        "(loop (list 0 0) (list (< $0.0 16) (+ $0.0 1)"
        " (+ $0.1 (* $0.0 3))))";
    HwCost trips16 = estimatePattern(parseTerm(loop), nullptr, 16);
    HwCost trips64 = estimatePattern(parseTerm(loop), nullptr, 64);
    EXPECT_GT(trips64.cycles, trips16.cycles);
    EXPECT_LT(trips64.cycles, 64 * trips16.cycles);
    EXPECT_GE(trips16.initiationInterval, 1);
}

TEST(HlsTest, AppResolvesSubPattern)
{
    TermPtr sub = parseTerm("(* (+ ?0 ?1) 2)");
    PatternResolver resolver = [&](int64_t id) -> TermPtr {
        return id == 5 ? sub : nullptr;
    };
    HwCost with = estimatePattern(parseTerm("(+ (app (pat 5) ?0 ?1) ?2)"),
                                  resolver);
    HwCost without =
        estimatePattern(parseTerm("(+ (app (pat 5) ?0 ?1) ?2)"));
    EXPECT_GT(with.areaUm2, without.areaUm2);
    EXPECT_GE(with.cycles, without.cycles);
}

TEST(HlsTest, FeaturePrioritizesLatency)
{
    double cheap = patternFeature(parseTerm("(+ ?0 ?1)"));
    double pricey = patternFeature(parseTerm("(/ (* ?0 ?1) ?2)"));
    EXPECT_LT(cheap, pricey);
}

TEST(HlsTest, IfAddsMux)
{
    HwCost plain = costOf("(+ ?0 ?1)");
    HwCost guarded =
        costOf("(if (list ?0 ?1 ?2) (+ ?1 ?2) (- ?1 ?2))");
    EXPECT_GE(guarded.areaUm2,
              plain.areaUm2 + opAreaUm2(Op::Sub));
}

TEST(HlsTest, LeavesAreFree)
{
    EXPECT_EQ(estimatePattern(parseTerm("?0")).areaUm2, 0.0);
    EXPECT_EQ(estimatePattern(parseTerm("5")).areaUm2, 0.0);
}

/**
 * Two chains joined by one adder: c_i = (+ c_{i-1} s_i) and
 * d_i = (| d_{i-1} s'_i), with s_i = (^ ?i ?i+1).
 * With @p shareXors the d chain reads the very s_i nodes the c chain
 * reads; otherwise it gets its own structurally equal copies.  Every
 * node is uninterned, so sharing is exactly what this builder chooses.
 * 3 * length + 1 operator nodes -- far beyond the scheduler table's
 * inline slots, so the table has to grow mid-walk.
 */
TermPtr
twoChains(int length, bool shareXors)
{
    auto node = [](Op op, std::vector<TermPtr> children) {
        return makeTermUninterned(op, Payload{}, std::move(children));
    };
    TermPtr c = hole(0);
    TermPtr d = hole(0);
    for (int i = 1; i <= length; ++i) {
        TermPtr s = node(Op::Xor, {hole(i), hole(i + 1)});
        c = node(Op::Add, {c, s});
        d = node(Op::Or,
                 {d, shareXors ? s : node(Op::Xor, {hole(i), hole(i + 1)})});
    }
    return node(Op::Add, {c, d});
}

TEST(HlsTest, LargeSharedDagChargesAreaOncePerNode)
{
    const int n = 100;
    // Area: n xors + n adders + n ors + the joining adder.
    const double sharedArea = n * opAreaUm2(Op::Xor) +
                              n * opAreaUm2(Op::Add) +
                              n * opAreaUm2(Op::Or) + opAreaUm2(Op::Add);
    // Arrival: each xor lands at 80 ps, so the adder chain reaches
    // 80 + 280n, the or chain 80 + 80n, and the join adds one adder.
    const double critical = opDelayPs(Op::Xor) + n * opDelayPs(Op::Add) +
                            opDelayPs(Op::Add);
    const int cycles = static_cast<int>(std::ceil(critical / kClockPeriodPs));

    const HwCost shared = estimatePattern(twoChains(n, true));
    EXPECT_EQ(shared.areaUm2, sharedArea);
    EXPECT_EQ(shared.cycles, cycles);
    EXPECT_EQ(shared.latencyNs, cycles * 1.0);

    // Structurally equal but unshared xors are distinct hardware.
    const HwCost unshared = estimatePattern(twoChains(n, false));
    EXPECT_EQ(unshared.areaUm2, sharedArea + n * opAreaUm2(Op::Xor));
    EXPECT_EQ(unshared.cycles, cycles);

    // One walk per call: repeating the estimate reproduces it exactly.
    EXPECT_EQ(estimatePattern(twoChains(n, true)).areaUm2, sharedArea);
}

TEST(HlsTest, NestedAppSchedulesEachBodyInItsOwnTable)
{
    // Pattern 7's body is a large DAG that itself instantiates pattern 8
    // (a multiplier), so resolving it nests a second sub-scheduler.
    const int n = 40;
    TermPtr inner = parseTerm("(* ?0 ?1)");
    TermPtr body = makeTermUninterned(
        Op::Add, Payload{},
        {twoChains(n, true), app(8, {hole(0), hole(1)})});
    PatternResolver resolver = [&](int64_t id) -> TermPtr {
        return id == 7 ? body : id == 8 ? inner : nullptr;
    };
    const double bodyArea = n * opAreaUm2(Op::Xor) + n * opAreaUm2(Op::Add) +
                            n * opAreaUm2(Op::Or) + 2 * opAreaUm2(Op::Add) +
                            opAreaUm2(Op::Mul);
    // The chains (80 + 280(n + 1) ps) outlast the multiplier (850 ps).
    const double bodyArrival = opDelayPs(Op::Xor) +
                               (n + 1) * opDelayPs(Op::Add) +
                               opDelayPs(Op::Add);

    auto instance = [] {
        return makeTermUninterned(Op::App, Payload{},
                                  {patRef(7), hole(0), hole(1)});
    };
    TermPtr once = instance();
    // The same App node read twice is one module instance...
    const HwCost shared = estimatePattern(
        makeTermUninterned(Op::Add, Payload{}, {once, once}), resolver);
    EXPECT_EQ(shared.areaUm2, bodyArea + opAreaUm2(Op::Add));
    EXPECT_EQ(shared.cycles,
              static_cast<int>(std::ceil(
                  (bodyArrival + opDelayPs(Op::Add)) / kClockPeriodPs)));
    // ...two App nodes are two, each scheduled in a fresh table.
    const HwCost twice = estimatePattern(
        makeTermUninterned(Op::Add, Payload{}, {once, instance()}),
        resolver);
    EXPECT_EQ(twice.areaUm2, 2 * bodyArea + opAreaUm2(Op::Add));
    EXPECT_EQ(twice.cycles, shared.cycles);
}

/**
 * Seeded random pattern DAGs for the composition property.  Nodes are
 * uninterned and pick their children from everything built so far, so
 * sub-DAGs are shared within and across operands; the mix covers every
 * case of the schedule step (plain and memory operators, VecOp over Vec,
 * App with a PatRef head, Loop, If).
 */
class RandomDags {
 public:
    explicit RandomDags(uint64_t seed) : rng_(seed)
    {
        for (int i = 0; i < 4; ++i) {
            pool_.push_back(hole(i));
        }
        pool_.push_back(lit(3));
        pool_.push_back(arg(0, 1));
    }

    /** A new node over earlier ones; it joins the pool. */
    TermPtr
    next()
    {
        TermPtr node = make();
        pool_.push_back(node);
        return node;
    }

 private:
    TermPtr
    pick()
    {
        // Favour recent nodes, so DAGs grow deep as well as wide.
        const size_t n = pool_.size();
        const size_t back = rng_.below(std::min<uint64_t>(n, 12));
        return rng_.below(3) == 0 ? pool_[rng_.below(n)]
                                  : pool_[n - 1 - back];
    }

    std::vector<TermPtr>
    picks(size_t count)
    {
        std::vector<TermPtr> out;
        for (size_t i = 0; i < count; ++i) {
            out.push_back(pick());
        }
        return out;
    }

    TermPtr
    node(Op op, Payload payload, std::vector<TermPtr> children)
    {
        return makeTermUninterned(op, payload, std::move(children));
    }

    TermPtr
    make()
    {
        static constexpr Op kBinary[] = {Op::Add, Op::Mul, Op::Xor,
                                         Op::Div, Op::FAdd, Op::Min};
        switch (rng_.below(9)) {
          case 0:
          case 1:
            return node(kBinary[rng_.below(6)], Payload{}, picks(2));
          case 2:
            return node(Op::Load,
                        Payload::ofInt(static_cast<int64_t>(ScalarKind::I32)),
                        picks(2));
          case 3:
            return node(Op::Store,
                        Payload::ofInt(static_cast<int64_t>(ScalarKind::I32)),
                        picks(3));
          case 4:
            return node(Op::Vec, Payload{}, picks(2 + rng_.below(3)));
          case 5: {
            // Operands are mostly Vecs (their lane counts decide area).
            std::vector<TermPtr> operands;
            for (int i = 0; i < 2; ++i) {
                operands.push_back(
                    rng_.below(4) == 0
                        ? pick()
                        : node(Op::Vec, Payload{}, picks(2 + rng_.below(5))));
            }
            const Op scalar = kBinary[rng_.below(6)];
            return node(Op::VecOp,
                        Payload::ofInt(static_cast<int64_t>(scalar)),
                        std::move(operands));
          }
          case 6: {
            std::vector<TermPtr> children{patRef(rng_.below(3))};
            for (TermPtr& operand : picks(1 + rng_.below(3))) {
                children.push_back(std::move(operand));
            }
            return node(Op::App, Payload{}, std::move(children));
          }
          case 7:
            return node(Op::Loop, Payload{}, picks(2));
          default:
            return node(Op::If, Payload{}, picks(3));
        }
    }

    Rng rng_;
    std::vector<TermPtr> pool_;
};

/** Child positions the schedule visits: an App's head is not one. */
size_t
firstScheduled(const Term& term)
{
    return term.op == Op::App ? 1 : 0;
}

/** Every charged (non-leaf) node under @p term, by address. */
void
chargedNodes(const Term* term, std::unordered_set<const Term*>& out)
{
    if (term->children.empty() || !out.insert(term).second) {
        return;
    }
    for (size_t i = firstScheduled(*term); i < term->children.size(); ++i) {
        chargedNodes(term->children[i].get(), out);
    }
}

/** Whether two scheduled children of @p term share a charged node. */
bool
childrenShareNode(const Term& term)
{
    std::unordered_set<const Term*> seen;
    for (size_t i = firstScheduled(term); i < term.children.size(); ++i) {
        std::unordered_set<const Term*> mine;
        chargedNodes(term.children[i].get(), mine);
        for (const Term* node : mine) {
            if (!seen.insert(node).second) {
                return true;
            }
        }
    }
    return false;
}

uint64_t
bits(double value)
{
    return std::bit_cast<uint64_t>(value);
}

TEST(HlsTest, ComposedSummariesMatchTheWalkBitForBit)
{
    size_t composed = 0;
    size_t declined = 0;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        RandomDags dags(seed);
        // Each node's summary as a sampler keeps it: composed from its
        // children's summaries where composition answers, walked where
        // it declines.  Composed summaries feed later compositions.
        std::unordered_map<const Term*, FeatureSummary> summaries;
        auto summaryOf = [&](const TermPtr& term) {
            auto it = summaries.find(term.get());
            return it != summaries.end() ? it->second : summarize(term);
        };
        for (int i = 0; i < 60; ++i) {
            const TermPtr term = dags.next();
            std::vector<FeatureSummary> children;
            for (const TermPtr& child : term->children) {
                children.push_back(summaryOf(child));
            }
            std::vector<const FeatureSummary*> views;
            for (const FeatureSummary& child : children) {
                views.push_back(&child);
            }
            const FeatureSummary walked = summarize(term);
            std::optional<FeatureSummary> got =
                compose(term->op, term->payload, views);
            if (childrenShareNode(*term)) {
                // No false negatives: shared hardware must not be summed.
                EXPECT_FALSE(got.has_value())
                    << "seed " << seed << ": " << termToString(term);
            }
            if (!got.has_value()) {
                ++declined;
                summaries.emplace(term.get(), walked);
                continue;
            }
            ++composed;
            includeRoot(*got, *term);
            EXPECT_EQ(bits(got->arrival), bits(walked.arrival))
                << "seed " << seed << ": " << termToString(term);
            EXPECT_EQ(bits(got->areaUm2), bits(walked.areaUm2));
            EXPECT_EQ(got->memOps, walked.memOps);
            EXPECT_EQ(got->lanes, walked.lanes);
            EXPECT_TRUE(got->charged == walked.charged);
            EXPECT_EQ(bits(featureOf(*got)), bits(patternFeature(term)));
            summaries.emplace(term.get(), *got);
        }
    }
    // Both paths ran often enough for the property to mean something.
    EXPECT_GT(composed, 400u);
    EXPECT_GT(declined, 100u);
}

TEST(HlsTest, CompositionDeclinesAChildSharedAcrossOperands)
{
    TermPtr product = parseTerm("(* ?0 ?1)");
    const FeatureSummary summary = summarize(product);
    const FeatureSummary* twice[] = {&summary, &summary};
    EXPECT_FALSE(compose(Op::Add, Payload{}, twice).has_value());
    // The walk charges the shared multiplier once.
    EXPECT_EQ(summarize(makeTerm(Op::Add, {product, product})).areaUm2,
              opAreaUm2(Op::Add) + opAreaUm2(Op::Mul));

    // Distinct operands compose to exactly the walk's answer.
    TermPtr other = parseTerm("(* ?2 ?3)");
    const FeatureSummary otherSummary = summarize(other);
    const FeatureSummary* distinct[] = {&summary, &otherSummary};
    std::optional<FeatureSummary> sum =
        compose(Op::Add, Payload{}, distinct);
    ASSERT_TRUE(sum.has_value());
    TermPtr built = makeTerm(Op::Add, {product, other});
    includeRoot(*sum, *built);
    EXPECT_TRUE(*sum == summarize(built));

    // An App's head is not scheduled, so sharing it costs nothing.
    TermPtr head = patRef(4);
    const FeatureSummary headSummary = summarize(head);
    const FeatureSummary* app[] = {&headSummary, &summary};
    EXPECT_TRUE(compose(Op::App, Payload{}, app).has_value());
}

}  // namespace
}  // namespace hls
}  // namespace isamore
