#include "hls/estimator.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "dsl/intern.hpp"

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

}  // namespace
}  // namespace hls
}  // namespace isamore
