/**
 * Regression tests for AU pair selection (selectAuPairs): the sweep
 * order must be deterministic, exact-duplicate structural-hash buckets
 * must stay fully paired on both sides of the kQuadraticPairLimit switch
 * from the quadratic sweep to banding, and the kMaxPairs cap must keep a
 * prefix of the sweep order.  The graphs are sized to cross the
 * production constants.
 */
#include "rii/au.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "dsl/term.hpp"

namespace isamore {
namespace rii {
namespace {

/** Unordered-pair view of a selected pair list, for set comparisons. */
std::set<std::pair<EClassId, EClassId>>
unorderedPairs(const std::vector<std::pair<EClassId, EClassId>>& pairs)
{
    std::set<std::pair<EClassId, EClassId>> out;
    for (auto [a, b] : pairs) {
        out.insert({std::min(a, b), std::max(a, b)});
    }
    return out;
}

/**
 * A graph with @p n structurally identical top-level classes.  Leaves
 * hash uniformly (structhash.cpp), so all n roots land in one
 * exact-duplicate hash bucket.
 */
std::vector<EClassId>
buildDuplicateRoots(EGraph& g, int n)
{
    std::vector<EClassId> roots;
    for (int i = 0; i < n; ++i) {
        roots.push_back(g.addTerm(makeTerm(
            Op::Add,
            {makeTerm(Op::Mul, {arg(0, 2 * i), lit(2)}), arg(0, 2 * i + 1)})));
    }
    return roots;
}

/**
 * Add leaf classes until @p g has more than kQuadraticPairLimit classes,
 * so selection takes the banding path.  Leaves are never admissible and
 * all share one structural hash, so they add no pairs and form one
 * bucket of their own.
 */
void
padPastQuadraticLimit(EGraph& g)
{
    for (int64_t k = 1000; g.numClasses() <= kQuadraticPairLimit; ++k) {
        g.addTerm(arg(1, k));
    }
}

TEST(PairSelectionTest, RepeatedCallsReturnIdenticalLists)
{
    EGraph g;
    buildDuplicateRoots(g, 10);
    g.addTerm(parseTerm("(<< (+ $0.30 $0.31) 3)"));
    g.addTerm(parseTerm("(- (* $0.32 $0.33) $0.34)"));

    AuOptions opt;
    AuStats statsA;
    AuStats statsB;
    const auto a = selectAuPairs(g, opt, &statsA);
    const auto b = selectAuPairs(g, opt, &statsB);
    EXPECT_EQ(a, b);
    EXPECT_EQ(statsA.pairsConsidered, statsB.pairsConsidered);
    EXPECT_FALSE(a.empty());

    // The banding path must be just as repeatable.
    padPastQuadraticLimit(g);
    ASSERT_GT(g.classIds().size(), kQuadraticPairLimit);
    const auto c = selectAuPairs(g, opt);
    const auto d = selectAuPairs(g, opt);
    EXPECT_EQ(c, d);
    EXPECT_FALSE(c.empty());
}

TEST(PairSelectionTest, DuplicateBucketFullyPairedOnBothSelectionPaths)
{
    EGraph g;
    const std::vector<EClassId> roots = buildDuplicateRoots(g, 8);

    std::set<std::pair<EClassId, EClassId>> wanted;
    for (size_t i = 0; i < roots.size(); ++i) {
        for (size_t j = i + 1; j < roots.size(); ++j) {
            wanted.insert({std::min(roots[i], roots[j]),
                           std::max(roots[i], roots[j])});
        }
    }

    // Quadratic side of the boundary: the class count is far below the
    // limit, so every admissible pair is enumerated directly.
    ASSERT_LE(g.classIds().size(), kQuadraticPairLimit);
    const auto quadPairs = unorderedPairs(selectAuPairs(g, AuOptions{}));
    for (const auto& p : wanted) {
        EXPECT_TRUE(quadPairs.count(p))
            << "quadratic sweep lost duplicate pair (" << p.first << ", "
            << p.second << ")";
    }

    // Banding side: leaves push the class count past the limit.  The
    // eight roots hash identically, so they form one contiguous bucket
    // that the kBandingWindow-wide window must pair exhaustively.
    padPastQuadraticLimit(g);
    ASSERT_GT(g.classIds().size(), kQuadraticPairLimit);
    const auto bandPairs = unorderedPairs(selectAuPairs(g, AuOptions{}));
    for (const auto& p : wanted) {
        EXPECT_TRUE(bandPairs.count(p))
            << "banding sweep lost duplicate pair (" << p.first << ", "
            << p.second << ")";
    }
}

TEST(PairSelectionTest, MaxPairsTruncatesPrefixDeterministically)
{
    // 400 duplicate roots stay below the quadratic limit, and their
    // bucket alone holds more than kMaxPairs admissible pairs.
    EGraph g;
    const std::vector<EClassId> roots = buildDuplicateRoots(g, 400);
    ASSERT_LE(g.classIds().size(), kQuadraticPairLimit);
    ASSERT_GT(roots.size() * (roots.size() - 1) / 2, kMaxPairs);

    const auto pairs = selectAuPairs(g, AuOptions{});
    ASSERT_EQ(pairs.size(), kMaxPairs);
    EXPECT_EQ(pairs, selectAuPairs(g, AuOptions{}));

    // Truncation keeps the leading pairs of the sweep order (class-list
    // position of the first class, then of the second); it never
    // reorders or samples.  So the list rises strictly in that order, and
    // every root pair up to its last entry is present.
    std::map<EClassId, size_t> position;
    for (EClassId id : g.classIds()) {
        position.emplace(id, position.size());
    }
    auto sweepKey = [&](EClassId a, EClassId b) {
        return std::minmax(position.at(a), position.at(b));
    };
    for (size_t i = 1; i < pairs.size(); ++i) {
        EXPECT_LT(sweepKey(pairs[i - 1].first, pairs[i - 1].second),
                  sweepKey(pairs[i].first, pairs[i].second))
            << "index " << i;
    }
    const auto last = sweepKey(pairs.back().first, pairs.back().second);
    std::set<std::pair<size_t, size_t>> kept;
    for (auto [a, b] : pairs) {
        kept.insert(sweepKey(a, b));
    }
    size_t rootPairsKept = 0;
    for (size_t i = 0; i < roots.size(); ++i) {
        for (size_t j = i + 1; j < roots.size(); ++j) {
            const auto key = sweepKey(roots[i], roots[j]);
            if (key <= last) {
                ++rootPairsKept;
                EXPECT_TRUE(kept.count(key))
                    << "root pair at " << key.first << ", " << key.second
                    << " lies before the cut but is missing";
            }
        }
    }
    EXPECT_GT(rootPairsKept, 0u);
    EXPECT_LT(rootPairsKept, roots.size() * (roots.size() - 1) / 2);
}

TEST(PairSelectionTest, SweepConsumesSelectedPairsInOrder)
{
    // identifyPatterns must explore exactly the selectAuPairs list:
    // pairsConsidered from a selection-only run matches the sweep's.
    EGraph g;
    buildDuplicateRoots(g, 6);

    AuOptions opt;
    AuStats selectionStats;
    const auto pairs = selectAuPairs(g, opt, &selectionStats);
    const AuResult result = identifyPatterns(g, opt);
    EXPECT_EQ(result.stats.pairsConsidered, selectionStats.pairsConsidered);
    EXPECT_EQ(result.stats.pairsExplored + result.stats.skippedPairs,
              pairs.size());
}

}  // namespace
}  // namespace rii
}  // namespace isamore
