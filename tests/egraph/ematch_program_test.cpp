/**
 * @file
 * Tests for the compiled matching engine (ematch_program.hpp) and its
 * e-graph support structures: a randomized differential suite pinning
 * the VM to the legacy backtracking matcher (1000 graph/pattern cases),
 * the substitution-free match count against the VM's matches, the
 * worklist extractor against a naive full-sweep oracle, and units
 * for the op index, O(1) node count, and the class-id snapshot.
 */
#include "egraph/ematch_program.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "egraph/extract.hpp"
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
    return makeTerm(binary[rng.below(std::size(binary))],
                    {randomIntTerm(rng, depth - 1),
                     randomIntTerm(rng, depth - 1)});
}

/** Random pattern over the same op alphabet, with holes ?0..?2. */
TermPtr
randomPattern(Rng& rng, int depth)
{
    if (depth == 0 || rng.below(3) == 0) {
        switch (rng.below(4)) {
          case 0:
            return lit(static_cast<int64_t>(rng.below(4)));
          case 1:
            return arg(0, static_cast<int64_t>(rng.below(4)));
          default:
            return hole(static_cast<int64_t>(rng.below(3)));
        }
    }
    static const Op binary[] = {Op::Add, Op::Sub, Op::Mul, Op::And,
                                Op::Or,  Op::Xor, Op::Min, Op::Max};
    if (rng.below(5) == 0) {
        return makeTerm(Op::Neg, {randomPattern(rng, depth - 1)});
    }
    return makeTerm(binary[rng.below(std::size(binary))],
                    {randomPattern(rng, depth - 1),
                     randomPattern(rng, depth - 1)});
}

/** A random e-graph: several terms plus a few merges, rebuilt. */
EGraph
randomGraph(Rng& rng)
{
    EGraph g;
    for (int i = 0; i < 8; ++i) {
        g.addTerm(randomIntTerm(rng, 4));
    }
    for (int i = 0; i < 5; ++i) {
        const auto ids = g.classIds();
        g.merge(ids[rng.below(ids.size())], ids[rng.below(ids.size())]);
        g.rebuild();
    }
    return g;
}

// --- compiled VM vs legacy matcher -----------------------------------

class VmDifferential : public ::testing::TestWithParam<int> {};

// 25 graphs x 40 patterns = 1000 differential cases: the compiled VM
// must reproduce the legacy matcher's exact match sequence (roots,
// substitutions, order) under randomized caps, both across the whole
// graph and rooted at a random class.
TEST_P(VmDifferential, MatchesLegacyMatcherExactly)
{
    Rng rng(7000 + static_cast<uint64_t>(GetParam()));
    EGraph g = randomGraph(rng);
    const auto ids = g.classIds();
    for (int c = 0; c < 40; ++c) {
        TermPtr pat = randomPattern(rng, 3);
        const size_t cap = 1 + rng.below(64);
        const auto vm = ematchAll(g, pat, cap);
        const auto legacy = ematchAllLegacy(g, pat, cap);
        ASSERT_EQ(vm.size(), legacy.size())
            << "pattern " << termToString(pat) << " cap " << cap;
        for (size_t i = 0; i < vm.size(); ++i) {
            EXPECT_EQ(vm[i].root, legacy[i].root);
            EXPECT_EQ(vm[i].subst, legacy[i].subst);
        }

        const EClassId root = ids[rng.below(ids.size())];
        const size_t atCap = 1 + rng.below(16);
        EXPECT_EQ(ematchAt(g, pat, root, atCap),
                  ematchAtLegacy(g, pat, root, atCap))
            << "pattern " << termToString(pat) << " at class " << root;
    }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, VmDifferential,
                         ::testing::Range(0, 25));

// countAt() is matchAt() without the substitutions: at every class, the
// same number under the same cap, small caps (which truncate) included.
// Summed over candidateRoots() under a total cap, it names the roots
// ematchAll() reports.
TEST_P(VmDifferential, CountAtMatchesMatchAtSizes)
{
    Rng rng(9100 + static_cast<uint64_t>(GetParam()));
    EGraph g = randomGraph(rng);
    MatchScratch scratch;
    for (int c = 0; c < 40; ++c) {
        TermPtr pat = randomPattern(rng, 3);
        const PatternProgram program = PatternProgram::compile(pat);
        for (EClassId id : g.classIds()) {
            for (size_t cap : {size_t{0}, size_t{1}, size_t{2},
                               size_t{1 + rng.below(64)}}) {
                std::vector<Subst> out;
                const size_t matched =
                    program.matchAt(g, id, cap, out, scratch);
                EXPECT_EQ(program.countAt(g, id, cap, scratch), matched)
                    << "pattern " << termToString(pat) << " at class "
                    << id << " cap " << cap;
                EXPECT_EQ(out.size(), matched);
            }
        }

        const size_t total = 1 + rng.below(16);
        std::vector<EClassId> want;
        for (const EMatch& m : ematchAll(g, pat, total)) {
            if (want.empty() || want.back() != m.root) {
                want.push_back(m.root);
            }
        }
        std::vector<EClassId> got;
        size_t found = 0;
        for (EClassId id : program.candidateRoots(g)) {
            if (found >= total) {
                break;
            }
            const size_t n = program.countAt(g, id, total - found, scratch);
            if (n > 0) {
                got.push_back(id);
                found += n;
            }
        }
        EXPECT_EQ(got, want)
            << "pattern " << termToString(pat) << " total cap " << total;
    }
}

// --- worklist extractor vs full-sweep oracle -------------------------

/**
 * The pre-worklist extractor: ascending sweeps until no change.  Its
 * chosen node is the graph's own node, so a chosen-node check compares
 * identities.
 */
void
naiveRelax(const EGraph& g, const CostFn& costFn,
           std::unordered_map<EClassId, double>& bestCost,
           std::unordered_map<EClassId, const ENode*>& bestNode)
{
    bool changed = true;
    while (changed) {
        changed = false;
        for (EClassId id : g.classIds()) {
            for (const ENode& node : g.cls(id).nodes) {
                std::vector<double> childCosts;
                childCosts.reserve(node.children.size());
                bool feasible = true;
                for (EClassId child : node.children) {
                    auto it = bestCost.find(g.find(child));
                    if (it == bestCost.end()) {
                        feasible = false;
                        break;
                    }
                    childCosts.push_back(it->second);
                }
                if (!feasible) {
                    continue;
                }
                const double cost = costFn(node, childCosts);
                auto it = bestCost.find(id);
                if (it == bestCost.end() || cost < it->second - 1e-12) {
                    bestCost[id] = cost;
                    bestNode[id] = &node;
                    changed = true;
                }
            }
        }
    }
}

class ExtractorWorklist : public ::testing::TestWithParam<int> {};

// The worklist relaxation must produce bit-identical costs AND the same
// chosen node per class (epsilon-ties resolve the same way) as the
// full-sweep loop it replaced.  The max-based cost creates many exact
// ties, and the op-skewed one differences below the 1e-12 improvement
// threshold, stressing the tie-break order.  Larger graphs span several
// 64-class words of the worklist bitmaps.
TEST_P(ExtractorWorklist, MatchesFullSweepOracle)
{
    Rng rng(5500 + static_cast<uint64_t>(GetParam()));
    EGraph g = randomGraph(rng);
    if (GetParam() % 2 == 1) {
        for (int i = 0; i < 40; ++i) {
            g.addTerm(randomIntTerm(rng, 5));
        }
        for (int i = 0; i < 30; ++i) {
            const auto ids = g.classIds();
            g.merge(ids[rng.below(ids.size())], ids[rng.below(ids.size())]);
        }
        g.rebuild();
    }

    const CostFn costs[] = {
        astSizeCost,
        [](const ENode&, const std::vector<double>& childCosts) {
            double m = 0.0;
            for (double c : childCosts) {
                m = std::max(m, c);
            }
            return 1.0 + m;
        },
        [](const ENode& node, const std::vector<double>& childCosts) {
            double total = 1.0 + 4e-13 * static_cast<int>(node.op);
            for (double c : childCosts) {
                total += c;
            }
            return total;
        }};
    for (const CostFn& fn : costs) {
        std::unordered_map<EClassId, double> wantCost;
        std::unordered_map<EClassId, const ENode*> wantNode;
        naiveRelax(g, fn, wantCost, wantNode);

        Extractor extractor(g, fn);
        for (EClassId id : g.classIds()) {
            auto want = wantCost.find(id);
            auto got = extractor.costOf(id);
            ASSERT_EQ(want != wantCost.end(), got.has_value())
                << "class " << id;
            if (got.has_value()) {
                EXPECT_EQ(want->second, *got) << "class " << id;
                EXPECT_EQ(wantNode.at(id), extractor.chosenNode(id))
                    << "class " << id << ": want "
                    << wantNode.at(id)->str() << ", got "
                    << extractor.chosenNode(id)->str();
            } else {
                EXPECT_EQ(extractor.chosenNode(id), nullptr);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ExtractorWorklist,
                         ::testing::Range(0, 24));

// --- op index --------------------------------------------------------

TEST(OpIndexTest, ListsEachClassOnceAndTracksMerges)
{
    EGraph g;
    g.addTerm(parseTerm("(+ (* $0.0 $0.1) (* $0.1 $0.0))"));
    EXPECT_EQ(g.classesWithOp(Op::Mul).size(), 2u);
    EXPECT_EQ(g.classesWithOp(Op::Add).size(), 1u);
    EXPECT_TRUE(g.classesWithOp(Op::Div).empty());

    const auto muls = g.classesWithOp(Op::Mul);
    g.merge(muls[0], muls[1]);
    g.rebuild();
    // The merged class holds both Mul nodes but appears once.
    EXPECT_EQ(g.classesWithOp(Op::Mul).size(), 1u);
}

TEST(OpIndexTest, MatchesFullScanOnRandomGraphs)
{
    for (int seed = 0; seed < 8; ++seed) {
        Rng rng(3100 + static_cast<uint64_t>(seed));
        EGraph g = randomGraph(rng);
        for (int opv = 0; opv < static_cast<int>(kNumOps); ++opv) {
            const Op op = static_cast<Op>(opv);
            std::vector<EClassId> want;
            for (EClassId id : g.classIds()) {
                for (const ENode& node : g.cls(id).nodes) {
                    if (node.op == op) {
                        want.push_back(id);
                        break;
                    }
                }
            }
            EXPECT_EQ(g.classesWithOp(op), want) << "op " << opv;
        }
    }
}

// --- O(1) node count and class-id snapshot ---------------------------

TEST(NodeCountTest, MatchesExhaustiveCountUnderMerges)
{
    for (int seed = 0; seed < 8; ++seed) {
        Rng rng(8800 + static_cast<uint64_t>(seed));
        EGraph g;
        for (int i = 0; i < 6; ++i) {
            g.addTerm(randomIntTerm(rng, 3));
        }
        for (int round = 0; round < 6; ++round) {
            const auto ids = g.classIds();
            g.merge(ids[rng.below(ids.size())],
                    ids[rng.below(ids.size())]);
            g.rebuild();
            size_t want = 0;
            for (EClassId id : g.classIds()) {
                want += g.cls(id).nodes.size();
            }
            ASSERT_EQ(g.numNodes(), want) << "seed " << seed;
        }
    }
}

TEST(ClassIdsTest, SnapshotIsSortedUniqueAndCanonical)
{
    Rng rng(1234);
    EGraph g = randomGraph(rng);
    const auto& ids = g.classIds();
    EXPECT_EQ(ids.size(), g.numClasses());
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
    for (EClassId id : ids) {
        EXPECT_EQ(g.find(id), id);
    }
}

}  // namespace
}  // namespace isamore
