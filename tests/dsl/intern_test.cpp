/**
 * @file
 * Tests for the hash-consing term interner (dsl/intern.hpp): pointer
 * identity of structural duplicates, differential equivalence against
 * the recursive oracles, the uninterned cost-view constructors and the
 * build-free canonical hash and equality beside them, table purging,
 * and a concurrency hammer meant to run under TSan.
 */
#include "dsl/intern.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <vector>

#include "dsl/term.hpp"
#include "support/check.hpp"
#include "support/pool.hpp"

namespace isamore {
namespace {

/**
 * Deterministic random term generator.  The builder callback decides
 * how interior nodes are constructed (interned vs uninterned), so the
 * same RNG stream yields structurally identical interned/oracle pairs.
 */
template <typename Builder>
TermPtr
randomTerm(std::mt19937& rng, int depth, const Builder& build)
{
    std::uniform_int_distribution<int> pick(0, 9);
    const int roll = pick(rng);
    if (depth <= 0 || roll < 3) {
        switch (roll % 3) {
          case 0:
            return build(Op::Lit, Payload::ofInt(pick(rng) % 4), {});
          case 1:
            return build(Op::Arg, Payload::ofPair(0, pick(rng) % 3), {});
          default:
            return build(Op::Hole, Payload::ofInt(pick(rng) % 3), {});
        }
    }
    const Op ops[] = {Op::Add, Op::Mul, Op::Sub, Op::Shl, Op::Min};
    const Op op = ops[pick(rng) % 5];
    TermPtr lhs = randomTerm(rng, depth - 1, build);
    TermPtr rhs = randomTerm(rng, depth - 1, build);
    return build(op, Payload::none(), {lhs, rhs});
}

TermPtr
buildInterned(Op op, Payload payload, std::vector<TermPtr> children)
{
    return makeTerm(op, std::move(payload), std::move(children));
}

TermPtr
buildUninterned(Op op, Payload payload, std::vector<TermPtr> children)
{
    return makeTermUninterned(op, std::move(payload),
                              std::move(children));
}

TEST(InternTest, StructuralDuplicatesShareOneNode)
{
    TermPtr a = makeTerm(Op::Add, {makeTerm(Op::Mul, {hole(0), lit(3)}),
                                   arg(0, 1)});
    TermPtr b = makeTerm(Op::Add, {makeTerm(Op::Mul, {hole(0), lit(3)}),
                                   arg(0, 1)});
    EXPECT_EQ(a.get(), b.get());
    EXPECT_TRUE(a->interned);
    // Subterms are canonical too.
    EXPECT_EQ(a->children[0].get(), b->children[0].get());
}

TEST(InternTest, DistinctStructuresStayDistinct)
{
    TermPtr a = makeTerm(Op::Add, {lit(1), lit(2)});
    TermPtr b = makeTerm(Op::Add, {lit(2), lit(1)});
    EXPECT_NE(a.get(), b.get());
    EXPECT_FALSE(termEquals(a, b));
}

TEST(InternTest, CachedHashMatchesRecursiveOracle)
{
    std::mt19937 rng(7);
    for (int i = 0; i < 200; ++i) {
        TermPtr t = randomTerm(rng, 4, buildInterned);
        EXPECT_EQ(termHash(t), termHashDeep(t));
        EXPECT_EQ(t->hash, termHashDeep(t));
    }
}

TEST(InternTest, DifferentialInternedVsOracle)
{
    // The same RNG stream drives both builders, so pairs are
    // structurally identical by construction; the interned term must
    // agree with the legacy tree on every observable.
    std::vector<TermPtr> interned;
    std::vector<TermPtr> oracle;
    std::mt19937 rngA(42);
    std::mt19937 rngB(42);
    for (int i = 0; i < 1000; ++i) {
        interned.push_back(randomTerm(rngA, 4, buildInterned));
        oracle.push_back(randomTerm(rngB, 4, buildUninterned));
    }
    for (size_t i = 0; i < interned.size(); ++i) {
        EXPECT_TRUE(termEquals(interned[i], oracle[i]));
        EXPECT_TRUE(termEqualsDeep(interned[i], oracle[i]));
        EXPECT_EQ(termHash(interned[i]), termHash(oracle[i]));
        EXPECT_EQ(termHash(oracle[i]), termHashDeep(oracle[i]));
        EXPECT_EQ(termToString(interned[i]), termToString(oracle[i]));
    }
    // Pairwise equality agrees between the interned world (pointer
    // compare) and the oracle world (structural walk) on a sample.
    for (size_t i = 0; i < 50; ++i) {
        for (size_t j = 0; j < 50; ++j) {
            const bool fast = termEquals(interned[i], interned[j]);
            const bool slow = termEqualsDeep(oracle[i], oracle[j]);
            EXPECT_EQ(fast, slow) << "pair " << i << "," << j;
            EXPECT_EQ(fast, interned[i].get() == interned[j].get());
        }
    }
}

TEST(InternTest, InternTermCanonicalizesUninternedTrees)
{
    std::mt19937 rngA(99);
    std::mt19937 rngB(99);
    for (int i = 0; i < 100; ++i) {
        TermPtr tree = randomTerm(rngA, 4, buildUninterned);
        TermPtr direct = randomTerm(rngB, 4, buildInterned);
        TermPtr canon = internTerm(tree);
        EXPECT_TRUE(canon->interned);
        EXPECT_EQ(canon.get(), direct.get());
        // Identity on already-canonical terms.
        EXPECT_EQ(internTerm(canon).get(), canon.get());
    }
}

TEST(InternTest, MakeTermReCanonicalizesUninternedChildren)
{
    TermPtr rawChild =
        makeTermUninterned(Op::Mul, Payload::none(), {hole(0), lit(2)});
    EXPECT_FALSE(rawChild->interned);
    TermPtr parent = makeTerm(Op::Add, {rawChild, lit(1)});
    EXPECT_TRUE(parent->interned);
    EXPECT_TRUE(parent->children[0]->interned);
    EXPECT_EQ(parent->children[0].get(),
              makeTerm(Op::Mul, {hole(0), lit(2)}).get());
}

TEST(InternTest, UninternedConstructorValidatesLikeMakeTerm)
{
    EXPECT_THROW(makeTermUninterned(Op::Add, Payload::none(), {lit(1)}),
                 UserError);
    EXPECT_THROW(
        makeTermUninterned(Op::Add, Payload::none(), {lit(1), nullptr}),
        UserError);
}

TEST(InternTest, HasHoleFlagTracksHoles)
{
    EXPECT_TRUE(hole(0)->hasHole);
    EXPECT_FALSE(lit(1)->hasHole);
    EXPECT_TRUE(makeTerm(Op::Add, {hole(0), lit(1)})->hasHole);
    EXPECT_FALSE(makeTerm(Op::Add, {lit(2), lit(1)})->hasHole);
    EXPECT_TRUE(makeTermUninterned(Op::Add, Payload::none(),
                                   {hole(0), lit(1)})
                    ->hasHole);
}

TEST(InternTest, CanonicalizeHolesUninternedMatchesCanonicalizeHoles)
{
    TermPtr body = makeTerm(
        Op::Add, {makeTerm(Op::Mul, {hole(7), hole(3)}), hole(7)});
    TermPtr view = canonicalizeHolesUninterned(body);
    EXPECT_TRUE(termEquals(view, canonicalizeHoles(body)));
    // The hole-spine is rebuilt fresh per occurrence (tree form).
    EXPECT_FALSE(view->interned);
    // Hole-free inputs pass through untouched.
    TermPtr holeFree = makeTerm(Op::Add, {lit(1), lit(2)});
    EXPECT_EQ(canonicalizeHolesUninterned(holeFree).get(),
              holeFree.get());
}

TEST(InternTest, CanonicalizeHolesUninternedPreservesSharing)
{
    // A shared hole-free subtree keeps its single node; a shared
    // hole-carrying subtree is expanded to one node per occurrence.
    TermPtr shared = makeTerm(Op::Mul, {arg(0, 0), lit(2)});
    TermPtr spine = makeTermUninterned(Op::Add, Payload::none(),
                                       {hole(4), shared});
    TermPtr body = makeTermUninterned(Op::Sub, Payload::none(),
                                      {spine, shared});
    TermPtr view = canonicalizeHolesUninterned(body);
    EXPECT_EQ(view->children[0]->children[1].get(),
              view->children[1].get());  // hole-free stays shared

    TermPtr holeySub = makeTerm(Op::Mul, {hole(0), lit(2)});
    TermPtr both = makeTermUninterned(Op::Add, Payload::none(),
                                      {holeySub, holeySub});
    TermPtr expanded = canonicalizeHolesUninterned(both);
    EXPECT_NE(expanded->children[0].get(), expanded->children[1].get());
    EXPECT_TRUE(termEquals(expanded->children[0],
                           expanded->children[1]));
}

/**
 * A random term DAG: each node takes its children from the nodes built
 * so far, so hole-carrying and hole-free subterms are both shared.
 * Hole ids are drawn sparse, so canonical numbering always renames.
 */
template <typename Builder>
TermPtr
randomDag(std::mt19937& rng, const Builder& build)
{
    std::uniform_int_distribution<int> pick(0, 99);
    std::vector<TermPtr> nodes;
    const int leaves = 2 + pick(rng) % 4;
    for (int i = 0; i < leaves; ++i) {
        switch (pick(rng) % 3) {
          case 0:
            nodes.push_back(build(Op::Lit, Payload::ofInt(pick(rng) % 3), {}));
            break;
          case 1:
            nodes.push_back(
                build(Op::Arg, Payload::ofPair(0, pick(rng) % 2), {}));
            break;
          default:
            nodes.push_back(
                build(Op::Hole, Payload::ofInt(7 * (pick(rng) % 4) + 3), {}));
            break;
        }
    }
    const Op ops[] = {Op::Add, Op::Mul, Op::Sub, Op::Min};
    const int interior = 1 + pick(rng) % 6;
    for (int i = 0; i < interior; ++i) {
        const TermPtr lhs = nodes[static_cast<size_t>(pick(rng)) % nodes.size()];
        const TermPtr rhs = nodes[static_cast<size_t>(pick(rng)) % nodes.size()];
        nodes.push_back(build(ops[pick(rng) % 4], Payload::none(), {lhs, rhs}));
    }
    return nodes.back();
}

/** @p term with every hole id mapped through @p rename, uninterned. */
TermPtr
renameRaw(const TermPtr& term, const std::function<int64_t(int64_t)>& rename)
{
    if (term->op == Op::Hole) {
        return makeTermUninterned(
            Op::Hole, Payload::ofInt(rename(term->payload.a)), {});
    }
    if (!term->hasHole) {
        return term;
    }
    std::vector<TermPtr> children;
    for (const TermPtr& child : term->children) {
        children.push_back(renameRaw(child, rename));
    }
    return makeTermUninterned(term->op, term->payload, std::move(children));
}

TEST(InternTest, CanonicalHashAndEqualityAgreeWithMaterializedView)
{
    // canonicalHoleHash / canonicalHolesEqual decide, without building,
    // what canonicalizeHolesUninterned's view would answer.
    std::mt19937 rng(2024);
    std::vector<TermPtr> terms;
    for (int i = 0; i < 300; ++i) {
        terms.push_back(i % 2 == 0 ? randomDag(rng, buildUninterned)
                                   : randomDag(rng, buildInterned));
    }
    std::vector<TermPtr> views;
    for (const TermPtr& t : terms) {
        const TermPtr view = canonicalizeHolesUninterned(t);
        views.push_back(view);
        EXPECT_EQ(canonicalHoleHash(t), view->hash) << termToString(t);
        EXPECT_TRUE(canonicalHolesEqual(view, t)) << termToString(t);
        EXPECT_TRUE(canonicalHolesEqual(internTerm(view), t));
        EXPECT_TRUE(termEquals(view, canonicalizeHoles(t)));

        // An injective renaming has the same canonical form.
        const TermPtr renamed =
            renameRaw(t, [](int64_t id) { return 1000 - 2 * id; });
        EXPECT_EQ(canonicalHoleHash(renamed), view->hash);
        EXPECT_TRUE(canonicalHolesEqual(view, renamed));
    }
    // Pairwise over a sample: the same verdict as comparing views, and
    // equal canonical forms hash equal.
    for (size_t i = 0; i < 120; ++i) {
        for (size_t j = 0; j < 120; ++j) {
            const bool want = termEquals(views[i], views[j]);
            EXPECT_EQ(canonicalHolesEqual(views[i], terms[j]), want)
                << termToString(terms[i]) << " vs "
                << termToString(terms[j]);
            if (want) {
                EXPECT_EQ(canonicalHoleHash(terms[j]), views[i]->hash);
            }
        }
    }
    // A renaming that merges two holes changes the canonical form.
    const TermPtr twoHoles = makeTerm(Op::Add, {hole(5), hole(9)});
    const TermPtr merged =
        renameRaw(twoHoles, [](int64_t) { return int64_t{4}; });
    EXPECT_FALSE(canonicalHolesEqual(canonicalizeHolesUninterned(twoHoles),
                                     merged));
    EXPECT_NE(canonicalHoleHash(merged), canonicalHoleHash(twoHoles));
}

TEST(InternTest, CopyTopologyPreservesInternalSharing)
{
    TermPtr leaf = makeTerm(Op::Mul, {arg(0, 0), lit(2)});
    TermPtr dag = makeTerm(Op::Add, {leaf, leaf});
    TermPtr copy = copyTopologyUninterned(dag);
    EXPECT_NE(copy.get(), dag.get());
    EXPECT_FALSE(copy->interned);
    EXPECT_TRUE(termEquals(copy, dag));
    // One source node -> one copy node: the shared leaf stays shared.
    EXPECT_EQ(copy->children[0].get(), copy->children[1].get());
    // A second copy is private from the first.
    TermPtr again = copyTopologyUninterned(dag);
    EXPECT_NE(again.get(), copy.get());
    EXPECT_NE(again->children[0].get(), copy->children[0].get());
}

TEST(InternTest, PurgeDropsOnlyUnreferencedNodes)
{
    TermPtr keep = makeTerm(Op::Add, {lit(801), lit(802)});
    {
        TermPtr temp = makeTerm(Op::Mul, {lit(803), lit(804)});
        (void)temp;
    }
    const size_t live = internStats().terms;
    const size_t dropped = internPurge();
    EXPECT_GE(dropped, 1u);  // at least the Mul node above
    EXPECT_EQ(internStats().terms, live - dropped);
    // Survivors stay canonical: re-making keep is still a hit.
    EXPECT_EQ(makeTerm(Op::Add, {lit(801), lit(802)}).get(), keep.get());
    // Purged structures re-intern cleanly.
    TermPtr again = makeTerm(Op::Mul, {lit(803), lit(804)});
    EXPECT_TRUE(again->interned);
}

TEST(InternTest, StatsCountHitsAndMisses)
{
    const InternStats before = internStats();
    TermPtr fresh = makeTerm(Op::Add, {lit(90001), lit(90002)});
    TermPtr dup = makeTerm(Op::Add, {lit(90001), lit(90002)});
    EXPECT_EQ(fresh.get(), dup.get());
    const InternStats after = internStats();
    EXPECT_GT(after.misses, before.misses);  // new structure allocated
    EXPECT_GT(after.hits, before.hits);      // duplicate was a table hit
    EXPECT_EQ(after.shards, 64u);
    EXPECT_GE(after.terms, before.terms);
}

/**
 * Concurrency hammer: many lanes intern overlapping structures at
 * once.  Run under TSan to check the striped locking; the functional
 * assertion is that every lane got the same canonical pointers.
 */
TEST(InternTest, ConcurrentInterningYieldsOneCanonicalNode)
{
    constexpr size_t kLanes = 8;
    constexpr int kTermsPerLane = 64;
    ThreadPool pool(kLanes);
    std::vector<std::vector<TermPtr>> perLane(kLanes);
    pool.parallelFor(kLanes, [&](size_t lane) {
        std::mt19937 rng(1234);  // same stream: lanes collide on purpose
        for (int i = 0; i < kTermsPerLane; ++i) {
            perLane[lane].push_back(randomTerm(rng, 4, buildInterned));
        }
    });
    for (size_t lane = 1; lane < kLanes; ++lane) {
        ASSERT_EQ(perLane[lane].size(), perLane[0].size());
        for (int i = 0; i < kTermsPerLane; ++i) {
            EXPECT_EQ(perLane[lane][i].get(), perLane[0][i].get());
        }
    }
}

}  // namespace
}  // namespace isamore
