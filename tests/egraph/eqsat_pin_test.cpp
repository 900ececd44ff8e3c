/**
 * EqSat output pin: a seeded generator sweeps random term sets through
 * runEqSat single-threaded and folds the result into one 64-bit digest
 * that is compared against a committed constant.
 *
 * The digest covers the union-find, version, and each class's node and
 * parent lists in storage order from exportSnapshot(), plus the
 * deterministic EqSatStats counts and per-rule matches and applications.
 * Timings are left out.  dumpText() sorts its lines, so it cannot see a
 * change in storage order; repair and merge tie-breaking read those
 * orders, so the snapshot is what pins them.
 *
 * SurvivingStateDigestPinned was committed while the runner still had
 * incremental search (per-class stamps and cached match counts) and
 * backoff bans.  It folds nothing that described that scheduling, gave
 * the same digest with incremental search on and off, and held unedited
 * across their removal.
 *
 * Any change to ids, union outcomes, node/parent order, or the counts
 * moves the digest.  Regenerate the constant only for a deliberate,
 * explained change to EqSat output.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "egraph/rewrite.hpp"
#include "support/pool.hpp"
#include "support/rng.hpp"

namespace isamore {
namespace {

/** Self-contained 64-bit fold (splitmix64 finalizer per word), so the pin
 *  does not move when the library's own hash helpers change. */
class Digest {
 public:
    void
    add(uint64_t value)
    {
        uint64_t x = state_ ^ (value + 0x9e3779b97f4a7c15ull);
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        state_ = x ^ (x >> 31);
    }

    void
    add(const std::string& text)
    {
        add(text.size());
        for (const char c : text) {
            add(static_cast<unsigned char>(c));
        }
    }

    void
    add(const ENode& node)
    {
        add(static_cast<uint64_t>(node.op));
        add(static_cast<uint64_t>(node.payload.kind));
        add(static_cast<uint64_t>(node.payload.a));
        add(static_cast<uint64_t>(node.payload.b));
        uint64_t bits = 0;
        std::memcpy(&bits, &node.payload.f, sizeof(bits));
        add(bits);
        add(node.children.size());
        for (const EClassId child : node.children) {
            add(child);
        }
    }

    /** Each canonical class's node and parent lists, in storage order. */
    void
    addClasses(const EGraphSnapshot& snap)
    {
        add(snap.classes.size());
        for (const EGraphSnapshot::ClassImage& image : snap.classes) {
            add(image.id);
            add(image.nodes.size());
            for (const ENode& node : image.nodes) {
                add(node);
            }
            add(image.parents.size());
            for (const auto& [pnode, pclass] : image.parents) {
                add(pnode);
                add(pclass);
            }
        }
    }

    uint64_t value() const { return state_; }

 private:
    uint64_t state_ = 0;
};

/** Random expression over +, *, -, << with shared leaves. */
TermPtr
randomTerm(Rng& rng, int depth)
{
    if (depth <= 0 || rng.next() % 4 == 0) {
        if (rng.next() % 2 == 0) {
            return lit(static_cast<int64_t>(rng.next() % 4));
        }
        return arg(0, static_cast<int64_t>(rng.next() % 3));
    }
    static const Op kOps[] = {Op::Add, Op::Mul, Op::Sub, Op::Shl};
    const Op op = kOps[rng.next() % 4];
    return makeTerm(op,
                    {randomTerm(rng, depth - 1), randomTerm(rng, depth - 1)});
}

std::vector<RewriteRule>
pinRules()
{
    return {
        makeRule("add-comm", "(+ ?0 ?1)", "(+ ?1 ?0)", kRuleSat | kRuleInt),
        makeRule("mul-comm", "(* ?0 ?1)", "(* ?1 ?0)", kRuleSat | kRuleInt),
        makeRule("mul2-shift", "(* ?0 2)", "(<< ?0 1)", kRuleInt),
        makeRule("distribute", "(* (+ ?0 ?1) ?2)", "(+ (* ?0 ?2) (* ?1 ?2))",
                 kRuleInt),
        makeRule("add-zero", "(+ ?0 0)", "?0", kRuleSat | kRuleInt),
    };
}

/** Folds one finished run (its rebuilt graph and stats) into a digest. */
using Fold = void (*)(Digest&, const EGraphSnapshot&, const EqSatStats&);

void
runInto(Digest& digest, Fold fold, EGraph& g, const EqSatLimits& limits)
{
    const EqSatStats stats = runEqSat(g, pinRules(), limits);
    fold(digest, g.exportSnapshot(), stats);
}

/**
 * The fields an EqSat run leaves behind that do not describe how its
 * search was scheduled: union-find, version, each class's node and
 * parent lists in storage order, the outcome counts, and per-rule
 * matches and applications.
 */
void
foldSurvivingState(Digest& digest, const EGraphSnapshot& snap,
                   const EqSatStats& stats)
{
    digest.add(snap.version);
    digest.add(snap.numIds);
    for (const EClassId root : snap.unionFind) {
        digest.add(root);
    }
    digest.addClasses(snap);
    digest.add(stats.iterations);
    digest.add(stats.peakNodes);
    digest.add(stats.peakClasses);
    digest.add(stats.applications);
    digest.add(stats.skippedRules);
    digest.add(static_cast<uint64_t>(stats.stopReason));
    digest.add(stats.perRule.size());
    for (const auto& [name, totals] : stats.perRule) {
        digest.add(name);
        digest.add(totals.matches);
        digest.add(totals.applications);
    }
}

/** The 1000 default-limit seeds, then the 32-seed band at a match cap of
 *  8, single-threaded, folded with foldSurvivingState. */
uint64_t
pinSweepDigest()
{
    setGlobalThreads(1);
    Digest digest;
    for (uint64_t seed = 0; seed < 1000; ++seed) {
        Rng rng(seed);
        EGraph g;
        const size_t terms = 2 + rng.next() % 5;
        for (size_t t = 0; t < terms; ++t) {
            g.addTerm(randomTerm(rng, 2 + static_cast<int>(rng.next() % 3)));
        }
        EqSatLimits limits;
        limits.maxIterations = 4;
        limits.maxNodes = 4000;
        runInto(digest, foldSurvivingState, g, limits);
    }
    for (uint64_t seed = 0; seed < 32; ++seed) {
        EqSatLimits limits;
        limits.maxIterations = 5;
        limits.maxMatchesPerRule = 8;
        Rng rng(seed);
        EGraph g;
        for (size_t t = 0; t < 3; ++t) {
            g.addTerm(randomTerm(rng, 3));
        }
        runInto(digest, foldSurvivingState, g, limits);
    }
    setGlobalThreads(0);
    return digest.value();
}

/** Digest of pinSweepDigest. */
constexpr uint64_t kSurvivingStateDigest = 0xd62b20ed5c982db8ull;

TEST(EqSatPinTest, SurvivingStateDigestPinned)
{
    const uint64_t digest = pinSweepDigest();
    EXPECT_EQ(digest, kSurvivingStateDigest)
        << "EqSat output digest changed: 0x" << std::hex << digest;
}

}  // namespace
}  // namespace isamore
