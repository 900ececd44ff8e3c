/**
 * EqSat output pin: a seeded generator sweeps random term sets through
 * runEqSat single-threaded and folds the result into one 64-bit digest
 * that is compared against a committed constant.
 *
 * The digest covers every field of exportSnapshot() -- union-find, the
 * per-id stamps, both clocks, and each class's node and parent lists in
 * storage order -- plus the deterministic EqSatStats counts.  Timings are
 * left out.  dumpText() sorts its lines, so it cannot see a change in
 * storage order; repair and merge tie-breaking read those orders, so the
 * snapshot is what pins them.
 *
 * UnboundedStampDigestPinned was committed while the e-graph still kept
 * several depth-bucketed stamps per id and the runner a search
 * scheduler; it folds only each id's unbounded stamp and the runner's
 * outcome and per-rule counts, so it held unedited across their removal.
 *
 * Any change to ids, stamps, union outcomes, node/parent order, or the
 * counts moves a digest.  Regenerate a constant only for a deliberate,
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

    /** Clocks, id count and union-find: the snapshot's leading fields. */
    void
    addHeader(const EGraphSnapshot& snap)
    {
        add(snap.clock);
        add(snap.version);
        add(snap.numIds);
        add(snap.unionFind.size());
        for (const EClassId root : snap.unionFind) {
            add(root);
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

    /** The run's outcome counts, up to and including the stop reason. */
    void
    addOutcome(const EqSatStats& stats)
    {
        add(stats.iterations);
        add(stats.peakNodes);
        add(stats.peakClasses);
        add(stats.applications);
        add(stats.rulesBanned);
        add(stats.skippedRules);
        add(static_cast<uint64_t>(stats.stopReason));
    }

    /** Per-rule totals, in rule order. */
    void
    addPerRule(const EqSatStats& stats)
    {
        add(stats.perRule.size());
        for (const auto& [name, totals] : stats.perRule) {
            add(name);
            add(totals.matches);
            add(totals.applications);
            add(totals.bans);
            add(totals.cacheSkips);
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

/**
 * Every snapshot field, but only each id's unbounded stamp, and the
 * runner's outcome and per-rule counts.  The snapshot may store several
 * stamps per id; the unbounded one is always the last of them, so the
 * stride is derived from the image instead of from the e-graph's layout.
 */
void
foldUnboundedStamps(Digest& digest, const EGraphSnapshot& snap,
                    const EqSatStats& stats)
{
    digest.addHeader(snap);
    const size_t stride =
        snap.numIds == 0 ? 0 : snap.stamps.size() / snap.numIds;
    digest.add(snap.numIds);
    for (size_t id = 0; id < snap.numIds; ++id) {
        digest.add(snap.stamps[(id + 1) * stride - 1]);
    }
    digest.addClasses(snap);
    digest.addOutcome(stats);
    digest.addPerRule(stats);
}

void
runInto(Digest& digest, Fold fold, EGraph& g, const EqSatLimits& limits)
{
    const EqSatStats stats = runEqSat(g, pinRules(), limits);
    fold(digest, g.exportSnapshot(), stats);
}

/** Both seed sweeps, single-threaded, folded with @p fold. */
uint64_t
sweepDigest(Fold fold)
{
    setGlobalThreads(1);
    Digest digest;

    // 1000 random term sets under the default schedule.
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
        limits.maxSeconds = 1e9;  // no wall-clock dependence in a pin
        runInto(digest, fold, g, limits);
    }

    // A band of seeds under tight caps, with backoff bans and with
    // incremental search on and off.
    for (uint64_t seed = 0; seed < 32; ++seed) {
        for (const bool backoff : {false, true}) {
            for (const bool incremental : {true, false}) {
                EqSatLimits limits;
                limits.maxIterations = 5;
                limits.maxSeconds = 1e9;
                limits.useBackoff = backoff;
                limits.incrementalSearch = incremental;
                limits.maxMatchesPerRule = 8;
                Rng rng(seed);
                EGraph g;
                for (size_t t = 0; t < 3; ++t) {
                    g.addTerm(randomTerm(rng, 3));
                }
                runInto(digest, fold, g, limits);
            }
        }
    }
    setGlobalThreads(0);
    return digest.value();
}

/** Digest of foldUnboundedStamps, committed with the serial engine. */
constexpr uint64_t kUnboundedStampDigest = 0x1a1a05cc50b3e7e5ull;

TEST(EqSatPinTest, UnboundedStampDigestPinned)
{
    const uint64_t digest = sweepDigest(foldUnboundedStamps);
    EXPECT_EQ(digest, kUnboundedStampDigest)
        << "EqSat output digest changed: 0x" << std::hex << digest;
}

}  // namespace
}  // namespace isamore
