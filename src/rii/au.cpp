#include "rii/au.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "dsl/intern.hpp"
#include "egraph/extract.hpp"
#include "hls/estimator.hpp"
#include "rii/structhash.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/hashing.hpp"
#include "support/pool.hpp"
#include "support/telemetry.hpp"

namespace isamore {
namespace rii {
namespace {

/** Key for memoizing AU over unordered class pairs. */
struct PairKey {
    EClassId a;
    EClassId b;
    bool operator==(const PairKey& o) const { return a == o.a && b == o.b; }
};
struct PairKeyHash {
    size_t
    operator()(const PairKey& k) const
    {
        return hashCombine(mix64(k.a), k.b);
    }
};

/**
 * Whether a candidate pattern is well formed: App nodes must carry a
 * concrete PatRef head (anti-unifying two different patterns' App nodes
 * can produce a hole in head position, which is not an instruction).
 */
bool
patternWellFormed(const TermPtr& term, bool isAppHead = false)
{
    if (term->op == Op::PatRef) {
        return isAppHead;
    }
    if (term->op == Op::App) {
        if (term->children.empty() ||
            !patternWellFormed(term->children[0], true)) {
            return false;
        }
        for (size_t i = 1; i < term->children.size(); ++i) {
            if (!patternWellFormed(term->children[i])) {
                return false;
            }
        }
        return true;
    }
    for (const auto& child : term->children) {
        if (!patternWellFormed(child)) {
            return false;
        }
    }
    return true;
}

/** Admissible-pair selection (the filters of paper §5.2). */
class PairSelector {
 public:
    PairSelector(const EGraph& egraph, const AuOptions& options)
        : egraph_(egraph), options_(options)
    {
        ids_ = egraph.classIds();
        if (options_.typeFilter) {
            types_ = computeClassTypes(egraph_);
        }
        if (options_.hashFilter) {
            hashes_ = computeStructHashes(egraph_);
        }
    }

    size_t pairsConsidered() const { return pairsConsidered_; }

    std::vector<std::pair<EClassId, EClassId>>
    select()
    {
        std::vector<std::pair<EClassId, EClassId>> pairs;
        auto push = [&](EClassId a, EClassId b) {
            if (pairs.size() < kMaxPairs && pairAdmissible(a, b)) {
                pairs.emplace_back(a, b);
            }
        };

        if (!options_.hashFilter ||
            ids_.size() <= kQuadraticPairLimit) {
            for (size_t i = 0; i < ids_.size(); ++i) {
                for (size_t j = i + 1; j < ids_.size(); ++j) {
                    if (pairs.size() >= kMaxPairs) {
                        return pairs;
                    }
                    push(ids_[i], ids_[j]);
                }
            }
            return pairs;
        }

        // Banding for large graphs: sort by structural hash and compare
        // each class with a window of hash neighbours (exact-duplicate
        // buckets are contiguous and always fully paired).
        std::vector<EClassId> order = ids_;
        std::sort(order.begin(), order.end(),
                  [&](EClassId x, EClassId y) {
                      return hashes_.at(x) < hashes_.at(y);
                  });
        for (size_t i = 0; i < order.size(); ++i) {
            const size_t end =
                std::min(order.size(), i + 1 + kBandingWindow);
            for (size_t j = i + 1; j < end; ++j) {
                if (pairs.size() >= kMaxPairs) {
                    return pairs;
                }
                push(order[i], order[j]);
            }
        }
        return pairs;
    }

 private:
    bool
    pairAdmissible(EClassId a, EClassId b)
    {
        ++pairsConsidered_;
        if (leafOnly(a) || leafOnly(b)) {
            return false;
        }
        if (options_.typeFilter) {
            Type ta = types_.at(a);
            Type tb = types_.at(b);
            if (ta.isBottom() || tb.isBottom() || ta != tb) {
                return false;
            }
        }
        if (options_.hashFilter &&
            structDistance(hashes_.at(a), hashes_.at(b)) >
                options_.hammingThreshold) {
            return false;
        }
        return true;
    }

    bool
    leafOnly(EClassId id)
    {
        for (const ENode& n : egraph_.cls(id).nodes) {
            if (!n.isLeaf()) {
                return false;
            }
        }
        return true;
    }

    const EGraph& egraph_;
    const AuOptions& options_;
    std::vector<EClassId> ids_;
    ClassMap<Type> types_;
    ClassMap<uint64_t> hashes_;
    size_t pairsConsidered_ = 0;
};

/** Immutable per-sweep data shared (read-only) by every shard. */
struct SweepContext {
    const EGraph& egraph;
    const AuOptions& options;
    const ClassMap<TermPtr>& reprs;  ///< small representatives, AU(a, a)
};

/** A filtered pattern as AU produced it, with its canonical hash. */
struct Produced {
    uint64_t canonicalHash;  ///< canonicalHoleHash(term)
    TermPtr term;            ///< raw: the shard's hole numbering
};

/** What one explored pair contributed, recorded in sweep order. */
struct PairRecord {
    bool skipped = false;       ///< fault / sweep deadline / exception
    size_t rawCandidates = 0;   ///< candidates enumerated for this pair
    std::vector<Produced> patterns;  ///< filtered, un-deduped
};

/** One chunk's outcome: a prefix of its pair range plus why it ended. */
struct ChunkOutcome {
    std::vector<PairRecord> records;
    bool stopped = false;  ///< sweep deadline / sweep fault: rest skipped
    bool aborted = false;  ///< candidate budget blew (last record partial)
    // Shard memo behaviour over this chunk (telemetry; deterministic for
    // a full chunk because the memo resets at every chunk boundary).
    size_t memoHits = 0;
    size_t memoMisses = 0;
    // HLS feature work over this chunk (telemetry, same determinism):
    // full scheduling walks, feature-memo hits, and candidate features
    // composed from their children's summaries.
    size_t featureEvals = 0;
    size_t featureHits = 0;
    size_t featureComposed = 0;
};

/**
 * The anti-unification engine for one chunk of the pair list.
 *
 * Each shard owns its memo, hole namespace, and cycle-breaking set, so
 * shards never synchronize.  Emitted patterns keep the shard's hole ids;
 * the merge in identifyPatterns() deduplicates them by their first-
 * occurrence hole numbering (canonicalHoleHash/canonicalHolesEqual) and
 * materializes only first occurrences, which makes the per-shard hole
 * namespace invisible in the output.  The merge replays the serial
 * sweep's control flow over the recorded chunks in pair order, so the
 * result is independent of the thread count.
 *
 * Allocation: au() hands out its answer by reference (a memo entry, or
 * result_ when the answer is not memoized), and the per-call buffers of
 * au()/appendNodeAu() live in one DepthScratch per recursion depth --
 * the recursion has at most one frame per depth -- so a shard allocates
 * per memo entry and per kept pattern, not per candidate.
 */
class AuShard {
 public:
    AuShard(const SweepContext& ctx, Budget* parent)
        : egraph_(ctx.egraph), options_(ctx.options), reprs_(ctx.reprs),
          budget_(sweepSpec(ctx.options), parent),
          depthScratch_(
              static_cast<size_t>(std::max(ctx.options.maxDepth, 0)) + 1)
    {
        sweepLimited_ = budget_.remainingSeconds() != kUnlimitedSeconds;
    }

    ChunkOutcome
    runChunk(const std::vector<std::pair<EClassId, EClassId>>& pairs,
             size_t begin, size_t end, std::atomic<bool>& stopFlag)
    {
        ChunkOutcome out;
        out.records.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
            if (aborted_) {
                // The candidate budget blew mid-enumeration.  That cap is
                // experiment policy (the LLMT baseline exceeds it by
                // design), so the pairs never reached are not counted as
                // skipped work: `aborted` already tells the whole story.
                out.aborted = true;
                break;
            }
            if (fault::tripped("au.sweep") || !budget_.ok() ||
                stopFlag.load(std::memory_order_relaxed)) {
                // Sweep-level stop.  Flagging it lets sibling shards bail
                // out instead of computing results the merge will drop.
                stopFlag.store(true, std::memory_order_relaxed);
                out.stopped = true;
                break;
            }
            const auto& [a, b] = pairs[i];
            PairRecord rec;
            pairTripped_ = false;
            const size_t rawBefore = rawCount_;
            if (fault::tripped("au.pair")) {
                rec.skipped = true;
                out.records.push_back(std::move(rec));
                continue;
            }
            // Per-pair skip-and-record: a pair that runs into the sweep
            // deadline or faults is dropped whole and the sweep moves on.
            const std::vector<TermPtr>* produced = nullptr;
            try {
                produced = &au(a, b, options_.maxDepth);
            } catch (const InternalError&) {
                inProgress_.clear();
                rec.skipped = true;
                rec.rawCandidates = rawCount_ - rawBefore;
                out.records.push_back(std::move(rec));
                continue;
            } catch (const std::bad_alloc&) {
                inProgress_.clear();
                rec.skipped = true;
                rec.rawCandidates = rawCount_ - rawBefore;
                out.records.push_back(std::move(rec));
                continue;
            }
            rec.rawCandidates = rawCount_ - rawBefore;
            if (pairTripped_) {
                rec.skipped = true;
                out.records.push_back(std::move(rec));
                continue;
            }
            for (const TermPtr& p : *produced) {
                if (termOpCount(p) < kMinOps ||
                    !p->hasHole || p->op == Op::List ||
                    !patternWellFormed(p)) {
                    continue;
                }
                rec.patterns.push_back(Produced{canonicalHoleHash(p), p});
            }
            out.records.push_back(std::move(rec));
        }
        // An abort on the chunk's last pair never reaches the loop-top
        // check; make sure the merge still sees it.
        out.aborted = out.aborted || aborted_;
        out.memoHits = memoHits_;
        out.memoMisses = memoMisses_;
        out.featureEvals = featureEvals_;
        out.featureHits = featureHits_;
        out.featureComposed = featureComposed_;
        return out;
    }

 private:
    /**
     * The fresh variable shared by every occurrence of the *ordered*
     * (left, right) class pair.  Ordering matters for least-general-
     * generalization soundness: an AU variable stands for the
     * substitution (left-term, right-term); conflating (u, v) with
     * (v, u) would force one class to contain both sides' structure and
     * produce patterns that match nothing.
     */
    TermPtr
    holeFor(EClassId a, EClassId b)
    {
        PairKey key{egraph_.find(a), egraph_.find(b)};
        auto it = pairHole_.find(key);
        if (it == pairHole_.end()) {
            it = pairHole_.emplace(key, hole(nextHole_++)).first;
        }
        return it->second;
    }

    /** sweep budget: the parent's deadline + one consumable unit per
     *  raw candidate. */
    static BudgetSpec
    sweepSpec(const AuOptions& options)
    {
        BudgetSpec spec;
        spec.maxUnits = options.maxCandidates;
        return spec;
    }

    /**
     * The AU set of the class pair (@p a, @p b).  The reference is to a
     * memo entry or to result_, so it is valid until the next au() call;
     * every caller consumes it before making one.
     */
    const std::vector<TermPtr>&
    au(EClassId a, EClassId b, int depth)
    {
        a = egraph_.find(a);
        b = egraph_.find(b);
        // The sweep deadline is polled on every recursion step, but only
        // when one is actually set (free in the default unlimited
        // configuration).
        if (sweepLimited_ && !pairTripped_ && !budget_.ok()) {
            pairTripped_ = true;
        }
        if (depth <= 0 || aborted_ || pairTripped_) {
            return holeOnly(a, b);
        }
        if (a == b) {
            auto repr = reprs_.find(a);
            if (repr == reprs_.end()) {
                return holeOnly(a, b);
            }
            result_.clear();
            result_.push_back(repr->second);
            result_.push_back(holeFor(a, b));
            return result_;
        }
        PairKey key{a, b};
        auto memo = memo_.find(key);
        if (memo != memo_.end()) {
            ++memoHits_;
            return memo->second;
        }
        ++memoMisses_;
        // Break cycles through in-progress pairs with the pair hole.  The
        // pairs in progress are the memo misses on the recursion path, at
        // most one per depth, so they sit on a stack searched linearly.
        // It compares the keys themselves: no unrelated pair may look
        // in-progress and silently degrade to a bare hole.
        if (std::find(inProgress_.begin(), inProgress_.end(), key) !=
            inProgress_.end()) {
            return holeOnly(a, b);
        }
        inProgress_.push_back(key);

        TermPtr pairHole = holeFor(a, b);
        Pending& pending = depthScratch_[static_cast<size_t>(depth)].pending;
        pending.candidates.clear();
        pending.args.clear();
        for (const ENode& na : egraph_.cls(a).nodes) {
            if (aborted_) {
                break;
            }
            for (const ENode& nb : egraph_.cls(b).nodes) {
                if (na.op != nb.op || na.payload != nb.payload ||
                    na.children.size() != nb.children.size() ||
                    na.isLeaf()) {
                    continue;
                }
                appendNodeAu(na, nb, depth, pending);
                if (aborted_) {
                    break;
                }
            }
        }
        // Every child au() call has returned, so result_ is free.
        samplePatterns(std::move(pairHole), pending, result_);
        inProgress_.pop_back();
        // A tripped pair produced degenerate (hole-heavy) results; do not
        // memoize them, so later pairs recompute this subproblem cleanly.
        if (pairTripped_) {
            return result_;
        }
        return memo_
            .emplace(key, std::vector<TermPtr>(result_.begin(),
                                               result_.end()))
            .first->second;
    }

    /** The answer {pair hole}, in result_. */
    const std::vector<TermPtr>&
    holeOnly(EClassId a, EClassId b)
    {
        result_.clear();
        result_.push_back(holeFor(a, b));
        return result_;
    }

    /** A memoized feature summary beside the term it describes. */
    struct FeatureEntry {
        TermPtr term;  ///< pins the key: its address cannot be recycled
        hls::FeatureSummary summary;
        double feature;
    };

    /**
     * The product elements of one au() call, recorded instead of built:
     * candidate k is node->op / node->payload over the child patterns
     * args[firstArg, firstArg + arity).  The entries live in features_,
     * which never erases, so they stay valid for the shard's lifetime;
     * the e-nodes are the sweep's immutable e-graph's.
     */
    struct Candidate {
        const ENode* node;
        size_t firstArg;
    };
    struct Pending {
        std::vector<Candidate> candidates;
        std::vector<const FeatureEntry*> args;
    };

    /**
     * The buffers of the au() frame and its appendNodeAu() calls at one
     * depth.  Depth strictly decreases down the recursion, so a depth
     * has at most one live frame and one slot each is enough.
     */
    struct DepthScratch {
        Pending pending;  ///< au()'s product elements
        std::vector<std::vector<const FeatureEntry*>> childSets;
        std::vector<size_t> index;  ///< mixed-radix product counter
    };

    /** AU over one matching e-node pair: the capped Cartesian product of
     *  the child AU sets, recorded in @p pending. */
    void
    appendNodeAu(const ENode& na, const ENode& nb, int depth,
                 Pending& pending)
    {
        const size_t arity = na.children.size();
        DepthScratch& scratch = depthScratch_[static_cast<size_t>(depth)];
        auto& childSets = scratch.childSets;
        if (childSets.size() < arity) {
            childSets.resize(arity);
        }
        for (size_t i = 0; i < arity; ++i) {
            const std::vector<TermPtr>& set =
                au(na.children[i], nb.children[i], depth - 1);
            // Cheapest (most general) child patterns first, so the capped
            // product enumeration visits concise generalizations before
            // the deep specialized ones.  Decorate-sort-undecorate with
            // std::sort: the comparator sees the same feature values in
            // the same positions as a comparator calling patternFeature,
            // so the permutation (ties included) is unchanged.
            decorated_.clear();
            for (const TermPtr& term : set) {
                const FeatureEntry& entry = entryFor(term);
                decorated_.emplace_back(entry.feature, &entry);
            }
            if (set.empty()) {
                const FeatureEntry& entry =
                    entryFor(holeFor(na.children[i], nb.children[i]));
                decorated_.emplace_back(entry.feature, &entry);
            }
            std::sort(decorated_.begin(), decorated_.end(),
                      [](const auto& x, const auto& y) {
                          return x.first < y.first;
                      });
            childSets[i].clear();
            for (const auto& [feature, entry] : decorated_) {
                childSets[i].push_back(entry);
            }
        }

        // Enumerate the product with a per-node cap (sampling later
        // shrinks further; Exhaustive mode uses a high cap and relies on
        // the global budget to reproduce the blowup).
        const size_t productCap =
            options_.sampling == Sampling::Exhaustive ? 4096 : 64;
        if (options_.sampling != Sampling::Exhaustive) {
            // Balance the product: cap each child set at the arity-th
            // root of the budget so every child position contributes
            // (a lopsided first set would otherwise monopolize the cap).
            size_t perChild = productCap;
            if (arity == 2) {
                perChild = 8;
            } else if (arity >= 3) {
                perChild = 4;
            }
            for (size_t i = 0; i < arity; ++i) {
                if (childSets[i].size() > perChild) {
                    childSets[i].resize(perChild);
                }
            }
        }
        std::vector<size_t>& index = scratch.index;
        index.assign(arity, 0);
        size_t produced = 0;
        while (true) {
            pending.candidates.push_back(Candidate{&na, pending.args.size()});
            for (size_t i = 0; i < arity; ++i) {
                pending.args.push_back(childSets[i][index[i]]);
            }
            ++rawCount_;
            if (fault::tripped("au.candidate") ||
                !budget_.charge(1)) {
                aborted_ = true;
                return;
            }
            if (++produced >= productCap) {
                return;
            }
            // Advance the mixed-radix counter.
            size_t pos = 0;
            while (pos < arity && ++index[pos] == childSets[pos].size()) {
                index[pos] = 0;
                ++pos;
            }
            if (pos == arity) {
                return;
            }
        }
    }

    /**
     * Build candidate @p k of @p pending.  Candidates stay uninterned
     * inside the sweep: the feature model counts hardware per distinct
     * pointer, so candidate topology (a fresh node per product element
     * over memo-shared children) is part of sampling's observable
     * behaviour.  Survivors are canonicalized and interned at the
     * registry.
     */
    static TermPtr
    build(const Pending& pending, size_t k)
    {
        const Candidate& candidate = pending.candidates[k];
        const size_t arity = candidate.node->children.size();
        std::vector<TermPtr> children;
        children.reserve(arity);
        for (size_t i = 0; i < arity; ++i) {
            children.push_back(pending.args[candidate.firstArg + i]->term);
        }
        return makeTermUninterned(candidate.node->op,
                                  candidate.node->payload,
                                  std::move(children));
    }

    /**
     * Apply the configured sampling strategy at the class-pair level to
     * @p pairHole followed by the candidates in @p pending, writing the
     * survivors to @p kept.  Only the patterns that come out are built.
     */
    void
    samplePatterns(TermPtr pairHole, const Pending& pending,
                   std::vector<TermPtr>& kept)
    {
        const size_t count = 1 + pending.candidates.size();
        kept.clear();
        if (options_.sampling == Sampling::Exhaustive ||
            count <= options_.maxPatternsPerPair) {
            kept.push_back(std::move(pairHole));
            for (size_t i = 1; i < count; ++i) {
                kept.push_back(build(pending, i - 1));
            }
            return;
        }
        // Score every candidate from its children's memoized summaries;
        // a candidate whose children may share a node is built and
        // walked instead.  Only the survivors enter the feature memo
        // (keep() below), since most candidates are discarded here.
        std::vector<TermPtr>& built = built_;
        std::vector<hls::FeatureSummary>& summaries = summaries_;
        std::vector<double>& features = scores_;
        built.assign(count, nullptr);
        built[0] = std::move(pairHole);
        summaries.resize(count);
        features.resize(count);
        const FeatureEntry& holeEntry = entryFor(built[0]);
        summaries[0] = holeEntry.summary;
        features[0] = holeEntry.feature;
        for (size_t i = 1; i < count; ++i) {
            const Candidate& candidate = pending.candidates[i - 1];
            const size_t arity = candidate.node->children.size();
            childSummaries_.clear();
            for (size_t c = 0; c < arity; ++c) {
                childSummaries_.push_back(
                    &pending.args[candidate.firstArg + c]->summary);
            }
            if (auto composed = hls::compose(candidate.node->op,
                                             candidate.node->payload,
                                             childSummaries_)) {
                ++featureComposed_;
                summaries[i] = *composed;
            } else {
                ++featureEvals_;
                built[i] = build(pending, i - 1);
                summaries[i] = hls::summarize(built[i]);
            }
            features[i] = hls::featureOf(summaries[i]);
        }

        auto keep = [&](size_t i) {
            if (built[i] == nullptr) {
                built[i] = build(pending, i - 1);
                hls::includeRoot(summaries[i], *built[i]);
            }
            features_.try_emplace(
                built[i].get(),
                FeatureEntry{built[i], summaries[i], features[i]});
            kept.push_back(built[i]);
        };
        if (options_.sampling == Sampling::Boundary) {
            // Keep extreme patterns by feature until the cap: repeatedly
            // take the current min and max.
            std::vector<size_t>& order = order_;
            order.resize(count);
            for (size_t i = 0; i < order.size(); ++i) {
                order[i] = i;
            }
            std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
                return features[x] < features[y];
            });
            size_t lo = 0;
            size_t hi = order.size();
            while (kept.size() < options_.maxPatternsPerPair && lo < hi) {
                keep(order[lo++]);
                if (kept.size() < options_.maxPatternsPerPair && lo < hi) {
                    keep(order[--hi]);
                }
            }
            return;
        }

        // KdTree: recursively median-split on child features, then take
        // beta evenly spaced patterns per cell by the scalar feature.
        // Pattern i's coordinates are coords[i * dims, (i + 1) * dims):
        // its first children's features, zero-padded (the pair hole has
        // no children).  Each cell is a contiguous range of one index
        // array; a split sorts its range and cuts it at the median.
        const size_t dims = kKdDims;
        std::vector<double>& coords = coords_;
        coords.assign(count * dims, 0.0);
        for (size_t i = 1; i < count; ++i) {
            const Candidate& candidate = pending.candidates[i - 1];
            const size_t arity = candidate.node->children.size();
            for (size_t d = 0; d < dims && d < arity; ++d) {
                coords[i * dims + d] =
                    pending.args[candidate.firstArg + d]->feature;
            }
        }

        std::vector<size_t>& order = order_;
        order.resize(count);
        for (size_t i = 0; i < count; ++i) {
            order[i] = i;
        }
        cells_.assign(1, Cell{0, count});
        for (size_t d = 0; d < dims; ++d) {
            nextCells_.clear();
            for (const auto& [first, last] : cells_) {
                if (last - first <= 1) {
                    nextCells_.push_back(Cell{first, last});
                    continue;
                }
                std::sort(order.begin() + first, order.begin() + last,
                          [&](size_t x, size_t y) {
                              return coords[x * dims + d] <
                                     coords[y * dims + d];
                          });
                const size_t mid = first + (last - first) / 2;
                nextCells_.push_back(Cell{first, mid});
                nextCells_.push_back(Cell{mid, last});
            }
            cells_.swap(nextCells_);
        }
        for (const auto& [first, last] : cells_) {
            const size_t size = last - first;
            if (size == 0) {
                continue;
            }
            std::sort(order.begin() + first, order.begin() + last,
                      [&](size_t x, size_t y) {
                          return features[x] < features[y];
                      });
            for (size_t k = 0; k < kKdBeta && k < size; ++k) {
                size_t pick = size == 1
                                  ? 0
                                  : k * (size - 1) /
                                        std::max<size_t>(1, kKdBeta - 1);
                keep(order[first + pick]);
            }
        }
    }

    /**
     * The memoized feature entry of @p term, summarized by one walk on
     * a miss.  Callers pass terms the shard holds anyway (child-set
     * elements, the pair hole).
     */
    const FeatureEntry&
    entryFor(const TermPtr& term)
    {
        const auto known = features_.find(term.get());
        if (known != features_.end()) {
            ++featureHits_;
            return known->second;
        }
        ++featureEvals_;
        const hls::FeatureSummary summary = hls::summarize(term);
        const double feature = hls::featureOf(summary);
        return features_
            .emplace(term.get(), FeatureEntry{term, summary, feature})
            .first->second;
    }

    const EGraph& egraph_;
    const AuOptions& options_;
    const ClassMap<TermPtr>& reprs_;
    Budget budget_;
    bool sweepLimited_ = false;
    bool pairTripped_ = false;
    std::unordered_map<PairKey, std::vector<TermPtr>, PairKeyHash> memo_;
    std::unordered_map<PairKey, TermPtr, PairKeyHash> pairHole_;
    std::vector<PairKey> inProgress_;  ///< stack, innermost last
    int64_t nextHole_ = 0;
    size_t rawCount_ = 0;
    size_t memoHits_ = 0;
    size_t memoMisses_ = 0;
    /**
     * Feature summaries keyed on node identity.  The feature model
     * charges area per distinct pointer, so identity -- not structure --
     * is the exact key; the stored TermPtr keeps each key alive for the
     * memo's lifetime.  Per shard like memo_, so the thread count cannot
     * influence what it holds.
     */
    std::unordered_map<const Term*, FeatureEntry> features_;
    /** Per-depth buffers of au() and appendNodeAu(), indexed by depth. */
    std::vector<DepthScratch> depthScratch_;
    /** The answer of an au() call that is not memoized. */
    std::vector<TermPtr> result_;
    /** Sort scratch of appendNodeAu. */
    std::vector<std::pair<double, const FeatureEntry*>> decorated_;
    /** Scoring scratch of samplePatterns: per candidate, the built term
     *  (if any), summary and feature, the sort order, and KdTree's
     *  coordinates and cells ([first, last) ranges of order_). */
    using Cell = std::pair<size_t, size_t>;
    std::vector<TermPtr> built_;
    std::vector<hls::FeatureSummary> summaries_;
    std::vector<double> scores_;
    std::vector<size_t> order_;
    std::vector<double> coords_;
    std::vector<Cell> cells_;
    std::vector<Cell> nextCells_;
    /** Compose scratch of samplePatterns. */
    std::vector<const hls::FeatureSummary*> childSummaries_;
    size_t featureEvals_ = 0;
    size_t featureHits_ = 0;
    size_t featureComposed_ = 0;
    bool aborted_ = false;
};

/**
 * Pairs per chunk (= per shard).  A pure constant, NOT derived from the
 * thread count: the chunk partition decides where shard memos reset and
 * therefore shapes per-pair candidate counts, so deriving it from the
 * lane count would make output depend on the machine.  Small enough to
 * load-balance across stealing lanes, large enough to amortize the
 * per-shard memo warmup.
 */
constexpr size_t kChunkPairs = 32;

}  // namespace

std::vector<std::pair<EClassId, EClassId>>
selectAuPairs(const EGraph& egraph, const AuOptions& options,
              AuStats* stats)
{
    PairSelector selector(egraph, options);
    auto pairs = selector.select();
    if (stats != nullptr) {
        stats->pairsConsidered = selector.pairsConsidered();
    }
    return pairs;
}

AuResult
identifyPatterns(const EGraph& egraph, const AuOptions& options,
                 Budget* budget)
{
    TELEM_SPAN("au.sweep", "au");
    AuResult result;
    const auto pairs = selectAuPairs(egraph, options, &result.stats);
    // A spent budget skips every pair, as the first shard would, without
    // extracting reps or building shards.
    if (budget != nullptr && !pairs.empty() && !budget->ok()) {
        result.stats.timedOut = true;
        result.stats.skippedPairs = pairs.size();
        return result;
    }

    // Small representative terms (for AU(a, a)), shared by all shards.
    // Each rep is a private uninterned DAG: the pointer-counted feature
    // model must not see sharing across extraction roots (see
    // copyTopologyUninterned in dsl/intern.hpp).
    ClassMap<TermPtr> reprs;
    {
        TELEM_SPAN("au.reprs", "au");
        Extractor extractor(egraph, astSizeCost);
        for (EClassId id : egraph.classIds()) {
            if (auto cost = extractor.costOf(id);
                cost.has_value() && *cost <= 12.0) {
                reprs[id] =
                    copyTopologyUninterned(extractor.extract(id).term);
            }
        }
    }
    const SweepContext ctx{egraph, options, reprs};

    // Shard the pair list into fixed-size chunks and fan them across the
    // pool.  Exhaustive mode runs as a single serial shard: its global
    // candidate-budget abort point is order-dependent by design.
    const size_t chunkSize = options.sampling == Sampling::Exhaustive
                                 ? std::max<size_t>(pairs.size(), 1)
                                 : kChunkPairs;
    const size_t numChunks = (pairs.size() + chunkSize - 1) / chunkSize;
    std::vector<ChunkOutcome> outcomes(numChunks);
    std::atomic<bool> stopFlag{false};
    auto runChunk = [&](size_t c) {
        TELEM_SPAN_ARGS("au.chunk", "au",
                        "\"chunk\": " + std::to_string(c));
        const size_t begin = c * chunkSize;
        const size_t end = std::min(pairs.size(), (c + 1) * chunkSize);
        AuShard shard(ctx, budget);
        outcomes[c] = shard.runChunk(pairs, begin, end, stopFlag);
    };
    if (numChunks <= 1) {
        for (size_t c = 0; c < numChunks; ++c) {
            runChunk(c);
        }
    } else {
        globalPool().parallelFor(numChunks, runChunk);
    }

    // Telemetry work counters: what every chunk actually did, including
    // chunks the merge below will cut off.
    if (telemetry::enabled()) {
        auto& registry = telemetry::Registry::instance();
        for (const ChunkOutcome& chunk : outcomes) {
            size_t raw = 0;
            for (const PairRecord& rec : chunk.records) {
                raw += rec.rawCandidates;
            }
            registry.counter("au.pairs_explored").add(chunk.records.size());
            registry.counter("au.raw_candidates").add(raw);
            registry.counter("au.memo_hits").add(chunk.memoHits);
            registry.counter("au.memo_misses").add(chunk.memoMisses);
            registry.counter("au.feature_evals").add(chunk.featureEvals);
            registry.counter("au.feature_hits").add(chunk.featureHits);
            registry.counter("au.feature_composed")
                .add(chunk.featureComposed);
        }
    }

    // Merge in pair order, replaying the serial sweep's control flow:
    // global structural dedup of the hole-canonical forms, the result-
    // pattern cap (checked before each pair and again mid-pair), the
    // candidate-budget abort at the cumulative count, and skip
    // accounting for a sweep-level stop.  Everything here depends only
    // on the per-chunk records, which the fixed chunk partition makes
    // thread-count invariant.  Only a first occurrence is canonicalized:
    // the uninterned renaming keeps the candidate's node topology, which
    // the registry's scheduling view (and through it, pattern hardware
    // costs) depends on; the registry interns the canonical identity.
    AuStats& stats = result.stats;
    // Canonical hash -> index into result.patterns.
    std::unordered_multimap<uint64_t, size_t> seen;
    auto firstOccurrence = [&](const Produced& p) {
        const auto [first, last] = seen.equal_range(p.canonicalHash);
        for (auto it = first; it != last; ++it) {
            if (canonicalHolesEqual(result.patterns[it->second], p.term)) {
                return false;
            }
        }
        return true;
    };
    size_t cumulativeRaw = 0;
    bool done = false;
    for (size_t c = 0; c < numChunks && !done; ++c) {
        const ChunkOutcome& chunk = outcomes[c];
        for (const PairRecord& rec : chunk.records) {
            if (result.patterns.size() >= options.maxResultPatterns) {
                done = true;
                break;
            }
            ++stats.pairsExplored;
            cumulativeRaw += rec.rawCandidates;
            stats.rawCandidates = cumulativeRaw;
            if (rec.skipped) {
                ++stats.skippedPairs;
            } else {
                for (const Produced& p : rec.patterns) {
                    if (firstOccurrence(p)) {
                        seen.emplace(p.canonicalHash, result.patterns.size());
                        result.patterns.push_back(
                            canonicalizeHolesUninterned(p.term));
                        if (result.patterns.size() >=
                            options.maxResultPatterns) {
                            break;
                        }
                    }
                }
            }
            if (options.sampling != Sampling::Exhaustive &&
                cumulativeRaw > options.maxCandidates) {
                stats.aborted = true;
                done = true;
                break;
            }
        }
        if (done) {
            break;
        }
        if (chunk.aborted) {
            stats.aborted = true;
            break;
        }
        if (chunk.stopped) {
            stats.timedOut = true;
            stats.skippedPairs +=
                pairs.size() - (c * chunkSize + chunk.records.size());
            break;
        }
    }
    return result;
}

}  // namespace rii
}  // namespace isamore
