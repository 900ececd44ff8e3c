/**
 * @file
 * E-graph anti-unification with the smart-AU heuristics (paper §5.2) and
 * the vanilla exhaustive LLMT mode (paper §2.2, used as the Table 2
 * baseline).
 *
 * Pair selection: candidate e-class pairs must agree on result type and be
 * structurally similar (Hamming distance of the 64-bit structural hashes
 * below a threshold).  Large graphs use a sorted-hash window ("banding")
 * instead of the quadratic sweep; exact-hash buckets are always paired.
 *
 * Pattern sampling: per e-node pair, the Cartesian product of child AU
 * sets is reduced by either the *boundary* strategy (keep the feature-
 * minimal and feature-maximal patterns) or the *kd-tree* strategy
 * (partition the child-feature space into 2^d cells and take beta evenly
 * spaced patterns per cell).  Exhaustive mode keeps everything and is
 * expected to blow the candidate budget on real inputs.
 *
 * Sharding: the pair list is cut into fixed-size chunks, each run by its
 * own shard (memo, hole namespace, budget child) on the process-global
 * pool (sized by --threads / ISAMORE_THREADS) and merged in pair order,
 * so the output does not depend on the thread count.  Exhaustive
 * sampling runs as one serial shard: its candidate-budget abort point is
 * part of the experiment.  Every sweep computes every chunk; nothing is
 * memoized across sweeps or runs.
 */
#pragma once

#include <cstdint>

#include "egraph/analysis.hpp"
#include "dsl/term.hpp"
#include "support/budget.hpp"

namespace isamore {
namespace rii {

/** Pattern sampling strategy (§5.2). */
enum class Sampling {
    Exhaustive,  ///< vanilla LLMT: full Cartesian products
    Boundary,    ///< keep the two extreme patterns per e-node pair
    KdTree,      ///< kd-cell stratified sampling
};

/** Cap on explored e-class pairs; the sweep order's prefix is kept. */
inline constexpr size_t kMaxPairs = 50000;
/** Above this class count, pair selection uses the sorted-hash window
 *  instead of the quadratic pair sweep. */
inline constexpr size_t kQuadraticPairLimit = 3000;
/** Window width of the sorted-hash banding pass. */
inline constexpr size_t kBandingWindow = 48;
/** kd-tree sampling: split dimensions and samples per cell. */
inline constexpr size_t kKdDims = 2;
inline constexpr size_t kKdBeta = 2;
/** Candidate filter: minimum operation count of a useful pattern. */
inline constexpr size_t kMinOps = 2;

/** Options for one anti-unification sweep. */
struct AuOptions {
    Sampling sampling = Sampling::Boundary;

    /** Apply the result-type pairing filter. */
    bool typeFilter = true;
    /** Apply the structural-hash pairing filter. */
    bool hashFilter = true;
    /** Max Hamming distance for a pair to be explored. */
    int hammingThreshold = 32;

    /** Recursion depth bound for AU (holes beyond it). */
    int maxDepth = 8;

    /**
     * Global budget on generated candidate patterns; exceeding it aborts
     * the sweep (the analogue of the paper's 30 GB memory cap that vanilla
     * LLMT blows through).
     */
    size_t maxCandidates = 200000;

    /** Per class-pair cap on surviving sampled patterns. */
    size_t maxPatternsPerPair = 8;
    /** Final cap on deduplicated result patterns. */
    size_t maxResultPatterns = 4096;
};

/** Statistics from one AU sweep (feeds Table 2). */
struct AuStats {
    size_t pairsConsidered = 0;  ///< pairs examined by the filters
    size_t pairsExplored = 0;    ///< pairs recursed into
    size_t rawCandidates = 0;    ///< |P_cand| before dedup (paper metric)
    /** Pairs dropped by the sweep deadline, an injected fault, or an
     *  early sweep stop; their patterns are not in the result. */
    size_t skippedPairs = 0;
    bool aborted = false;        ///< blew the candidate budget
    bool timedOut = false;       ///< the sweep deadline tripped
};

/** Result of one AU sweep. */
struct AuResult {
    /** Deduplicated candidate patterns with canonical hole numbering. */
    std::vector<TermPtr> patterns;
    AuStats stats;
};

/**
 * Run anti-unification over all admissible e-class pairs.
 *
 * When @p budget is given, the sweep charges one unit per raw candidate
 * against it and stops at its deadline.  Over-budget or faulted pairs
 * are skipped and recorded in AuStats::skippedPairs; the sweep never
 * throws for per-pair failures.  A budget already spent when the pairs
 * are selected skips every pair before any shard starts.
 */
AuResult identifyPatterns(const EGraph& egraph, const AuOptions& options,
                          Budget* budget = nullptr);

/**
 * The admissible e-class pair list the sweep will explore, in sweep
 * order (quadratic below kQuadraticPairLimit classes, the
 * sorted-hash banding window above it).  Deterministic for a given
 * e-graph and options.  When @p stats is given, pairsConsidered is
 * recorded there.  Exposed for the pair-selection regression tests and
 * the bench harness.
 */
std::vector<std::pair<EClassId, EClassId>>
selectAuPairs(const EGraph& egraph, const AuOptions& options,
              AuStats* stats = nullptr);

}  // namespace rii
}  // namespace isamore
