/**
 * @file
 * Hardware-aware multi-objective pattern selection (paper §5.4.2) and the
 * extraction + fidelity-refinement step (§5.4.3).
 *
 * Selection runs an e-class analysis propagating Pareto fronts of pattern
 * sets (bitmasks over the ≤64 costed candidates): a non-App node combines
 * its children's fronts, an App node adds its own pattern, and each class
 * prunes to the top-K sets by prioritized speedup (beam search).  The
 * front of the program root yields the candidate solutions.
 *
 * Refinement extracts a concrete program for each solution with a latency
 * cost function (software op latency vs. App hardware latency), recounts
 * the pattern uses actually chosen, recomputes Eq. 1-3 exactly on those
 * uses, and returns the refreshed solutions.
 */
#pragma once

#include "rii/cost.hpp"
#include "support/budget.hpp"

namespace isamore {
namespace rii {

/** One point on the speedup/area Pareto front. */
struct Solution {
    std::vector<int64_t> patternIds;
    double deltaNs = 0.0;
    double speedup = 1.0;
    double areaUm2 = 0.0;

    /** Extracted program with App nodes (set by refinement). */
    TermPtr program;

    /** Pattern use counts in the extracted program, parallel to
     *  patternIds. */
    std::vector<size_t> useCounts;
};

/** Most costed candidates one selection takes: the width of its masks. */
inline constexpr size_t kMaxSelectCandidates = 64;
/** Fixpoint bound on the selection rounds over cyclic graphs. */
inline constexpr size_t kMaxSelectRounds = 64;

/** Selection options. */
struct SelectOptions {
    size_t beamK = 8;        ///< per-class front width
    bool astSizeObjective = false;  ///< AstSize mode: minimize term size
};

/** Degradation record of one selection run. */
struct SelectOutcome {
    bool truncated = false;  ///< stopped before fixpoint / full refinement
    size_t roundsRun = 0;    ///< fixpoint rounds completed
};

/**
 * Run Pareto selection + refinement over @p egraph.
 *
 * When @p budget is given, its deadline is polled between fixpoint
 * rounds and refinement steps; on a trip the partial fronts computed so
 * far are refined and returned -- still internally Pareto-consistent,
 * just possibly missing solutions -- and @p outcome (when non-null)
 * records the truncation.
 *
 * @param candidates costed candidates (at most kMaxSelectCandidates;
 *        callers pre-rank)
 * @return non-dominated refined solutions, sorted by increasing area
 */
std::vector<Solution> selectAndRefine(const EGraph& egraph, EClassId root,
                                      const std::vector<PatternEval>& candidates,
                                      const CostModel& cost,
                                      const SelectOptions& options,
                                      Budget* budget = nullptr,
                                      SelectOutcome* outcome = nullptr);

/** Keep only non-dominated (speedup up, area down) solutions. */
std::vector<Solution> paretoFilter(std::vector<Solution> solutions);

}  // namespace rii
}  // namespace isamore
