/**
 * @file
 * The top-level RII algorithm (paper Fig. 7): phase-oriented iteration
 * over equality saturation, smart anti-unification, hardware-aware
 * selection, and extraction refinement.
 *
 * Phase scheduling (§5.1): phase 1 applies the saturating integer
 * ruleset, phase 2 the saturating float ruleset (both run to saturation),
 * and each subsequent phase applies a rotating slice of n non-saturating
 * rules for at most two iterations.  Every phase restarts from the
 * original (or vectorized) e-graph plus the κ(P_pre) application rewrites
 * of previously selected patterns, which both bounds the e-graph scale
 * and lets later phases generalize over earlier patterns.  Iteration
 * stops when the global Pareto front is unchanged.
 *
 * Modes reproduce the paper's evaluation configurations:
 *  - Default:  boundary sampling, hardware-aware objective
 *  - AstSize:  term-size selection/extraction objective (§7.1.3)
 *  - KDSample: kd-tree pattern sampling (§7.1.3)
 *  - Vector:   pattern vectorization in the first phase (§5.3, §7.1.3)
 *  - NoEqSat:  semantic consideration disabled (§7.1.2 baseline)
 *  - LLMT:     vanilla exhaustive e-graph AU in one monolithic phase
 *              (§7.1.1 baseline; expected to blow its budget)
 */
#pragma once

#include <map>
#include <optional>
#include <string_view>

#include "frontend/encode.hpp"
#include "profile/interp.hpp"
#include "rii/au.hpp"
#include "rii/registry.hpp"
#include "rii/select.hpp"
#include "rii/vectorize.hpp"
#include "rules/rulesets.hpp"

namespace isamore {
namespace rii {

/** RII operating mode. */
enum class Mode { Default, AstSize, KDSample, Vector, NoEqSat, LLMT };

/** Every mode, in declaration order. */
inline constexpr Mode kAllModes[] = {Mode::Default,  Mode::AstSize,
                                     Mode::KDSample, Mode::Vector,
                                     Mode::NoEqSat,  Mode::LLMT};

/** Printable mode name. */
const char* modeName(Mode mode);

/**
 * The mode whose modeName() equals @p text ignoring case ("default",
 * "KDSample", ...); nullopt for any other text.
 */
std::optional<Mode> parseMode(std::string_view text);

/** Non-saturating rules applied per later phase. */
inline constexpr size_t kRulesPerPhase = 8;
/** Costed candidates a phase keeps for selection. */
inline constexpr size_t kMaxCostedCandidates = 48;
static_assert(kMaxCostedCandidates <= kMaxSelectCandidates);

/**
 * Configuration for one RII run: only the values that a mode or a caller
 * sets.  The fixed values are named constants in the modules that use
 * them, and configFingerprint (corpus/corpus.hpp) hashes those too.
 */
struct RiiConfig {
    Mode mode = Mode::Default;

    /** Maximum number of phases after the two saturating ones. */
    int maxPhases = 6;

    EqSatLimits eqsat{/*maxNodes=*/20000, /*maxIterations=*/8,
                      /*maxMatchesPerRule=*/1024};
    AuOptions au{.maxResultPatterns = 300};
    SelectOptions select;

    /**
     * Optional whole-run budget; nullptr (the default, and every CLI
     * path) runs unlimited.  Every stage budget is split from it, so its
     * deadline bounds the run end to end and its unit allowance bounds
     * total rewrite applications + AU candidates.  The server passes
     * each request's root budget here.  Tripping it degrades the run
     * (remaining phases are skipped and recorded in RunDiagnostics); it
     * never aborts.  Must outlive the runRii call.
     */
    Budget* parentBudget = nullptr;

    /** Derive the per-mode configuration from a base config. */
    static RiiConfig forMode(Mode mode);
};

/** Statistics of one RII run (feeds Tables 2 and 3). */
struct RiiStats {
    size_t origNodes = 0;
    size_t origClasses = 0;
    size_t peakNodes = 0;
    size_t peakClasses = 0;
    size_t rawCandidates = 0;  ///< raw AU candidates over all phases
    size_t dedupedCandidates = 0;  ///< |P_cand| after sampling + dedup
    size_t phasesRun = 0;
    bool auAborted = false;    ///< exhausted the candidate budget (LLMT)
    double seconds = 0.0;
    size_t peakRssBytes = 0;
    size_t packsCreated = 0;   ///< Vector mode

    /**
     * Per-rule EqSat totals summed over every saturation run of the whole
     * pipeline (phase runs and the kappa-application runs), keyed by rule
     * name.  Thread-count deterministic; surfaced by the CLI report.
     */
    std::map<std::string, RuleTotals> ruleTotals;
};

/**
 * Degradation record of one RII run: per-stage stop reasons plus counts
 * of every unit of work that was dropped rather than completed.  A run
 * with degraded() == false produced exactly what an unlimited, fault-free
 * run would have; a degraded run's front is still valid and internally
 * Pareto-consistent, it may just be missing solutions.
 */
struct RunDiagnostics {
    /** Stop reason of the most recent EqSat sweep. */
    StopReason lastEqSatStop = StopReason::Saturated;
    size_t eqsatNodeTrips = 0;   ///< sweeps stopped by the node limit
    size_t eqsatTimeouts = 0;    ///< sweeps stopped by a deadline
    size_t skippedRules = 0;     ///< rewrite rules dropped after faults
    size_t skippedPairs = 0;     ///< AU pairs dropped (budget/fault)
    size_t skippedPatterns = 0;  ///< candidates dropped during costing
    size_t skippedPhases = 0;    ///< phases abandoned after a stage failure
    size_t faultsInjected = 0;   ///< injected faults fired during the run
    bool auBudgetTripped = false;     ///< AU candidate budget blown
    bool auTimedOut = false;          ///< an AU sweep deadline tripped
    bool selectionTruncated = false;  ///< selection stopped early
    bool budgetExhausted = false;     ///< the whole-run budget expired

    /**
     * Whether anything was dropped.  EqSat node/iteration-limit stops are
     * normal bounded-saturation operation and do NOT count as
     * degradation; skipped work units, fired faults, and tripped budgets
     * do.
     */
    bool degraded() const;

    /** Multi-line per-stage rendering (for reports and the CLI). */
    std::string summary() const;
};

/** Result of one RII run. */
struct RiiResult {
    std::vector<Solution> front;  ///< global Pareto front
    PatternRegistry registry;
    RiiStats stats;
    RunDiagnostics diagnostics;

    /**
     * The program the run identified against: the input program, or its
     * vectorized form in Vector mode.
     */
    frontend::EncodedProgram baseProgram;

    /**
     * The last cost evaluation of every costed pattern (computed on the
     * phase's *saturated* graph, where the pattern actually matches).
     * Downstream integration modeling (RoCC) must use these rather than
     * re-matching against the raw base graph.
     */
    std::unordered_map<int64_t, PatternEval> evaluations;

    /** The solution with the highest speedup (the empty one if none). */
    const Solution& best() const;
};

/** Run RII end to end. */
RiiResult runRii(const frontend::EncodedProgram& program,
                 const profile::ModuleProfile& profile,
                 const rules::RulesetLibrary& rules,
                 const RiiConfig& config);

}  // namespace rii
}  // namespace isamore
