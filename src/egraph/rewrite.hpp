/**
 * @file
 * Rewrite rules and the equality-saturation runner.
 *
 * A rewrite rule l ⇝ r searches its LHS pattern in the e-graph and, for
 * every match, instantiates the RHS and unions the two classes.  Rules carry
 * classification flags used by RII's ruleset construction (paper §5.1):
 * saturating vs non-saturating, int vs float, scalar vs vector.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "egraph/egraph.hpp"
#include "egraph/ematch.hpp"
#include "support/budget.hpp"

namespace isamore {

/** Classification flags for rewrite rules (paper §5.1 base rulesets). */
enum RuleFlag : uint32_t {
    kRuleSat = 1u << 0,     ///< cannot create new e-classes (only unions)
    kRuleInt = 1u << 1,     ///< mentions integer operators
    kRuleFloat = 1u << 2,   ///< mentions float operators
    kRuleVector = 1u << 3,  ///< mentions vector terms
    kRuleLift = 1u << 4,    ///< vectorization "lift" rewrite (§5.3)
    kRuleCouple = 1u << 5,  ///< vectorization "couple" rewrite (§5.3)
};

/** An equational rewrite rule. */
struct RewriteRule {
    std::string name;
    TermPtr lhs;
    TermPtr rhs;
    uint32_t flags = 0;

    /** Optional guard evaluated per match; the rewrite fires when true. */
    std::function<bool(const EGraph&, const EMatch&)> guard;

    bool isSaturating() const { return (flags & kRuleSat) != 0; }
    bool usesVector() const { return (flags & kRuleVector) != 0; }
};

/** Construct a rule by parsing LHS/RHS s-expressions. */
RewriteRule makeRule(std::string name, const std::string& lhs,
                     const std::string& rhs, uint32_t flags);

/**
 * Work limits for one equality-saturation run.  There is no clock here:
 * wall-clock time is bounded only by an enclosing Budget's deadline.
 */
struct EqSatLimits {
    size_t maxNodes = 100000;        ///< stop when the e-graph exceeds this
    size_t maxIterations = 16;       ///< rewrite sweeps
    size_t maxMatchesPerRule = 2048; ///< per-rule per-iteration match cap
};

/**
 * Why an equality-saturation run stopped.  TimeLimit means an enclosing
 * budget's deadline passed, Budget that its unit allowance ran out.
 */
enum class StopReason { Saturated, NodeLimit, IterLimit, TimeLimit, Budget };

/** Printable name of a StopReason. */
const char* stopReasonName(StopReason reason);

/**
 * Per-rule work totals accumulated across every iteration of a run (or,
 * in RiiStats, across every run of a phase).  Both counts are
 * independent of the thread count and of telemetry being on or off, so
 * they are safe to surface in deterministic pipeline output.
 */
struct RuleTotals {
    size_t matches = 0;       ///< matches found (up to the per-rule cap)
    size_t applications = 0;  ///< unions that actually merged two classes

    RuleTotals&
    operator+=(const RuleTotals& o)
    {
        matches += o.matches;
        applications += o.applications;
        return *this;
    }
};

/** Statistics from one equality-saturation run. */
struct EqSatStats {
    size_t iterations = 0;
    size_t peakNodes = 0;
    size_t peakClasses = 0;
    size_t applications = 0;
    /** Rules (or single applications) dropped after a fault; a sweep with
     *  drops never reports Saturated. */
    size_t skippedRules = 0;
    StopReason stopReason = StopReason::Saturated;
    double seconds = 0.0;
    /** One entry per input rule, in rule order (egg-style totals). */
    std::vector<std::pair<std::string, RuleTotals>> perRule;
};

/**
 * Run equality saturation: repeatedly search all rules (read-only), apply
 * all matches, and rebuild, until saturation or a limit trips.
 *
 * When @p budget is given, the run charges one unit per rewrite
 * application against it and stops at its deadline, so a run-level
 * budget bounds EqSat across all phases.  The budget is polled before
 * each iteration's first search, so an already spent budget does no
 * work.  A rule whose search or application throws
 * (InternalError / bad_alloc, e.g. under fault injection) is dropped and
 * counted in skippedRules; the sweep continues with the remaining rules.
 */
EqSatStats runEqSat(EGraph& egraph, const std::vector<RewriteRule>& rules,
                    const EqSatLimits& limits = {},
                    Budget* budget = nullptr);

}  // namespace isamore
