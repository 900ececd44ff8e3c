#include "egraph/rewrite.hpp"

#include <algorithm>
#include <new>

#include "egraph/ematch_program.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"

namespace isamore {

RewriteRule
makeRule(std::string name, const std::string& lhs, const std::string& rhs,
         uint32_t flags)
{
    RewriteRule rule;
    rule.name = std::move(name);
    rule.lhs = parseTerm(lhs);
    rule.rhs = parseTerm(rhs);
    rule.flags = flags;
    ISAMORE_USER_CHECK(rule.lhs->op != Op::Hole,
                       "rule LHS must not be a bare hole: " + rule.name);
    return rule;
}

const char*
stopReasonName(StopReason reason)
{
    switch (reason) {
      case StopReason::Saturated:
        return "Saturated";
      case StopReason::NodeLimit:
        return "NodeLimit";
      case StopReason::IterLimit:
        return "IterLimit";
      case StopReason::TimeLimit:
        return "TimeLimit";
      case StopReason::Budget:
        return "Budget";
    }
    return "?";
}

EqSatStats
runEqSat(EGraph& egraph, const std::vector<RewriteRule>& rules,
         const EqSatLimits& limits, Budget* parent)
{
    TELEM_SPAN("eqsat.run", "eqsat");
    // Distinguishes the iteration spans of the several EqSat runs an RII
    // pipeline performs (main saturation, per-candidate kappa runs).
    static std::atomic<uint64_t> runCounter{0};
    const uint64_t runId =
        runCounter.fetch_add(1, std::memory_order_relaxed);

    EqSatStats stats;
    stats.perRule.reserve(rules.size());
    for (const RewriteRule& rule : rules) {
        stats.perRule.emplace_back(rule.name, RuleTotals{});
    }
    // Per-rule applications counters resolve once per run, and only when
    // telemetry is already on (resolution takes the registry mutex).
    std::vector<telemetry::Counter*> ruleCounters;
    if (telemetry::enabled()) {
        ruleCounters.reserve(rules.size());
        for (const RewriteRule& rule : rules) {
            ruleCounters.push_back(&telemetry::Registry::instance().counter(
                "eqsat.applications{rule=" + rule.name + "}"));
        }
    }

    Stopwatch watch;
    Budget budget(BudgetSpec{}, parent);
    egraph.rebuild();
    stats.peakNodes = egraph.numNodes();
    stats.peakClasses = egraph.numClasses();

    // Deadline / enclosing-budget trips observed mid-iteration.  A
    // deadline tripped while work remained must survive to the final
    // stop-reason decision (it cannot be overwritten by Saturated).
    bool out_of_time = false;
    bool out_of_units = false;
    auto poll_budget = [&]() {
        if (budget.ok()) {
            return false;
        }
        if (budget.effectiveStop() == BudgetStop::Deadline) {
            out_of_time = true;
        } else {
            out_of_units = true;
        }
        return true;
    };

    // Each rule's LHS compiles once per run.
    std::vector<PatternProgram> programs;
    programs.reserve(rules.size());
    for (const RewriteRule& rule : rules) {
        programs.push_back(PatternProgram::compile(rule.lhs));
    }

    for (size_t iter = 0;; ++iter) {
        // Poll before any search: a spent budget starts no more work.
        if (poll_budget()) {
            stats.stopReason = out_of_time ? StopReason::TimeLimit
                                           : StopReason::Budget;
            return stats;
        }
        if (iter == limits.maxIterations) {
            stats.stopReason = StopReason::IterLimit;
            return stats;
        }
        // The sizes are the graph's as the iteration starts.
        TELEM_SPAN_ARGS("eqsat.iter", "eqsat",
                        "\"run\": " + std::to_string(runId) +
                            ", \"iter\": " + std::to_string(iter) +
                            ", \"nodes\": " +
                            std::to_string(egraph.numNodes()) +
                            ", \"classes\": " +
                            std::to_string(egraph.numClasses()));
        stats.iterations = iter + 1;
        size_t skipped_this_iter = 0;
        // This iteration's per-rule activity; folded into stats.perRule
        // after the rebuild.  Always-on: the counts are deterministic and
        // feed the pipeline report, not just telemetry.
        std::vector<RuleTotals> iterTotals(rules.size());

        // Phase 1: search all rules against the current (stable) e-graph.
        // The e-graph is frozen between rebuilds (egg's deferred-rebuild
        // design): every rule searches every candidate class first, in
        // rule order, and the order-sensitive bookkeeping (fault sites,
        // guards, the early break) runs afterwards in rule order.  A
        // search error is held until its rule's turn in that second loop.
        struct PendingUnion {
            const RewriteRule* rule;
            EMatch match;
        };
        std::vector<PendingUnion> pending;

        struct RuleSearch {
            std::vector<EMatch> matches;
            std::exception_ptr error;
        };
        std::vector<RuleSearch> searches(rules.size());
        {
            TELEM_SPAN("eqsat.search", "eqsat");
            for (size_t r = 0; r < rules.size(); ++r) {
                try {
                    searches[r].matches = searchPattern(
                        egraph, programs[r], limits.maxMatchesPerRule);
                } catch (...) {
                    searches[r].error = std::current_exception();
                }
            }
        }

        for (size_t r = 0; r < rules.size(); ++r) {
            const RewriteRule& rule = rules[r];
            try {
                // Inside the catch scope so throwing fault kinds degrade
                // to a skipped rule instead of escaping the run.
                if (fault::tripped("eqsat.search")) {
                    out_of_time = true;
                }
                if (searches[r].error) {
                    std::rethrow_exception(searches[r].error);
                }
                std::vector<EMatch>& matches = searches[r].matches;
                iterTotals[r].matches += matches.size();
                for (EMatch& match : matches) {
                    if (rule.guard && !rule.guard(egraph, match)) {
                        continue;
                    }
                    pending.push_back(PendingUnion{&rule, std::move(match)});
                }
            } catch (const InternalError&) {
                ++skipped_this_iter;
                continue;
            } catch (const std::bad_alloc&) {
                ++skipped_this_iter;
                continue;
            }
            if (out_of_time || poll_budget()) {
                break;
            }
        }

        // Phase 2: apply.  Matches already collected are applied even
        // when the search was cut short, mirroring the pre-budget
        // behaviour; the deadline is audited inside this loop too.
        const uint64_t version_before = egraph.version();
        size_t nodes_before = egraph.numNodes();
        bool added_nodes = false;
        size_t applied = 0;
        {
            TELEM_SPAN("eqsat.apply", "eqsat");
            for (const PendingUnion& p : pending) {
                if (fault::tripped("eqsat.apply")) {
                    out_of_time = true;
                    break;
                }
                try {
                    const EClassId rhs_class =
                        instantiate(egraph, p.rule->rhs, p.match.subst);
                    if (egraph.merge(p.match.root, rhs_class)) {
                        ++stats.applications;
                        ++iterTotals[static_cast<size_t>(p.rule -
                                                         rules.data())]
                              .applications;
                        if (!budget.charge(1)) {
                            out_of_units = true;
                            break;
                        }
                    }
                } catch (const InternalError&) {
                    ++skipped_this_iter;
                    continue;
                } catch (const std::bad_alloc&) {
                    ++skipped_this_iter;
                    continue;
                }
                if ((++applied & 63u) == 0) {
                    if (egraph.numNodes() > limits.maxNodes &&
                        egraph.numNodes() > nodes_before) {
                        added_nodes = true;
                        break;
                    }
                    if (poll_budget()) {
                        break;
                    }
                }
            }
        }
        {
            TELEM_SPAN("eqsat.rebuild", "eqsat");
            egraph.rebuild();
        }

        stats.peakNodes = std::max(stats.peakNodes, egraph.numNodes());
        stats.peakClasses = std::max(stats.peakClasses, egraph.numClasses());
        stats.seconds = watch.seconds();
        stats.skippedRules += skipped_this_iter;
        for (size_t r = 0; r < rules.size(); ++r) {
            stats.perRule[r].second += iterTotals[r];
        }
        for (size_t r = 0; r < ruleCounters.size(); ++r) {
            ruleCounters[r]->add(iterTotals[r].applications);
        }

        // Stop-reason decision.  A deadline or budget tripped anywhere in
        // this iteration wins: the iteration did partial work, so a quiet
        // e-graph does not mean saturation.
        if (out_of_time) {
            stats.stopReason = StopReason::TimeLimit;
            return stats;
        }
        if (out_of_units) {
            stats.stopReason = StopReason::Budget;
            return stats;
        }
        if (fault::tripped("eqsat.nodes")) {
            added_nodes = true;
        }
        // A quiet iteration only means saturation when no rule was
        // dropped by a fault.
        const bool quiet = egraph.version() == version_before &&
                           egraph.numNodes() == nodes_before &&
                           !added_nodes && skipped_this_iter == 0;
        if (quiet) {
            stats.stopReason = StopReason::Saturated;
            return stats;
        }
        if (added_nodes || egraph.numNodes() > limits.maxNodes) {
            stats.stopReason = StopReason::NodeLimit;
            return stats;
        }
    }
}

}  // namespace isamore
