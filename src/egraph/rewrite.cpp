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
    BudgetSpec spec;
    spec.maxSeconds = limits.maxSeconds;
    Budget budget(spec, parent);
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
        // Cancellation (a watchdog expiring the enclosing budget) is a
        // deadline-class stop: the run was out of time, not out of work.
        if (budget.effectiveStop() == BudgetStop::Deadline ||
            budget.effectiveStop() == BudgetStop::Cancelled) {
            out_of_time = true;
        } else {
            out_of_units = true;
        }
        return true;
    };

    // Backoff bookkeeping, parallel to `rules`.
    struct Backoff {
        size_t bannedUntil = 0;
        size_t timesBanned = 0;
    };
    std::vector<Backoff> backoff(rules.size());

    // Each rule's LHS compiles once per run; the per-rule incremental
    // state carries the last complete search's clock and per-class match
    // counts across iterations.  Rules with a guard always search in full
    // mode: a guard may re-admit a previously rejected match after graph
    // changes anywhere, so skipping untouched classes would lose it.
    std::vector<PatternProgram> programs;
    programs.reserve(rules.size());
    for (const RewriteRule& rule : rules) {
        programs.push_back(PatternProgram::compile(rule.lhs));
    }
    std::vector<IncrementalSearchState> searchStates(rules.size());

    for (size_t iter = 0; iter < limits.maxIterations; ++iter) {
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
        // design): every eligible rule searches first, in rule order, and
        // the order-sensitive bookkeeping (fault sites, bans, guards, the
        // early break) runs afterwards in rule order.  A search error is
        // held until its rule's turn in that second loop.
        struct PendingUnion {
            const RewriteRule* rule;
            EMatch match;
            // Matches an incremental search skipped (already applied at
            // untouched classes) between the previous pending entry and
            // this one; replayed as no-op applications so the apply
            // loop's counter-based polling is identical to a full run.
            uint32_t virtualBefore = 0;
        };
        std::vector<PendingUnion> pending;
        bool any_banned = false;

        struct RuleSearch {
            size_t ruleIndex = 0;
            size_t cap = 0;
            SearchResult result;
            std::exception_ptr error;
        };
        std::vector<RuleSearch> searches;
        searches.reserve(rules.size());
        {
            TELEM_SPAN("eqsat.search", "eqsat");
            for (size_t r = 0; r < rules.size(); ++r) {
                if (limits.useBackoff && iter < backoff[r].bannedUntil) {
                    any_banned = true;
                    continue;
                }
                // With backoff, the per-rule cap doubles with every ban
                // (as in egg), so a once-explosive rule eventually fits
                // its budget and resumes; search one past the cap to
                // detect overflow.
                RuleSearch search;
                search.ruleIndex = r;
                search.cap =
                    limits.useBackoff
                        ? limits.maxMatchesPerRule << backoff[r].timesBanned
                        : limits.maxMatchesPerRule;
                IncrementalSearchState* state =
                    (limits.incrementalSearch && !rules[r].guard)
                        ? &searchStates[r]
                        : nullptr;
                try {
                    search.result = searchPattern(
                        egraph, programs[r],
                        limits.useBackoff ? search.cap + 1 : search.cap,
                        state);
                } catch (...) {
                    search.error = std::current_exception();
                }
                searches.push_back(std::move(search));
            }
        }

        // Cached matches trailing a rule's last emitted one roll forward
        // to the next pending entry (or to the end of the apply loop).
        size_t virtual_carry = 0;
        for (RuleSearch& search : searches) {
            const RewriteRule& rule = rules[search.ruleIndex];
            try {
                // Inside the catch scope so throwing fault kinds degrade
                // to a skipped rule instead of escaping the run.
                if (fault::tripped("eqsat.search")) {
                    out_of_time = true;
                }
                if (search.error) {
                    std::rethrow_exception(search.error);
                }
                // totalCount includes the cached contribution of classes
                // the incremental search skipped, so the overflow check
                // is exactly the full search's match-list-size check.
                iterTotals[search.ruleIndex].matches +=
                    search.result.totalCount;
                if (limits.useBackoff &&
                    search.result.totalCount > search.cap) {
                    // Ban for an exponentially growing span and skip.
                    const size_t r = search.ruleIndex;
                    backoff[r].bannedUntil =
                        iter + (size_t{1} << ++backoff[r].timesBanned);
                    ++stats.rulesBanned;
                    ++iterTotals[r].bans;
                    any_banned = true;
                    continue;
                }
                std::vector<EMatch>& matches = search.result.matches;
                iterTotals[search.ruleIndex].cacheSkips +=
                    search.result.totalCount - matches.size();
                for (size_t j = 0; j < matches.size(); ++j) {
                    virtual_carry += search.result.cachedBefore[j];
                    if (rule.guard && !rule.guard(egraph, matches[j])) {
                        continue;
                    }
                    pending.push_back(PendingUnion{
                        &rule, std::move(matches[j]),
                        static_cast<uint32_t>(virtual_carry)});
                    virtual_carry = 0;
                }
                virtual_carry += search.result.cachedAfter;
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
        size_t apply_skips = 0;
        // Re-applying a match rooted at an untouched class is a no-op
        // (instantiate hits the hashcons, merge returns false), but in a
        // full run it still advances `applied` past poll boundaries.
        // Replay the skipped no-ops through the same counter so the two
        // modes break out of this loop at identical points.
        auto advance_virtual = [&](size_t v) {
            while (v != 0) {
                const size_t step =
                    std::min<size_t>(v, 64 - (applied & 63u));
                applied += step;
                v -= step;
                if ((applied & 63u) == 0) {
                    if (egraph.numNodes() > limits.maxNodes &&
                        egraph.numNodes() > nodes_before) {
                        added_nodes = true;
                        return true;
                    }
                    if (poll_budget()) {
                        return true;
                    }
                }
            }
            return false;
        };
        {
            TELEM_SPAN("eqsat.apply", "eqsat");
            for (const PendingUnion& p : pending) {
                if (advance_virtual(p.virtualBefore)) {
                    break;
                }
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
                    ++apply_skips;
                    continue;
                } catch (const std::bad_alloc&) {
                    ++skipped_this_iter;
                    ++apply_skips;
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
            if (!added_nodes && !out_of_time && !out_of_units) {
                advance_virtual(virtual_carry);
            }
        }
        if (apply_skips != 0) {
            // A dropped application is a match the incremental baseline
            // would wrongly consider consumed; start every rule over.
            for (IncrementalSearchState& state : searchStates) {
                state.reset();
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
        // A quiet iteration only means saturation when no rule sat out a
        // backoff ban and none was dropped by a fault.
        const bool quiet = egraph.version() == version_before &&
                           egraph.numNodes() == nodes_before &&
                           !any_banned && !added_nodes &&
                           skipped_this_iter == 0;
        if (quiet) {
            stats.stopReason = StopReason::Saturated;
            return stats;
        }
        if (added_nodes || egraph.numNodes() > limits.maxNodes) {
            stats.stopReason = StopReason::NodeLimit;
            return stats;
        }
        if (poll_budget()) {
            stats.stopReason = out_of_time ? StopReason::TimeLimit
                                           : StopReason::Budget;
            return stats;
        }
    }
    stats.stopReason = StopReason::IterLimit;
    stats.seconds = watch.seconds();
    return stats;
}

}  // namespace isamore
