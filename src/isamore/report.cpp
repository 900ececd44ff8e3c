#include "isamore/report.hpp"

#include <sstream>

#include "dsl/intern.hpp"
#include "support/pool.hpp"
#include "support/telemetry.hpp"

namespace isamore {

std::string
resultToJson(const AnalyzedWorkload& analyzed,
             const rii::RiiResult& result, bool includeRunSummary)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"workload\": \""
       << telemetry::jsonEscape(analyzed.workload.name) << "\",\n"
       << "  \"irInstructions\": " << analyzed.irInstructions << ",\n"
       << "  \"softwareNs\": " << analyzed.profile.totalNs() << ",\n"
       << "  \"stats\": {\n"
       << "    \"phases\": " << result.stats.phasesRun << ",\n"
       << "    \"origNodes\": " << result.stats.origNodes << ",\n"
       << "    \"peakNodes\": " << result.stats.peakNodes << ",\n"
       << "    \"rawCandidates\": " << result.stats.rawCandidates << ",\n"
       << "    \"dedupedCandidates\": " << result.stats.dedupedCandidates
       << ",\n"
       << "    \"aborted\": "
       << (result.stats.auAborted ? "true" : "false") << ",\n";

    // Per-rule EqSat totals, name-sorted (std::map order) and restricted
    // to rules that did anything.  Deterministic across thread counts.
    os << "    \"ruleTotals\": [";
    bool firstRule = true;
    for (const auto& [name, totals] : result.stats.ruleTotals) {
        if (totals.matches == 0 && totals.applications == 0) {
            continue;
        }
        os << (firstRule ? "\n" : ",\n") << "      {\"rule\": \""
           << telemetry::jsonEscape(name)
           << "\", \"matches\": " << totals.matches
           << ", \"applications\": " << totals.applications << "}";
        firstRule = false;
    }
    os << (firstRule ? "],\n" : "\n    ],\n");

    os << "    \"seconds\": " << result.stats.seconds << "\n  },\n"
       << "  \"diagnostics\": {\n"
       << "    \"degraded\": "
       << (result.diagnostics.degraded() ? "true" : "false") << ",\n"
       << "    \"skippedPairs\": " << result.diagnostics.skippedPairs
       << ",\n"
       << "    \"skippedRules\": " << result.diagnostics.skippedRules
       << ",\n"
       << "    \"skippedPatterns\": " << result.diagnostics.skippedPatterns
       << ",\n"
       << "    \"skippedPhases\": " << result.diagnostics.skippedPhases
       << ",\n"
       << "    \"faultsInjected\": " << result.diagnostics.faultsInjected
       << ",\n"
       << "    \"auBudgetTripped\": "
       << (result.diagnostics.auBudgetTripped ? "true" : "false") << ",\n"
       << "    \"selectionTruncated\": "
       << (result.diagnostics.selectionTruncated ? "true" : "false")
       << ",\n"
       << "    \"budgetExhausted\": "
       << (result.diagnostics.budgetExhausted ? "true" : "false")
       << "\n  },\n"
       << "  \"front\": [\n";

    for (size_t s = 0; s < result.front.size(); ++s) {
        const rii::Solution& sol = result.front[s];
        os << "    {\"speedup\": " << sol.speedup
           << ", \"areaUm2\": " << sol.areaUm2
           << ", \"deltaNs\": " << sol.deltaNs
           << ", \"instructions\": [";
        for (size_t i = 0; i < sol.patternIds.size(); ++i) {
            const int64_t id = sol.patternIds[i];
            const TermPtr& body = result.registry.body(id);
            os << (i == 0 ? "" : ", ") << "{\"id\": " << id
               << ", \"uses\": " << sol.useCounts[i]
               << ", \"ops\": " << termOpCount(body) << ", \"body\": \""
               << telemetry::jsonEscape(termToString(body)) << "\"}";
        }
        os << "]}" << (s + 1 < result.front.size() ? "," : "") << "\n";
    }
    if (!includeRunSummary) {
        os << "  ]\n}\n";
        return os.str();
    }
    std::string summary = runSummaryJson();
    while (!summary.empty() && summary.back() == '\n') {
        summary.pop_back();
    }
    os << "  ],\n  \"runSummary\": " << summary << "\n}\n";
    return os.str();
}

std::string
runSummaryJson()
{
    const InternStats intern = internStats();
    const PoolStats pool = globalPool().stats();
    std::ostringstream os;
    os << "{\n"
       << "  \"intern\": {\"terms\": " << intern.terms
       << ", \"shards\": " << intern.shards << ", \"hits\": " << intern.hits
       << ", \"misses\": " << intern.misses << "},\n"
       << "  \"pool\": {\"lanes\": " << pool.lanes
       << ", \"tasks\": " << pool.tasks << ", \"steals\": " << pool.steals
       << "},\n"
       << "  \"threads\": " << globalThreadCount() << "\n}\n";
    return os.str();
}

void
recordProcessMetrics()
{
    auto& registry = telemetry::Registry::instance();
    const InternStats intern = internStats();
    registry.gauge("intern.terms").set(static_cast<int64_t>(intern.terms));
    registry.gauge("intern.shards").set(
        static_cast<int64_t>(intern.shards));
    registry.gauge("intern.hits").set(static_cast<int64_t>(intern.hits));
    registry.gauge("intern.misses").set(
        static_cast<int64_t>(intern.misses));
    const PoolStats pool = globalPool().stats();
    registry.gauge("pool.lanes").set(static_cast<int64_t>(pool.lanes));
    registry.gauge("pool.tasks").set(static_cast<int64_t>(pool.tasks));
    registry.gauge("pool.steals").set(static_cast<int64_t>(pool.steals));
}

}  // namespace isamore
