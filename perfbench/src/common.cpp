#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "dsl/intern.hpp"
#include "support/pool.hpp"
#include "support/telemetry.hpp"

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double>& values)
{
    return quantile(values, 0.5);
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty()) {
        return 0.0;
    }
    double logSum = 0.0;
    for (double v : values) {
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
reportLayerCounts(RunResult& run, const WorkCounts& work, double ruleCount,
                  const isamore::PoolStats& before,
                  const isamore::PoolStats& after)
{
    auto& registry = isamore::telemetry::Registry::instance();
    auto counter = [&](const char* name) {
        return static_cast<double>(registry.counter(name).value());
    };
    const double memoHits = counter("au.memo_hits");
    const double memoMisses = counter("au.memo_misses");
    run.set("frontend.egraph_nodes", work.origNodes, "count");
    run.set("rules.count", ruleCount, "count");
    run.set("egraph.applications", work.applications, "count");
    run.set("egraph.peak_nodes", work.peakNodes, "count");
    run.set("egraph.extract_evals", counter("extract.evals"), "count");
    run.set("rii.au_pairs", counter("au.pairs_explored"), "count");
    run.set("rii.au_raw_candidates", work.rawCandidates, "count");
    run.set("rii.au_memo_hit_ratio", ratio(memoHits, memoHits + memoMisses),
            "ratio");
    run.set("rii.au_kept_ratio",
            ratio(work.dedupedCandidates, work.rawCandidates), "ratio");
    run.set("rii.costed_patterns", work.costed, "count");
    run.set("rii.phases", work.phases, "count");
    run.set("isamore.report_kb", work.reportBytes / 1024.0, "KiB");
    const double tasks = static_cast<double>(after.tasks - before.tasks);
    run.set("support.pool_tasks", tasks, "count");
    run.set("support.pool_steal_ratio",
            ratio(static_cast<double>(after.steals - before.steals), tasks),
            "ratio");
    const isamore::InternStats intern = isamore::internStats();
    run.set("dsl.intern_live_terms", static_cast<double>(intern.terms),
            "count");
    run.set("dsl.intern_hit_ratio",
            ratio(static_cast<double>(intern.hits),
                  static_cast<double>(intern.hits + intern.misses)),
            "ratio");
}

}  // namespace perfbench
