#include "corpus/warm.hpp"

#include <set>

#include "support/fault.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"

namespace isamore {
namespace corpus {

bool
warmEligible(const rii::RiiConfig& config)
{
    return config.mode != rii::Mode::Vector && config.budget.unlimited() &&
           (config.parentBudget == nullptr ||
            config.parentBudget->unconstrained()) &&
           !fault::Registry::instance().enabled();
}

rii::RiiResult
identifyInstructions(const AnalyzedWorkload& analyzed,
                     const rules::RulesetLibrary& rules,
                     rii::RiiConfig config, Corpus& corpus,
                     const WarmOptions& options)
{
    const std::string& name = analyzed.workload.name;
    if (options.seedLibrary) {
        std::vector<TermPtr> seeds = corpus.seedPatterns(name);
        config.seedPatterns.insert(config.seedPatterns.end(),
                                   seeds.begin(), seeds.end());
    }

    auto& telemetry = telemetry::Registry::instance();
    const bool eligible = warmEligible(config);
    std::string key;
    if (eligible) {
        key = resultKey(name, programFingerprint(analyzed), config.mode,
                        rulesFingerprint(rules), configFingerprint(config));
        if (const CachedResult* hit = corpus.findResult(key)) {
            const Stopwatch timer;
            rii::RiiResult result = rehydrateResult(*hit);
            result.baseProgram = analyzed.program;
            telemetry.counter("corpus.hits").add(1);
            result.stats.seconds = timer.seconds();
            return result;
        }
        telemetry.counter("corpus.misses").add(1);
    }

    rii::RiiResult result =
        isamore::identifyInstructions(analyzed, rules, config);

    if (eligible && !result.diagnostics.degraded()) {
        corpus.storeResult(key, captureResult(result));
    }

    // Feed the front's pattern bodies into the cross-workload library.
    std::set<int64_t> frontIds;
    for (const rii::Solution& solution : result.front) {
        frontIds.insert(solution.patternIds.begin(),
                        solution.patternIds.end());
    }
    std::vector<TermPtr> mined;
    mined.reserve(frontIds.size());
    for (const int64_t id : frontIds) {
        mined.push_back(result.registry.costBody(id));
    }
    const size_t crossHits = corpus.recordMined(name, mined);
    telemetry.counter("corpus.cross_hits").add(
        static_cast<int64_t>(crossHits));
    return result;
}

}  // namespace corpus
}  // namespace isamore
