#include "corpus/warm.hpp"

#include "support/fault.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"

namespace isamore {
namespace corpus {

bool
warmEligible(const rii::RiiConfig& config)
{
    return config.mode != rii::Mode::Vector &&
           (config.parentBudget == nullptr ||
            config.parentBudget->unconstrained()) &&
           !fault::Registry::instance().enabled();
}

rii::RiiResult
identifyInstructions(const AnalyzedWorkload& analyzed,
                     const rules::RulesetLibrary& rules,
                     const rii::RiiConfig& config, Corpus& corpus)
{
    if (!warmEligible(config)) {
        return isamore::identifyInstructions(analyzed, rules, config);
    }
    auto& telemetry = telemetry::Registry::instance();
    const std::string key =
        resultKey(analyzed.workload.name, programFingerprint(analyzed),
                  config.mode, rulesFingerprint(rules),
                  configFingerprint(config));
    if (const CachedResult* hit = corpus.findResult(key)) {
        const Stopwatch timer;
        rii::RiiResult result = rehydrateResult(*hit);
        result.baseProgram = analyzed.program;
        telemetry.counter("corpus.hits").add(1);
        result.stats.seconds = timer.seconds();
        return result;
    }
    telemetry.counter("corpus.misses").add(1);

    rii::RiiResult result =
        isamore::identifyInstructions(analyzed, rules, config);
    if (!result.diagnostics.degraded()) {
        corpus.storeResult(key, captureResult(result));
    }
    return result;
}

}  // namespace corpus
}  // namespace isamore
