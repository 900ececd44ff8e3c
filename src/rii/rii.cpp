#include "rii/rii.hpp"

#include <algorithm>
#include <cctype>
#include <new>
#include <sstream>
#include <unordered_set>

#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"

namespace isamore {
namespace rii {
namespace {

/** A sortable identity of a Pareto front (for termination detection). */
std::string
frontSignature(const std::vector<Solution>& front)
{
    std::string sig;
    for (const Solution& s : front) {
        std::vector<int64_t> ids = s.patternIds;
        std::sort(ids.begin(), ids.end());
        for (int64_t id : ids) {
            sig += std::to_string(id);
            sig += ',';
        }
        sig += '|';
    }
    return sig;
}

/** Merge new solutions into the global front. */
std::vector<Solution>
mergeFronts(std::vector<Solution> global, std::vector<Solution> fresh)
{
    for (Solution& s : fresh) {
        global.push_back(std::move(s));
    }
    return paretoFilter(std::move(global));
}

/** Patterns referenced by any solution on the front. */
std::vector<int64_t>
frontPatterns(const std::vector<Solution>& front)
{
    std::vector<int64_t> ids;
    for (const Solution& s : front) {
        for (int64_t id : s.patternIds) {
            ids.push_back(id);
        }
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
}

}  // namespace

const char*
modeName(Mode mode)
{
    switch (mode) {
      case Mode::Default:
        return "Default";
      case Mode::AstSize:
        return "AstSize";
      case Mode::KDSample:
        return "KDSample";
      case Mode::Vector:
        return "Vector";
      case Mode::NoEqSat:
        return "NoEqSat";
      case Mode::LLMT:
        return "LLMT";
    }
    return "?";
}

std::optional<Mode>
parseMode(std::string_view text)
{
    auto lower = [](char c) {
        return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    };
    for (const Mode mode : kAllModes) {
        const std::string_view name = modeName(mode);
        if (std::equal(text.begin(), text.end(), name.begin(), name.end(),
                       [&](char a, char b) { return lower(a) == lower(b); })) {
            return mode;
        }
    }
    return std::nullopt;
}

RiiConfig
RiiConfig::forMode(Mode mode)
{
    RiiConfig cfg;
    cfg.mode = mode;
    switch (mode) {
      case Mode::Default:
        break;
      case Mode::AstSize:
        cfg.select.astSizeObjective = true;
        break;
      case Mode::KDSample:
        cfg.au.sampling = Sampling::KdTree;
        cfg.au.maxPatternsPerPair = 16;
        break;
      case Mode::Vector:
        // Vectorized reductions (e.g. the packed dot product of the
        // BitNet study) nest lane decodes under a mad chain; allow AU to
        // reach through them.
        cfg.au.maxDepth = 14;
        break;
      case Mode::NoEqSat:
        break;
      case Mode::LLMT:
        cfg.au.sampling = Sampling::Exhaustive;
        cfg.au.typeFilter = false;
        cfg.au.hashFilter = false;
        cfg.au.maxCandidates = 600000;
        cfg.au.maxResultPatterns = 600000;
        cfg.maxPhases = 1;
        cfg.eqsat.maxIterations = 16;
        break;
    }
    return cfg;
}

bool
RunDiagnostics::degraded() const
{
    return skippedRules > 0 || skippedPairs > 0 || skippedPatterns > 0 ||
           skippedPhases > 0 || faultsInjected > 0 || auBudgetTripped ||
           auTimedOut || selectionTruncated || budgetExhausted;
}

std::string
RunDiagnostics::summary() const
{
    std::ostringstream os;
    os << "eqsat:  lastStop=" << stopReasonName(lastEqSatStop)
       << " nodeTrips=" << eqsatNodeTrips
       << " timeouts=" << eqsatTimeouts
       << " skippedRules=" << skippedRules << "\n"
       << "au:     skippedPairs=" << skippedPairs
       << " budgetTripped=" << (auBudgetTripped ? "yes" : "no")
       << " timedOut=" << (auTimedOut ? "yes" : "no") << "\n"
       << "select: truncated=" << (selectionTruncated ? "yes" : "no")
       << " skippedPatterns=" << skippedPatterns << "\n"
       << "run:    skippedPhases=" << skippedPhases
       << " faultsInjected=" << faultsInjected
       << " budgetExhausted=" << (budgetExhausted ? "yes" : "no")
       << " degraded=" << (degraded() ? "yes" : "no") << "\n";
    return os.str();
}

const Solution&
RiiResult::best() const
{
    static const Solution empty;
    const Solution* best = &empty;
    for (const Solution& s : front) {
        if (s.speedup >= best->speedup) {
            best = &s;
        }
    }
    return *best;
}

RiiResult
runRii(const frontend::EncodedProgram& program,
       const profile::ModuleProfile& profile,
       const rules::RulesetLibrary& rules, const RiiConfig& config)
{
    TELEM_SPAN("rii.run", "rii");
    Stopwatch watch;
    RiiResult result;
    RiiStats& stats = result.stats;
    RunDiagnostics& diag = result.diagnostics;
    auto foldRuleTotals = [&stats](const EqSatStats& eq) {
        for (const auto& [name, totals] : eq.perRule) {
            stats.ruleTotals[name] += totals;
        }
    };
    Budget runBudget(BudgetSpec{}, config.parentBudget);
    const uint64_t faultsBefore = fault::Registry::instance().firedCount();

    // Vector mode runs pattern vectorization up front (its phase applies
    // the vector ruleset, per Fig. 7 line 8).  The paper's hybrid
    // scalar-vector e-graph keeps both forms alive; here the compressed
    // vectorized graph commits to one scheme, so Vector mode runs the
    // phase loop over BOTH the vectorized and the original scalar graphs
    // and merges their fronts, which preserves the "comprehensively
    // considering vectorized and scalar candidates" behaviour.
    std::vector<const frontend::EncodedProgram*> bases;
    frontend::EncodedProgram vectorized;
    if (config.mode == Mode::Vector) {
        // A faulty vectorizer degrades Vector mode to the scalar-only
        // phase loop instead of killing the run.
        try {
            TELEM_SPAN("rii.vectorize", "rii");
            VectorizeResult vr =
                vectorizeProgram(program, rules.vector());
            vectorized = std::move(vr.program);
            stats.packsCreated = vr.packsCreated;
            bases.push_back(&vectorized);
        } catch (const InternalError&) {
            ++diag.skippedPhases;
        } catch (const std::bad_alloc&) {
            ++diag.skippedPhases;
        }
    }
    bases.push_back(&program);
    stats.origNodes = bases.front()->egraph.numNodes();
    stats.origClasses = bases.front()->egraph.numClasses();

    // Phase rulesets.
    const auto int_sat = rules.intSat();
    const auto float_sat = rules.floatSat();
    const auto non_sat = rules.nonSat();

    for (const frontend::EncodedProgram* base : bases) {
        CostModel cost(*base, profile, result.registry);
        std::string last_signature;
        const int total_phases = 2 + config.maxPhases;
        for (int phase = 0; phase < total_phases; ++phase) {
            TELEM_SPAN_ARGS("rii.phase", "rii",
                            "\"phase\": " + std::to_string(phase));
            // Whole-run budget gate: remaining phases are dropped, not
            // aborted, once it expires.
            if (fault::tripped("rii.phase") || !runBudget.ok()) {
                diag.budgetExhausted = true;
                diag.skippedPhases +=
                    static_cast<size_t>(total_phases - phase);
                break;
            }
            ++stats.phasesRun;

            // Ruleset for this phase.  The node budget scales with the
            // original graph so the paper's peak/original ratio holds at
            // every input size.
            std::vector<RewriteRule> phase_rules;
            EqSatLimits limits = config.eqsat;
            if (config.mode != Mode::LLMT) {
                limits.maxNodes =
                    std::min(limits.maxNodes,
                             std::max<size_t>(1500, 4 * stats.origNodes));
            }
            if (config.mode == Mode::LLMT) {
                phase_rules = rules.select(0, kRuleVector);  // everything
            } else if (config.mode == Mode::NoEqSat) {
                phase_rules.clear();  // semantics disabled
            } else if (phase == 0) {
                phase_rules = int_sat;
            } else if (phase == 1) {
                phase_rules = float_sat;
            } else if (!non_sat.empty()) {
                // Rotating slice of non-saturating rules, applied twice.
                const size_t n = kRulesPerPhase;
                const size_t start =
                    (static_cast<size_t>(phase - 2) * n) % non_sat.size();
                for (size_t k = 0; k < n && k < non_sat.size(); ++k) {
                    phase_rules.push_back(
                        non_sat[(start + k) % non_sat.size()]);
                }
                limits.maxIterations = 2;
            }

            // Start the phase from the base graph plus kappa(P_pre).
            frontend::EncodedProgram work = *base;
            const auto pre_patterns = frontPatterns(result.front);
            for (RewriteRule& r :
                 result.registry.applicationRules(pre_patterns)) {
                phase_rules.push_back(std::move(r));
            }
            EqSatStats eq = runEqSat(work.egraph, phase_rules, limits,
                                     &runBudget);
            foldRuleTotals(eq);
            diag.lastEqSatStop = eq.stopReason;
            diag.skippedRules += eq.skippedRules;
            if (eq.stopReason == StopReason::NodeLimit) {
                ++diag.eqsatNodeTrips;
            } else if (eq.stopReason == StopReason::TimeLimit) {
                ++diag.eqsatTimeouts;
            }
            stats.peakNodes = std::max(
                {stats.peakNodes, eq.peakNodes, work.egraph.numNodes()});
            stats.peakClasses =
                std::max({stats.peakClasses, eq.peakClasses,
                          work.egraph.numClasses()});

            // Smart AU identification.  A sweep that dies wholesale
            // (invariant trip, allocation failure) costs this phase only;
            // per-pair failures are already absorbed inside the sweep.
            AuResult au;
            try {
                au = identifyPatterns(work.egraph, config.au, &runBudget);
            } catch (const InternalError&) {
                ++diag.skippedPhases;
                continue;
            } catch (const std::bad_alloc&) {
                ++diag.skippedPhases;
                continue;
            }
            diag.skippedPairs += au.stats.skippedPairs;
            diag.auTimedOut = diag.auTimedOut || au.stats.timedOut;
            stats.rawCandidates += au.stats.rawCandidates;
            stats.dedupedCandidates += au.patterns.size();
            if (au.stats.aborted) {
                stats.auAborted = true;
                // The configured candidate cap is experiment policy (the
                // LLMT baseline blows it by design) and stays out of the
                // degradation report; only an exhausted *run* budget
                // counts as a degraded abort.
                if (!runBudget.ok()) {
                    diag.auBudgetTripped = true;
                }
                break;  // the LLMT "out of memory" analogue
            }

            // Cost the candidates and keep the best few.  A candidate
            // whose evaluation fails is dropped, not fatal.  Previously
            // selected patterns stay selectable in this phase; they are
            // costed inside the same span.
            std::vector<PatternEval> costed;
            {
                TELEM_SPAN("rii.cost", "rii");
                for (const TermPtr& p : au.patterns) {
                    try {
                        int64_t id = result.registry.add(p);
                        costed.push_back(cost.evaluate(id, work.egraph));
                    } catch (const InternalError&) {
                        ++diag.skippedPatterns;
                    } catch (const std::bad_alloc&) {
                        ++diag.skippedPatterns;
                    }
                }
                std::sort(costed.begin(), costed.end(),
                          [](const PatternEval& a, const PatternEval& b) {
                              return a.deltaNs > b.deltaNs;
                          });
                while (costed.size() > kMaxCostedCandidates) {
                    costed.pop_back();
                }
                while (!costed.empty() && costed.back().deltaNs <= 0 &&
                       costed.size() > 1) {
                    costed.pop_back();
                }
                std::unordered_set<int64_t> have;
                for (const PatternEval& pe : costed) {
                    have.insert(pe.id);
                }
                for (int64_t id : pre_patterns) {
                    if (have.count(id) == 0 &&
                        costed.size() < kMaxSelectCandidates) {
                        costed.push_back(cost.evaluate(id, work.egraph));
                    }
                }
            }
            if (costed.empty()) {
                continue;
            }

            // Introduce App nodes for the costed candidates.
            std::vector<int64_t> ids;
            for (const PatternEval& pe : costed) {
                ids.push_back(pe.id);
                // Keep the strongest evaluation: a pattern selected in
                // one base (e.g. the vectorized graph) re-costs to zero
                // uses under the other base, which must not clobber it.
                auto slot = result.evaluations.find(pe.id);
                if (slot == result.evaluations.end() ||
                    pe.deltaNs > slot->second.deltaNs) {
                    result.evaluations[pe.id] = pe;
                }
            }
            EqSatLimits app_limits;
            app_limits.maxIterations = 1;
            app_limits.maxNodes = limits.maxNodes * 2;
            foldRuleTotals(runEqSat(work.egraph,
                                    result.registry.applicationRules(ids),
                                    app_limits, &runBudget));
            stats.peakNodes =
                std::max(stats.peakNodes, work.egraph.numNodes());
            stats.peakClasses =
                std::max(stats.peakClasses, work.egraph.numClasses());

            // Select, refine, and merge into the global front.  Selection
            // failure costs this phase's solutions only; the global front
            // from earlier phases survives.
            SelectOutcome selOutcome;
            std::vector<Solution> solutions;
            try {
                TELEM_SPAN("rii.select", "rii");
                solutions = selectAndRefine(work.egraph, work.root,
                                            costed, cost, config.select,
                                            &runBudget, &selOutcome);
            } catch (const InternalError&) {
                ++diag.skippedPhases;
                continue;
            } catch (const std::bad_alloc&) {
                ++diag.skippedPhases;
                continue;
            }
            diag.selectionTruncated =
                diag.selectionTruncated || selOutcome.truncated;
            result.front = mergeFronts(std::move(result.front),
                                       std::move(solutions));

            std::string signature = frontSignature(result.front);
            if (phase >= 2 && signature == last_signature) {
                break;  // solution set unchanged: stop iterating
            }
            last_signature = std::move(signature);
        }
        if (stats.auAborted) {
            break;
        }
    }

    stats.seconds = watch.seconds();
    stats.peakRssBytes = peakRssBytes();
    diag.faultsInjected =
        fault::Registry::instance().firedCount() - faultsBefore;
    result.baseProgram = *bases.front();
    return result;
}

}  // namespace rii
}  // namespace isamore
