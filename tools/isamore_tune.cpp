/**
 * @file
 * isamore_tune -- offline EqSat strategy search (DESIGN.md "Rule
 * scheduling & strategies").
 *
 * For each workload the tool evaluates a candidate pool of strategies --
 * the built-in aggressive ones plus generated iteration-trim ladders --
 * against the default adaptive schedule.  A candidate is *admissible* for
 * a workload only if the full pipeline run under it reproduces an
 * equal-or-better Pareto front (every baseline (speedup, area) point
 * weakly dominated by a candidate point); among admissible candidates the
 * winner is the one with the lowest median EqSat wall-clock, measured
 * with rotated run order so no candidate systematically pays the cold
 * cache.  The default strategy is always admissible (its front is the
 * baseline), so the tool degrades to "keep the default" on workloads
 * where trading completeness buys nothing.
 *
 * Output: a per-workload table on stdout and, with --out, a line-based
 * map consumable by `isamore_bench --tuned @file`:
 *
 *   <workload> <strategy spec>
 *   global <strategy spec>
 *
 * `global` is the fastest candidate admissible on *every* tuned workload
 * (geometric-mean time), used for workloads absent from the map.
 *
 * `--corpus <path>` additionally records the winners (per workload plus
 * the `global` row) into a persistent corpus -- created if missing,
 * merged if present -- so warm-started runs (`isamore --strategy corpus
 * --corpus <path>`, `isamore_serve --corpus <path>`) pick their EqSat
 * schedule from tuning history instead of a side-channel map file.
 */
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/corpus.hpp"
#include "egraph/rewrite.hpp"
#include "egraph/strategy.hpp"
#include "isamore/isamore.hpp"
#include "rii/rii.hpp"
#include "rules/rulesets.hpp"
#include "support/pool.hpp"
#include "support/stopwatch.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace isamore;

std::vector<std::pair<std::string, workloads::Workload (*)()>>
tuneFactories()
{
    return {
        {"2dconv", workloads::makeConv2D},
        {"matmul", workloads::makeMatMul},
        {"matchain", workloads::makeMatChain},
        {"fft", workloads::makeFft},
        {"stencil", workloads::makeStencil},
        {"qprod", workloads::makeQProd},
        {"qrdecomp", workloads::makeQRDecomp},
        {"deriche", workloads::makeDeriche},
        {"sha", workloads::makeSha},
    };
}

std::vector<std::string>
splitCsv(const std::string& text)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream is(text);
    while (std::getline(is, item, ',')) {
        if (!item.empty()) {
            out.push_back(item);
        }
    }
    return out;
}

/**
 * Weak Pareto coverage: every baseline point is matched or beaten by
 * some candidate point in both objectives (higher speedup, lower area).
 * The tolerance absorbs last-ulp float formatting churn only; the runs
 * themselves are deterministic.
 */
bool
frontCovered(const std::vector<rii::Solution>& baseline,
             const std::vector<rii::Solution>& candidate)
{
    constexpr double kEps = 1e-9;
    for (const rii::Solution& b : baseline) {
        bool covered = false;
        for (const rii::Solution& c : candidate) {
            if (c.speedup >= b.speedup - kEps &&
                c.areaUm2 <= b.areaUm2 + kEps) {
                covered = true;
                break;
            }
        }
        if (!covered) {
            return false;
        }
    }
    return true;
}

/** One strategy under evaluation. */
struct Candidate {
    Strategy strategy;
    bool admissible = false;        ///< front equal-or-better on this workload
    bool admissibleEverywhere = true;
    std::vector<double> samplesMs;  ///< EqSat wall-clock samples
    std::vector<double> medians;    ///< per-workload medians, tuning order

    double median()
    {
        std::sort(samplesMs.begin(), samplesMs.end());
        return samplesMs.empty() ? 0.0 : samplesMs[samplesMs.size() / 2];
    }
};

/** Built-in aggressive strategies plus an iteration-trim ladder. */
std::vector<Strategy>
candidatePool()
{
    std::vector<Strategy> pool;
    pool.push_back(Strategy::defaults());
    for (const char* name : {"sat-first", "trim"}) {
        pool.push_back(*builtinStrategy(name));
    }
    for (size_t iters = 1; iters <= 4; ++iters) {
        Strategy s;
        s.name = "trim-iters" + std::to_string(iters);
        StrategyPhase phase;
        phase.label = "main";
        phase.selector = RuleSelector::All;
        phase.iters = iters;
        phase.stop = PhaseStop::Quiet;
        s.phases = {phase};
        pool.push_back(s);
    }
    return pool;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> names = {"matmul", "2dconv", "fft",
                                      "stencil", "qprod",  "sha"};
    size_t reps = 15;
    std::string outPath;
    std::string corpusPath;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--workloads" && i + 1 < argc) {
            names = splitCsv(argv[++i]);
        } else if (flag == "--reps" && i + 1 < argc) {
            reps = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
        } else if (flag == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (flag == "--corpus" && i + 1 < argc) {
            corpusPath = argv[++i];
        } else if (flag == "--threads" && i + 1 < argc) {
            const std::optional<size_t> threads = parseThreadCount(argv[++i]);
            if (!threads) {
                std::cerr << "isamore_tune: bad --threads value\n";
                return 2;
            }
            setGlobalThreads(*threads);
        } else {
            std::cerr << "usage: isamore_tune [--workloads <a,b,c>] "
                         "[--reps <n>] [--threads <n>] [--out <path>] "
                         "[--corpus <path>]\n";
            return flag == "--help" ? 0 : 2;
        }
    }

    const rules::RulesetLibrary library = rules::defaultLibrary();
    const rii::RiiConfig config = rii::RiiConfig::forMode(rii::Mode::Default);
    const std::vector<RewriteRule> searchRules = library.intSat();

    std::vector<Candidate> pool;
    for (Strategy& s : candidatePool()) {
        Candidate c;
        c.strategy = std::move(s);
        pool.push_back(std::move(c));
    }

    // Load (or start) the persistent corpus the winners merge into.
    // Corrupt/cross-build files are refused up front -- before minutes
    // of timing -- with the invalid-input exit class the CLI uses.
    std::unique_ptr<corpus::Corpus> corpusStore;
    if (!corpusPath.empty()) {
        corpusStore = std::make_unique<corpus::Corpus>();
        if (std::filesystem::exists(corpusPath)) {
            try {
                corpusStore->load(corpusPath, library);
            } catch (const std::exception& e) {
                std::cerr << "error: " << e.what() << "\n";
                return 3;
            }
        }
    }

    std::vector<std::pair<std::string, Strategy>> winners;
    for (const std::string& name : names) {
        workloads::Workload (*factory)() = nullptr;
        for (const auto& [key, make] : tuneFactories()) {
            if (key == name) {
                factory = make;
            }
        }
        if (factory == nullptr) {
            std::cerr << "unknown workload: " << name << "\n";
            return 2;
        }
        const AnalyzedWorkload analyzed = analyzeWorkload(factory());

        // Admissibility: the full pipeline's front under the candidate
        // must cover the default schedule's front.
        const rii::RiiResult baseline = identifyInstructions(analyzed, config);
        for (Candidate& cand : pool) {
            if (cand.strategy == Strategy::defaults()) {
                cand.admissible = true;  // its front *is* the baseline
            } else {
                rii::RiiConfig candConfig = config;
                candConfig.eqsat.strategy = cand.strategy;
                const rii::RiiResult run =
                    identifyInstructions(analyzed, candConfig);
                cand.admissible = frontCovered(baseline.front, run.front);
            }
            cand.admissibleEverywhere &= cand.admissible;
            cand.samplesMs.clear();
        }

        // Timing: EqSat wall-clock on fresh copies of the encoded graph,
        // run order rotated per rep so every candidate sees every
        // position (cold caches fall on each equally).
        for (size_t rep = 0; rep < reps; ++rep) {
            for (size_t i = 0; i < pool.size(); ++i) {
                Candidate& cand = pool[(i + rep) % pool.size()];
                EGraph egraph = analyzed.program.egraph;
                EqSatLimits limits = config.eqsat;
                limits.strategy = cand.strategy;
                Stopwatch watch;
                runEqSat(egraph, searchRules, limits);
                cand.samplesMs.push_back(watch.seconds() * 1e3);
            }
        }

        size_t best = 0;
        double bestMs = 0.0;
        std::cout << name << ":\n";
        for (size_t i = 0; i < pool.size(); ++i) {
            Candidate& cand = pool[i];
            const double ms = cand.median();
            cand.medians.push_back(ms);
            std::cout << "  " << (cand.admissible ? "ok  " : "cut ")
                      << cand.strategy.name << ": " << ms << " ms\n";
            if (cand.admissible && (bestMs == 0.0 || ms < bestMs)) {
                best = i;
                bestMs = ms;
            }
        }
        std::cout << "  -> " << pool[best].strategy.name << "\n";
        winners.emplace_back(name, pool[best].strategy);
    }

    // Global pick: fastest by geometric mean among candidates admissible
    // on every tuned workload (the default always qualifies).
    size_t globalBest = 0;
    double globalScore = 0.0;
    for (size_t i = 0; i < pool.size(); ++i) {
        if (!pool[i].admissibleEverywhere) {
            continue;
        }
        double logSum = 0.0;
        for (double ms : pool[i].medians) {
            logSum += std::log(std::max(ms, 1e-9));
        }
        const double score = std::exp(logSum / pool[i].medians.size());
        if (globalScore == 0.0 || score < globalScore) {
            globalBest = i;
            globalScore = score;
        }
    }
    std::cout << "global -> " << pool[globalBest].strategy.name << "\n";

    if (!outPath.empty()) {
        std::ofstream os(outPath);
        if (!os) {
            std::cerr << "error: cannot write " << outPath << "\n";
            return 1;
        }
        os << "# generated by isamore_tune; consumed by isamore_bench "
              "--tuned @<this file>\n";
        for (const auto& [workload, strategy] : winners) {
            os << workload << " " << strategy.encode() << "\n";
        }
        os << "global " << pool[globalBest].strategy.encode() << "\n";
    }

    if (corpusStore != nullptr) {
        for (const auto& [workload, strategy] : winners) {
            corpusStore->recordStrategy(workload, strategy);
        }
        corpusStore->recordStrategy("global", pool[globalBest].strategy);
        if (corpusStore->dirty()) {
            corpusStore->save(corpusPath, library);
            std::cout << "corpus: saved " << corpusPath << " ("
                      << corpusStore->strategyCount() << " strategies)\n";
        } else {
            std::cout << "corpus: " << corpusPath
                      << " already carries these winners\n";
        }
    }
    return 0;
}
