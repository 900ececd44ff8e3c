/**
 * @file
 * Perf-regression harness: times the pipeline's hot stages per workload
 * and writes a machine-readable BENCH_results.json for trend tracking.
 *
 * Usage:
 *   isamore_bench [--workloads <a,b,c>] [--reps <n>] [--threads <n>]
 *                 [--out <path>] [--baseline <path>] [--check-identical]
 *                 [--min-ematch-speedup <x>]
 *                 [--min-au-speedup <x>]
 *
 * Per workload and repetition, the pipeline's stages are timed
 * independently:
 *   - eqsat:    equality saturation of the encoded e-graph with the
 *               integer saturating ruleset
 *   - ematch:   one full-ruleset search pass over the saturated graph,
 *               naive (legacy backtracking matcher, whole-graph scan)
 *               vs compiled (pattern VM seeded from the op index); both
 *               engines must agree on the match count, and
 *               --min-ematch-speedup <x> fails the run (exit 1) when
 *               median(naive)/median(compiled) drops below x on any
 *               selected workload
 *   - au:       the anti-unification pair sweep over the saturated graph
 *   - au_term:  the AU sweep's term-layer churn (candidate construction,
 *               dedup, registry keying) replayed on the workload's class
 *               representatives, legacy (fresh tree nodes, recursive
 *               hash/equality, termToString registry keys) vs interned
 *               (hash-consed makeTerm, cached hashes, canonical-pointer
 *               keys); both sides must agree on the unique-pattern
 *               count, and --min-au-speedup <x> fails the run (exit 1)
 *               when median(legacy)/median(interned) drops below x
 *   - pipeline: the full identifyInstructions run (includes selection)
 *   - corpus:   (--corpus-bench) the persistent-corpus warm-start path:
 *               the full pipeline against a fresh empty corpus (cold,
 *               pays the memo-store overhead) vs against a corpus
 *               populated by a prior run of the same build (warm,
 *               result-cache hit).  Warm output must be byte-identical
 *               to cold modulo wall-clock (exit 1 otherwise), and
 *               --min-corpus-speedup <x> fails the run (exit 1) when
 *               median(cold)/median(warm) drops below x on any selected
 *               workload.  One corpus is shared across the selected
 *               workloads (the cross-workload accumulation path);
 *               --corpus-out <path> saves it afterwards
 *   - serve:    (--serve-bench) server-mode request latency -- cold
 *               (fresh process state per request, what a single-shot
 *               CLI invocation pays), warm (process state amortized,
 *               pipeline re-run), and cached (the daemon's steady-state
 *               fast path) -- plus cache-served requests/sec across
 *               `--threads` issuing lanes; --min-serve-speedup <x>
 *               fails the run (exit 1) when median(cold)/median(cached)
 *               drops below x on any selected workload.  The stage also
 *               re-times the warm request with the per-request live
 *               observability machinery on (span sink, latency-digest
 *               recording, flight-ring bookkeeping -- exactly what a
 *               serve lane wraps around executeRequest; both series run
 *               with telemetry enabled, the daemon's steady state) as
 *               serve_warm_observed; --max-observe-overhead <x> fails
 *               the run (exit 1) when the median paired per-rep ratio
 *               observed[i]/warm[i] exceeds x on any selected workload
 *               (the CI gate holds the per-request layer below 2%)
 *
 * The report records median and p90 wall-clock milliseconds per stage,
 * the thread count, candidate counts, and a `host` block (CPU model from
 * /proc/cpuinfo, hardware_concurrency, build type).  `--baseline <path>`
 * loads a previously written report (e.g. the committed BENCH_seed.json)
 * and prints per-stage median deltas against it, so a perf regression
 * shows up as a signed percentage instead of requiring two terminals and
 * a diff.  Deltas are only meaningful between runs on the same machine
 * and build, so a baseline whose host block differs from the current
 * one -- or that has none -- draws a warning.  `--check-identical` re-runs
 * the pipeline single-threaded and fails (exit 1) unless the JSON report
 * -- pattern set, selection front, statistics -- is byte-identical to
 * the multi-threaded run, which is the determinism contract of the
 * work-stealing parallelization (see DESIGN.md "Threading model").
 */
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "corpus/corpus.hpp"
#include "corpus/warm.hpp"
#include "dsl/intern.hpp"
#include "egraph/ematch_program.hpp"
#include "egraph/extract.hpp"
#include "egraph/rewrite.hpp"
#include "isamore/isamore.hpp"
#include "isamore/report.hpp"
#include "server/observe.hpp"
#include "server/session.hpp"
#include "support/budget.hpp"
#include "support/check.hpp"
#include "support/pool.hpp"
#include "support/stopwatch.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace isamore;

struct StageTiming {
    std::vector<double> samplesMs;

    double
    percentile(double fraction) const
    {
        std::vector<double> sorted = samplesMs;
        std::sort(sorted.begin(), sorted.end());
        if (sorted.empty()) {
            return 0.0;
        }
        const size_t rank = static_cast<size_t>(
            fraction * static_cast<double>(sorted.size() - 1) + 0.5);
        return sorted[std::min(rank, sorted.size() - 1)];
    }

    double median() const { return percentile(0.5); }
    double p90() const { return percentile(0.9); }
    /** Fastest sample -- the noise-floor statistic overhead ratios use
     *  (a slow outlier inflates a median at small rep counts; nothing
     *  makes a run spuriously fast). */
    double best() const { return percentile(0.0); }
};

/**
 * Robust A/B overhead ratio for two interleaved sample series: the
 * median of the per-rep paired ratios b[i]/a[i].  Each pair ran
 * back-to-back, so slow drift (thermal throttle, a noisy neighbour in
 * the container) hits both sides of a pair alike and cancels in the
 * ratio; the median then discards reps where a scheduler hiccup split
 * a pair.  Far more stable at small rep counts than min(b)/min(a),
 * whose two minima can land in different noise regimes.
 */
double
pairedOverheadRatio(const StageTiming& a, const StageTiming& b)
{
    const size_t pairs = std::min(a.samplesMs.size(), b.samplesMs.size());
    if (pairs == 0) {
        return 0.0;
    }
    std::vector<double> ratios;
    ratios.reserve(pairs);
    for (size_t i = 0; i < pairs; ++i) {
        ratios.push_back(b.samplesMs[i] / std::max(a.samplesMs[i], 1e-6));
    }
    std::sort(ratios.begin(), ratios.end());
    return ratios[(ratios.size() - 1) / 2];
}

struct WorkloadReport {
    std::string name;
    StageTiming eqsat;
    StageTiming ematchNaive;
    StageTiming ematchCompiled;
    StageTiming au;
    StageTiming auTermLegacy;
    StageTiming auTermInterned;
    StageTiming pipeline;
    StageTiming serveCold;
    StageTiming serveWarm;
    /** Warm request re-timed with the live observability layer on. */
    StageTiming serveWarmObserved;
    StageTiming serveCached;
    double serveReqPerSec = 0.0;
    bool serveBenched = false;
    StageTiming corpusCold;
    StageTiming corpusWarm;
    bool corpusBenched = false;
    /** Warm corpus result byte-identical to cold modulo wall-clock. */
    bool corpusIdentical = true;
    size_t auTermUnique = 0;
    size_t auPatterns = 0;
    size_t rawCandidates = 0;
    size_t frontSize = 0;
    bool identicalChecked = false;
    bool identical = true;
};

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

/** The machine and build a report was measured on. */
struct HostInfo {
    std::string cpu;          ///< /proc/cpuinfo "model name"
    unsigned concurrency = 0; ///< std::thread::hardware_concurrency()
    std::string buildType;    ///< CMake configuration of this harness

    bool operator==(const HostInfo&) const = default;
};

HostInfo
currentHost()
{
    HostInfo host;
    host.cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        const size_t colon = line.find(':');
        if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
            const size_t start = line.find_first_not_of(" \t", colon + 1);
            if (start != std::string::npos) {
                host.cpu = line.substr(start);
            }
            break;
        }
    }
    host.concurrency = std::thread::hardware_concurrency();
    host.buildType = ISAMORE_BUILD_TYPE;
    return host;
}

void
writeSamples(std::ostream& os, const StageTiming& stage)
{
    os << "{\"median_ms\": " << stage.median()
       << ", \"p90_ms\": " << stage.p90() << ", \"samples_ms\": [";
    for (size_t i = 0; i < stage.samplesMs.size(); ++i) {
        os << (i == 0 ? "" : ", ") << stage.samplesMs[i];
    }
    os << "]}";
}

void
writeReport(std::ostream& os, const std::vector<WorkloadReport>& reports,
            size_t threads, size_t reps)
{
    const HostInfo host = currentHost();
    os << "{\n  \"host\": {\"cpu\": \""
       << server::jsonEscapeString(host.cpu)
       << "\", \"hardware_concurrency\": " << host.concurrency
       << ", \"build_type\": \""
       << server::jsonEscapeString(host.buildType) << "\"},\n"
       << "  \"threads\": " << threads << ",\n  \"reps\": " << reps
       << ",\n  \"workloads\": [\n";
    for (size_t w = 0; w < reports.size(); ++w) {
        const WorkloadReport& r = reports[w];
        os << "    {\"name\": \"" << r.name << "\",\n"
           << "     \"stages\": {\n"
           << "       \"eqsat\": ";
        writeSamples(os, r.eqsat);
        os << ",\n       \"ematch_naive\": ";
        writeSamples(os, r.ematchNaive);
        os << ",\n       \"ematch_compiled\": ";
        writeSamples(os, r.ematchCompiled);
        os << ",\n       \"au\": ";
        writeSamples(os, r.au);
        os << ",\n       \"au_term_legacy\": ";
        writeSamples(os, r.auTermLegacy);
        os << ",\n       \"au_term_interned\": ";
        writeSamples(os, r.auTermInterned);
        os << ",\n       \"pipeline\": ";
        writeSamples(os, r.pipeline);
        if (r.serveBenched) {
            os << ",\n       \"serve_cold\": ";
            writeSamples(os, r.serveCold);
            os << ",\n       \"serve_warm\": ";
            writeSamples(os, r.serveWarm);
            os << ",\n       \"serve_warm_observed\": ";
            writeSamples(os, r.serveWarmObserved);
            os << ",\n       \"serve_cached\": ";
            writeSamples(os, r.serveCached);
        }
        if (r.corpusBenched) {
            os << ",\n       \"corpus_cold\": ";
            writeSamples(os, r.corpusCold);
            os << ",\n       \"corpus_warm\": ";
            writeSamples(os, r.corpusWarm);
        }
        os << "\n     },\n"
           << "     \"ematch_speedup\": "
           << r.ematchNaive.median() /
                  std::max(r.ematchCompiled.median(), 1e-6)
           << ",\n     \"au_term_speedup\": "
           << r.auTermLegacy.median() /
                  std::max(r.auTermInterned.median(), 1e-6)
           << ",\n     \"au_term_unique\": " << r.auTermUnique;
        if (r.serveBenched) {
            os << ",\n     \"serve_speedup\": "
               << r.serveCold.median() /
                      std::max(r.serveCached.median(), 1e-6)
               << ",\n     \"observe_overhead\": "
               << pairedOverheadRatio(r.serveWarm, r.serveWarmObserved)
               << ",\n     \"serve_req_per_sec\": " << r.serveReqPerSec;
        }
        if (r.corpusBenched) {
            os << ",\n     \"corpus_speedup\": "
               << r.corpusCold.median() /
                      std::max(r.corpusWarm.median(), 1e-6)
               << ",\n     \"corpus_warm_identical\": "
               << (r.corpusIdentical ? "true" : "false");
        }
        os << ",\n     \"au_patterns\": " << r.auPatterns
           << ", \"raw_candidates\": " << r.rawCandidates
           << ", \"front_size\": " << r.frontSize;
        if (r.identicalChecked) {
            os << ",\n     \"identical_serial_parallel\": "
               << (r.identical ? "true" : "false");
        }
        os << "}" << (w + 1 < reports.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

/**
 * Drop the one wall-clock line ("seconds": ...) from a result JSON so
 * the serial/parallel comparison only sees deterministic content.
 */
std::string
stripWallClock(const std::string& json)
{
    std::ostringstream out;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"seconds\":") == std::string::npos) {
            out << line << "\n";
        }
    }
    return out.str();
}

/**
 * The candidate stream the AU sweep's term layer sees: every subterm of
 * every cheap class representative, per-representative deduplicated only
 * -- structures shared between representatives repeat in the stream,
 * which is exactly the duplicate pressure the dedup/registry stages
 * absorb in the real sweep.  Each candidate is delivered as a fresh
 * uninterned tree so both term-layer variants start from the same
 * un-canonicalized input.
 */
std::vector<TermPtr>
auCandidateStream(const EGraph& egraph)
{
    std::vector<TermPtr> stream;
    Extractor extractor(egraph, astSizeCost);
    for (EClassId id : egraph.classIds()) {
        if (auto cost = extractor.costOf(id);
            !cost.has_value() || *cost > 12.0) {
            continue;
        }
        TermPtr rep = extractor.extract(id).term;
        std::unordered_set<const Term*> seen;
        std::vector<TermPtr> stack{rep};
        while (!stack.empty()) {
            TermPtr t = stack.back();
            stack.pop_back();
            if (!seen.insert(t.get()).second) {
                continue;
            }
            stream.push_back(copyTopologyUninterned(t));
            for (const auto& child : t->children) {
                stack.push_back(child);
            }
        }
    }
    return stream;
}

struct DeepTermHash {
    size_t operator()(const TermPtr& t) const
    {
        return static_cast<size_t>(termHashDeep(t));
    }
};
struct DeepTermEq {
    bool operator()(const TermPtr& a, const TermPtr& b) const
    {
        return termEqualsDeep(a, b);
    }
};

/** A synthetic analyze request for the in-process serve stage. */
server::Request
serveRequest(const std::string& workload, bool useCache)
{
    server::Request request;
    request.op = server::RequestOp::Analyze;
    request.workload = workload;
    request.cache = useCache;
    request.valid = true;
    request.idJson = "0";
    return request;
}

/**
 * Per-stage medians of one previously written report, keyed by workload
 * name -- the shape `--baseline` compares against -- plus the host it
 * was measured on, when the report records one.  Only the medians are
 * kept; sample arrays and derived ratios are recomputed facts.
 */
struct Baseline {
    std::map<std::string, std::map<std::string, double>> medians;
    std::optional<HostInfo> host;
};

/** The host block of a report, if it has a complete one. */
std::optional<HostInfo>
parseHost(const server::JsonValue& root)
{
    const server::JsonValue* block = root.find("host");
    if (block == nullptr) {
        return std::nullopt;
    }
    const server::JsonValue* cpu = block->find("cpu");
    const server::JsonValue* concurrency =
        block->find("hardware_concurrency");
    const server::JsonValue* buildType = block->find("build_type");
    if (cpu == nullptr || concurrency == nullptr || buildType == nullptr) {
        return std::nullopt;
    }
    return HostInfo{cpu->text,
                    static_cast<unsigned>(concurrency->number),
                    buildType->text};
}

/**
 * Load the stage medians out of a report written by writeReport().
 * @return false with a message in @p error when the file is missing or
 *         not a bench report.
 */
bool
loadBaseline(const std::string& path, Baseline& out, std::string& error)
{
    std::ifstream in(path);
    if (!in.good()) {
        error = "cannot read " + path;
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    server::JsonValue root;
    if (!server::parseJson(buffer.str(), root, error)) {
        // The parser's message carries only the offset; scripts (and
        // humans) need to know WHICH file was malformed.
        error = path + ": " + error;
        return false;
    }
    const server::JsonValue* workloads = root.find("workloads");
    if (workloads == nullptr ||
        workloads->type != server::JsonValue::Type::Array) {
        error = path + " is not a bench report (no workloads array)";
        return false;
    }
    for (const server::JsonValue& workload : workloads->items) {
        const server::JsonValue* name = workload.find("name");
        const server::JsonValue* stages = workload.find("stages");
        if (name == nullptr || stages == nullptr ||
            stages->type != server::JsonValue::Type::Object) {
            continue;
        }
        for (const auto& [stage, timing] : stages->members) {
            const server::JsonValue* median = timing.find("median_ms");
            if (median != nullptr &&
                median->type == server::JsonValue::Type::Number) {
                out.medians[name->text][stage] = median->number;
            }
        }
    }
    out.host = parseHost(root);
    if (out.medians.empty()) {
        error = path + " carries no stage medians";
        return false;
    }
    return true;
}

/**
 * Warn when @p baseline was not measured on this machine and build:
 * cross-host deltas mix hardware differences into what looks like a
 * code change.
 */
void
warnOnHostMismatch(const Baseline& baseline, const std::string& path)
{
    if (!baseline.host.has_value()) {
        std::cerr << "warning: baseline " << path
                  << " has no host block; its deltas may compare "
                     "different machines\n";
        return;
    }
    const HostInfo now = currentHost();
    const HostInfo& then = *baseline.host;
    if (then == now) {
        return;
    }
    std::cerr << "warning: baseline " << path
              << " was measured on a different host; its deltas mix "
                 "hardware with code changes\n"
              << "  baseline: " << then.cpu << ", " << then.concurrency
              << " threads, " << then.buildType << "\n"
              << "  current:  " << now.cpu << ", " << now.concurrency
              << " threads, " << now.buildType << "\n";
}

/**
 * Print signed per-stage deltas of @p reports against @p baseline.
 * Stages absent from the baseline (a report written before the stage
 * existed) are called out instead of silently skipped.
 */
void
printBaselineDeltas(const std::vector<WorkloadReport>& reports,
                    const Baseline& baseline,
                    const std::string& baselinePath)
{
    warnOnHostMismatch(baseline, baselinePath);
    std::cerr << "deltas vs " << baselinePath
              << " (negative = faster now):\n";
    for (const WorkloadReport& r : reports) {
        const auto found = baseline.medians.find(r.name);
        if (found == baseline.medians.end()) {
            std::cerr << "  " << r.name << ": not in baseline\n";
            continue;
        }
        const std::map<std::string, double>& stages = found->second;
        const std::vector<std::pair<std::string, const StageTiming*>>
            current{
                {"eqsat", &r.eqsat},
                {"ematch_naive", &r.ematchNaive},
                {"ematch_compiled", &r.ematchCompiled},
                {"au", &r.au},
                {"au_term_legacy", &r.auTermLegacy},
                {"au_term_interned", &r.auTermInterned},
                {"pipeline", &r.pipeline},
                {"serve_cold", &r.serveCold},
                {"serve_warm", &r.serveWarm},
                {"serve_warm_observed", &r.serveWarmObserved},
                {"serve_cached", &r.serveCached},
                {"corpus_cold", &r.corpusCold},
                {"corpus_warm", &r.corpusWarm},
            };
        for (const auto& [stage, timing] : current) {
            if (timing->samplesMs.empty()) {
                continue;  // stage not benched this run (e.g. no --serve-bench)
            }
            const auto base = stages.find(stage);
            if (base == stages.end()) {
                std::cerr << "  " << r.name << " " << stage
                          << ": new stage, no baseline\n";
                continue;
            }
            const double now = timing->median();
            const double then = base->second;
            const double deltaPct =
                (now - then) / std::max(then, 1e-6) * 100.0;
            std::cerr << "  " << r.name << " " << stage << ": " << then
                      << " ms -> " << now << " ms ("
                      << (deltaPct >= 0.0 ? "+" : "") << deltaPct
                      << "%)\n";
        }
    }
}

int
usage()
{
    std::cerr << "usage: isamore_bench [--workloads <a,b,c>] [--reps <n>]"
                 " [--threads <n>] [--out <path>] [--baseline <path>]"
                 " [--check-identical]"
                 " [--min-ematch-speedup <x>]"
                 " [--min-au-speedup <x>]"
                 " [--serve-bench]"
                 " [--min-serve-speedup <x>] [--max-observe-overhead <x>]"
                 " [--corpus-bench]"
                 " [--min-corpus-speedup <x>] [--corpus-out <path>]\n";
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> names{"matmul", "2dconv", "fft"};
    size_t reps = 3;
    std::string outPath = "BENCH_results.json";
    std::string baselinePath;
    bool checkIdentical = false;
    bool serveBench = false;
    bool corpusBench = false;
    std::string corpusOutPath;
    double minEmatchSpeedup = 0.0;
    double minAuSpeedup = 0.0;
    double minServeSpeedup = 0.0;
    double maxObserveOverhead = 0.0;
    double minCorpusSpeedup = 0.0;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--workloads" && i + 1 < argc) {
            names = splitCsv(argv[++i]);
        } else if (flag == "--reps" && i + 1 < argc) {
            reps = std::strtoul(argv[++i], nullptr, 10);
            if (reps == 0) {
                return usage();
            }
        } else if (flag == "--threads" && i + 1 < argc) {
            const std::optional<size_t> threads = parseThreadCount(argv[++i]);
            if (!threads) {
                return usage();
            }
            setGlobalThreads(*threads);
        } else if (flag == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (flag == "--baseline" && i + 1 < argc) {
            baselinePath = argv[++i];
        } else if (flag == "--check-identical") {
            checkIdentical = true;
        } else if (flag == "--min-ematch-speedup" && i + 1 < argc) {
            minEmatchSpeedup = std::strtod(argv[++i], nullptr);
            if (minEmatchSpeedup <= 0.0) {
                return usage();
            }
        } else if (flag == "--min-au-speedup" && i + 1 < argc) {
            minAuSpeedup = std::strtod(argv[++i], nullptr);
            if (minAuSpeedup <= 0.0) {
                return usage();
            }
        } else if (flag == "--serve-bench") {
            serveBench = true;
        } else if (flag == "--min-serve-speedup" && i + 1 < argc) {
            serveBench = true;
            minServeSpeedup = std::strtod(argv[++i], nullptr);
            if (minServeSpeedup <= 0.0) {
                return usage();
            }
        } else if (flag == "--max-observe-overhead" && i + 1 < argc) {
            serveBench = true;
            maxObserveOverhead = std::strtod(argv[++i], nullptr);
            if (maxObserveOverhead <= 0.0) {
                return usage();
            }
        } else if (flag == "--corpus-bench") {
            corpusBench = true;
        } else if (flag == "--min-corpus-speedup" && i + 1 < argc) {
            corpusBench = true;
            minCorpusSpeedup = std::strtod(argv[++i], nullptr);
            if (minCorpusSpeedup <= 0.0) {
                return usage();
            }
        } else if (flag == "--corpus-out" && i + 1 < argc) {
            corpusBench = true;
            corpusOutPath = argv[++i];
        } else {
            return usage();
        }
    }

    // Fail fast on an unreadable baseline -- before minutes of timing.
    Baseline baseline;
    if (!baselinePath.empty()) {
        std::string error;
        if (!loadBaseline(baselinePath, baseline, error)) {
            std::cerr << "error: bad --baseline: " << error << "\n";
            return 2;
        }
    }

    const size_t threads = globalThreadCount();
    const rules::RulesetLibrary library = rules::defaultLibrary();
    const rii::RiiConfig config =
        rii::RiiConfig::forMode(rii::Mode::Default);

    std::vector<WorkloadReport> reports;
    bool allIdentical = true;
    bool allCorpusIdentical = true;
    /** One corpus across every selected workload: warm reps exercise the
     *  result cache AND the cross-workload pattern accumulation path,
     *  and --corpus-out persists the union for artifact upload. */
    corpus::Corpus sharedCorpus;
    for (const std::string& name : names) {
        std::optional<workloads::Workload> workload = workloads::find(name);
        if (!workload.has_value()) {
            std::cerr << "unknown workload: " << name << "\n";
            return 2;
        }

        std::cerr << "bench " << name << " (threads=" << threads
                  << ", reps=" << reps << ")\n";
        WorkloadReport report;
        report.name = name;
        const AnalyzedWorkload analyzed =
            analyzeWorkload(std::move(*workload));
        const std::vector<RewriteRule> searchRules = library.intSat();
        std::vector<PatternProgram> programs;
        programs.reserve(searchRules.size());
        for (const RewriteRule& rule : searchRules) {
            programs.push_back(PatternProgram::compile(rule.lhs));
        }

        for (size_t rep = 0; rep < reps; ++rep) {
            // Stage 1: EqSat on a fresh copy of the encoded e-graph.
            EGraph egraph = analyzed.program.egraph;
            Stopwatch watch;
            runEqSat(egraph, searchRules, config.eqsat);
            report.eqsat.samplesMs.push_back(watch.seconds() * 1e3);
            // Stage 1b: full-ruleset search passes over the saturated
            // graph, old engine vs new, serially (the engines themselves,
            // not the fan-out, are under test).  A single pass is tens of
            // microseconds on the small workloads, so each sample times a
            // small batch of passes to stay above timer/cold-cache noise.
            const size_t cap = config.eqsat.maxMatchesPerRule;
            constexpr size_t kEmatchPasses = 8;
            watch.reset();
            size_t naiveMatches = 0;
            for (size_t pass = 0; pass < kEmatchPasses; ++pass) {
                naiveMatches = 0;
                for (const RewriteRule& rule : searchRules) {
                    naiveMatches +=
                        ematchAllLegacy(egraph, rule.lhs, cap).size();
                }
            }
            report.ematchNaive.samplesMs.push_back(watch.seconds() * 1e3 /
                                                   kEmatchPasses);
            watch.reset();
            size_t compiledMatches = 0;
            for (size_t pass = 0; pass < kEmatchPasses; ++pass) {
                compiledMatches = 0;
                for (const PatternProgram& program : programs) {
                    compiledMatches +=
                        searchPattern(egraph, program, cap).matches.size();
                }
            }
            report.ematchCompiled.samplesMs.push_back(watch.seconds() * 1e3 /
                                                      kEmatchPasses);
            ISAMORE_CHECK_MSG(naiveMatches == compiledMatches,
                              "e-match engines disagree on " + name);

            // Stage 2: the AU pair sweep over the saturated graph.
            watch.reset();
            rii::AuResult au = rii::identifyPatterns(egraph, config.au);
            report.au.samplesMs.push_back(watch.seconds() * 1e3);
            report.auPatterns = au.patterns.size();
            report.rawCandidates = au.stats.rawCandidates;

            // Stage 2b: the sweep's term layer, legacy vs interned, on
            // an identical uninterned candidate stream.  Both variants
            // construct each candidate from the stream (the sweep
            // builds every candidate it considers): legacy allocates a
            // fresh tree and pays recursive hashing/equality for dedup
            // plus a termToString key per survivor (the pre-interner
            // registry); interned canonicalizes through the hash-cons
            // table, after which dedup and registry keying are pointer
            // operations.  Small per-pass cost, so each sample batches
            // a few passes.
            const std::vector<TermPtr> stream = auCandidateStream(egraph);
            constexpr size_t kTermPasses = 4;
            size_t legacyUnique = 0;
            watch.reset();
            for (size_t pass = 0; pass < kTermPasses; ++pass) {
                std::unordered_set<TermPtr, DeepTermHash, DeepTermEq> dedup;
                std::map<std::string, int64_t> registryKeys;
                for (const TermPtr& t : stream) {
                    TermPtr built = copyTopologyUninterned(t);
                    if (dedup.insert(built).second) {
                        registryKeys.emplace(
                            termToString(built),
                            static_cast<int64_t>(registryKeys.size()));
                    }
                }
                legacyUnique = registryKeys.size();
            }
            report.auTermLegacy.samplesMs.push_back(watch.seconds() * 1e3 /
                                                    kTermPasses);
            size_t internedUnique = 0;
            watch.reset();
            for (size_t pass = 0; pass < kTermPasses; ++pass) {
                std::unordered_set<const Term*> dedup;
                std::unordered_map<const Term*, int64_t> registryKeys;
                for (const TermPtr& t : stream) {
                    TermPtr canon = internTerm(t);
                    if (dedup.insert(canon.get()).second) {
                        registryKeys.emplace(
                            canon.get(),
                            static_cast<int64_t>(registryKeys.size()));
                    }
                }
                internedUnique = registryKeys.size();
            }
            report.auTermInterned.samplesMs.push_back(
                watch.seconds() * 1e3 / kTermPasses);
            ISAMORE_CHECK_MSG(legacyUnique == internedUnique,
                              "term-layer dedup counts disagree on " +
                                  name);
            report.auTermUnique = internedUnique;

            // Stage 3: the full pipeline (includes selection).
            watch.reset();
            rii::RiiResult result =
                identifyInstructions(analyzed, rii::Mode::Default);
            report.pipeline.samplesMs.push_back(watch.seconds() * 1e3);
            report.frontSize = result.front.size();

            if (checkIdentical && rep == 0) {
                // Determinism contract: the JSON report (pattern set,
                // selection front, stats) must be byte-identical when the
                // whole run repeats single-threaded -- modulo the one
                // wall-clock field, which can never agree.
                const std::string parallel =
                    stripWallClock(resultToJson(analyzed, result));
                setGlobalThreads(1);
                rii::RiiResult serial =
                    identifyInstructions(analyzed, rii::Mode::Default);
                setGlobalThreads(threads);
                const std::string serialJson =
                    stripWallClock(resultToJson(analyzed, serial));
                report.identicalChecked = true;
                report.identical = parallel == serialJson;
                if (!report.identical) {
                    allIdentical = false;
                    std::cerr << "MISMATCH: " << name
                              << " serial vs parallel reports differ\n";
                }
            }
        }

        if (serveBench) {
            // Stage 4: server-mode request latency.  Cold = a fresh
            // SharedState per request (rule-library compile + workload
            // analysis + pipeline: what every single-shot CLI invocation
            // pays); warm = same state re-running the pipeline with the
            // analysis and libraries amortized (cache opted out); cached
            // = the deterministic-response fast path a steady-state
            // daemon serves from.  The speedup gate compares cold
            // against cached, the daemon's warm steady state.
            report.serveBenched = true;
            for (size_t rep = 0; rep < reps; ++rep) {
                Stopwatch watch;
                {
                    server::SharedState cold;
                    Budget root;
                    server::Response response = cold.executeRequest(
                        serveRequest(name, /*useCache=*/false), root);
                    ISAMORE_CHECK_MSG(
                        response.status == server::Status::Ok,
                        "serve cold request failed on " + name);
                }
                report.serveCold.samplesMs.push_back(watch.seconds() *
                                                     1e3);
            }

            server::SharedState warm;
            {
                Budget root;
                warm.executeRequest(serveRequest(name, true), root);
            }
            // Warm and observed-warm reps interleave (plain, observed,
            // plain, ...) so clock drift and thermal throttle hit both
            // series equally -- the overhead ratio compares like with
            // like.  Both series run with telemetry enabled, because
            // that is the daemon's steady state (serveLoop keeps the
            // registry live so the `metrics` op always has data; the
            // cost of the enabled probes themselves is gated by the
            // bench-smoke telemetry-overhead stage).  Observed adds the
            // per-request machinery a serve lane wraps around
            // executeRequest: a span sink, latency-digest recording,
            // and flight-ring bookkeeping.  Each recorded pair is the
            // per-request mean over a batch whose warm and observed
            // requests ALTERNATE (w, o, w, o, ...), so both sides of a
            // pair sample the same noise window request-by-request and
            // slow drift cancels in the ratio; the median of the paired
            // per-rep ratios is what --max-observe-overhead gates (see
            // pairedOverheadRatio).
            {
                constexpr size_t kObserveBatch = 3;
                const bool telemetryWasEnabled = telemetry::enabled();
                telemetry::setEnabled(true);
                server::Observability observe(server::ObserveOptions{},
                                              /*lanes=*/1);
                for (size_t rep = 0; rep < reps; ++rep) {
                    double warmMs = 0.0;
                    double observedMs = 0.0;
                    for (size_t b = 0; b < kObserveBatch; ++b) {
                        {
                            Budget root;
                            Stopwatch watch;
                            server::Response response =
                                warm.executeRequest(
                                    serveRequest(name, /*useCache=*/false),
                                    root);
                            warmMs += watch.seconds() * 1e3;
                            ISAMORE_CHECK_MSG(
                                response.status == server::Status::Ok,
                                "serve warm request failed on " + name);
                        }
                        {
                            Budget root;
                            telemetry::RequestSink sink(4096);
                            Stopwatch watch;
                            server::Response response;
                            {
                                telemetry::RequestSinkScope scope(&sink);
                                response = warm.executeRequest(
                                    serveRequest(name, /*useCache=*/false),
                                    root);
                            }
                            const uint64_t micros = static_cast<uint64_t>(
                                response.elapsedMs * 1e3);
                            observe.latency().observe(
                                0, server::kStageAnalyze, "analyze", name,
                                micros);
                            server::RequestTrace trace;
                            trace.requestId = "bench";
                            trace.op = "analyze";
                            trace.workload = name;
                            trace.status = response.status;
                            trace.elapsedMs = response.elapsedMs;
                            trace.events = sink.take();
                            observe.flight(0).record(std::move(trace));
                            observedMs += watch.seconds() * 1e3;
                            ISAMORE_CHECK_MSG(
                                response.status == server::Status::Ok,
                                "serve observed request failed on " + name);
                        }
                    }
                    report.serveWarm.samplesMs.push_back(warmMs /
                                                         kObserveBatch);
                    report.serveWarmObserved.samplesMs.push_back(
                        observedMs / kObserveBatch);
                }
                telemetry::setEnabled(telemetryWasEnabled);
            }

            for (size_t rep = 0; rep < reps; ++rep) {
                Budget root;
                Stopwatch watch;
                server::Response response = warm.executeRequest(
                    serveRequest(name, /*useCache=*/true), root);
                report.serveCached.samplesMs.push_back(watch.seconds() *
                                                       1e3);
                ISAMORE_CHECK_MSG(response.status == server::Status::Ok &&
                                      response.cached,
                                  "serve cached request missed on " +
                                      name);
            }

            // Throughput: `threads` issuing lanes slam cache-served
            // requests concurrently (the steady-state serving path).
            const size_t lanes = std::max<size_t>(threads, 1);
            const size_t perLane = std::max<size_t>(64 / lanes, 1);
            Stopwatch watch;
            std::vector<std::thread> issuers;
            issuers.reserve(lanes);
            for (size_t lane = 0; lane < lanes; ++lane) {
                issuers.emplace_back([&warm, &name, perLane] {
                    for (size_t n = 0; n < perLane; ++n) {
                        Budget root;
                        warm.executeRequest(serveRequest(name, true),
                                            root);
                    }
                });
            }
            for (std::thread& t : issuers) {
                t.join();
            }
            report.serveReqPerSec =
                static_cast<double>(lanes * perLane) /
                std::max(watch.seconds(), 1e-9);
        }

        if (corpusBench) {
            // Stage 5: persistent-corpus warm-start.  Cold = the full
            // pipeline against a fresh empty corpus, so every rep pays
            // the AU-chunk/result store overhead a first-ever run pays;
            // warm = the same run against the shared corpus a prior
            // (untimed) run populated, which is the result-cache hit a
            // daemon restart or repeated CI invocation serves.  The warm
            // report must be byte-identical to the cold one modulo
            // wall-clock -- that is the corpus determinism contract.
            report.corpusBenched = true;
            std::string coldJson;
            for (size_t rep = 0; rep < reps; ++rep) {
                corpus::Corpus fresh;
                Stopwatch watch;
                rii::RiiResult cold = corpus::identifyInstructions(
                    analyzed, library, config, fresh);
                report.corpusCold.samplesMs.push_back(watch.seconds() *
                                                      1e3);
                if (rep == 0) {
                    coldJson =
                        stripWallClock(resultToJson(analyzed, cold));
                }
            }

            // The "prior run" that leaves the shared corpus warm.
            corpus::identifyInstructions(analyzed, library, config,
                                         sharedCorpus);
            for (size_t rep = 0; rep < reps; ++rep) {
                Stopwatch watch;
                rii::RiiResult warm = corpus::identifyInstructions(
                    analyzed, library, config, sharedCorpus);
                report.corpusWarm.samplesMs.push_back(watch.seconds() *
                                                      1e3);
                if (rep == 0) {
                    const std::string warmJson =
                        stripWallClock(resultToJson(analyzed, warm));
                    report.corpusIdentical = warmJson == coldJson;
                    if (!report.corpusIdentical) {
                        allCorpusIdentical = false;
                        std::cerr << "MISMATCH: " << name
                                  << " corpus warm result differs "
                                     "from cold\n";
                    }
                }
            }
        }
        reports.push_back(std::move(report));
    }

    if (!corpusOutPath.empty()) {
        sharedCorpus.save(corpusOutPath, library);
        std::cerr << "corpus: saved " << corpusOutPath << " ("
                  << sharedCorpus.resultCount() << " results, "
                  << sharedCorpus.chunkCount() << " AU chunks, "
                  << sharedCorpus.librarySize() << " patterns)\n";
    }

    std::ofstream out(outPath);
    ISAMORE_USER_CHECK(out.good(), "cannot write " + outPath);
    writeReport(out, reports, threads, reps);
    std::cerr << "wrote " << outPath << "\n";

    if (!baseline.medians.empty()) {
        printBaselineDeltas(reports, baseline, baselinePath);
    }

    if (checkIdentical && !allIdentical) {
        return 1;
    }
    if (minEmatchSpeedup > 0.0) {
        bool fastEnough = true;
        for (const WorkloadReport& r : reports) {
            const double speedup = r.ematchNaive.median() /
                                   std::max(r.ematchCompiled.median(), 1e-6);
            std::cerr << "ematch " << r.name << ": naive "
                      << r.ematchNaive.median() << " ms, compiled "
                      << r.ematchCompiled.median() << " ms -> " << speedup
                      << "x\n";
            if (speedup < minEmatchSpeedup) {
                std::cerr << "FAIL: below the " << minEmatchSpeedup
                          << "x e-match speedup floor\n";
                fastEnough = false;
            }
        }
        if (!fastEnough) {
            return 1;
        }
    }
    if (minAuSpeedup > 0.0) {
        bool fastEnough = true;
        for (const WorkloadReport& r : reports) {
            const double speedup =
                r.auTermLegacy.median() /
                std::max(r.auTermInterned.median(), 1e-6);
            std::cerr << "au-term " << r.name << ": legacy "
                      << r.auTermLegacy.median() << " ms, interned "
                      << r.auTermInterned.median() << " ms -> " << speedup
                      << "x\n";
            if (speedup < minAuSpeedup) {
                std::cerr << "FAIL: below the " << minAuSpeedup
                          << "x AU term-layer speedup floor\n";
                fastEnough = false;
            }
        }
        if (!fastEnough) {
            return 1;
        }
    }
    if (minServeSpeedup > 0.0) {
        bool fastEnough = true;
        for (const WorkloadReport& r : reports) {
            const double speedup = r.serveCold.median() /
                                   std::max(r.serveCached.median(), 1e-6);
            std::cerr << "serve " << r.name << ": cold "
                      << r.serveCold.median() << " ms, warm "
                      << r.serveWarm.median() << " ms, cached "
                      << r.serveCached.median() << " ms -> " << speedup
                      << "x, " << r.serveReqPerSec << " req/s\n";
            if (speedup < minServeSpeedup) {
                std::cerr << "FAIL: below the " << minServeSpeedup
                          << "x warm-serve speedup floor\n";
                fastEnough = false;
            }
        }
        if (!fastEnough) {
            return 1;
        }
    }
    if (maxObserveOverhead > 0.0) {
        bool cheapEnough = true;
        for (const WorkloadReport& r : reports) {
            const double overhead = pairedOverheadRatio(
                r.serveWarm, r.serveWarmObserved);
            std::cerr << "observe " << r.name << ": warm "
                      << r.serveWarm.best() << " ms, observed "
                      << r.serveWarmObserved.best()
                      << " ms, paired-median -> " << overhead << "x\n";
            if (overhead > maxObserveOverhead) {
                std::cerr << "FAIL: above the " << maxObserveOverhead
                          << "x live-observability overhead ceiling\n";
                cheapEnough = false;
            }
        }
        if (!cheapEnough) {
            return 1;
        }
    }
    if (corpusBench && !allCorpusIdentical) {
        return 1;
    }
    if (minCorpusSpeedup > 0.0) {
        bool fastEnough = true;
        for (const WorkloadReport& r : reports) {
            const double speedup = r.corpusCold.median() /
                                   std::max(r.corpusWarm.median(), 1e-6);
            std::cerr << "corpus " << r.name << ": cold "
                      << r.corpusCold.median() << " ms, warm "
                      << r.corpusWarm.median() << " ms -> " << speedup
                      << "x\n";
            if (speedup < minCorpusSpeedup) {
                std::cerr << "FAIL: below the " << minCorpusSpeedup
                          << "x corpus warm-start speedup floor\n";
                fastEnough = false;
            }
        }
        if (!fastEnough) {
            return 1;
        }
    }
    return 0;
}
