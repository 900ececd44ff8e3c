/**
 * @file
 * Perf-regression harness: times the pipeline's hot stages per workload
 * and writes a machine-readable BENCH_results.json for trend tracking.
 *
 * Usage:
 *   isamore_bench [--workloads <a,b,c>] [--reps <n>] [--threads <n>]
 *                 [--out <path>] [--baseline <path>] [--check-identical]
 *
 * Per workload and repetition, the pipeline's stages are timed
 * independently:
 *   - eqsat:    equality saturation of the encoded e-graph with the
 *               integer saturating ruleset
 *   - au:       the anti-unification pair sweep over the saturated graph
 *   - pipeline: the full identifyInstructions run (includes selection)
 *   - corpus:   (--corpus-bench) the persistent-corpus warm-start path:
 *               the full pipeline against a fresh empty corpus (cold,
 *               a result-cache miss) vs against a corpus populated by
 *               a prior run of the same build (warm, result-cache
 *               hit).  Warm output must be byte-identical
 *               to cold modulo wall-clock (exit 1 otherwise), and
 *               --min-corpus-speedup <x> fails the run (exit 1) when
 *               median(cold)/median(warm) drops below x on any selected
 *               workload.  The warm runs of every selected workload
 *               share one corpus; --corpus-out <path> saves it
 *               afterwards
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
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus.hpp"
#include "corpus/warm.hpp"
#include "egraph/rewrite.hpp"
#include "isamore/isamore.hpp"
#include "isamore/report.hpp"
#include "server/observe.hpp"
#include "server/session.hpp"
#include "support/budget.hpp"
#include "support/check.hpp"
#include "support/pool.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"
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
    StageTiming au;
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
       << telemetry::jsonEscape(host.cpu)
       << "\", \"hardware_concurrency\": " << host.concurrency
       << ", \"build_type\": \""
       << telemetry::jsonEscape(host.buildType) << "\"},\n"
       << "  \"threads\": " << threads << ",\n  \"reps\": " << reps
       << ",\n  \"workloads\": [\n";
    for (size_t w = 0; w < reports.size(); ++w) {
        const WorkloadReport& r = reports[w];
        os << "    {\"name\": \"" << r.name << "\",\n"
           << "     \"stages\": {\n"
           << "       \"eqsat\": ";
        writeSamples(os, r.eqsat);
        os << ",\n       \"au\": ";
        writeSamples(os, r.au);
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
           << "     \"au_patterns\": " << r.auPatterns
           << ", \"raw_candidates\": " << r.rawCandidates
           << ", \"front_size\": " << r.frontSize;
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
                {"au", &r.au},
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

/** A usable gate value.  A NaN gate never fails its comparison and an
 *  infinite one is vacuous or unpassable, so both are usage errors. */
bool
positiveFinite(double x)
{
    return std::isfinite(x) && x > 0.0;
}

int
usage()
{
    std::cerr << "usage: isamore_bench [--workloads <a,b,c>] [--reps <n>]"
                 " [--threads <n>] [--out <path>] [--baseline <path>]"
                 " [--check-identical]"
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
    double minServeSpeedup = 0.0;
    double maxObserveOverhead = 0.0;
    double minCorpusSpeedup = 0.0;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--workloads" && i + 1 < argc) {
            names = splitCsv(argv[++i]);
        } else if (flag == "--reps" && i + 1 < argc) {
            const std::optional<size_t> count =
                parseCount(argv[++i], /*allowZero=*/false);
            if (!count) {
                return usage();
            }
            reps = *count;
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
        } else if (flag == "--serve-bench") {
            serveBench = true;
        } else if (flag == "--min-serve-speedup" && i + 1 < argc) {
            serveBench = true;
            minServeSpeedup = std::strtod(argv[++i], nullptr);
            if (!positiveFinite(minServeSpeedup)) {
                return usage();
            }
        } else if (flag == "--max-observe-overhead" && i + 1 < argc) {
            serveBench = true;
            maxObserveOverhead = std::strtod(argv[++i], nullptr);
            if (!positiveFinite(maxObserveOverhead)) {
                return usage();
            }
        } else if (flag == "--corpus-bench") {
            corpusBench = true;
        } else if (flag == "--min-corpus-speedup" && i + 1 < argc) {
            corpusBench = true;
            minCorpusSpeedup = std::strtod(argv[++i], nullptr);
            if (!positiveFinite(minCorpusSpeedup)) {
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
    /** One corpus across every selected workload's warm reps;
     *  --corpus-out persists the union for artifact upload. */
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

        for (size_t rep = 0; rep < reps; ++rep) {
            // Stage 1: EqSat on a fresh copy of the encoded e-graph.
            EGraph egraph = analyzed.program.egraph;
            Stopwatch watch;
            runEqSat(egraph, searchRules, config.eqsat);
            report.eqsat.samplesMs.push_back(watch.seconds() * 1e3);
            // Stage 2: the AU pair sweep over the saturated graph.
            watch.reset();
            rii::AuResult au = rii::identifyPatterns(egraph, config.au);
            report.au.samplesMs.push_back(watch.seconds() * 1e3);
            report.auPatterns = au.patterns.size();
            report.rawCandidates = au.stats.rawCandidates;

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
            // the result-store overhead a first-ever run pays;
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
                  << sharedCorpus.resultCount() << " results)\n";
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
