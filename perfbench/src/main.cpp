/**
 * @file
 * isamore_perfbench: the repository benchmark driver.
 *
 *   isamore_perfbench --workload <au_large|mode_mix|serve_open>
 *                     --seed <n> --seconds <s> --trace <0|1>
 *                     [--golden-dir <dir>] [--scratch-dir <dir>]
 *   isamore_perfbench --list-metrics
 *   isamore_perfbench --plan --workload <w> --seed <n> [--seconds <s>]
 *   isamore_perfbench --selftest-oracle [--golden-dir <dir>]
 *
 * A measuring run prints notes, then as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}; it exits 1 when the
 * output oracle failed.  Untraced runs report the end-to-end metrics,
 * traced runs the per-layer ones.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "isamore/isamore.hpp"
#include "isamore/report.hpp"
#include "oracle.hpp"
#include "plan.hpp"
#include "support/pool.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
    const char* name;
    const char* unit;
    bool perLayer;
};

/** Every metric a run prints: names and units as in BENCHMARK.json. */
const std::vector<MetricSpec>&
metricSpecs()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s", false},
        {"pass_s", "s", false},
        {"analyze_ms_p50", "ms", false},
        {"analyze_ms_p90", "ms", false},
        {"peak_rss_mb", "MB", false},
        {"best_speedup_geomean", "x", false},
        {"ok_frac", "ratio", false},
        {"req_ms_p50", "ms", false},
        {"req_ms_p90", "ms", false},
        {"goodput_rps", "1/s", false},
        {"frontend.analyze_ms", "ms", true},
        {"frontend.egraph_nodes", "count", true},
        {"rules.compile_ms", "ms", true},
        {"rules.count", "count", true},
        {"egraph.eqsat_self_ms", "ms", true},
        {"egraph.applications", "count", true},
        {"egraph.peak_nodes", "count", true},
        {"egraph.extract_self_ms", "ms", true},
        {"egraph.extract_evals", "count", true},
        {"rii.au_self_ms", "ms", true},
        {"rii.au_pairs", "count", true},
        {"rii.au_raw_candidates", "count", true},
        {"rii.au_memo_hit_ratio", "ratio", true},
        {"rii.au_kept_ratio", "ratio", true},
        {"rii.cost_self_ms", "ms", true},
        {"rii.costed_patterns", "count", true},
        {"rii.select_self_ms", "ms", true},
        {"rii.phases", "count", true},
        {"rii.vectorize_self_ms", "ms", true},
        {"rii.unattributed_ms", "ms", true},
        {"isamore.report_ms", "ms", true},
        {"isamore.report_kb", "KiB", true},
        {"server.queue_wait_ms_p50", "ms", true},
        {"server.queue_wait_ms_p90", "ms", true},
        {"server.exec_ms_p50", "ms", true},
        {"server.exec_ms_p90", "ms", true},
        {"server.parse_ms_p50", "ms", true},
        {"server.serialize_ms_p50", "ms", true},
        {"server.cache_hit_ratio", "ratio", true},
        {"server.purge_sweeps", "count", true},
        {"server.shed", "count", true},
        {"server.lane_busy_ratio", "ratio", true},
        {"support.pool_tasks", "count", true},
        {"support.pool_steal_ratio", "ratio", true},
        {"dsl.intern_live_terms", "count", true},
        {"dsl.intern_hit_ratio", "ratio", true},
        {"loadgen.late_ms_p99", "ms", true},
        {"hit_ms_p50", "ms", true},
        {"hit_ms_p90", "ms", true},
        {"unattributed_ms", "ms", true},
        {"trace.wall_ms", "ms", true},
        {"trace.overhead_ms", "ms", true},
    };
    return specs;
}

/**
 * Keep exactly the metrics of this run's kind, in table order.  A layer
 * a workload never enters (server.* on the batch workloads) reads 0.
 */
void
normalize(RunResult& run, bool traced)
{
    std::map<std::string, Metric> out;
    for (const auto& spec : metricSpecs()) {
        if (spec.perLayer != traced) {
            continue;
        }
        auto it = run.metrics.find(spec.name);
        const double value = it != run.metrics.end() ? it->second.value : 0.0;
        if (it != run.metrics.end() && it->second.unit != spec.unit) {
            run.fail(std::string("metric ") + spec.name + " has unit " +
                     it->second.unit);
        }
        out[spec.name] = Metric{value, spec.unit};
    }
    run.metrics = std::move(out);
}

std::string
number(double v)
{
    if (!std::isfinite(v)) {
        return "0";
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
resultLine(const RunResult& run)
{
    std::ostringstream os;
    os << "{\"correct\": " << (run.correct ? "true" : "false")
       << ", \"attempted\": " << run.attempted
       << ", \"failed\": " << run.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& spec : metricSpecs()) {
        auto it = run.metrics.find(spec.name);
        if (it == run.metrics.end()) {
            continue;
        }
        os << (first ? "" : ", ") << "\"" << spec.name
           << "\": {\"value\": " << number(it->second.value)
           << ", \"unit\": \"" << spec.unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

/** The traced per-layer table: self-times with their share of the wall. */
void
printLayerTable(const std::string& workload, const RunResult& run)
{
    const double wall = run.metrics.at("trace.wall_ms").value;
    std::printf("traced per-layer self time, %s (wall %.1f ms)\n",
                workload.c_str(), wall);
    double sum = 0.0;
    for (const auto& name : selfTimeLayers()) {
        const double v = run.metrics.at(name).value;
        if (!(workload == "serve_open" && name == "rules.compile_ms")) {
            sum += v;
        }
        std::printf("  %-26s %12.1f ms  %5.1f%%\n", name.c_str(), v,
                    wall > 0.0 ? 100.0 * v / wall : 0.0);
    }
    std::printf("  %-26s %12.1f ms\n", "sum of rows", sum);
    std::printf("  %-26s %12.1f ms\n", "tracing overhead",
                run.metrics.at("trace.overhead_ms").value);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: isamore_perfbench --workload "
                 "<au_large|mode_mix|serve_open> --seed <n> --seconds <s> "
                 "--trace <0|1>\n"
                 "       isamore_perfbench --list-metrics | --plan ... | "
                 "--selftest-oracle\n");
    return 2;
}

/** Oracle self-check: a fresh matmul report passes, a tampered one and
 *  a report that disagrees with an earlier one for its key do not. */
int
selftestOracle(const Options& options)
{
    using namespace isamore;
    setGlobalThreads(kPoolWidth);
    const AnalyzedWorkload program = analyzeWorkload(workloads::makeMatMul());
    const rii::RiiResult result =
        identifyInstructions(program, rii::Mode::Default);
    const std::string report = resultToJson(program, result);
    std::string tampered = report;
    const size_t at = tampered.find("\"speedup\": ");
    if (at == std::string::npos) {
        std::printf("selftest: report has no speedup field\n");
        return 1;
    }
    char& digit = tampered[at + std::strlen("\"speedup\": ")];
    digit = digit == '9' ? '8' : static_cast<char>(digit + 1);

    Oracle golden(options.goldenDir);
    Oracle repeat(options.goldenDir);
    const std::string pass = golden.check("matmul|default|default", "matmul",
                                          report);
    const std::string goldenReject =
        Oracle(options.goldenDir)
            .check("matmul|default|default", "matmul", tampered);
    repeat.check("matmul|default|default", "", report);
    const std::string repeatReject =
        repeat.check("matmul|default|default", "", tampered);
    std::printf("fresh report: %s\n", pass.empty() ? "accepted" : pass.c_str());
    std::printf("tampered vs golden: %s\n",
                goldenReject.empty() ? "ACCEPTED" : "rejected");
    std::printf("tampered vs first report: %s\n",
                repeatReject.empty() ? "ACCEPTED" : "rejected");
    return pass.empty() && !goldenReject.empty() && !repeatReject.empty()
               ? 0
               : 1;
}

}  // namespace

}  // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Options options;
    bool listMetrics = false, plan = false, selftest = false;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::atof(value().c_str());
        } else if (arg == "--trace") {
            options.trace = value() == "1";
            haveTrace = true;
        } else if (arg == "--golden-dir") {
            options.goldenDir = value();
        } else if (arg == "--scratch-dir") {
            options.scratchDir = value();
        } else if (arg == "--list-metrics") {
            listMetrics = true;
        } else if (arg == "--plan") {
            plan = true;
        } else if (arg == "--selftest-oracle") {
            selftest = true;
        } else {
            return usage();
        }
    }
    if (listMetrics) {
        for (const auto& spec : metricSpecs()) {
            std::printf("%s %s %s\n", spec.perLayer ? "per_layer" : "end_to_end",
                        spec.name, spec.unit);
        }
        return 0;
    }
    if (selftest) {
        return selftestOracle(options);
    }
    if (!(options.seconds > 0.0)) {
        return usage();
    }
    if (plan) {
        if (options.workload == "au_large") {
            std::cout << describePlan(planAuLarge(options.seed));
        } else if (options.workload == "mode_mix") {
            std::cout << describePlan(planModeMix(options.seed));
        } else if (options.workload == "serve_open") {
            std::cout << describePlan(
                planServeOpen(options.seed, options.seconds));
        } else {
            return usage();
        }
        return 0;
    }
    if (!haveTrace) {
        return usage();
    }

    RunResult run;
    try {
        if (options.workload == "au_large") {
            run = runAuLarge(options);
        } else if (options.workload == "mode_mix") {
            run = runModeMix(options);
        } else if (options.workload == "serve_open") {
            run = runServeOpen(options);
        } else {
            return usage();
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    normalize(run, options.trace);
    if (options.trace) {
        printLayerTable(options.workload, run);
    }
    for (const auto& note : run.notes) {
        std::printf("%s\n", note.c_str());
    }
    std::printf("%s\n", resultLine(run).c_str());
    std::fflush(stdout);
    return run.correct ? 0 : 1;
}
