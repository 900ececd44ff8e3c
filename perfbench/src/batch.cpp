/**
 * @file
 * The closed-loop batch workloads, au_large and mode_mix: one caller
 * analyses a seeded list of programs through the public facade
 * (analyzeWorkload, identifyInstructions, resultToJson) and waits for
 * each answer before issuing the next.
 */
#include <algorithm>
#include <memory>

#include "common.hpp"
#include "dsl/intern.hpp"
#include "isamore/isamore.hpp"
#include "isamore/report.hpp"
#include "oracle.hpp"
#include "plan.hpp"
#include "support/pool.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace isamore;

namespace {

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;

/** Spans one traced call may record (fft, the largest, records ~4K);
 *  more are counted as dropped. */
constexpr size_t kSinkCapacity = size_t{1} << 15;

rii::Mode
modeOf(const std::string& name)
{
    if (name == "astsize") return rii::Mode::AstSize;
    if (name == "kdsample") return rii::Mode::KDSample;
    if (name == "vector") return rii::Mode::Vector;
    if (name == "noeqsat") return rii::Mode::NoEqSat;
    return rii::Mode::Default;
}

/**
 * Traced-run recorder: with tracing on, run() captures the program's
 * spans for one call on this thread and charges the call's window to
 * a layer; with tracing off it only runs the call.
 */
class Recorder {
 public:
    explicit Recorder(bool traced) : traced_(traced) {}

    template <typename F>
    void
    run(const std::string& layer, F&& call)
    {
        if (!traced_) {
            call();
            return;
        }
        telemetry::RequestSink sink(kSinkCapacity);
        const uint64_t start = telemetry::nowNs();
        {
            telemetry::RequestSinkScope scope(&sink);
            call();
        }
        const uint64_t end = telemetry::nowNs();
        std::vector<SpanRecord> spans;
        for (auto& entry : sink.take()) {
            spans.push_back(SpanRecord{
                entry.event.name == nullptr ? "" : entry.event.name,
                entry.event.startNs, entry.event.durNs, entry.tid});
        }
        dropped_ += sink.dropped();
        clock_.attribute(layer, start, end - start, spans,
                         telemetry::Tracer::instance().localTid());
        // A quiescent point: keep the global tracer's buffers small.
        telemetry::Tracer::instance().clear();
    }

    bool traced() const { return traced_; }
    const LayerClock& clock() const { return clock_; }
    uint64_t dropped() const { return dropped_; }

 private:
    bool traced_;
    LayerClock clock_;
    uint64_t dropped_ = 0;
};

/** Everything set-up produces: compiled libraries and analysed programs. */
struct Prepared {
    std::unique_ptr<rules::RulesetLibrary> defaults;
    std::unique_ptr<rules::RulesetLibrary> extended;
    std::vector<AnalyzedWorkload> programs;
    double seconds = 0.0;
};

Prepared
setUp(const BatchPlan& plan, Recorder& recorder)
{
    bool needExtended = false;
    for (const auto& a : plan.analyses) {
        needExtended = needExtended || a.extended;
    }
    Prepared prepared;
    const double start = nowSeconds();
    recorder.run("rules.compile_ms", [&] {
        prepared.defaults = std::make_unique<rules::RulesetLibrary>(
            rules::defaultLibrary());
        if (needExtended) {
            prepared.extended = std::make_unique<rules::RulesetLibrary>(
                rules::extendedLibrary());
        }
    });
    for (const auto& spec : plan.programs) {
        workloads::Workload workload;
        recorder.run("unattributed_ms", [&] { workload = spec.make(); });
        recorder.run("frontend.analyze_ms", [&] {
            prepared.programs.push_back(analyzeWorkload(std::move(workload)));
        });
    }
    prepared.seconds = nowSeconds() - start;
    return prepared;
}

/** Per-pass observations. */
struct Pass {
    double seconds = 0.0;
    std::vector<double> analyzeMs, reqMs, reportMs, gapMs, speedups;
    uint64_t attempted = 0, correct = 0;
    WorkCounts work;
};

Pass
runPass(const BatchPlan& plan, const Prepared& prepared, Oracle& oracle,
        Recorder& recorder, RunResult& run)
{
    Pass pass;
    std::vector<bool> seen(plan.programs.size(), false);
    const double start = nowSeconds();
    double lastEnd = start;
    double sampling = 0.0;
    for (const auto& a : plan.analyses) {
        const AnalyzedWorkload& program = prepared.programs[a.program];
        const rules::RulesetLibrary& library =
            a.extended ? *prepared.extended : *prepared.defaults;
        const std::string& key = plan.programs[a.program].key;
        ++pass.attempted;

        const double t0 = nowSeconds();
        pass.gapMs.push_back((t0 - lastEnd) * 1e3);
        rii::RiiResult result;
        recorder.run("unattributed_ms", [&] {
            result = identifyInstructions(program, library,
                                          rii::RiiConfig::forMode(
                                              modeOf(a.mode)));
        });
        const double t1 = nowSeconds();
        std::string report;
        recorder.run("isamore.report_ms",
                     [&] { report = resultToJson(program, result); });
        const double t2 = nowSeconds();
        // Rendering an answer is the batch API's fast path (what a cached
        // answer costs).  Untraced passes render it once more, for the
        // oracle's stability check; that is not the caller's work, so
        // pass_s leaves it out.
        pass.reportMs.push_back((t2 - t1) * 1e3);
        if (!recorder.traced()) {
            const double r0 = nowSeconds();
            if (resultToJson(program, result) != report) {
                run.fail(key + ": report rendering is not stable");
            }
            sampling += nowSeconds() - r0;
        }

        pass.analyzeMs.push_back((t1 - t0) * 1e3);
        pass.reqMs.push_back((t2 - t0) * 1e3);
        pass.speedups.push_back(result.best().speedup);

        const std::string fullKey =
            key + "|" + a.mode + (a.extended ? "|extended" : "|default");
        std::string why = oracle.check(
            fullKey, Oracle::goldenFor(key, a.mode, a.extended), report);
        if (why.empty() && result.diagnostics.degraded()) {
            why = fullKey + ": degraded run";
        }
        if (why.empty() && !paretoConsistent(result)) {
            why = fullKey + ": front is not Pareto-consistent";
        }
        if (why.empty()) {
            ++pass.correct;
        } else {
            run.fail(why);
        }

        const auto& stats = result.stats;
        WorkCounts& work = pass.work;
        if (!seen[a.program]) {
            seen[a.program] = true;
            work.origNodes += static_cast<double>(stats.origNodes);
        }
        work.peakNodes = std::max(work.peakNodes,
                                  static_cast<double>(stats.peakNodes));
        for (const auto& [rule, totals] : stats.ruleTotals) {
            work.applications += static_cast<double>(totals.applications);
        }
        work.rawCandidates += static_cast<double>(stats.rawCandidates);
        work.dedupedCandidates +=
            static_cast<double>(stats.dedupedCandidates);
        work.costed += static_cast<double>(result.evaluations.size());
        work.phases += static_cast<double>(stats.phasesRun);
        work.reportBytes += static_cast<double>(report.size());
        lastEnd = nowSeconds();
    }
    pass.seconds = nowSeconds() - start - sampling;
    return pass;
}

RunResult
runBatch(const BatchPlan& plan, const Options& options, size_t width)
{
    setGlobalThreads(width);
    RunResult run;
    Oracle oracle(options.goldenDir);

    // Set up several times; the median is setup_s, the last one is used.
    Recorder untraced(false);
    std::vector<double> setups;
    Prepared prepared;
    for (int i = 0; i < kSetups; ++i) {
        prepared = Prepared{};
        prepared = setUp(plan, untraced);
        setups.push_back(prepared.seconds);
    }
    const Pass pass = runPass(plan, prepared, oracle, untraced, run);
    run.attempted = pass.attempted;
    run.failed = pass.attempted - pass.correct;
    if (oracle.goldenChecks() == 0) {
        run.fail("no golden comparison was made");
    }

    if (!options.trace) {
        run.set("setup_s", median(setups), "s");
        run.set("pass_s", pass.seconds, "s");
        run.set("analyze_ms_p50", quantile(pass.analyzeMs, 0.5), "ms");
        run.set("analyze_ms_p90", quantile(pass.analyzeMs, 0.9), "ms");
        run.set("peak_rss_mb",
                static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0),
                "MB");
        run.set("best_speedup_geomean", geomean(pass.speedups), "x");
        run.set("ok_frac", ratio(static_cast<double>(pass.correct),
                                 static_cast<double>(pass.attempted)),
                "ratio");
        run.set("req_ms_p50", quantile(pass.reqMs, 0.5), "ms");
        run.set("req_ms_p90", quantile(pass.reqMs, 0.9), "ms");
        run.set("goodput_rps",
                ratio(static_cast<double>(pass.correct), pass.seconds),
                "1/s");
        return run;
    }

    // Traced run: a cold-ish restart (unreferenced interned nodes are
    // purged), then one traced set-up and pass with every span captured.
    prepared = Prepared{};
    internPurge();
    telemetry::Registry::instance().reset();
    Recorder traced(true);
    telemetry::setEnabled(true);
    const double wallStart = nowSeconds();
    Prepared tracedPrep = setUp(plan, traced);
    internResetCounters();
    const PoolStats poolBefore = globalPool().stats();
    Oracle tracedOracle(options.goldenDir);
    const Pass tpass = runPass(plan, tracedPrep, tracedOracle, traced, run);
    const double wallMs = (nowSeconds() - wallStart) * 1e3;
    telemetry::setEnabled(false);
    const PoolStats poolAfter = globalPool().stats();

    std::map<std::string, double> ms = traced.clock().milliseconds();
    double attributed = 0.0;
    for (const auto& [layer, value] : ms) {
        if (layer != "unattributed_ms") {
            attributed += value;
        }
    }
    ms["unattributed_ms"] = wallMs - attributed;
    for (const auto& [layer, value] : ms) {
        run.set(layer, value, "ms");
    }
    size_t ruleCount = tracedPrep.defaults->all().size();
    if (tracedPrep.extended != nullptr) {
        ruleCount += tracedPrep.extended->all().size();
    }
    reportLayerCounts(run, tpass.work, static_cast<double>(ruleCount),
                      poolBefore, poolAfter);
    // The closed loop's "generator": how long after one answer the
    // caller issued the next call.
    run.set("loadgen.late_ms_p99", quantile(tpass.gapMs, 0.99), "ms");
    run.set("hit_ms_p50", quantile(tpass.reportMs, 0.5), "ms");
    run.set("hit_ms_p90", quantile(tpass.reportMs, 0.9), "ms");
    run.set("trace.wall_ms", wallMs, "ms");
    run.set("trace.overhead_ms", (tpass.seconds - pass.seconds) * 1e3, "ms");
    if (traced.dropped() > 0) {
        run.notes.push_back("trace: " + std::to_string(traced.dropped()) +
                            " spans dropped (counted as unattributed)");
    }
    return run;
}

}  // namespace

RunResult
runAuLarge(const Options& options)
{
    return runBatch(planAuLarge(options.seed), options, kPoolWidth);
}

RunResult
runModeMix(const Options& options)
{
    return runBatch(planModeMix(options.seed), options, kSerialWidth);
}

}  // namespace perfbench
