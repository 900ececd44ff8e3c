#include "server/serve.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus.hpp"
#include "dsl/intern.hpp"
#include "isamore/report.hpp"
#include "server/observe.hpp"
#include "server/queue.hpp"
#include "server/session.hpp"
#include "support/budget.hpp"
#include "support/telemetry.hpp"

namespace isamore {
namespace server {

namespace {

/** Cap on spans captured per request for the flight recorder; overflow
 *  only bumps the sink's dropped counter. */
constexpr size_t kFlightSinkCapacity = 4096;

/** Everything the lanes and the reader share. */
struct ServeContext {
    explicit ServeContext(const ServeOptions& opts)
        : options(opts), queue(opts.queueCapacity) {}

    const ServeOptions& options;
    SharedState state;
    BoundedQueue<Request> queue;

    std::mutex outMutex;
    std::ostream* out = nullptr;
    /** Every write to err -- notices AND event-log lines -- goes
     *  through errMutex as one complete line, so concurrent lanes can
     *  never interleave bytes mid-line. */
    std::mutex errMutex;
    std::ostream* err = nullptr;

    std::atomic<bool> stopping{false};
    std::atomic<uint64_t> analyzesSinceSweep{0};

    /** Wakes the metrics-snapshot thread for prompt shutdown. */
    std::mutex stopMutex;
    std::condition_variable stopCv;

    /** Shared warm-start corpus (null = serving without one). */
    std::unique_ptr<corpus::Corpus> corpus;

    /** Live observability state (always present while serving). */
    std::unique_ptr<Observability> observe;
};

/** Write one complete notice line to the error stream. */
void
notice(ServeContext& ctx, const std::string& line)
{
    std::lock_guard<std::mutex> lock(ctx.errMutex);
    (*ctx.err) << line << '\n';
    ctx.err->flush();
}

/** Emit one event-log line (a complete JSON object) when enabled. */
void
emitEvent(ServeContext& ctx, const std::string& json)
{
    if (ctx.observe == nullptr || !ctx.observe->options().events) {
        return;
    }
    std::lock_guard<std::mutex> lock(ctx.errMutex);
    (*ctx.err) << json << '\n';
    ctx.err->flush();
}

/**
 * Record @p trace into @p slot's flight ring and, when the request
 * warrants a postmortem (non-ok outcome, or @p slowOk for an ok past
 * the SLO), dump it as a Perfetto trace.  @p dumpPath receives the
 * written path for the done event.
 */
void
recordFlight(ServeContext& ctx, size_t slot, RequestTrace trace,
             bool slowOk, std::string* dumpPath)
{
    if (ctx.observe == nullptr) {
        return;
    }
    const bool trigger = trace.status != Status::Ok || slowOk;
    FlightRecorder& ring = ctx.observe->flight(slot);
    ring.record(std::move(trace));
    if (!trigger || ctx.observe->options().flightDir.empty()) {
        return;
    }
    // The just-recorded trace is the newest ring entry.
    const RequestTrace* latest = ring.snapshot().back();
    const std::string path =
        dumpFlightTrace(ctx.observe->options().flightDir, *latest);
    if (path.empty()) {
        notice(ctx, "[isamore_serve] flight dump failed for " +
                        latest->requestId + " in " +
                        ctx.observe->options().flightDir);
        return;
    }
    telemetry::Registry::instance().counter("server.flight_dumps").add(1);
    if (dumpPath != nullptr) {
        *dumpPath = path;
    }
}

/** Latency-stage shorthand: record only when observability is live.
 *  @p workload follows LatencyRecorder::observe's contract. */
void
observeStage(ServeContext& ctx, size_t slot, const char* stage,
             const char* op, const std::string& workload, uint64_t micros)
{
    if (ctx.observe != nullptr) {
        ctx.observe->latency().observe(slot, stage, op, workload, micros);
    }
}

/**
 * Checkpoint the corpus to disk if anything accumulated since the last
 * save.  Failures are notices, not crashes: the in-memory corpus stays
 * warm and the next checkpoint retries.
 */
void
saveCorpusCheckpoint(ServeContext& ctx, const char* when)
{
    if (ctx.corpus == nullptr || ctx.options.corpusReadonly ||
        !ctx.corpus->dirty()) {
        return;
    }
    try {
        ctx.corpus->save(ctx.options.corpusPath,
                         ctx.state.defaultLibrary());
        notice(ctx, std::string("[isamore_serve] corpus checkpoint (") +
                        when + "): saved " + ctx.options.corpusPath);
    } catch (const std::exception& e) {
        notice(ctx, std::string("[isamore_serve] corpus checkpoint (") +
                        when + ") failed: " + e.what());
    }
}

/**
 * Write one response line.  This is the only function that ever touches
 * the output stream: a single mutex-guarded "line + newline + flush" so
 * concurrent lanes can never interleave bytes and downstream line-oriented
 * consumers (jq, the chaos harness) always see whole JSON documents.
 */
void
writeResponse(ServeContext& ctx, const Response& response)
{
    const std::string line = serializeResponse(response);
    std::lock_guard<std::mutex> lock(ctx.outMutex);
    (*ctx.out) << line << '\n';
    ctx.out->flush();
}

/**
 * Between-request intern sweep: under the exclusive isolation lane (no
 * request is mid-makeTerm), drop unreferenced interned nodes, refresh the
 * intern/pool telemetry gauges, and reset the per-window hit counters.
 * This is what bounds a long-lived daemon's memory: without it every
 * distinct analysis leaves its temporary terms in the table forever.
 */
void
purgeSweep(ServeContext& ctx)
{
    std::unique_lock<std::shared_mutex> exclusive(
        ctx.state.isolationLock());
    const size_t dropped = internPurge();
    // One snapshot, taken under the same lock acquisition as the
    // purge-sweep increment, feeds the whole log line: re-reading the
    // counters field-by-field here could interleave with a concurrent
    // lane's recordServed (lanes only synchronize on the isolation lock
    // *during* execution, not around their counter updates) and report
    // a torn served/ok pair.
    const ServerCounters snapshot = ctx.state.recordPurge(dropped);
    recordProcessMetrics();  // intern.* / pool.* gauges post-purge
    internResetCounters();
    const InternStats stats = internStats();
    telemetry::Registry::instance()
        .gauge("server.intern_live_nodes")
        .set(static_cast<int64_t>(stats.terms));
    {
        std::ostringstream os;
        os << "[isamore_serve] purge sweep #" << snapshot.purgeSweeps
           << ": dropped " << dropped << " interned nodes, " << stats.terms
           << " live; served " << snapshot.served << " (ok " << snapshot.ok
           << ", degraded " << snapshot.degraded << ")";
        notice(ctx, os.str());
    }
    // The exclusive lane is a quiescent point (no live spans anywhere:
    // lanes are blocked outside executeRequest, the reader never
    // opens spans), so this is the one safe place to drop the
    // global tracer's buffers -- an always-on daemon would otherwise
    // accumulate span events until the per-thread cap.  Per-request
    // flight traces are unaffected: they capture via RequestSink.
    telemetry::Tracer::instance().clear();
    // The purge is the corpus's checkpoint interval: still under the
    // exclusive lane (no lane is mutating the corpus mid-request), note
    // how many interned nodes the corpus's strong references pinned
    // through the purge, then persist.
    if (ctx.corpus != nullptr) {
        telemetry::Registry::instance()
            .gauge("server.corpus_pinned_nodes")
            .set(static_cast<int64_t>(ctx.corpus->pinnedNodeCount()));
        saveCorpusCheckpoint(ctx, "purge sweep");
    }
}

/** One session lane: drain the queue until shutdown. */
void
laneMain(ServeContext& ctx, size_t lane)
{
    Request request;
    for (;;) {
        if (!ctx.queue.waitPop(request,
                               std::chrono::milliseconds(200))) {
            if (ctx.stopping.load(std::memory_order_acquire)) {
                // Interrupted: waitPop keeps returning queued items
                // until the queue is empty, so reaching false here means
                // the backlog is fully drained.
                return;
            }
            continue;
        }

        const char* op = opName(request.op);
        const uint64_t dispatchNs = telemetry::nowNs();
        const uint64_t queueWaitUs =
            request.acceptNs != 0 && dispatchNs > request.acceptNs
                ? (dispatchNs - request.acceptNs) / 1000
                : 0;
        if (ctx.observe != nullptr && ctx.observe->options().events) {
            std::ostringstream ev;
            ev << "{\"event\": \"dispatch\", \"req\": \""
               << request.requestId << "\", \"lane\": " << lane
               << ", \"queueWaitUs\": " << queueWaitUs
               << ", \"ns\": " << dispatchNs << "}";
            emitEvent(ctx, ev.str());
        }

        Budget root(requestBudgetSpec(request));

        // Every span the pipeline closes while this request runs is
        // copied into the request's sink (the pool forwards the sink to
        // its workers), so the flight recorder gets the full span tree.
        telemetry::RequestSink sink(kFlightSinkCapacity);
        Response response;
        {
            telemetry::RequestSinkScope sinkScope(
                ctx.observe != nullptr ? &sink : nullptr);
            if (request.wantsExclusive()) {
                // Fault-injected requests swap the process-global fault
                // registry, so nothing else may run beside them.
                std::unique_lock<std::shared_mutex> exclusive(
                    ctx.state.isolationLock());
                response = ctx.state.executeRequest(request, root);
            } else {
                std::shared_lock<std::shared_mutex> shared(
                    ctx.state.isolationLock());
                response = ctx.state.executeRequest(request, root);
            }
        }

        ctx.state.recordServed(response.status, response.cached);
        const uint64_t serializeStartNs = telemetry::nowNs();
        writeResponse(ctx, response);
        const uint64_t endNs = telemetry::nowNs();

        if (ctx.observe != nullptr) {
            // Only an analysis that ran (or was cached) proves its
            // workload known; every other answer goes under "-".  The
            // key is the registry name, so every spelling of a workload
            // ("PCL/sac", "sac") feeds one digest.
            const bool resolved = request.op == RequestOp::Analyze &&
                                  (response.status == Status::Ok ||
                                   response.status == Status::Degraded);
            const std::string digestWorkload =
                resolved ? response.resolvedWorkload : std::string();
            const uint64_t serializeUs = (endNs - serializeStartNs) / 1000;
            observeStage(ctx, lane, kStageQueueWait, op, digestWorkload,
                         queueWaitUs);
            observeStage(ctx, lane, kStageAnalyze, op, digestWorkload,
                         static_cast<uint64_t>(response.elapsedMs * 1e3));
            observeStage(ctx, lane, kStageSerialize, op, digestWorkload,
                         serializeUs);

            RequestTrace trace;
            trace.requestId = request.requestId;
            trace.idJson = response.idJson;
            trace.op = op;
            trace.workload = request.workload;
            trace.status = response.status;
            trace.queueWaitMs = static_cast<double>(queueWaitUs) / 1e3;
            trace.elapsedMs = response.elapsedMs;
            trace.startNs =
                request.acceptNs != 0 ? request.acceptNs : dispatchNs;
            trace.endNs = endNs;
            trace.events = sink.take();
            const size_t spanCount = trace.events.size();
            const bool slowOk = response.status == Status::Ok &&
                                ctx.observe->options().sloMs > 0.0 &&
                                response.elapsedMs >
                                    ctx.observe->options().sloMs;
            std::string dumpPath;
            recordFlight(ctx, lane, std::move(trace), slowOk, &dumpPath);
            if (ctx.observe->options().events) {
                std::ostringstream ev;
                ev << "{\"event\": \"done\", \"req\": \""
                   << request.requestId << "\", \"status\": \""
                   << statusName(response.status)
                   << "\", \"code\": " << statusCode(response.status)
                   << ", \"cached\": "
                   << (response.cached ? "true" : "false")
                   << ", \"queueWaitUs\": " << queueWaitUs
                   << ", \"serializeUs\": " << serializeUs
                   << ", \"elapsedMs\": " << response.elapsedMs
                   << ", \"spans\": " << spanCount;
                if (!dumpPath.empty()) {
                    ev << ", \"flight\": \""
                       << telemetry::jsonEscape(dumpPath) << "\"";
                }
                ev << ", \"ns\": " << endNs << "}";
                emitEvent(ctx, ev.str());
            }
        }

        if (request.op == RequestOp::Analyze &&
            ctx.options.purgeEvery > 0) {
            const uint64_t n = ctx.analyzesSinceSweep.fetch_add(
                                   1, std::memory_order_acq_rel) +
                               1;
            if (n % ctx.options.purgeEvery == 0) {
                purgeSweep(ctx);
            }
        }
    }
}

/** Write @p body to @p path via a temp file + atomic rename, so a
 *  reader tailing the snapshot never sees a half-written document. */
bool
writeAtomic(const std::string& path, const std::string& body)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp);
        if (!out.good()) {
            return false;
        }
        out << body;
        if (!out.good()) {
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    return !ec;
}

/** One metrics snapshot: <base>.json + <base>.prom. */
void
writeMetricsSnapshot(ServeContext& ctx)
{
    const std::string& base = ctx.options.metricsPath;
    if (base.empty()) {
        return;
    }
    const bool okJson = writeAtomic(
        base + ".json",
        buildMetricsJson(ctx.state, ctx.observe.get()) + "\n");
    const bool okProm = writeAtomic(
        base + ".prom", buildExposition(ctx.state, ctx.observe.get()));
    if (!okJson || !okProm) {
        notice(ctx, "[isamore_serve] metrics snapshot failed: " + base);
    }
}

/** Periodic metrics-snapshot thread (only spawned with an interval). */
void
metricsMain(ServeContext& ctx)
{
    const auto interval =
        std::chrono::milliseconds(ctx.options.metricsIntervalMs);
    std::unique_lock<std::mutex> lock(ctx.stopMutex);
    while (!ctx.stopping.load(std::memory_order_acquire)) {
        if (ctx.stopCv.wait_for(lock, interval, [&] {
                return ctx.stopping.load(std::memory_order_acquire);
            })) {
            return;
        }
        lock.unlock();
        writeMetricsSnapshot(ctx);
        lock.lock();
    }
}

}  // namespace

int
serveLoop(std::istream& in, std::ostream& out, std::ostream& err,
          const ServeOptions& rawOptions)
{
    ServeOptions options = rawOptions;
    if (options.metricsIntervalMs > 0 && options.metricsPath.empty()) {
        options.metricsPath = "isamore_metrics";
    }
    ServeContext ctx(options);
    ctx.out = &out;
    ctx.err = &err;

    // std::cin and std::cerr arrive tied to std::cout: every getline on
    // the reader thread and every stderr notice/event line would flush
    // `out` WITHOUT holding outMutex, racing a lane mid-writeResponse on
    // the shared streambuf (observed as byte-identical duplicated
    // response lines under event-log load).  writeResponse flushes after
    // every line anyway, so the ties buy nothing -- sever them for the
    // daemon's lifetime and restore on exit for embedding tests.
    struct TieGuard {
        std::ios* stream;
        std::ostream* prior;
        TieGuard(std::ios& s) : stream(&s), prior(s.tie(nullptr)) {}
        ~TieGuard() { stream->tie(prior); }
    } inTie{in}, errTie{err};

    // The daemon always serves with telemetry enabled: the metrics op,
    // latency digests, corpus warm-path counters, and flight spans all
    // feed off it, and the bench enabled-overhead gate keeps the cost
    // below 2%.  Telemetry never feeds back into results (PR 5's
    // contract), so goldens stay byte-identical.  Restored on exit so
    // embedding tests see the state they started with.
    const bool telemetryWasEnabled = telemetry::enabled();
    telemetry::setEnabled(true);
    struct TelemetryRestore {
        bool prior;
        ~TelemetryRestore() { telemetry::setEnabled(prior); }
    } telemetryRestore{telemetryWasEnabled};
    ctx.observe = std::make_unique<Observability>(options.observe,
                                                  options.lanes);
    ctx.state.attachObservability(ctx.observe.get());
    const size_t readerSlot = ctx.observe->readerSlot();

    if (!options.corpusPath.empty()) {
        ctx.corpus = std::make_unique<corpus::Corpus>();
        if (std::filesystem::exists(options.corpusPath)) {
            // A corrupt corpus refuses startup outright (the CLI's
            // invalid-input class): serving with silently-empty warm
            // state would mask the operator's mistake.
            try {
                ctx.corpus->load(options.corpusPath,
                                 ctx.state.defaultLibrary());
            } catch (const std::exception& e) {
                err << "[isamore_serve] error: " << e.what() << "\n";
                err.flush();
                return 3;
            }
            err << "[isamore_serve] corpus: loaded " << options.corpusPath
                << " (" << ctx.corpus->resultCount() << " results)\n";
        } else if (options.corpusReadonly) {
            err << "[isamore_serve] error: --corpus-readonly with "
                   "missing corpus file: "
                << options.corpusPath << "\n";
            err.flush();
            return 3;
        } else {
            err << "[isamore_serve] corpus: " << options.corpusPath
                << " does not exist yet; starting empty\n";
        }
        err.flush();
        ctx.state.attachCorpus(ctx.corpus.get());
    }

    if (options.banner) {
        std::ostringstream banner;
        banner << "[isamore_serve] serving JSON-lines on stdin: "
               << options.lanes << " lanes, queue " << ctx.queue.capacity()
               << ", purge every " << options.purgeEvery << " analyses";
        if (options.observe.events) {
            banner << ", event log on";
        }
        if (!options.observe.flightDir.empty()) {
            banner << ", flight dumps -> " << options.observe.flightDir
                   << " (ring " << options.observe.flightRing;
            if (options.observe.sloMs > 0.0) {
                banner << ", SLO " << options.observe.sloMs << " ms";
            }
            banner << ")";
        }
        if (!options.metricsPath.empty()) {
            banner << ", metrics -> " << options.metricsPath
                   << ".{json,prom}";
            if (options.metricsIntervalMs > 0) {
                banner << " every " << options.metricsIntervalMs << " ms";
            }
        }
        notice(ctx, banner.str());
    }

    std::vector<std::thread> lanes;
    lanes.reserve(options.lanes);
    for (size_t i = 0; i < options.lanes; ++i) {
        lanes.emplace_back(laneMain, std::ref(ctx), i);
    }
    std::thread metrics;
    if (options.metricsIntervalMs > 0 && !options.metricsPath.empty()) {
        metrics = std::thread(metricsMain, std::ref(ctx));
    }

    // The caller thread is the reader: parse errors and overload
    // shedding are answered inline so a flooded queue still yields one
    // response per request line, never a silent drop.
    std::string line;
    uint64_t seq = 0;
    // Answers the reader writes itself (rejects, sheds) get their
    // latency/flight slot too: the last slot, which no lane owns.
    auto readerAnswer = [&](const Request& request, Response response,
                            const char* eventKind, uint64_t startNs) {
        ctx.state.recordServed(response.status, false);
        const uint64_t serializeStartNs = telemetry::nowNs();
        writeResponse(ctx, response);
        const uint64_t endNs = telemetry::nowNs();
        observeStage(ctx, readerSlot, kStageSerialize, eventKind, {},
                     (endNs - serializeStartNs) / 1000);

        RequestTrace trace;
        trace.requestId = request.requestId;
        trace.idJson = response.idJson;
        trace.op = eventKind;
        trace.workload = request.workload;
        trace.status = response.status;
        trace.elapsedMs =
            static_cast<double>(endNs - startNs) / 1e6;
        trace.startNs = startNs;
        trace.endNs = endNs;
        std::string dumpPath;
        recordFlight(ctx, readerSlot, std::move(trace), false, &dumpPath);
        if (ctx.observe->options().events) {
            std::ostringstream ev;
            ev << "{\"event\": \"" << eventKind << "\", \"req\": \""
               << request.requestId << "\", \"status\": \""
               << statusName(response.status) << "\"";
            if (!response.error.empty()) {
                ev << ", \"error\": \"" << telemetry::jsonEscape(response.error)
                   << "\"";
            }
            if (!dumpPath.empty()) {
                ev << ", \"flight\": \"" << telemetry::jsonEscape(dumpPath)
                   << "\"";
            }
            ev << ", \"ns\": " << endNs << "}";
            emitEvent(ctx, ev.str());
        }
    };
    while (std::getline(in, line)) {
        ++seq;
        if (line.empty() ||
            line.find_first_not_of(" \t\r") == std::string::npos) {
            continue;  // blank keep-alive lines are not requests
        }
        const uint64_t readNs = telemetry::nowNs();
        Request request = parseRequest(line, seq);
        request.acceptNs = telemetry::nowNs();
        const uint64_t parseUs = (request.acceptNs - readNs) / 1000;
        observeStage(ctx, readerSlot, kStageParse,
                     request.valid ? opName(request.op) : "reject", {},
                     parseUs);
        if (!request.valid) {
            readerAnswer(request, ctx.state.badRequestResponse(request),
                         "reject", readNs);
            continue;
        }
        if (ctx.observe->options().events) {
            std::ostringstream ev;
            ev << "{\"event\": \"accept\", \"req\": \"" << request.requestId
               << "\", \"id\": " << request.idJson << ", \"op\": \""
               << opName(request.op) << "\"";
            if (!request.workload.empty()) {
                ev << ", \"workload\": \""
                   << telemetry::jsonEscape(request.workload) << "\"";
            }
            ev << ", \"parseUs\": " << parseUs
               << ", \"ns\": " << request.acceptNs << "}";
            emitEvent(ctx, ev.str());
        }
        if (!ctx.queue.tryPush(std::move(request))) {
            // tryPush leaves the request untouched when the queue is
            // full, so it is still safe to answer from.
            readerAnswer(request,
                         ctx.state.overloadedResponse(
                             request, ctx.queue.capacity()),
                         "shed", readNs);
        }
    }

    // EOF: let the lanes drain the backlog, then stop everything.
    ctx.stopping.store(true, std::memory_order_release);
    ctx.queue.interrupt();
    for (auto& lane : lanes) {
        lane.join();
    }
    {
        std::lock_guard<std::mutex> lock(ctx.stopMutex);
    }
    ctx.stopCv.notify_all();
    if (metrics.joinable()) {
        metrics.join();
    }
    // Final snapshot so a crash-free shutdown always leaves the freshest
    // counters on disk (also the only snapshot when no interval is set).
    writeMetricsSnapshot(ctx);
    saveCorpusCheckpoint(ctx, "shutdown");

    if (options.banner) {
        const ServerCounters counters = ctx.state.counters();
        std::ostringstream os;
        os << "[isamore_serve] shutdown: served " << counters.served
           << " (ok " << counters.ok << ", degraded " << counters.degraded
           << ", invalid " << counters.invalid << ", internal "
           << counters.internal << ", bad_request " << counters.badRequest
           << ", overloaded " << counters.overloaded << "), cache hits "
           << counters.cacheHits << ", purge sweeps "
           << counters.purgeSweeps << "\n";
        const uint64_t flightDumps =
            telemetry::Registry::instance()
                .counter("server.flight_dumps")
                .value();
        if (flightDumps > 0) {
            os << "[isamore_serve] flight dumps written: " << flightDumps
               << " -> " << options.observe.flightDir << "\n";
        }
        err << os.str();
        err.flush();
    }
    return 0;
}

}  // namespace server
}  // namespace isamore
