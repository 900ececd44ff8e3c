/**
 * @file
 * Pipeline telemetry: a span tracer and a metrics registry.
 *
 * Telemetry is a strict side channel over the pipeline: probes record
 * what happened but never feed a value back into a result, so pipeline
 * output is byte-identical with telemetry on or off at every thread
 * count (pinned by tests/isamore/golden_identity_test.cpp).
 *
 * Overhead contract: telemetry is *disabled by default* and a disabled
 * probe costs one relaxed atomic load plus a predictable branch --
 * cheap enough to leave TELEM_SPAN / Counter::add in the EqSat and AU
 * hot loops (the bench-smoke CI job gates end-to-end overhead of the
 * disabled probes below 2% against a build with the probes compiled
 * out via -DISAMORE_TELEMETRY=OFF).  Probes that must build a dynamic
 * payload (span args) are the caller's job to gate: construct the
 * payload only when enabled() is true (TELEM_SPAN_ARGS does this).
 *
 * Span tracer: TELEM_SPAN("eqsat.iter", "eqsat") opens an RAII scope
 * recorded at destruction into a per-thread buffer.  Buffers are
 * single-writer (the owning thread appends, nothing else touches them
 * while threads run), so the record path takes no lock and performs no
 * synchronization beyond the enable load; registration of a new
 * thread's buffer is the only mutex-guarded step.  Tracer::
 * toChromeJson() exports everything as Chrome trace-event JSON
 * ("ph":"X" complete events, microsecond timestamps) loadable in
 * Perfetto or chrome://tracing; it and clear() must only run at
 * quiescent points (no live spans / no pool job in flight).
 *
 * Metrics registry: named counters (monotone, relaxed-atomic add) and
 * gauges (last-write-wins), nothing else.  Its size is bounded by the
 * set of metric names, never by how many runs a process performs, so a
 * long-lived daemon that keeps telemetry on can scrape it forever.
 * Per-event detail (one EqSat iteration, one AU chunk) belongs to the
 * spans, whose buffers are capped per thread and cleared at every
 * daemon purge sweep.  Names are dot-hierarchical with an optional
 * {label=value} suffix on the leaf (e.g.
 * "eqsat.applications{rule=add-comm}"); toJson() nests on the dots and
 * sorts every level, so output layout is deterministic even though
 * counter *values* from racy phases (pool steals, intern hits) need not
 * be.  Registry::counter() resolution takes a mutex -- hot paths
 * resolve once and cache the pointer (stable for process lifetime).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace isamore {
namespace telemetry {

/** Whether probes were compiled in (ISAMORE_TELEMETRY=ON builds). */
#if defined(ISAMORE_NO_TELEMETRY)
constexpr bool kCompiled = false;
#else
constexpr bool kCompiled = true;
#endif

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/** The per-probe gate: one relaxed atomic load. */
inline bool
enabled()
{
#if defined(ISAMORE_NO_TELEMETRY)
    return false;
#else
    return detail::g_enabled.load(std::memory_order_relaxed);
#endif
}

/** Flip the global probe gate (no-op when compiled out). */
void setEnabled(bool on);

/** Nanoseconds since the process telemetry epoch (steady clock). */
uint64_t nowNs();

/** One completed span, as recorded into a thread buffer. */
struct TraceEvent {
    const char* name = nullptr;  ///< static string (macro call sites)
    const char* cat = nullptr;   ///< static category string
    uint64_t startNs = 0;
    uint64_t durNs = 0;
    /** Extra Chrome "args" fields as the *inside* of a JSON object
     *  (e.g. "\"iter\": 3"); empty for most spans. */
    std::string args;
};

/**
 * The process-wide span sink: one append-only buffer per recording
 * thread, registered on first use and kept alive past thread exit so a
 * late export still sees every event.
 */
class Tracer {
 public:
    static Tracer& instance();

    /** Append @p event to the calling thread's buffer (lock-free). */
    void record(TraceEvent event);

    /**
     * Render every buffered event as a Chrome trace-event JSON
     * document.  Quiescent points only (no concurrent record()).
     */
    std::string toChromeJson() const;

    /** Drop all buffered events (quiescent points only). */
    void clear();

    /** Buffered events across all threads (quiescent points only). */
    size_t eventCount() const;

    /** Events dropped after a thread buffer hit its cap. */
    uint64_t droppedCount() const;

 private:
    /** Cap per thread buffer; overflow increments `dropped` instead. */
    static constexpr size_t kMaxEventsPerThread = size_t{1} << 20;

    struct ThreadBuffer {
        uint32_t tid = 0;
        std::vector<TraceEvent> events;
        uint64_t dropped = 0;
    };

    ThreadBuffer& localBuffer();

 public:
    /** Stable trace id of the calling thread (registers its buffer). */
    uint32_t localTid() { return localBuffer().tid; }

 private:
    mutable std::mutex mutex_;  ///< guards buffers_ registration/export
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/**
 * A bounded, lock-free collector for the spans of *one* request.
 *
 * The server installs a sink on the lane thread before executing a
 * request (and the thread pool forwards it to workers for the job's
 * duration), so every span closed while the request runs is copied here
 * in addition to the global Tracer.  Writers claim a slot with one
 * relaxed fetch_add; a claim past the capacity only bumps `dropped`.
 * take() must run after the request quiesces (lane-side, after the
 * pool job joined) -- the join supplies the happens-before edge for
 * the plain slot writes.
 */
class RequestSink {
 public:
    struct Entry {
        TraceEvent event;
        uint32_t tid = 0;
    };

    explicit RequestSink(size_t capacity) : slots_(capacity) {}

    /** Copy @p event into the next free slot (lock-free, wait-free). */
    void
    record(const TraceEvent& event, uint32_t tid)
    {
        const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= slots_.size()) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        slots_[i].event = event;
        slots_[i].tid = tid;
    }

    /** Drain recorded entries sorted by start time (quiescent only). */
    std::vector<Entry> take();

    uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

 private:
    std::vector<Entry> slots_;
    std::atomic<size_t> next_{0};
    std::atomic<uint64_t> dropped_{0};
};

namespace detail {
extern thread_local RequestSink* t_requestSink;
}  // namespace detail

/** The calling thread's request sink, or null when none is installed. */
inline RequestSink*
threadRequestSink()
{
    return detail::t_requestSink;
}

/** Install (or clear, with nullptr) the calling thread's request sink. */
inline void
setThreadRequestSink(RequestSink* sink)
{
    detail::t_requestSink = sink;
}

/** RAII install/restore of the calling thread's request sink. */
class RequestSinkScope {
 public:
    explicit RequestSinkScope(RequestSink* sink)
        : previous_(detail::t_requestSink)
    {
        detail::t_requestSink = sink;
    }
    ~RequestSinkScope() { detail::t_requestSink = previous_; }

    RequestSinkScope(const RequestSinkScope&) = delete;
    RequestSinkScope& operator=(const RequestSinkScope&) = delete;

 private:
    RequestSink* previous_;
};

/**
 * RAII span: records one TraceEvent covering its scope.  Inert (and
 * branch-cheap) when telemetry is disabled at construction; a span that
 * straddles a disable still records, which keeps export consistent.
 */
class Span {
 public:
    explicit Span(const char* name, const char* cat = "isamore")
    {
        if (!enabled()) {
            return;
        }
        name_ = name;
        cat_ = cat;
        start_ = nowNs();
    }

    /** @p args is the inside of the Chrome "args" object; build it only
     *  when enabled() (see TELEM_SPAN_ARGS). */
    Span(const char* name, const char* cat, std::string args)
    {
        if (!enabled()) {
            return;
        }
        name_ = name;
        cat_ = cat;
        args_ = std::move(args);
        start_ = nowNs();
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    ~Span()
    {
        if (name_ == nullptr) {
            return;
        }
        TraceEvent event;
        event.name = name_;
        event.cat = cat_;
        event.startNs = start_;
        event.durNs = nowNs() - start_;
        event.args = std::move(args_);
        if (RequestSink* sink = detail::t_requestSink) {
            sink->record(event, Tracer::instance().localTid());
        }
        Tracer::instance().record(std::move(event));
    }

 private:
    const char* name_ = nullptr;  ///< null = inactive
    const char* cat_ = nullptr;
    std::string args_;
    uint64_t start_ = 0;
};

/** Monotone counter; add() is gated on enabled() internally. */
class Counter {
 public:
    void
    add(uint64_t n = 1)
    {
        if (enabled()) {
            value_.fetch_add(n, std::memory_order_relaxed);
        }
    }

    uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins gauge; set unconditionally (export-time wiring). */
class Gauge {
 public:
    void set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
    int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
    std::atomic<int64_t> value_{0};
};

/**
 * The process-wide metrics registry.  Lookup is mutex-guarded
 * find-or-create; returned references stay valid for the process
 * lifetime, so hot paths resolve once and keep the pointer.
 */
class Registry {
 public:
    static Registry& instance();

    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);

    /**
     * Render the registry as one JSON document with counters and gauges
     * in dot-nested, key-sorted form.  With @p compact the document is a
     * single line (no indentation), fit for embedding inside a
     * JSON-lines response.
     */
    std::string toJson(bool compact = false) const;

    /**
     * Render counters and gauges as Prometheus text exposition (one
     * `# TYPE` line per family; dots become underscores under an
     * `isamore_` prefix; the optional `{label=value}` name suffix
     * becomes Prometheus labels).
     */
    std::string toPrometheus() const;

    /** Drop every metric (tests / between runs). */
    void reset();

 private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

/** Escape @p text for use inside a JSON string literal (span args and
 *  every other emitter building JSON by hand). */
std::string jsonEscape(const std::string& text);

/** Write Tracer JSON to @p path; false (with errno intact) on failure. */
bool writeChromeTrace(const std::string& path);

/** Write Registry JSON to @p path; false on failure. */
bool writeMetrics(const std::string& path);

}  // namespace telemetry
}  // namespace isamore

// Macro plumbing: a uniquely named RAII span per call site.
#define ISAMORE_TELEM_CAT2(a, b) a##b
#define ISAMORE_TELEM_CAT(a, b) ISAMORE_TELEM_CAT2(a, b)

/** Open an RAII span for the rest of the scope: TELEM_SPAN(name[, cat]). */
#define TELEM_SPAN(...) \
    ::isamore::telemetry::Span ISAMORE_TELEM_CAT(telemSpan_, \
                                                 __LINE__)(__VA_ARGS__)

/**
 * Span with dynamic Chrome args: the args expression (the inside of a
 * JSON object, e.g. `"\"iter\": " + std::to_string(i)`) is evaluated
 * only when telemetry is enabled, keeping the disabled cost at the
 * branch.
 */
#define TELEM_SPAN_ARGS(name, cat, argsExpr) \
    ::isamore::telemetry::Span ISAMORE_TELEM_CAT(telemSpan_, __LINE__)( \
        (name), (cat), \
        ::isamore::telemetry::enabled() ? (argsExpr) : std::string())
