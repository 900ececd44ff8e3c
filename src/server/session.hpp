/**
 * @file
 * Request/response model of the analysis server.
 *
 * The wire protocol is JSON-lines: one request object per stdin line, one
 * response object per stdout line (see DESIGN.md "Server mode & overload
 * taxonomy").  This header owns everything about a single request that
 * does not involve threads: the strict little JSON parser, request
 * validation, the per-response status taxonomy (mirroring the CLI's exit
 * codes), response serialization, and SharedState -- the process-wide
 * warm state (analyzed-workload cache, compiled rule libraries, response
 * cache, counters) that a daemon amortizes across requests.
 *
 * Fault isolation contract: executeRequest() maps every per-request
 * failure -- malformed input, unknown workload, tripped budget, injected
 * fault, internal error, allocation failure -- to a structured Response
 * and never lets an exception escape, so one poisoned request cannot take
 * the serving loop down.  The pipeline result embedded in an "ok" or
 * "degraded" response is the byte-exact resultToJson() document the
 * single-shot CLI would have printed (the golden-identity suite pins
 * this), carried as one escaped JSON string field so the response itself
 * stays a single strict JSON line.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "isamore/isamore.hpp"
#include "support/budget.hpp"

namespace isamore {
namespace corpus {
class Corpus;
}  // namespace corpus
namespace server {

class Observability;

/** @name Minimal strict JSON
 *  Just enough JSON for the request protocol: objects, arrays, strings,
 *  finite numbers, booleans, null; UTF-8 passed through opaquely;
 *  trailing garbage rejected.  Exposed for the server tests.
 *  @{ */

struct JsonValue {
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;                    ///< String payload
    std::vector<JsonValue> items;        ///< Array payload
    std::vector<std::pair<std::string, JsonValue>> members;  ///< Object

    const JsonValue* find(const std::string& key) const;
};

/**
 * Parse @p text as one complete JSON document.
 * @return false with a position-carrying message in @p error on any
 *         syntax violation (including trailing bytes after the value).
 */
bool parseJson(const std::string& text, JsonValue& out, std::string& error);

/** @} */

/**
 * Per-response status taxonomy.  The first five mirror the CLI's exit
 * codes one-for-one (a scripted client can treat `code` exactly like a
 * single-shot exit status); Overloaded is server-only load shedding.
 */
enum class Status {
    Ok = 0,          ///< exit 0: clean result
    BadRequest = 2,  ///< exit 2: malformed JSON / unknown or mistyped field
    Invalid = 3,     ///< exit 3: unknown workload/mode, bad inject spec
    Internal = 4,    ///< exit 4: invariant violation, allocation failure
    Degraded = 5,    ///< exit 5: partial result (budget/fault degradation)
    Overloaded = 6,  ///< server-only: bounded queue full, request shed
};

/** Wire name of a status ("ok", "bad_request", ...). */
const char* statusName(Status status);

/** Numeric code of a status (the CLI exit-code column). */
int statusCode(Status status);

/** What a request asks the server to do. */
enum class RequestOp { Analyze, Ping, Stats, Metrics, Corpus };

/** Wire name of an op ("analyze", "ping", ...). */
const char* opName(RequestOp op);

/**
 * One parsed request line.  `valid == false` means the line failed
 * parsing/validation; `error` carries the reason and the request must be
 * answered with BadRequest without touching the pipeline.
 */
struct Request {
    uint64_t seq = 0;     ///< arrival index (used as the default id)
    std::string idJson;   ///< client id, re-serialized as a JSON token
    /**
     * Server-assigned stable request id, "r-<line>" where <line> is the
     * 1-based stdin line number.  Assigned by parseRequest to every
     * request -- including malformed ones -- threaded through the
     * event log, latency digests, pipeline spans, and flight-recorder
     * dumps, and echoed back as the response's "req" field so a client
     * can join its logs against the server's.
     */
    std::string requestId;
    uint64_t acceptNs = 0;  ///< accept instant (telemetry clock)
    RequestOp op = RequestOp::Analyze;
    std::string workload;
    /**
     * Mode as sent.  Kept textual so an unknown mode surfaces as Invalid
     * (the CLI's exit-3 class) from execution, not as a parse error.
     */
    std::string modeText = "default";
    bool extendedRules = false;
    double deadlineMs = 0.0;  ///< 0 = no per-request deadline
    uint64_t maxUnits = 0;    ///< 0 = no per-request work-unit cap
    std::string inject;       ///< fault spec; non-empty => exclusive lane
    bool cache = true;        ///< response-cache opt-out for benchmarks
    /**
     * Pool lanes to run this request with (0 = the server's default).
     * Pinning the thread count swaps the process-global pool, so such
     * requests take the exclusive lane and skip the response cache —
     * the point is to actually exercise the pipeline at that width
     * (determinism harnesses assert the bytes match every other width).
     */
    size_t threads = 0;
    bool valid = false;
    std::string error;

    /** Whether execution needs the exclusive isolation lane. */
    bool wantsExclusive() const
    {
        return !inject.empty() || threads != 0;
    }
};

/**
 * Parse + validate one request line.  Never throws: malformed input
 * yields `valid == false`.  @p seq becomes the id when the client sent
 * none.
 */
Request parseRequest(const std::string& line, uint64_t seq);

/** The root-budget limits a request asks for (unlimited fields when 0). */
BudgetSpec requestBudgetSpec(const Request& request);

/** One response line, pre-serialization. */
struct Response {
    std::string idJson = "null";
    std::string requestId;    ///< echoed "req" field (empty = omitted)
    Status status = Status::Internal;
    std::string workload;     ///< echoed for analyze responses
    /** Registry name the analyze request resolved to ("PCL/sac" for
     *  "sac"); empty when it resolved none.  Not serialized. */
    std::string resolvedWorkload;
    std::string result;       ///< raw resultToJson() bytes (may be empty)
    std::string diagnostics;  ///< RunDiagnostics::summary() when degraded
    std::string error;        ///< human-readable failure reason
    std::string statsJson;    ///< inline object for the stats op
    std::string metricsJson;  ///< inline object for the metrics op
    std::string exposition;   ///< Prometheus text for the metrics op
    std::string corpusJson;   ///< inline object for the corpus op
    bool pong = false;        ///< ping marker
    double elapsedMs = 0.0;
    bool cached = false;      ///< served from the response cache
};

/** Serialize @p response as one strict JSON line (no trailing newline). */
std::string serializeResponse(const Response& response);

/** Rolling counters the stats op and the purge sweep report. */
struct ServerCounters {
    uint64_t served = 0;       ///< responses written, every status
    uint64_t ok = 0;
    uint64_t degraded = 0;
    uint64_t invalid = 0;
    uint64_t internal = 0;
    uint64_t badRequest = 0;
    uint64_t overloaded = 0;
    uint64_t cacheHits = 0;
    uint64_t purgeSweeps = 0;
    uint64_t purgedNodes = 0;  ///< interned nodes dropped by sweeps
};

/**
 * Process-wide warm state shared by every session lane.
 *
 * Thread safety: the workload cache and response cache are mutex-guarded;
 * cached AnalyzedWorkloads are immutable after insertion (their e-graph
 * read caches are primed while the insertion lock is held, so concurrent
 * const reads never race on a lazy refresh); counters are guarded by
 * their own mutex.  The isolation lock is the fault/purge exclusion
 * documented in serve.cpp.
 */
class SharedState {
 public:
    SharedState();

    /**
     * Execute @p request under @p rootBudget (the caller builds it from
     * requestBudgetSpec() and holds the isolation lock).  Returns a fully
     * populated Response; never throws.
     */
    Response executeRequest(const Request& request, Budget& rootBudget);

    /** Answer for a request shed because the bounded queue was full. */
    Response overloadedResponse(const Request& request,
                                size_t queueCapacity);

    /** Answer for a request that failed parsing/validation. */
    Response badRequestResponse(const Request& request);

    /** Snapshot of the rolling counters. */
    ServerCounters counters() const;

    /** Bump one counter cell by status (and the served total). */
    void recordServed(Status status, bool cached);

    /**
     * Record a purge sweep's result and return the counters as they
     * stood at that instant, snapshotted under the same lock acquisition
     * as the increment.  The purge-sweep log line reports this single
     * snapshot -- re-reading counters() after releasing the lock could
     * interleave with a concurrent lane's recordServed and log a torn
     * view.
     */
    ServerCounters recordPurge(size_t droppedNodes);

    /**
     * The readers/writer lane gate: normal requests run shared,
     * fault-injected requests and purge sweeps run exclusive (the fault
     * registry is process-global; a purge must not race makeTerm).
     */
    std::shared_mutex& isolationLock() { return isolation_; }

    /** Number of distinct workloads analyzed and cached so far. */
    size_t workloadCacheSize() const;

    /** Drop every cached response (tests; the cache is also bounded). */
    void clearResponseCache();

    /**
     * Attach a shared persistent corpus (serve startup; may be null).
     * Analyze requests then run through the corpus warm-start path:
     * result-cache hits skip the pipeline, misses run it and store a
     * clean result -- all in memory.
     * Persisting the corpus to disk stays the serving loop's job
     * (checkpoint saves at purge sweeps), which is how read-only mounts
     * stay warm without writes.
     * Only requests that may use the response cache use the corpus:
     * `"cache": false`, a budget, an injection or a pinned thread count
     * bypass both, because such a request must actually run.
     */
    void attachCorpus(corpus::Corpus* corpus);

    /** The attached corpus, or nullptr. */
    corpus::Corpus* corpusStore() const { return corpus_; }

    /**
     * Attach the serve loop's observability state (may be null, the
     * default).  The metrics op renders its latency digests; nothing on
     * the execution path reads it otherwise.
     */
    void attachObservability(const Observability* observability)
    {
        observability_ = observability;
    }

    /** The process-wide default rule library (keys the corpus frame). */
    const rules::RulesetLibrary& defaultLibrary() const { return default_; }

 private:
    std::shared_ptr<const AnalyzedWorkload>
    getOrAnalyze(const std::string& name);

    const rules::RulesetLibrary& extendedLibrary();

    Response runAnalysis(const Request& request, Budget& rootBudget);

    std::shared_mutex isolation_;

    // Analyzed workloads keyed by Workload::name, plus every requested
    // spelling that resolved to one of them ("PCL/sac", "pcl/sac" and
    // "sac" share one analysis), so a repeated spelling skips building
    // a Workload.
    mutable std::mutex workloadMutex_;
    std::unordered_map<std::string, std::shared_ptr<const AnalyzedWorkload>>
        workloads_;
    std::unordered_map<std::string, std::shared_ptr<const AnalyzedWorkload>>
        byRequestedName_;

    // Rule libraries compile once per process, not once per request --
    // half of the warm-start story.  The extended library is rarely
    // asked for, so it builds on first use.
    rules::RulesetLibrary default_;
    std::mutex libraryMutex_;
    std::unique_ptr<rules::RulesetLibrary> extended_;  // built on demand

    // Response cache: deterministic documents keyed by
    // Workload::name/mode/extended.  Only unconstrained, fault-free requests
    // hit or fill it (anything budgeted or injected must re-run).
    mutable std::mutex cacheMutex_;
    std::unordered_map<std::string, Response> responseCache_;
    static constexpr size_t kMaxCachedResponses = 128;

    mutable std::mutex countersMutex_;
    ServerCounters counters_;

    corpus::Corpus* corpus_ = nullptr;  ///< shared warm-start corpus
    const Observability* observability_ = nullptr;  ///< serve-loop state
};

}  // namespace server
}  // namespace isamore
