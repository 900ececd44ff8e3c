/**
 * @file
 * Live observability for the serving loop (DESIGN.md "Live
 * observability").
 *
 * Three cooperating pieces, all strictly outside the deterministic
 * report partition (they never touch a Response's `result` bytes, so
 * committed goldens stay byte-identical with the layer on):
 *
 *  - LatencyRecorder: per-slot (lane-local) mergeable percentile
 *    digests keyed by (stage, op, workload).  A lane only ever touches
 *    its own slot, so recording contends with nothing; snapshots merge
 *    the slots into deterministic global percentiles (LatencyDigest's
 *    contract: quantiles depend on the sample multiset only, not the
 *    lane split).
 *
 *  - FlightRecorder: a per-slot ring of the last N finished request
 *    span-trees (RequestTrace).  Each slot is owned by exactly one
 *    thread (its lane, or the reader), so record/snapshot take no lock;
 *    the ring overwrites oldest-first.  flightTraceJson() renders one
 *    trace as a Perfetto-loadable Chrome trace document and
 *    dumpFlightTrace() writes it to the flight directory -- the serve
 *    loop does that automatically for every non-ok response and for ok
 *    responses that blow the latency SLO.
 *
 *  - Exposition builders: buildMetricsJson()/buildExposition() render
 *    the full telemetry registry plus server counters plus latency
 *    digests as a single-line JSON document and as Prometheus text
 *    exposition; corpusStatusJson() renders the `corpus` op's view of
 *    the attached corpus.  All of them read live atomics/mutex-guarded
 *    snapshots -- no quiescing of lanes required.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/session.hpp"
#include "support/latency.hpp"
#include "support/telemetry.hpp"

namespace isamore {
namespace server {

/** Observability tunables of one serve loop run. */
struct ObserveOptions {
    /** Emit the JSON-lines event log (accept/dispatch/done/...) on the
     *  error stream. */
    bool events = false;
    /** Directory for automatic flight-recorder dumps ("" = no dumps;
     *  the in-memory ring still records). */
    std::string flightDir;
    /** Per-slot flight-recorder ring capacity (last N requests). */
    size_t flightRing = 16;
    /** Latency SLO in milliseconds: an ok response slower than this
     *  still dumps a flight trace (0 = no SLO trigger). */
    double sloMs = 0.0;
};

/** The stage names every per-request digest is keyed under. */
constexpr const char* kStageQueueWait = "queue_wait";
constexpr const char* kStageParse = "parse";
constexpr const char* kStageAnalyze = "analyze";
constexpr const char* kStageSerialize = "serialize";

/**
 * Lane-local latency digests with deterministic merged snapshots.
 * observe() must be called with the caller's own slot; snapshots
 * (toJson/toPrometheus/merged) briefly lock one slot at a time.
 */
class LatencyRecorder {
 public:
    explicit LatencyRecorder(size_t slots);

    /**
     * Record @p micros for (stage, op, workload) into @p slot.  An empty
     * @p workload files under "-".  Callers pass a workload the request
     * resolved to, never raw client text, so the key set stays bounded.
     */
    void observe(size_t slot, const char* stage, const std::string& op,
                 const std::string& workload, uint64_t micros);

    /**
     * Merge every slot into global digests keyed
     * "stage\x1fop\x1fworkload"; each (stage, op) additionally
     * aggregates across workloads under the pseudo-workload "_all".
     */
    std::map<std::string, LatencyDigest> merged() const;

    /** Nested single-line JSON: {"stage": {"op": {"workload": {...}}}}. */
    std::string toJson() const;

    /** Prometheus summary series: isamore_server_latency_us{...}. */
    std::string toPrometheus() const;

    size_t slots() const { return slots_.size(); }

 private:
    struct Slot {
        mutable std::mutex mutex;
        std::map<std::string, LatencyDigest> digests;
    };
    std::vector<std::unique_ptr<Slot>> slots_;
};

/** One finished request's span tree plus its identity and outcome. */
struct RequestTrace {
    std::string requestId;  ///< "r-<line>" wire id
    std::string idJson;     ///< client id as a JSON token
    std::string op;         ///< wire op name
    std::string workload;
    Status status = Status::Internal;
    double queueWaitMs = 0.0;
    double elapsedMs = 0.0;
    uint64_t startNs = 0;  ///< accept instant (telemetry clock)
    uint64_t endNs = 0;    ///< response-written instant
    std::vector<telemetry::RequestSink::Entry> events;
};

/**
 * A bounded ring of the last N RequestTraces, owned by exactly one
 * thread (no internal locking -- the per-slot ownership is the
 * concurrency story, which is what makes it lock-free for the lanes).
 */
class FlightRecorder {
 public:
    explicit FlightRecorder(size_t capacity)
        : ring_(capacity == 0 ? 1 : capacity)
    {
    }

    /** Append @p trace, overwriting the oldest entry when full. */
    void record(RequestTrace trace);

    /** Entries oldest-first (at most capacity()). */
    std::vector<const RequestTrace*> snapshot() const;

    size_t size() const { return count_; }
    size_t capacity() const { return ring_.size(); }

 private:
    std::vector<RequestTrace> ring_;
    size_t next_ = 0;   ///< slot the next record lands in
    size_t count_ = 0;  ///< min(records so far, capacity)
};

/**
 * Render @p trace as a Chrome trace-event JSON document (Perfetto
 * loadable): one synthetic "server.request" span covering the whole
 * request (args carry request id / op / workload / status / queue
 * wait), then every captured pipeline span on its recording thread's
 * track.
 */
std::string flightTraceJson(const RequestTrace& trace);

/**
 * Write flightTraceJson(trace) to `<dir>/flight_<requestId>.json`.
 * @return the path written, or "" on failure (failures are the
 *         caller's notice to log; they never take the daemon down).
 */
std::string dumpFlightTrace(const std::string& dir,
                            const RequestTrace& trace);

/** The serve loop's aggregate observability state, shared by lanes. */
class Observability {
 public:
    /**
     * @p lanes session lanes; slot `lanes` belongs to the reader
     * thread (it answers bad_request/overloaded inline).
     */
    Observability(const ObserveOptions& options, size_t lanes);

    const ObserveOptions& options() const { return options_; }
    LatencyRecorder& latency() { return latency_; }
    const LatencyRecorder& latency() const { return latency_; }
    FlightRecorder& flight(size_t slot) { return *flights_[slot]; }
    size_t flightSlots() const { return flights_.size(); }
    size_t readerSlot() const { return flights_.size() - 1; }

 private:
    ObserveOptions options_;
    LatencyRecorder latency_;
    std::vector<std::unique_ptr<FlightRecorder>> flights_;
};

/**
 * The `metrics` op / snapshot-file payload: one single-line JSON object
 * `{"server": <counters>, "latency": <digests>, "registry": <registry>}`.
 * @p observability may be null (bare SharedState embedding, e.g. bench).
 */
std::string buildMetricsJson(const SharedState& state,
                             const Observability* observability);

/** The same data as Prometheus text exposition. */
std::string buildExposition(const SharedState& state,
                            const Observability* observability);

/** The `corpus` op payload: section entry counts, warm-path counters,
 *  and the pinned-node gauge (ROADMAP item 2's inspection slice). */
std::string corpusStatusJson(const SharedState& state);

}  // namespace server
}  // namespace isamore
