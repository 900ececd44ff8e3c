/**
 * @file
 * The analysis daemon's serving loop: threads, queue, purge.
 *
 * Topology (see DESIGN.md "Server mode & overload taxonomy"):
 *
 *     stdin --> reader (caller thread)
 *                 |  parse; bad lines answered immediately
 *                 v
 *           BoundedQueue  -- full? answer "overloaded" immediately
 *                 |
 *           session lanes (N worker threads)
 *                 |  per-request root Budget (the request's deadline)
 *                 |  shared/exclusive isolation lock (fault scopes, purge)
 *                 v
 *     stdout <-- one JSON line per response (mutex-serialized)
 *
 * A request's deadline lives only in its root Budget: the pipeline polls
 * it where it charges work (EqSat every 64 applications, AU at every
 * step) and stops there with partial results.  Every `purgeEvery`
 * analyze responses, a lane takes the exclusive lock and runs
 * internPurge() + a telemetry sweep so a long-lived daemon's intern
 * table stays bounded.
 *
 * Stdout hygiene: the ONLY bytes this loop ever writes to @p out are
 * complete JSON response lines.  Banners, purge notices, and shutdown
 * summaries all go to @p err, so `isamore_serve | jq` never chokes.
 */
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "server/observe.hpp"

namespace isamore {
namespace server {

/** Tunables of one serve loop run. */
struct ServeOptions {
    /** Session lanes (worker threads) draining the queue. */
    size_t lanes = 2;
    /** Bounded request-queue capacity. */
    size_t queueCapacity = 64;
    /** Run an intern purge sweep every this many analyze responses. */
    size_t purgeEvery = 64;
    /** Print a startup banner and shutdown summary to the error stream. */
    bool banner = true;
    /**
     * Persistent corpus shared by every lane (empty = no corpus).
     * Loaded before the lanes start (a corrupt file refuses startup,
     * exit 3; a missing file starts empty unless read-only) and saved
     * back -- atomic rename -- at every purge-sweep checkpoint and at
     * shutdown, when dirty.  Corpus-held results pin their interned
     * nodes across internPurge() by holding strong references.
     */
    std::string corpusPath;
    /** Consult the corpus but never write the file back (and make a
     *  missing file a startup error). */
    bool corpusReadonly = false;
    /**
     * Live observability (DESIGN.md "Live observability").  The serving
     * loop always runs with telemetry enabled and per-request latency
     * digests + flight-recorder rings live (the enabled-overhead CI
     * gate keeps that below 2%); these options additionally turn on the
     * stderr event log and automatic flight dumps.  None of it touches
     * response `result` bytes -- goldens stay byte-identical.
     */
    ObserveOptions observe;
    /** Write a metrics snapshot (<metricsPath>.json + .prom, atomic
     *  rename) every this many milliseconds (0 = only at shutdown, and
     *  only when metricsPath is set). */
    size_t metricsIntervalMs = 0;
    /** Snapshot base path; defaults to "isamore_metrics" when an
     *  interval is set without a path. */
    std::string metricsPath;
};

/**
 * Serve JSON-lines requests from @p in to @p out until EOF, with notices
 * on @p err.  Blocks the calling thread (it becomes the reader).
 * @return the process exit code (0 on clean EOF shutdown).
 */
int serveLoop(std::istream& in, std::ostream& out, std::ostream& err,
              const ServeOptions& options);

}  // namespace server
}  // namespace isamore
