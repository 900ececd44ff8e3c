/**
 * @file
 * isamore_serve: the fault-isolated analysis daemon.
 *
 * Usage:
 *   isamore_serve [--lanes <n>] [--queue <n>] [--purge-every <n>]
 *                 [--threads <n>] [--quiet]
 *                 [--corpus <path>] [--corpus-readonly]
 *                 [--events] [--flight-dir <dir>] [--flight-ring <n>]
 *                 [--slo-ms <n>] [--metrics-interval <ms>]
 *                 [--metrics-out <base>]
 *
 * Reads one JSON request object per stdin line and writes one JSON
 * response object per stdout line; everything else (banner, purge
 * notices, shutdown summary) goes to stderr, so stdout is strict
 * JSON-lines end to end:
 *
 *   $ printf '%s\n' '{"workload": "matmul"}' | isamore_serve | jq .status
 *   "ok"
 *
 * Request fields: workload (required for analyze), op
 * (analyze|ping|stats|metrics|corpus), mode, extendedRules, deadlineMs,
 * maxUnits, inject, cache, threads, id.  Response `status`/`code`
 * mirror the CLI exit-code taxonomy (see DESIGN.md "Server mode &
 * overload taxonomy"); the `result` field carries the byte-exact
 * single-shot CLI JSON document.  Every response additionally echoes
 * the server-assigned request id as `req` ("r-<stdin line>").
 * `deadlineMs` and `maxUnits` set the request's root budget: the
 * pipeline polls it where it charges work, stops there, and answers
 * `degraded` with the partial result.
 *
 * Live observability (DESIGN.md "Live observability"): `--events`
 * streams a JSON-lines event log (accept/dispatch/done/reject/shed) on
 * stderr; `--flight-dir <dir>` auto-dumps a Perfetto trace of every
 * request that ends degraded/internal/overloaded/invalid/bad_request
 * (plus ok requests slower than `--slo-ms`); `--metrics-interval <ms>`
 * + `--metrics-out <base>` periodically snapshot the full telemetry
 * registry, server counters, and latency percentile digests to
 * <base>.json and <base>.prom (Prometheus text exposition, atomic
 * rename -- tail or scrape mid-run without quiescing lanes).  The
 * `metrics` op returns the same two documents inline.
 *
 * `--corpus <path>` loads a persistent result corpus shared by every
 * lane (warm-starting analyze requests across daemon restarts) and
 * checkpoints it back -- atomic rename -- at every purge sweep and at
 * shutdown; `--corpus-readonly` never writes the file back.
 *
 * Exit codes: 0 on clean EOF shutdown, 2 on bad usage, 3 when --corpus
 * names a corrupt or cross-build file (or --corpus-readonly a missing
 * one).
 */
#include <iostream>
#include <optional>
#include <string>

#include "server/serve.hpp"
#include "support/pool.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;

void
usage(std::ostream& os)
{
    os << "usage: isamore_serve [options]\n"
       << "  --lanes <n>        session lanes draining the queue (default 2)\n"
       << "  --queue <n>        bounded request-queue capacity (default 64)\n"
       << "  --purge-every <n>  intern purge period in analyze responses\n"
       << "                     (default 64; 0 disables sweeps)\n"
       << "  --threads <n>      size the work-stealing pool (>= 1)\n"
       << "  --corpus <path>    persistent warm-start corpus, shared by "
          "all lanes; loaded at\n"
       << "                     startup (created if missing) and "
          "checkpointed at purge sweeps\n"
       << "  --corpus-readonly  never write the corpus file back "
          "(missing file: exit 3)\n"
       << "  --events           JSON-lines event log on stderr (accept/"
          "dispatch/done/...)\n"
       << "  --flight-dir <d>   auto-dump a Perfetto trace of every "
          "non-ok (or SLO-busting)\n"
       << "                     request to <d>/flight_<req>.json\n"
       << "  --flight-ring <n>  per-lane flight-recorder ring size "
          "(default 16)\n"
       << "  --slo-ms <n>       latency SLO: ok responses slower than "
          "this also dump\n"
       << "  --metrics-interval <ms>  write metrics snapshots every "
          "<ms> milliseconds\n"
       << "  --metrics-out <base>     snapshot base path -> <base>.json "
          "+ <base>.prom\n"
       << "                     (default isamore_metrics when an "
          "interval is set)\n"
       << "  --quiet            no banner/summary on stderr\n"
       << "  --help             this text\n"
       << "Protocol: one JSON request per stdin line, one JSON response per\n"
       << "stdout line; all notices go to stderr.  EOF shuts down cleanly.\n";
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace isamore;

    server::ServeOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto nextValue = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "isamore_serve: " << flag
                          << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        // A count flag's value through the strict parseCount(): digits
        // only, so "-1" is refused rather than wrapped to 2^64-1.
        auto countValue = [&](size_t& into, bool allowZero) {
            const char* value = nextValue();
            const std::optional<size_t> count =
                value == nullptr ? std::nullopt
                                 : parseCount(value, allowZero);
            if (count) {
                into = *count;
            }
            return count.has_value();
        };
        if (flag == "--help" || flag == "-h") {
            usage(std::cout);
            return kExitOk;
        } else if (flag == "--quiet") {
            options.banner = false;
        } else if (flag == "--lanes") {
            if (!countValue(options.lanes, false)) {
                std::cerr << "isamore_serve: bad --lanes value\n";
                return kExitUsage;
            }
        } else if (flag == "--queue") {
            if (!countValue(options.queueCapacity, false)) {
                std::cerr << "isamore_serve: bad --queue value\n";
                return kExitUsage;
            }
        } else if (flag == "--purge-every") {
            if (!countValue(options.purgeEvery, true)) {
                std::cerr << "isamore_serve: bad --purge-every value\n";
                return kExitUsage;
            }
        } else if (flag == "--threads") {
            const char* value = nextValue();
            const std::optional<size_t> threads =
                value == nullptr ? std::nullopt : parseThreadCount(value);
            if (!threads) {
                std::cerr << "isamore_serve: bad --threads value\n";
                return kExitUsage;
            }
            // Pool sizing is process-wide and must happen before the
            // first parallelFor; the serve loop never resizes it.
            setGlobalThreads(*threads);
        } else if (flag == "--corpus") {
            const char* value = nextValue();
            if (value == nullptr || *value == '\0') {
                std::cerr << "isamore_serve: bad --corpus value\n";
                return kExitUsage;
            }
            options.corpusPath = value;
        } else if (flag == "--corpus-readonly") {
            options.corpusReadonly = true;
        } else if (flag == "--events") {
            options.observe.events = true;
        } else if (flag == "--flight-dir") {
            const char* value = nextValue();
            if (value == nullptr || *value == '\0') {
                std::cerr << "isamore_serve: bad --flight-dir value\n";
                return kExitUsage;
            }
            options.observe.flightDir = value;
        } else if (flag == "--flight-ring") {
            if (!countValue(options.observe.flightRing, false)) {
                std::cerr << "isamore_serve: bad --flight-ring value\n";
                return kExitUsage;
            }
        } else if (flag == "--slo-ms") {
            size_t sloMs = 0;
            if (!countValue(sloMs, false)) {
                std::cerr << "isamore_serve: bad --slo-ms value\n";
                return kExitUsage;
            }
            options.observe.sloMs = static_cast<double>(sloMs);
        } else if (flag == "--metrics-interval") {
            if (!countValue(options.metricsIntervalMs, false)) {
                std::cerr
                    << "isamore_serve: bad --metrics-interval value\n";
                return kExitUsage;
            }
        } else if (flag == "--metrics-out") {
            const char* value = nextValue();
            if (value == nullptr || *value == '\0') {
                std::cerr << "isamore_serve: bad --metrics-out value\n";
                return kExitUsage;
            }
            options.metricsPath = value;
        } else {
            std::cerr << "isamore_serve: unknown flag '" << flag
                      << "'\n";
            usage(std::cerr);
            return kExitUsage;
        }
    }

    if (options.corpusReadonly && options.corpusPath.empty()) {
        std::cerr << "isamore_serve: --corpus-readonly requires "
                     "--corpus <path>\n";
        return kExitUsage;
    }

    std::ios::sync_with_stdio(false);
    return server::serveLoop(std::cin, std::cout, std::cerr, options);
}
