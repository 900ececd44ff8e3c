/**
 * @file
 * Command-line driver for the ISAMORE pipeline.
 *
 * Usage:
 *   isamore_cli list
 *   isamore_cli run <workload> [--mode default|astsize|kdsample|vector|
 *                                      noeqsat|llmt]
 *                   [--corpus <path>] [--corpus-readonly]
 *                   [--emit-verilog] [--rocc] [--dump-egraph] [--json]
 *                   [--extended-rules] [--inject <faults>] [--threads <n>]
 *
 * Workload names: the Table 2 kernels (matmul, matchain, 2dconv, fft,
 * stencil, qprod, qrdecomp, deriche, sha), "all", the case studies
 * (bitlinear, kyber), and the library modules as `list` prints them
 * (e.g. liquid-dsp/filter, CImg/cimg, PCL/search), in lower case, or by
 * bare module name (see src/workloads/registry.hpp).
 *
 * Exit codes (stable; scripts may rely on them):
 *   0  clean success
 *   2  usage error (malformed flags / arguments)
 *   3  invalid input (unknown workload or mode, bad --inject spec,
 *      any UserError)
 *   4  internal error (invariant violation, allocation failure,
 *      unexpected exception)
 *   5  degraded success: the run completed and printed partial results,
 *      but budgets tripped or faults dropped some work (see the printed
 *      RunDiagnostics summary)
 *
 * `--inject` (or the ISAMORE_FAULTS environment variable) arms the
 * deterministic fault registry, e.g. `--inject "au.pair=timeout@2"`;
 * see src/support/fault.hpp for the grammar and the site list.
 *
 * `--threads` (or the ISAMORE_THREADS environment variable) sizes the
 * work-stealing pool used by EqSat's match phase and the AU pair sweep;
 * results are identical for every thread count (see DESIGN.md).
 *
 * `--corpus <path>` loads a persistent result corpus before the run
 * (starting empty if the file does not exist yet) and saves it back
 * afterwards when the run stored a result: an unchanged request replays
 * its cached result, and a changed one runs the plain pipeline (see
 * src/corpus/warm.hpp).  Output is the same with or without a corpus.
 * `--corpus-readonly` consults the corpus without writing the file (and
 * makes a missing file an error).  A corrupt, truncated, stale-format,
 * or cross-build corpus file is refused entirely (exit 3); delete or
 * regenerate it.
 *
 * `--trace-out <path>` / `--metrics-out <path>` switch the telemetry
 * layer on for the run and export a Chrome trace-event JSON (load it in
 * Perfetto or chrome://tracing) / a hierarchical metrics JSON.  The
 * ISAMORE_TRACE environment variable does the same without touching the
 * command line: "1" just enables the probes, any other value is used as
 * the trace output path.  Telemetry never changes pipeline output (see
 * DESIGN.md "Observability").
 */
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>

#include "backend/rocc.hpp"
#include "backend/verilog.hpp"
#include "corpus/warm.hpp"
#include "egraph/dump.hpp"
#include "isamore/isamore.hpp"
#include "isamore/report.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/pool.hpp"
#include "support/telemetry.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace isamore;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitUser = 3;
constexpr int kExitInternal = 4;
constexpr int kExitDegraded = 5;

int
listWorkloads()
{
    // names() lists the kernels first; library modules carry a '/'.
    bool libraries = false;
    std::cout << "kernels & case studies:\n";
    for (const std::string& name : workloads::names()) {
        if (!libraries && name.find('/') != std::string::npos) {
            libraries = true;
            std::cout << "library modules:\n";
        }
        std::cout << "  " << name << "\n";
    }
    return kExitOk;
}

void
printUsage(std::ostream& os)
{
    os << "usage: isamore_cli list\n"
       << "       isamore_cli run <workload> [flags]\n"
       << "       isamore_cli --help\n"
       << "\n"
       << "run flags (every other flag is an error):\n"
       << "  --mode <m>         default | astsize | kdsample | vector | "
          "noeqsat | llmt\n"
       << "  --corpus <path>    load the persistent corpus (created if "
          "missing) and save it back;\n"
       << "                     it caches whole results; output is "
          "unchanged\n"
       << "  --corpus-readonly  never write the corpus file back "
          "(missing file becomes an error)\n"
       << "  --json             append the machine-readable result JSON "
          "(with runSummary)\n"
       << "  --emit-verilog     print Verilog for the best solution's "
          "instructions\n"
       << "  --rocc             model RoCC accelerator integration\n"
       << "  --dump-egraph      print the initial e-graph\n"
       << "  --extended-rules   use the extended ruleset library\n"
       << "  --inject <faults>  arm deterministic fault injection "
          "(see support/fault.hpp)\n"
       << "  --threads <n>      size the work-stealing pool (>= 1)\n"
       << "  --trace-out <path>   enable telemetry; write a Chrome "
          "trace-event JSON\n"
       << "  --metrics-out <path> enable telemetry; write the metrics "
          "registry JSON\n"
       << "\n"
       << "environment:\n"
       << "  ISAMORE_THREADS    default pool size (--threads wins)\n"
       << "  ISAMORE_FAULTS     fault spec (--inject wins)\n"
       << "  ISAMORE_TRACE      \"1\" enables telemetry; any other value "
          "is a trace output path\n"
       << "\n"
       << "exit codes: 0 ok, 2 usage, 3 invalid input, 4 internal "
          "error, 5 degraded success\n";
}

int
usage()
{
    printUsage(std::cerr);
    return kExitUsage;
}

int
help()
{
    printUsage(std::cout);
    return kExitOk;
}

/** The `run` subcommand; throws UserError/InternalError for main to map. */
int
runCommand(int argc, char** argv)
{
    const std::string name = argv[2];
    rii::Mode mode = rii::Mode::Default;
    bool emit_verilog = false;
    bool rocc = false;
    bool dump = false;
    bool json = false;
    bool extended = false;
    std::string corpus_path;
    bool corpus_readonly = false;
    std::string trace_out;
    std::string metrics_out;
    // A value-taking flag at the end of the command line is a usage
    // error, not a silently ignored flag.
    auto value_of = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            std::cerr << "error: " << argv[i] << " requires a value\n";
            return nullptr;
        }
        return argv[++i];
    };
    for (int i = 3; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            return help();
        } else if (flag == "--json") {
            json = true;
        } else if (flag == "--extended-rules") {
            extended = true;
        } else if (flag == "--mode") {
            const char* value = value_of(i);
            if (value == nullptr) {
                return kExitUsage;
            }
            auto parsed = rii::parseMode(value);
            if (!parsed.has_value()) {
                // An unknown enum value is a malformed command line, not
                // bad input data: report it with the accepted set and
                // exit 2, like any other usage error.
                std::cerr << "error: unknown --mode value: " << value
                          << " (accepted: default|astsize|kdsample|"
                             "vector|noeqsat|llmt)\n";
                return kExitUsage;
            }
            mode = *parsed;
        } else if (flag == "--corpus") {
            const char* value = value_of(i);
            if (value == nullptr) {
                return kExitUsage;
            }
            corpus_path = value;
        } else if (flag == "--corpus-readonly") {
            corpus_readonly = true;
        } else if (flag == "--inject") {
            const char* value = value_of(i);
            if (value == nullptr) {
                return kExitUsage;
            }
            fault::Registry::instance().configure(value);
        } else if (flag == "--threads") {
            const char* value = value_of(i);
            if (value == nullptr) {
                return kExitUsage;
            }
            const std::optional<size_t> threads = parseThreadCount(value);
            ISAMORE_USER_CHECK(threads.has_value(),
                               std::string("bad --threads value: ") +
                                   value);
            setGlobalThreads(*threads);
        } else if (flag == "--trace-out") {
            const char* value = value_of(i);
            if (value == nullptr) {
                return kExitUsage;
            }
            trace_out = value;
        } else if (flag == "--metrics-out") {
            const char* value = value_of(i);
            if (value == nullptr) {
                return kExitUsage;
            }
            metrics_out = value;
        } else if (flag == "--emit-verilog") {
            emit_verilog = true;
        } else if (flag == "--rocc") {
            rocc = true;
        } else if (flag == "--dump-egraph") {
            dump = true;
        } else {
            std::cerr << "error: unknown flag: " << flag << "\n";
            return usage();
        }
    }

    // ISAMORE_TRACE turns the probes on without command-line access;
    // any value other than "1" doubles as the trace output path.
    if (const char* env = std::getenv("ISAMORE_TRACE");
        env != nullptr && *env != '\0') {
        if (std::strcmp(env, "1") != 0 && trace_out.empty()) {
            trace_out = env;
        }
        telemetry::setEnabled(true);
    }
    if (!trace_out.empty() || !metrics_out.empty()) {
        telemetry::setEnabled(true);
    }
    if (corpus_path.empty() && corpus_readonly) {
        std::cerr << "error: --corpus-readonly requires --corpus <path>\n";
        return kExitUsage;
    }

    auto workload = workloads::find(name);
    ISAMORE_USER_CHECK(workload.has_value(),
                       "unknown workload: " + name +
                           " (try `isamore_cli list`)");

    // The corpus frame is keyed by the rules library in use, so the
    // library must be fixed before loading.
    const rules::RulesetLibrary library =
        extended ? rules::extendedLibrary() : rules::defaultLibrary();
    std::unique_ptr<corpus::Corpus> corpusStore;
    if (!corpus_path.empty()) {
        corpusStore = std::make_unique<corpus::Corpus>();
        if (std::filesystem::exists(corpus_path)) {
            corpusStore->load(corpus_path, library);
            std::cerr << "corpus: loaded " << corpus_path << " ("
                      << corpusStore->resultCount() << " results)\n";
        } else {
            ISAMORE_USER_CHECK(!corpus_readonly,
                               "--corpus-readonly with missing corpus "
                               "file: " +
                                   corpus_path);
            std::cerr << "corpus: " << corpus_path
                      << " does not exist yet; starting empty\n";
        }
    }

    bool degraded = false;
    std::cout << "workload: " << workload->name << " -- "
              << workload->description << "\n";
    AnalyzedWorkload analyzed = analyzeWorkload(std::move(*workload));
    std::cout << "IR instructions: " << analyzed.irInstructions
              << ", e-classes: " << analyzed.program.egraph.numClasses()
              << ", software time: " << analyzed.profile.totalNs()
              << " ns\n";
    if (dump) {
        std::cout << dumpText(analyzed.program.egraph);
    }

    const rii::RiiConfig config = rii::RiiConfig::forMode(mode);
    rii::RiiResult result =
        corpusStore != nullptr
            ? corpus::identifyInstructions(analyzed, library, config,
                                           *corpusStore)
            : identifyInstructions(analyzed, library, config);
    if (corpusStore != nullptr && !corpus_readonly &&
        corpusStore->dirty()) {
        corpusStore->save(corpus_path, library);
        std::cerr << "corpus: saved " << corpus_path << "\n";
    }
    std::cout << "\nmode " << rii::modeName(mode) << ":\n"
              << describeResult(result)
              << "\nphases=" << result.stats.phasesRun
              << " peakNodes=" << result.stats.peakNodes
              << " candidates=" << result.stats.rawCandidates
              << (result.stats.auAborted ? " (ABORTED: budget)" : "")
              << " time=" << result.stats.seconds << "s\n";
    degraded = degraded || result.diagnostics.degraded();

    if (rocc) {
        rii::CostModel cost(result.baseProgram, analyzed.profile,
                            result.registry);
        auto [sol, report] = backend::modelBestOnFront(
            cost, result.front, result.registry, result.evaluations);
        (void)sol;
        std::cout << "\nRoCC integration: speedup=" << report.speedup
                  << "x areaOverhead=" << report.areaOverhead * 100
                  << "% freq=" << report.frequencyMHz << "MHz\n";
    }
    if (json) {
        std::cout << "\n"
                  << resultToJson(analyzed, result,
                                  /*includeRunSummary=*/true);
    }
    if (emit_verilog) {
        // Per-module degradation: one faulty emission skips that module
        // and the rest still print.
        for (int64_t id : result.best().patternIds) {
            try {
                std::cout << "\n"
                          << backend::emitVerilogModule(
                                 id, result.registry.body(id),
                                 result.registry.resolver());
            } catch (const InternalError& e) {
                std::cerr << "warning: skipping Verilog for ci" << id
                          << ": " << e.what() << "\n";
                degraded = true;
            }
        }
    }

    // Telemetry exports happen last, at a quiescent point (no pool job
    // in flight), so the trace carries every span of the run.
    if (!metrics_out.empty() || !trace_out.empty()) {
        recordProcessMetrics();
    }
    if (!metrics_out.empty()) {
        ISAMORE_USER_CHECK(telemetry::writeMetrics(metrics_out),
                           "cannot write metrics to " + metrics_out);
        std::cerr << "metrics written to " << metrics_out << "\n";
    }
    if (!trace_out.empty()) {
        ISAMORE_USER_CHECK(telemetry::writeChromeTrace(trace_out),
                           "cannot write trace to " + trace_out);
        std::cerr << "trace written to " << trace_out << "\n";
    }

    if (degraded) {
        std::cout << "\nrun degraded -- partial results above; "
                     "diagnostics:\n"
                  << result.diagnostics.summary();
        return kExitDegraded;
    }
    return kExitOk;
}

}  // namespace

int
main(int argc, char** argv)
{
    try {
        if (argc < 2) {
            return usage();
        }
        const std::string command = argv[1];
        if (command == "--help" || command == "-h" || command == "help") {
            return help();
        }
        if (command == "list") {
            return listWorkloads();
        }
        if (command != "run" || argc < 3) {
            return usage();
        }
        return runCommand(argc, argv);
    } catch (const UserError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return kExitUser;
    } catch (const InternalError& e) {
        std::cerr << "internal error: " << e.what() << "\n";
        return kExitInternal;
    } catch (const std::bad_alloc&) {
        std::cerr << "internal error: out of memory\n";
        return kExitInternal;
    } catch (const std::exception& e) {
        std::cerr << "internal error: " << e.what() << "\n";
        return kExitInternal;
    }
}
