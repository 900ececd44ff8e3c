/**
 * @file
 * Full-pipeline byte-identity against golden reports.
 *
 * The golden files were generated before the term interner landed (at the
 * PR 3 tree) and pin the pipeline JSON -- pattern set, selection front,
 * statistics -- for the fig10 workloads.  Every case re-runs the pipeline
 * at 1, 2 and 4 threads and requires the report to match the golden
 * byte-for-byte (modulo the one wall-clock field), which is the combined
 * determinism contract of the work-stealing parallelization (PR 2), the
 * incremental matcher (PR 3), the hash-consed term layer (PR 4) and the
 * telemetry probes (PR 5, exercised by the Telemetry* variants below):
 * none of them may change what the pipeline computes.
 *
 * Regenerate (only when an intentional output change lands) with
 *   ISAMORE_REGEN_GOLDEN=1 ./tests/test_integration \
 *       --gtest_filter='GoldenIdentityTest.*'
 */
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "isamore/isamore.hpp"
#include "isamore/report.hpp"
#include "server/session.hpp"
#include "support/budget.hpp"
#include "support/pool.hpp"
#include "support/telemetry.hpp"
#include "workloads/libraries.hpp"

namespace isamore {
namespace {

/** Drop the wall-clock line; everything else must be deterministic. */
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

std::string
goldenPath(const std::string& name)
{
    return std::string(ISAMORE_GOLDEN_DIR) + "/" + name + ".json";
}

/**
 * Run @p name at 1/2/4 threads and pin the report to the golden bytes.
 * The telemetry variant does the same with the probes enabled -- spans
 * and metrics must be a pure side channel, so the report bytes have to
 * match the same golden the telemetry-off runs pin.
 */
void
runCase(const std::string& name, workloads::Workload (*factory)(),
        bool withTelemetry = false, rii::Mode mode = rii::Mode::Default)
{
    const size_t restore = globalThreadCount();
    const AnalyzedWorkload analyzed = analyzeWorkload(factory());

    std::string first;
    for (size_t threads : {1, 2, 4}) {
        setGlobalThreads(threads);
        telemetry::setEnabled(withTelemetry);
        rii::RiiResult result =
            identifyInstructions(analyzed, mode);
        telemetry::setEnabled(false);
        const std::string json =
            stripWallClock(resultToJson(analyzed, result));
        if (first.empty()) {
            first = json;
        } else {
            EXPECT_EQ(first, json)
                << name << ": report differs at " << threads << " threads";
        }
    }
    setGlobalThreads(restore);
    if (withTelemetry && telemetry::kCompiled) {
        // The probes must have fired; then drop their buffers so later
        // cases (and a later export in this process) start clean.
        EXPECT_GT(telemetry::Tracer::instance().eventCount(), 0u);
        telemetry::Tracer::instance().clear();
        telemetry::Registry::instance().reset();
    }

    if (std::getenv("ISAMORE_REGEN_GOLDEN") != nullptr) {
        if (withTelemetry) {
            return;  // goldens are written by the telemetry-off cases
        }
        std::ofstream out(goldenPath(name));
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath(name);
        out << first;
        return;
    }
    std::ifstream in(goldenPath(name));
    ASSERT_TRUE(in.good())
        << "missing golden " << goldenPath(name)
        << " (regenerate with ISAMORE_REGEN_GOLDEN=1)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), first)
        << name << ": pipeline JSON diverged from the golden report";
}

TEST(GoldenIdentityTest, Matmul) { runCase("matmul", workloads::makeMatMul); }
TEST(GoldenIdentityTest, Conv2D) { runCase("2dconv", workloads::makeConv2D); }
TEST(GoldenIdentityTest, Fft) { runCase("fft", workloads::makeFft); }
TEST(GoldenIdentityTest, Stencil)
{
    runCase("stencil", workloads::makeStencil);
}
TEST(GoldenIdentityTest, QProd) { runCase("qprod", workloads::makeQProd); }
TEST(GoldenIdentityTest, Sha) { runCase("sha", workloads::makeSha); }

// Non-default modes take AU paths the Default goldens never reach: the
// kd-tree sampler (KDSample), the depth-14 sweep (Vector) and the AST-size
// selection objective (AstSize).  Golden files are named <workload>.<mode>.
void
runModeCase(const std::string& name, workloads::Workload (*factory)(),
            rii::Mode mode)
{
    runCase(name + "." + rii::modeName(mode), factory,
            /*withTelemetry=*/false, mode);
}

TEST(GoldenIdentityTest, MatmulKDSample)
{
    runModeCase("matmul", workloads::makeMatMul, rii::Mode::KDSample);
}
TEST(GoldenIdentityTest, MatmulVector)
{
    runModeCase("matmul", workloads::makeMatMul, rii::Mode::Vector);
}
TEST(GoldenIdentityTest, MatmulAstSize)
{
    runModeCase("matmul", workloads::makeMatMul, rii::Mode::AstSize);
}
// NoEqSat skips saturation entirely; LLMT is the only mode that runs
// Exhaustive sampling, the unfiltered pair sweep and the 16-iteration
// EqSat in one phase.
TEST(GoldenIdentityTest, MatmulNoEqSat)
{
    runModeCase("matmul", workloads::makeMatMul, rii::Mode::NoEqSat);
}
TEST(GoldenIdentityTest, MatmulLLMT)
{
    runModeCase("matmul", workloads::makeMatMul, rii::Mode::LLMT);
}
TEST(GoldenIdentityTest, ShaKDSample)
{
    runModeCase("sha", workloads::makeSha, rii::Mode::KDSample);
}
TEST(GoldenIdentityTest, ShaVector)
{
    runModeCase("sha", workloads::makeSha, rii::Mode::Vector);
}
TEST(GoldenIdentityTest, ShaAstSize)
{
    runModeCase("sha", workloads::makeSha, rii::Mode::AstSize);
}

// Telemetry-enabled variants: same goldens, probes on.  Two workloads
// cover both pipeline shapes (matmul saturates, fft iterates) without
// doubling the suite's runtime.
TEST(GoldenIdentityTest, TelemetryMatmul)
{
    runCase("matmul", workloads::makeMatMul, /*withTelemetry=*/true);
}
TEST(GoldenIdentityTest, TelemetryFft)
{
    runCase("fft", workloads::makeFft, /*withTelemetry=*/true);
}

/**
 * Server-mode identity: the `result` field of an isamore_serve analyze
 * response must carry the byte-exact document the single-shot CLI pins
 * in the goldens, at every thread count.  The first request analyzes
 * fresh; the repeat exercises the cached-AnalyzedWorkload path, and the
 * response cache is cleared between thread counts so the pipeline
 * actually re-runs.
 */
void
runServerCase(const std::string& name)
{
    const size_t restore = globalThreadCount();
    std::ifstream in(goldenPath(name));
    ASSERT_TRUE(in.good()) << "missing golden " << goldenPath(name);
    std::ostringstream golden;
    golden << in.rdbuf();

    server::SharedState state;
    server::Request request;
    request.op = server::RequestOp::Analyze;
    request.workload = name;
    request.valid = true;
    request.idJson = "1";

    for (size_t threads : {1, 2, 4}) {
        setGlobalThreads(threads);
        state.clearResponseCache();
        for (int repeat = 0; repeat < 2; ++repeat) {
            Budget root;
            const server::Response response =
                state.executeRequest(request, root);
            ASSERT_EQ(response.status, server::Status::Ok)
                << name << " at " << threads << " threads: "
                << response.error;
            EXPECT_EQ(response.cached, repeat == 1);
            EXPECT_EQ(golden.str(), stripWallClock(response.result))
                << name << ": server response diverged from the golden "
                << "at " << threads << " threads (repeat " << repeat
                << ")";
        }
    }
    setGlobalThreads(restore);
}

TEST(GoldenIdentityTest, ServerMatmul) { runServerCase("matmul"); }
TEST(GoldenIdentityTest, ServerStencil) { runServerCase("stencil"); }
TEST(GoldenIdentityTest, ServerQProd) { runServerCase("qprod"); }

}  // namespace
}  // namespace isamore
