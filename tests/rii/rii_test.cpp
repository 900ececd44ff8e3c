#include "rii/rii.hpp"

#include <gtest/gtest.h>

#include "isamore/isamore.hpp"

namespace isamore {
namespace rii {
namespace {

const AnalyzedWorkload&
matmulAnalyzed()
{
    static const AnalyzedWorkload analyzed =
        analyzeWorkload(workloads::makeMatMul());
    return analyzed;
}

const rules::RulesetLibrary&
library()
{
    static const rules::RulesetLibrary lib = rules::defaultLibrary();
    return lib;
}

TEST(RiiTest, ParseModeInvertsModeName)
{
    for (const Mode mode : kAllModes) {
        EXPECT_EQ(parseMode(modeName(mode)), mode) << modeName(mode);
    }
    // The command line and the request protocol spell modes in lower
    // case.
    EXPECT_EQ(parseMode("kdsample"), Mode::KDSample);
    EXPECT_EQ(parseMode("llmt"), Mode::LLMT);
    EXPECT_EQ(parseMode("warp9"), std::nullopt);
    EXPECT_EQ(parseMode(""), std::nullopt);
    EXPECT_EQ(parseMode("defaults"), std::nullopt);
}

TEST(RiiTest, DefaultModeFindsSpeedup)
{
    auto result = runRii(matmulAnalyzed().program, matmulAnalyzed().profile,
                         library(), RiiConfig::forMode(Mode::Default));
    EXPECT_GE(result.front.size(), 2u);  // empty solution + something
    EXPECT_GT(result.best().speedup, 1.2);
    EXPECT_GT(result.best().areaUm2, 0.0);
    EXPECT_FALSE(result.best().patternIds.empty());
}

TEST(RiiTest, FrontIsPareto)
{
    auto result = runRii(matmulAnalyzed().program, matmulAnalyzed().profile,
                         library(), RiiConfig::forMode(Mode::Default));
    for (size_t i = 1; i < result.front.size(); ++i) {
        // Sorted by area ascending, speedup must strictly improve.
        EXPECT_GT(result.front[i].speedup, result.front[i - 1].speedup);
        EXPECT_GT(result.front[i].areaUm2, result.front[i - 1].areaUm2);
    }
}

TEST(RiiTest, SolutionsHaveReusableInstructions)
{
    auto result = runRii(matmulAnalyzed().program, matmulAnalyzed().profile,
                         library(), RiiConfig::forMode(Mode::Default));
    // Reusability: some instruction on the front accelerates at least
    // two distinct program spots (the identification invariant: AU
    // patterns occur at least twice in the e-graph).
    size_t max_reuse = 0;
    for (const Solution& sol : result.front) {
        for (size_t u : sol.useCounts) {
            max_reuse = std::max(max_reuse, u);
        }
    }
    EXPECT_GE(max_reuse, 2u);
}

TEST(RiiTest, NoEqSatWeaklyDominatedByDefault)
{
    auto def = runRii(matmulAnalyzed().program, matmulAnalyzed().profile,
                      library(), RiiConfig::forMode(Mode::Default));
    auto syn = runRii(matmulAnalyzed().program, matmulAnalyzed().profile,
                      library(), RiiConfig::forMode(Mode::NoEqSat));
    // Semantic consideration cannot hurt the best achievable speedup.
    EXPECT_GE(def.best().speedup, syn.best().speedup - 1e-9);
}

TEST(RiiTest, AstSizeModeUnderperformsDefault)
{
    auto def = runRii(matmulAnalyzed().program, matmulAnalyzed().profile,
                      library(), RiiConfig::forMode(Mode::Default));
    auto ast = runRii(matmulAnalyzed().program, matmulAnalyzed().profile,
                      library(), RiiConfig::forMode(Mode::AstSize));
    EXPECT_GE(def.best().speedup, ast.best().speedup - 1e-9);
}

TEST(RiiTest, StatsTrackPeaks)
{
    auto result = runRii(matmulAnalyzed().program, matmulAnalyzed().profile,
                         library(), RiiConfig::forMode(Mode::Default));
    EXPECT_GT(result.stats.origNodes, 0u);
    EXPECT_GE(result.stats.peakNodes, result.stats.origNodes);
    EXPECT_GT(result.stats.rawCandidates, 0u);
    EXPECT_GE(result.stats.phasesRun, 2u);
}

TEST(RiiTest, LlmtModeAbortsOnBudget)
{
    RiiConfig cfg = RiiConfig::forMode(Mode::LLMT);
    cfg.au.maxCandidates = 2000;  // tight budget: must blow
    auto result = runRii(matmulAnalyzed().program, matmulAnalyzed().profile,
                         library(), cfg);
    EXPECT_TRUE(result.stats.auAborted);
}

TEST(RiiTest, VectorModeRunsAndPacks)
{
    auto result = runRii(matmulAnalyzed().program, matmulAnalyzed().profile,
                         library(), RiiConfig::forMode(Mode::Vector));
    EXPECT_GT(result.stats.packsCreated, 0u);
    EXPECT_GE(result.best().speedup, 1.0);
}

TEST(RiiTest, DeterministicAcrossRuns)
{
    auto a = runRii(matmulAnalyzed().program, matmulAnalyzed().profile,
                    library(), RiiConfig::forMode(Mode::Default));
    auto b = runRii(matmulAnalyzed().program, matmulAnalyzed().profile,
                    library(), RiiConfig::forMode(Mode::Default));
    ASSERT_EQ(a.front.size(), b.front.size());
    for (size_t i = 0; i < a.front.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.front[i].speedup, b.front[i].speedup);
        EXPECT_DOUBLE_EQ(a.front[i].areaUm2, b.front[i].areaUm2);
    }
}

TEST(RiiTest, KdSampleModeRuns)
{
    auto result = runRii(matmulAnalyzed().program, matmulAnalyzed().profile,
                         library(), RiiConfig::forMode(Mode::KDSample));
    EXPECT_GE(result.best().speedup, 1.0);
}

}  // namespace
}  // namespace rii
}  // namespace isamore
