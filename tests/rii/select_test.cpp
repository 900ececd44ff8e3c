#include "rii/select.hpp"

#include <gtest/gtest.h>

#include "isamore/isamore.hpp"
#include "rii/au.hpp"

namespace isamore {
namespace rii {
namespace {

/** Shared fixture: matmul analyzed, candidates costed, apps inserted. */
struct Fixture {
    AnalyzedWorkload analyzed;
    frontend::EncodedProgram work;
    PatternRegistry registry;
    std::unique_ptr<CostModel> cost;
    std::vector<PatternEval> candidates;

    Fixture()
        : analyzed(analyzeWorkload(workloads::makeMatMul())),
          work(analyzed.program)
    {
        cost = std::make_unique<CostModel>(analyzed.program,
                                           analyzed.profile, registry);
        auto au = identifyPatterns(work.egraph, AuOptions{});
        for (const TermPtr& p : au.patterns) {
            int64_t id = registry.add(p);
            PatternEval eval = cost->evaluate(id, work.egraph);
            if (eval.deltaNs > 0 && candidates.size() < 16) {
                candidates.push_back(std::move(eval));
            }
        }
        std::vector<int64_t> ids;
        for (const auto& c : candidates) {
            ids.push_back(c.id);
        }
        runEqSat(work.egraph, registry.applicationRules(ids));
    }
};

Fixture&
fixture()
{
    static Fixture f;
    return f;
}

TEST(SelectTest, ProducesSolutionsWithApps)
{
    Fixture& f = fixture();
    ASSERT_FALSE(f.candidates.empty());
    auto solutions = selectAndRefine(f.work.egraph, f.work.root,
                                     f.candidates, *f.cost,
                                     SelectOptions{});
    ASSERT_GE(solutions.size(), 2u);
    // The non-trivial ones carry patterns and programs.
    bool found = false;
    for (const Solution& s : solutions) {
        if (!s.patternIds.empty()) {
            found = true;
            EXPECT_GT(s.speedup, 1.0);
            EXPECT_GT(s.areaUm2, 0.0);
            ASSERT_NE(s.program, nullptr);
        }
    }
    EXPECT_TRUE(found);
}

TEST(SelectTest, ExtractedProgramContainsChosenApps)
{
    Fixture& f = fixture();
    auto solutions = selectAndRefine(f.work.egraph, f.work.root,
                                     f.candidates, *f.cost,
                                     SelectOptions{});
    for (const Solution& s : solutions) {
        if (s.patternIds.empty()) {
            continue;
        }
        // Walk the program and collect the App pattern ids used.
        std::set<int64_t> used;
        std::function<void(const TermPtr&)> walk =
            [&](const TermPtr& t) {
                if (t->op == Op::App &&
                    t->children[0]->op == Op::PatRef) {
                    used.insert(t->children[0]->payload.a);
                }
                for (const auto& c : t->children) {
                    walk(c);
                }
            };
        walk(s.program);
        for (int64_t id : s.patternIds) {
            EXPECT_TRUE(used.count(id)) << "solution lists ci" << id
                                        << " but the program lacks it";
        }
        // No unlisted Apps either.
        for (int64_t id : used) {
            EXPECT_NE(std::find(s.patternIds.begin(), s.patternIds.end(),
                                id),
                      s.patternIds.end());
        }
    }
}

TEST(SelectTest, ParetoFilterRemovesDominated)
{
    auto make = [](double sp, double area) {
        Solution s;
        s.speedup = sp;
        s.areaUm2 = area;
        return s;
    };
    auto filtered = paretoFilter(
        {make(1.0, 0), make(1.5, 100), make(1.4, 200),  // dominated
         make(2.0, 300), make(1.9, 400)});              // dominated
    ASSERT_EQ(filtered.size(), 3u);
    EXPECT_DOUBLE_EQ(filtered[0].speedup, 1.0);
    EXPECT_DOUBLE_EQ(filtered[1].speedup, 1.5);
    EXPECT_DOUBLE_EQ(filtered[2].speedup, 2.0);
}

TEST(SelectTest, BeamWidthBoundsFrontSize)
{
    Fixture& f = fixture();
    SelectOptions narrow;
    narrow.beamK = 2;
    auto solutions = selectAndRefine(f.work.egraph, f.work.root,
                                     f.candidates, *f.cost, narrow);
    EXPECT_LE(solutions.size(), 3u);  // beam + empty solution
}

TEST(SelectTest, AstSizeObjectiveSelectsDifferently)
{
    Fixture& f = fixture();
    SelectOptions hw;
    SelectOptions ast;
    ast.astSizeObjective = true;
    auto a = selectAndRefine(f.work.egraph, f.work.root, f.candidates,
                             *f.cost, hw);
    auto b = selectAndRefine(f.work.egraph, f.work.root, f.candidates,
                             *f.cost, ast);
    // Hardware-aware selection should be competitive with AstSize; the
    // per-class beam is an approximation, so allow slack here (the full
    // multi-phase comparison lives in rii_test.cpp).
    double bestA = 1.0;
    double bestB = 1.0;
    for (const auto& s : a) {
        bestA = std::max(bestA, s.speedup);
    }
    for (const auto& s : b) {
        bestB = std::max(bestB, s.speedup);
    }
    EXPECT_GE(bestA, bestB * 0.8);
}

}  // namespace
}  // namespace rii
}  // namespace isamore
