#include "rii/vectorize.hpp"

#include <gtest/gtest.h>

#include "dsl/type_infer.hpp"
#include "egraph/extract.hpp"
#include "ir/builder.hpp"
#include "isamore/isamore.hpp"
#include "rules/rulesets.hpp"

namespace isamore {
namespace rii {
namespace {

/** Count VecOp nodes in the encoded program. */
size_t
countVecOps(const frontend::EncodedProgram& prog)
{
    size_t count = 0;
    for (EClassId id : prog.egraph.classIds()) {
        for (const ENode& n : prog.egraph.cls(id).nodes) {
            if (n.op == Op::VecOp) {
                ++count;
            }
        }
    }
    return count;
}

TEST(VectorizeTest, PacksUnrolledMatMul)
{
    auto analyzed = analyzeWorkload(workloads::makeMatMul());
    auto lifts = rules::defaultLibrary().vector();
    auto result = vectorizeProgram(analyzed.program, lifts);
    EXPECT_GT(result.packsCreated, 0u);
    EXPECT_GT(result.vecOpsInResult, 0u);
    EXPECT_GT(countVecOps(result.program), 0u);
}

TEST(VectorizeTest, ResultIsAcyclicAndExtractable)
{
    auto analyzed = analyzeWorkload(workloads::makeMatMul());
    auto lifts = rules::defaultLibrary().vector();
    auto result = vectorizeProgram(analyzed.program, lifts);
    // The compressed program must still extract (acyclic pruning).
    Extractor ex(result.program.egraph, astSizeCost);
    EXPECT_TRUE(ex.costOf(result.program.root).has_value());
}

TEST(VectorizeTest, SitesSurviveCompression)
{
    auto analyzed = analyzeWorkload(workloads::makeMatMul());
    auto lifts = rules::defaultLibrary().vector();
    auto result = vectorizeProgram(analyzed.program, lifts);
    EXPECT_FALSE(result.program.sites.empty());
    // VecOp classes inherited lane sites.
    auto grouped = result.program.sitesByClass();
    bool vecop_has_sites = false;
    for (EClassId id : result.program.egraph.classIds()) {
        for (const ENode& n : result.program.egraph.cls(id).nodes) {
            if (n.op == Op::VecOp && grouped.count(id) != 0) {
                vecop_has_sites = true;
            }
        }
    }
    EXPECT_TRUE(vecop_has_sites);
}

TEST(VectorizeTest, HybridProgramStillWellTyped)
{
    auto analyzed = analyzeWorkload(workloads::makeMatMul());
    auto lifts = rules::defaultLibrary().vector();
    auto result = vectorizeProgram(analyzed.program, lifts);
    Extractor ex(result.program.egraph, astSizeCost);
    TermPtr program = ex.extract(result.program.root).term;
    EXPECT_FALSE(inferTermType(program).isBottom())
        << termToString(program).substr(0, 400);
}

TEST(VectorizeTest, ScalarOnlyProgramPassesThrough)
{
    // A program with no recurring patterns in one block gains no packs
    // but must survive the pipeline unchanged in semantics.
    workloads::Workload wl;
    wl.name = "tiny";
    wl.unrollFactor = 1;
    ir::FunctionBuilder fb("tiny", {Type::i32()});
    ir::ValueId v = fb.compute(Op::Add, {fb.param(0), fb.constI(1)});
    fb.ret(v);
    wl.module.functions.push_back(fb.finish());
    wl.driver = [](profile::Machine& m) {
        m.run("tiny", {Value::ofInt(1)});
    };
    auto analyzed = analyzeWorkload(std::move(wl));
    auto lifts = rules::defaultLibrary().vector();
    auto result = vectorizeProgram(analyzed.program, lifts);
    EXPECT_EQ(result.packsCreated, 0u);
    Extractor ex(result.program.egraph, astSizeCost);
    EXPECT_TRUE(ex.costOf(result.program.root).has_value());
}

}  // namespace
}  // namespace rii
}  // namespace isamore
