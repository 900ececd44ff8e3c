#include <gtest/gtest.h>

#include "egraph/rewrite.hpp"
#include "ir/builder.hpp"
#include "isamore/isamore.hpp"
#include "rii/cost.hpp"
#include "rii/registry.hpp"

namespace isamore {
namespace rii {
namespace {

TEST(RegistryTest, AddDeduplicatesModuloHoleNames)
{
    PatternRegistry reg;
    int64_t a = reg.add(parseTerm("(+ (* ?3 ?7) ?3)"));
    int64_t b = reg.add(parseTerm("(+ (* ?0 ?1) ?0)"));
    EXPECT_EQ(a, b);
    EXPECT_EQ(reg.size(), 1u);
    int64_t c = reg.add(parseTerm("(+ (* ?0 ?1) ?1)"));
    EXPECT_NE(a, c);
}

TEST(RegistryTest, ResolverFindsBodies)
{
    PatternRegistry reg;
    int64_t id = reg.add(parseTerm("(* (+ ?0 ?1) 2)"));
    auto resolver = reg.resolver();
    EXPECT_NE(resolver(id), nullptr);
    EXPECT_EQ(resolver(id + 100), nullptr);
}

TEST(RegistryTest, ApplicationRuleIntroducesApp)
{
    PatternRegistry reg;
    int64_t id = reg.add(parseTerm("(* (+ ?0 ?1) 2)"));
    RewriteRule kappa = reg.applicationRule(id);

    EGraph g;
    EClassId root = g.addTerm(parseTerm("(* (+ $0.0 $0.1) 2)"));
    runEqSat(g, {kappa});
    // The matched class now also contains an App node.
    bool has_app = false;
    for (const ENode& n : g.cls(g.find(root)).nodes) {
        if (n.op == Op::App) {
            has_app = true;
        }
    }
    EXPECT_TRUE(has_app);
}

TEST(CostModelTest, UsesAndDeltaFromProfile)
{
    // Build a hot function that runs (x*3+1) many times.
    ir::FunctionBuilder fb("hot", {Type::i32()});
    {
        using namespace workloads;
        ir::ValueId zero = fb.constI(0);
        ir::BlockId body = fb.newBlock();
        ir::BlockId exit = fb.newBlock();
        fb.br(body);
        fb.setInsertPoint(body);
        ir::ValueId i = fb.phi(Type::i32(), {{0, zero}});
        ir::ValueId acc = fb.phi(Type::i32(), {{0, zero}});
        // A six-op fusable chain: mul, add, shl, xor, and, add.
        ir::ValueId t = fb.compute(Op::Mul, {acc, fb.constI(3)});
        ir::ValueId u = fb.compute(Op::Add, {t, fb.constI(1)});
        ir::ValueId s = fb.compute(Op::Shl, {acc, fb.constI(2)});
        ir::ValueId x = fb.compute(Op::Xor, {u, s});
        ir::ValueId w = fb.compute(Op::And, {x, fb.constI(0xffff)});
        ir::ValueId v = fb.compute(Op::Add, {w, i});
        ir::ValueId next = fb.compute(Op::Add, {i, fb.constI(1)});
        fb.addPhiIncoming(acc, body, v);
        fb.addPhiIncoming(i, body, next);
        ir::ValueId c = fb.compute(Op::Lt, {next, fb.param(0)});
        fb.condBr(c, body, exit);
        fb.setInsertPoint(exit);
        fb.ret(v);
    }
    workloads::Workload wl;
    wl.name = "hot";
    wl.unrollFactor = 1;
    wl.module.functions.push_back(fb.finish());
    wl.driver = [](profile::Machine& m) {
        m.run("hot", {Value::ofInt(500)});
    };
    auto analyzed = analyzeWorkload(std::move(wl));

    PatternRegistry reg;
    CostModel cost(analyzed.program, analyzed.profile, reg);
    EXPECT_GT(cost.totalNs(), 0.0);

    int64_t id = reg.add(parseTerm(
        "(+ (& (^ (+ (* ?0 3) 1) (<< ?0 2)) 65535) ?1)"));
    PatternEval eval = cost.evaluate(id, analyzed.program.egraph);
    EXPECT_EQ(eval.opCount, 6u);
    ASSERT_GE(eval.uses.size(), 1u);
    // The pattern fuses a Rem chain: big software cost, so it must save.
    EXPECT_GT(eval.deltaNs, 0.0);
    // All uses in the loop body, which executed ~500 times.
    for (const UseSite& u : eval.uses) {
        EXPECT_GT(u.execCount, 100u);
    }
}

TEST(CostModelTest, ColdPatternSavesNothing)
{
    workloads::Workload wl = workloads::makeMatMul();
    auto analyzed = analyzeWorkload(std::move(wl));
    PatternRegistry reg;
    CostModel cost(analyzed.program, analyzed.profile, reg);
    // A pattern that matches nothing in the program.
    int64_t id = reg.add(parseTerm("(fsqrt (f/ ?0 ?1))"));
    PatternEval eval = cost.evaluate(id, analyzed.program.egraph);
    EXPECT_EQ(eval.uses.size(), 0u);
    EXPECT_EQ(eval.deltaNs, 0.0);
}

TEST(CostModelTest, SpeedupFormula)
{
    workloads::Workload wl = workloads::makeMatMul();
    auto analyzed = analyzeWorkload(std::move(wl));
    PatternRegistry reg;
    CostModel cost(analyzed.program, analyzed.profile, reg);
    double total = cost.totalNs();
    EXPECT_DOUBLE_EQ(cost.speedup(0.0), 1.0);
    EXPECT_NEAR(cost.speedup(total / 2), 2.0, 1e-9);
}

}  // namespace
}  // namespace rii
}  // namespace isamore
