#include <gtest/gtest.h>

#include "backend/rocc.hpp"
#include "backend/verilog.hpp"
#include "isamore/isamore.hpp"

namespace isamore {
namespace backend {
namespace {

TEST(VerilogTest, EmitsModuleWithPorts)
{
    std::string v = emitVerilogModule(3, parseTerm("(* (+ ?0 ?1) 2)"));
    EXPECT_NE(v.find("module ci3"), std::string::npos);
    EXPECT_NE(v.find("input  [31:0] op0"), std::string::npos);
    EXPECT_NE(v.find("input  [31:0] op1"), std::string::npos);
    EXPECT_NE(v.find("assign result"), std::string::npos);
    EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(VerilogTest, MemoryOpsBecomePorts)
{
    std::string v = emitVerilogModule(
        0, parseTerm("(+ (load i32 ?0 ?1) (load i32 ?0 ?2))"));
    EXPECT_NE(v.find("mem_req_addr0"), std::string::npos);
    EXPECT_NE(v.find("mem_req_addr1"), std::string::npos);
    EXPECT_NE(v.find("mem_resp_data0"), std::string::npos);
}

TEST(VerilogTest, LatencyCommentFromHls)
{
    std::string v = emitVerilogModule(1, parseTerm("(/ ?0 ?1)"));
    EXPECT_NE(v.find("latency:"), std::string::npos);
    EXPECT_NE(v.find("um^2"), std::string::npos);
}

TEST(VerilogTest, SharedSubtermEmitsOneWire)
{
    TermPtr prod = parseTerm("(* ?0 ?1)");
    TermPtr body = makeTerm(Op::Add, {prod, prod});
    std::string v = emitVerilogModule(2, body);
    // One multiply only.
    size_t first = v.find(" * ");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(v.find(" * ", first + 1), std::string::npos);
}

TEST(VerilogTest, SubPatternInstantiatesModule)
{
    TermPtr sub = parseTerm("(* (+ ?0 ?1) 2)");
    hls::PatternResolver resolver = [&](int64_t id) -> TermPtr {
        return id == 7 ? sub : nullptr;
    };
    std::string v = emitVerilogModule(
        9, parseTerm("(+ (app (pat 7) ?0 ?1) ?2)"), resolver);
    EXPECT_NE(v.find("ci7 "), std::string::npos);
}

TEST(RoccTest, ModelsTransferBandwidth)
{
    // Vector mode, as in the paper's BitLinear study: the scalar decode
    // chains alone do not pay for the RoCC transfer; the vectorized
    // packed-dot-product patterns do.
    auto analyzed = analyzeWorkload(workloads::makeBitLinear());
    auto result = identifyInstructions(analyzed, rii::Mode::Vector);
    ASSERT_FALSE(result.best().patternIds.empty());

    rii::CostModel cost(result.baseProgram, analyzed.profile,
                        result.registry);
    auto [sol, report] =
        modelBestOnFront(cost, result.front, result.registry,
                         result.evaluations);
    ASSERT_NE(sol, nullptr);
    EXPECT_GE(report.transferCyclesPerUse, 2.0);
    EXPECT_GT(report.speedup, 1.0);
    EXPECT_GT(report.areaOverhead, 0.0);
    EXPECT_LT(report.areaOverhead, 0.6);
    EXPECT_GT(report.frequencyMHz, 100.0);
}

TEST(RoccTest, TransferCostReducesSpeedupVsIdealModel)
{
    auto analyzed = analyzeWorkload(workloads::makeBitLinear());
    auto result = identifyInstructions(analyzed, rii::Mode::Default);
    rii::CostModel cost(result.baseProgram, analyzed.profile,
                        result.registry);
    auto [sol, report] =
        modelBestOnFront(cost, result.front, result.registry,
                         result.evaluations);
    // The RoCC-modeled speedup is at most the idealized selection one.
    EXPECT_LE(report.speedup, result.best().speedup + 1e-9);
    (void)sol;
}

}  // namespace
}  // namespace backend
}  // namespace isamore
