/**
 * @file
 * Reproduces **Figure 13 / §7.2.2**: the BitNet b1.58 BitLinear case
 * study.  ISAMORE analyzes a MAD-based packed low-bit dot product,
 * identifies a (vectorizable) decode-multiply-accumulate pattern, and the
 * RoCC model reports the Rocket-tile-level speedup, area overhead, and
 * frequency — with the 32-bit scalar-register bandwidth capping the
 * benefit, exactly the paper's bottleneck (paper: 2.15x speedup, 4.81%
 * area overhead, no frequency loss at 161.29 MHz).
 */
#include "../bench/common.hpp"

#include "backend/rocc.hpp"
#include "backend/verilog.hpp"

using namespace isamore;

int
main()
{
    std::cout << "=== Case study: BitNet b1.58 BitLinear (sec 7.2.2) ===\n\n";

    AnalyzedWorkload analyzed =
        analyzeWorkload(workloads::makeBitLinear());
    std::cout << "BitLinear kernel: " << analyzed.irInstructions
              << " IR instructions, "
              << analyzed.program.egraph.numClasses()
              << " e-classes, software "
              << TextTable::num(analyzed.profile.totalNs(), 0) << " ns\n";

    auto result = identifyInstructions(analyzed, rii::Mode::Vector);
    rii::CostModel cost(result.baseProgram, analyzed.profile,
                        result.registry);
    // Integration-aware pick: the designer chooses the front solution
    // that survives the RoCC transfer costs best.
    auto [bestSol, rocc] =
        backend::modelBestOnFront(cost, result.front, result.registry,
                         result.evaluations);
    const rii::Solution& best = *bestSol;
    std::cout << "\nIdentified custom instructions ("
              << best.patternIds.size() << "):\n";
    for (size_t i = 0; i < best.patternIds.size(); ++i) {
        std::cout << "  ci" << best.patternIds[i] << " (uses="
                  << best.useCounts[i] << "): "
                  << termToString(result.registry.body(best.patternIds[i]))
                  << "\n";
    }

    TextTable table({"Metric", "Paper", "This repro"});
    table.addRow({"BitLinear speedup over Rocket", "2.15x",
                  TextTable::num(rocc.speedup) + "x"});
    table.addRow({"Area overhead", "4.81%",
                  TextTable::num(rocc.areaOverhead * 100, 2) + "%"});
    table.addRow({"Tile frequency", "161.29 MHz",
                  TextTable::num(rocc.frequencyMHz, 2) + " MHz"});
    table.addRow({"Operand transfer / use", "32b regs (bandwidth wall)",
                  TextTable::num(rocc.transferCyclesPerUse, 1) +
                      " cycles"});
    std::cout << "\n";
    table.print(std::cout);

    // Emit the accelerator RTL for the first instruction.
    if (!best.patternIds.empty()) {
        std::cout << "\nGenerated RoCC unit RTL (first instruction):\n"
                  << backend::emitVerilogModule(
                         best.patternIds[0],
                         result.registry.body(best.patternIds[0]),
                         result.registry.resolver());
    }
    return 0;
}
