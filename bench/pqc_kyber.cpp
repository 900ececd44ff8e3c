/**
 * @file
 * Reproduces **§7.2.3**: the CRYSTALS-Kyber post-quantum cryptography
 * case study.  ISAMORE analyzes the NTT and identifies the *butterfly*
 * (modular multiply + add/sub with Barrett reduction) as a reusable
 * custom instruction shared by all stages; the RoCC model reports the
 * integration figures (paper: 5.15x speedup, 17.67% area overhead from
 * the hardware multipliers, 2.58% frequency decrease).
 */
#include "../bench/common.hpp"

#include "backend/rocc.hpp"
#include "backend/verilog.hpp"

using namespace isamore;

int
main()
{
    std::cout << "=== Case study: CRYSTALS-Kyber NTT (sec 7.2.3) ===\n\n";

    AnalyzedWorkload analyzed = analyzeWorkload(workloads::makeKyberNtt());
    std::cout << "Kyber NTT kernel: " << analyzed.irInstructions
              << " IR instructions, "
              << analyzed.program.egraph.numClasses()
              << " e-classes, software "
              << TextTable::num(analyzed.profile.totalNs(), 0) << " ns\n";

    auto result = identifyInstructions(analyzed, rii::Mode::Default);
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
    bool butterfly_like = false;
    for (size_t i = 0; i < best.patternIds.size(); ++i) {
        const TermPtr& body = result.registry.body(best.patternIds[i]);
        std::string text = termToString(body);
        std::cout << "  ci" << best.patternIds[i]
                  << " (uses=" << best.useCounts[i] << "): " << text
                  << "\n";
        // The butterfly's signature: a multiply feeding the Barrett
        // reduction chain (mul, shift, mul, sub).
        if (text.find("20159") != std::string::npos ||
            (text.find("3329") != std::string::npos &&
             text.find("*") != std::string::npos)) {
            butterfly_like = true;
        }
    }
    std::cout << "\nButterfly-reduction pattern identified: "
              << (butterfly_like ? "yes" : "no")
              << " (reused across forward-NTT stages)\n";

    TextTable table({"Metric", "Paper", "This repro"});
    table.addRow({"NTT speedup over Rocket", "5.15x",
                  TextTable::num(rocc.speedup) + "x"});
    table.addRow({"Area overhead (multipliers)", "17.67%",
                  TextTable::num(rocc.areaOverhead * 100, 2) + "%"});
    table.addRow(
        {"Frequency decrease", "2.58%",
         TextTable::num((1.0 - rocc.frequencyMHz / 161.29) * 100, 2) +
             "%"});
    std::cout << "\n";
    table.print(std::cout);

    if (!best.patternIds.empty()) {
        std::cout << "\nGenerated RoCC unit RTL (first instruction):\n"
                  << backend::emitVerilogModule(
                         best.patternIds[0],
                         result.registry.body(best.patternIds[0]),
                         result.registry.resolver());
    }
    return 0;
}
