#include "baselines/novia.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "hls/estimator.hpp"
#include "profile/timing.hpp"

namespace isamore {
namespace baselines {
namespace {

using ir::BlockId;
using ir::Instr;

/** Hot blocks considered for merging. */
constexpr size_t kMaxHotBlocks = 12;
/** LCS ratio for a block to join a cluster. */
constexpr double kSimilarityThreshold = 0.5;
/** Merged units built at most. */
constexpr size_t kMaxUnits = 8;
/** Blocks with fewer compute ops are ignored as trivial. */
constexpr size_t kMinBlockOps = 4;

/** Opcode sequence of a block's compute instructions. */
std::vector<Op>
opcodeSequence(const ir::Block& block)
{
    std::vector<Op> seq;
    for (const Instr& ins : block.instrs) {
        if (ins.kind == Instr::Kind::Compute) {
            seq.push_back(ins.op);
        }
    }
    return seq;
}

/** Longest common subsequence length. */
size_t
lcs(const std::vector<Op>& a, const std::vector<Op>& b)
{
    std::vector<std::vector<size_t>> dp(a.size() + 1,
                                        std::vector<size_t>(b.size() + 1));
    for (size_t i = 1; i <= a.size(); ++i) {
        for (size_t j = 1; j <= b.size(); ++j) {
            dp[i][j] = a[i - 1] == b[j - 1]
                           ? dp[i - 1][j - 1] + 1
                           : std::max(dp[i - 1][j], dp[i][j - 1]);
        }
    }
    return dp[a.size()][b.size()];
}

/**
 * Offload latency (cycles at the accelerator clock) and op-area of one
 * block's DFG.
 *
 * A whole-block inline accelerator is not a free dataflow machine:
 *  - loads/stores serialize through two memory ports;
 *  - live-in operands stream in two per cycle over the register
 *    interface, live-outs one per cycle back;
 * both of which the paper's NOVIA comparison suffers from ("instruction
 * sequences that run faster on the processor of a higher clock
 * frequency").
 */
std::pair<double, double>
blockHardware(const ir::Function& fn, ir::BlockId b)
{
    const ir::Block& block = fn.blocks[b];
    std::unordered_map<ir::ValueId, double> arrival;
    std::unordered_set<ir::ValueId> defined;
    std::unordered_set<ir::ValueId> liveIn;
    std::unordered_set<ir::ValueId> liveOut;
    double critical = 0;
    double area = 0;
    size_t memOps = 0;
    for (const Instr& ins : block.instrs) {
        if (ins.kind != Instr::Kind::Compute) {
            continue;
        }
        double start = 0;
        for (ir::ValueId v : ins.args) {
            auto it = arrival.find(v);
            if (it != arrival.end()) {
                start = std::max(start, it->second);
            } else if (defined.count(v) == 0) {
                liveIn.insert(v);
            }
        }
        double finish = start + hls::opDelayPs(ins.op);
        if (ins.dest != ir::kNoValue) {
            arrival[ins.dest] = finish;
            defined.insert(ins.dest);
        }
        if (ins.op == Op::Load || ins.op == Op::Store) {
            ++memOps;
        }
        critical = std::max(critical, finish);
        area += hls::opAreaUm2(ins.op);
    }
    // Values defined here and used in other blocks are live-outs.
    for (ir::BlockId other = 0; other < fn.blocks.size(); ++other) {
        if (other == b) {
            continue;
        }
        for (const Instr& ins : fn.blocks[other].instrs) {
            for (ir::ValueId v : ins.args) {
                if (defined.count(v)) {
                    liveOut.insert(v);
                }
            }
        }
    }
    const double dataflow = std::ceil(critical / 1000.0);
    const double memory = std::ceil(static_cast<double>(memOps) / 2.0) *
                          1.5;  // two ports, 1.5 cycles apiece
    const double transfer =
        std::ceil(static_cast<double>(liveIn.size()) / 2.0) +
        static_cast<double>(liveOut.size()) + 2.0;
    const double cycles =
        std::max({1.0, dataflow, memory}) + transfer;
    return {cycles, area};
}

}  // namespace

double
NoviaResult::averageReuse() const
{
    if (units.empty()) {
        return 0;
    }
    double total = 0;
    for (const NoviaUnit& u : units) {
        total += static_cast<double>(u.members.size());
    }
    return total / static_cast<double>(units.size());
}

double
NoviaResult::averageSize() const
{
    if (units.empty()) {
        return 0;
    }
    double total = 0;
    for (const NoviaUnit& u : units) {
        total += static_cast<double>(u.mergedOps);
    }
    return total / static_cast<double>(units.size());
}

NoviaResult
runNovia(const ir::Module& module, const profile::ModuleProfile& profile)
{
    struct Hot {
        int func;
        BlockId block;
        uint64_t cycles;
        uint64_t execCount;
        std::vector<Op> seq;
        double hwCycles;
        double hwArea;
    };
    std::vector<Hot> hot;
    for (size_t f = 0; f < module.functions.size(); ++f) {
        for (BlockId b = 0; b < module.functions[f].blocks.size(); ++b) {
            const auto& stats = profile.functions[f].blocks[b];
            auto seq = opcodeSequence(module.functions[f].blocks[b]);
            if (stats.execCount == 0 || seq.size() < kMinBlockOps) {
                continue;
            }
            auto [cycles, area] =
                blockHardware(module.functions[f], b);
            hot.push_back(Hot{static_cast<int>(f), b, stats.cycles,
                              stats.execCount, std::move(seq), cycles,
                              area});
        }
    }
    std::sort(hot.begin(), hot.end(), [](const Hot& a, const Hot& b) {
        return a.cycles > b.cycles;
    });
    if (hot.size() > kMaxHotBlocks) {
        hot.resize(kMaxHotBlocks);
    }

    // Greedy clustering by LCS similarity against the cluster seed.
    std::vector<std::vector<size_t>> clusters;
    std::vector<bool> used(hot.size(), false);
    for (size_t i = 0; i < hot.size(); ++i) {
        if (used[i]) {
            continue;
        }
        used[i] = true;
        std::vector<size_t> cluster{i};
        for (size_t j = i + 1; j < hot.size(); ++j) {
            if (used[j]) {
                continue;
            }
            const size_t common = lcs(hot[i].seq, hot[j].seq);
            const double ratio =
                static_cast<double>(common) /
                static_cast<double>(
                    std::max(hot[i].seq.size(), hot[j].seq.size()));
            if (ratio >= kSimilarityThreshold) {
                used[j] = true;
                cluster.push_back(j);
            }
        }
        clusters.push_back(std::move(cluster));
        if (clusters.size() >= kMaxUnits) {
            break;
        }
    }

    NoviaResult result;
    const double totalNs = profile.totalNs();
    const double kMuxArea = 18.0;
    const double kMuxDelayNs = 0.12;

    for (const auto& cluster : clusters) {
        NoviaUnit unit;
        // Merged datapath: the seed's ops form the backbone; every other
        // member adds its non-common ops plus one mux per divergence.
        const Hot& seed = hot[cluster[0]];
        size_t merged_ops = seed.seq.size();
        size_t muxes = 0;
        double area = seed.hwArea;
        double latencyCycles = seed.hwCycles;
        for (size_t k = 1; k < cluster.size(); ++k) {
            const Hot& member = hot[cluster[k]];
            const size_t common = lcs(seed.seq, member.seq);
            const size_t divergent = member.seq.size() - common;
            merged_ops += divergent;
            muxes += divergent + 1;
            // Divergent ops pay their own area.
            double divArea = 0;
            for (size_t d = 0; d < divergent && d < member.seq.size();
                 ++d) {
                divArea += hls::opAreaUm2(member.seq[d]);
            }
            area += divArea + static_cast<double>(divergent + 1) * kMuxArea;
            latencyCycles = std::max(latencyCycles, member.hwCycles);
        }
        unit.mergedOps = merged_ops;
        unit.muxCount = muxes;
        unit.areaUm2 = area;
        // Large merged datapaths close timing slower (broadcast nets and
        // mux trees lengthen every path): derate the effective cycle.
        const double derate =
            1.0 + 0.02 * static_cast<double>(merged_ops) +
            0.01 * static_cast<double>(muxes);
        unit.latencyNs =
            latencyCycles * derate +
            kMuxDelayNs * std::max<size_t>(1, muxes / 4);

        for (size_t k : cluster) {
            const Hot& member = hot[k];
            unit.members.emplace_back(member.func, member.block);
            const double swPerExec =
                profile::cyclesToNs(static_cast<double>(member.cycles) /
                                    static_cast<double>(member.execCount));
            const double per = swPerExec - (unit.latencyNs +
                                            rii::kInvokeOverheadNs);
            if (per > 0) {
                unit.deltaNs +=
                    per * static_cast<double>(member.execCount);
            }
        }
        result.units.push_back(std::move(unit));
    }

    // Prefix Pareto front over units sorted by saving.
    std::sort(result.units.begin(), result.units.end(),
              [](const NoviaUnit& a, const NoviaUnit& b) {
                  return a.deltaNs > b.deltaNs;
              });
    rii::Solution current;
    std::vector<rii::Solution> front{current};
    for (size_t k = 0; k < result.units.size(); ++k) {
        const NoviaUnit& u = result.units[k];
        if (u.deltaNs <= 0) {
            break;
        }
        current.deltaNs += u.deltaNs;
        current.areaUm2 += u.areaUm2;
        current.patternIds.push_back(static_cast<int64_t>(k));
        current.useCounts.push_back(u.members.size());
        const double remaining = totalNs - current.deltaNs;
        current.speedup = remaining <= 0 ? 1e9 : totalNs / remaining;
        front.push_back(current);
    }
    result.front = rii::paretoFilter(std::move(front));
    return result;
}

}  // namespace baselines
}  // namespace isamore
