#include "baselines/enumeration.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "hls/estimator.hpp"
#include "profile/timing.hpp"

namespace isamore {
namespace baselines {
namespace {

using ir::BlockId;
using ir::Instr;
using ir::ValueId;

/** One concrete cone occurrence. */
struct Occurrence {
    int func = 0;
    BlockId block = 0;
    std::vector<size_t> nodes;  ///< instr indices within the block
    double savedNs = 0.0;
};

/** Dataflow view of one block. */
struct BlockDfg {
    const ir::Block* block = nullptr;
    std::unordered_map<ValueId, size_t> defIndex;  ///< dest -> instr idx
    std::vector<int> externalUses;  ///< per instr: uses outside the block
};

BlockDfg
buildDfg(const ir::Function& fn, BlockId b)
{
    BlockDfg dfg;
    dfg.block = &fn.blocks[b];
    for (size_t i = 0; i < dfg.block->instrs.size(); ++i) {
        const Instr& ins = dfg.block->instrs[i];
        if (ins.kind == Instr::Kind::Compute && ins.dest != ir::kNoValue) {
            dfg.defIndex.emplace(ins.dest, i);
        }
    }
    dfg.externalUses.assign(dfg.block->instrs.size(), 0);
    for (BlockId other = 0; other < fn.blocks.size(); ++other) {
        for (const Instr& ins : fn.blocks[other].instrs) {
            for (ValueId v : ins.args) {
                auto it = dfg.defIndex.find(v);
                if (it != dfg.defIndex.end() &&
                    (other != b ||
                     &ins != &fn.blocks[b].instrs[it->second])) {
                    // Count uses; same-block uses are subtracted later by
                    // checking cone membership, so only note the user.
                    if (other != b) {
                        ++dfg.externalUses[it->second];
                    }
                }
            }
        }
    }
    return dfg;
}

/** Turn a cone into a pattern term (holes for outside inputs). */
TermPtr
coneToPattern(const BlockDfg& dfg, const std::set<size_t>& cone,
              size_t root)
{
    std::unordered_map<ValueId, TermPtr> holes;
    int64_t nextHole = 0;

    std::function<TermPtr(size_t)> build = [&](size_t idx) -> TermPtr {
        const Instr& ins = dfg.block->instrs[idx];
        std::vector<TermPtr> children;
        children.reserve(ins.args.size());
        for (ValueId v : ins.args) {
            auto def = dfg.defIndex.find(v);
            if (def != dfg.defIndex.end() && cone.count(def->second)) {
                children.push_back(build(def->second));
                continue;
            }
            auto it = holes.find(v);
            if (it == holes.end()) {
                it = holes.emplace(v, hole(nextHole++)).first;
            }
            children.push_back(it->second);
        }
        return makeTerm(ins.op, ins.payload, std::move(children));
    };
    return canonicalizeHoles(build(root));
}

}  // namespace

EnumResult
runEnum(const ir::Module& module, const profile::ModuleProfile& profile,
        const EnumOptions& options)
{
    struct Group {
        TermPtr pattern;
        size_t opCount = 0;
        double latencyNs = 0;
        double areaUm2 = 0;
        std::vector<Occurrence> occurrences;
    };
    std::map<std::string, Group> groups;
    // Interned pattern pointer -> group: repeated occurrences of a
    // pattern skip re-serializing it.  The ordered string map remains
    // the iteration source, so selection tie-breaking is unchanged.
    std::unordered_map<const Term*, Group*> groupIndex;

    for (size_t f = 0; f < module.functions.size(); ++f) {
        const ir::Function& fn = module.functions[f];
        for (BlockId b = 0; b < fn.blocks.size(); ++b) {
            BlockDfg dfg = buildDfg(fn, b);
            const auto& stats = profile.functions[f].blocks[b];
            if (stats.execCount == 0) {
                continue;
            }
            const double cpoNs = profile::cyclesToNs(stats.cpo());

            size_t produced = 0;
            for (size_t root = 0; root < dfg.block->instrs.size();
                 ++root) {
                const Instr& rins = dfg.block->instrs[root];
                if (rins.kind != Instr::Kind::Compute ||
                    rins.op == Op::Store) {
                    continue;
                }
                // Grow the ancestor cone level by level; each level is a
                // candidate (cones are convex by construction).
                std::set<size_t> cone{root};
                for (int depth = 0; depth < 8; ++depth) {
                    // Expand one producer level.
                    std::set<size_t> grown = cone;
                    for (size_t idx : cone) {
                        for (ValueId v : dfg.block->instrs[idx].args) {
                            auto def = dfg.defIndex.find(v);
                            if (def != dfg.defIndex.end()) {
                                grown.insert(def->second);
                            }
                        }
                    }
                    if (grown.size() > options.maxSubgraphSize) {
                        break;
                    }
                    const bool changed = grown != cone;
                    cone = std::move(grown);
                    if (depth > 0 || cone.size() >= 2) {
                        // Candidate: check I/O constraints.
                        // Outputs: only the root may escape.
                        bool single_output = true;
                        for (size_t idx : cone) {
                            if (idx == root) {
                                continue;
                            }
                            if (dfg.externalUses[idx] > 0) {
                                single_output = false;
                                break;
                            }
                            // In-block uses outside the cone.
                            ValueId dest = dfg.block->instrs[idx].dest;
                            for (size_t other = 0;
                                 other < dfg.block->instrs.size();
                                 ++other) {
                                if (cone.count(other)) {
                                    continue;
                                }
                                const auto& args =
                                    dfg.block->instrs[other].args;
                                if (std::find(args.begin(), args.end(),
                                              dest) != args.end()) {
                                    single_output = false;
                                    break;
                                }
                            }
                            if (!single_output) {
                                break;
                            }
                        }
                        if (single_output && cone.size() >= 2) {
                            TermPtr pattern =
                                coneToPattern(dfg, cone, root);
                            if (termHoles(pattern).size() <=
                                options.maxInputs) {
                                Group*& slot =
                                    groupIndex[pattern.get()];
                                if (slot == nullptr) {
                                    slot =
                                        &groups[termToString(pattern)];
                                }
                                auto& group = *slot;
                                if (group.pattern == nullptr) {
                                    group.pattern = pattern;
                                    group.opCount = termOpCount(pattern);
                                    auto hw =
                                        hls::estimatePattern(pattern);
                                    group.latencyNs = hw.latencyNs;
                                    group.areaUm2 = hw.areaUm2;
                                }
                                Occurrence occ;
                                occ.func = static_cast<int>(f);
                                occ.block = b;
                                occ.nodes.assign(cone.begin(), cone.end());
                                const double sw =
                                    static_cast<double>(group.opCount) *
                                    cpoNs;
                                // Same operand-delivery charge as the
                                // shared cost model: two register reads
                                // per issue slot.
                                const double operandNs =
                                    0.25 *
                                    static_cast<double>(
                                        termHoles(group.pattern).size());
                                const double per =
                                    sw - (group.latencyNs + operandNs +
                                          rii::kInvokeOverheadNs);
                                occ.savedNs =
                                    per > 0 ? per * static_cast<double>(
                                                        stats.execCount)
                                            : 0.0;
                                group.occurrences.push_back(
                                    std::move(occ));
                                if (++produced >=
                                    options.maxCandidatesPerBlock) {
                                    break;
                                }
                            }
                        }
                    }
                    if (!changed) {
                        break;
                    }
                }
                if (produced >= options.maxCandidatesPerBlock) {
                    break;
                }
            }
        }
    }

    // Greedy selection with overlap avoidance: pick the candidate with
    // the highest remaining saving, mark its nodes covered, recompute.
    std::set<std::tuple<int, BlockId, size_t>> covered;
    auto remainingDelta = [&](const Group& g) {
        double total = 0;
        for (const Occurrence& occ : g.occurrences) {
            bool clean = true;
            for (size_t n : occ.nodes) {
                if (covered.count({occ.func, occ.block, n})) {
                    clean = false;
                    break;
                }
            }
            if (clean) {
                total += occ.savedNs;
            }
        }
        return total;
    };

    EnumResult result;
    std::vector<rii::Solution> front;
    rii::Solution current;  // growing prefix solution
    // L_cpu for speedup.
    const double totalNs = profile.totalNs();
    front.push_back(current);  // 1.0x / 0 area

    for (size_t step = 0; step < options.maxSelected; ++step) {
        const Group* best = nullptr;
        double bestDelta = 0;
        for (const auto& [key, g] : groups) {
            double d = remainingDelta(g);
            if (d > bestDelta) {
                bestDelta = d;
                best = &g;
            }
        }
        if (best == nullptr || bestDelta <= 0) {
            break;
        }
        // Commit.
        EnumCandidate cand;
        cand.pattern = best->pattern;
        cand.opCount = best->opCount;
        cand.deltaNs = bestDelta;
        cand.areaUm2 = best->areaUm2;
        cand.latencyNs = best->latencyNs;
        size_t uses = 0;
        for (const Occurrence& occ : best->occurrences) {
            bool clean = true;
            for (size_t n : occ.nodes) {
                if (covered.count({occ.func, occ.block, n})) {
                    clean = false;
                    break;
                }
            }
            if (!clean) {
                continue;
            }
            ++uses;
            for (size_t n : occ.nodes) {
                covered.insert({occ.func, occ.block, n});
            }
        }
        cand.occurrences = uses;
        result.candidates.push_back(cand);

        current.deltaNs += bestDelta;
        current.areaUm2 += best->areaUm2;
        current.patternIds.push_back(
            static_cast<int64_t>(result.candidates.size() - 1));
        current.useCounts.push_back(uses);
        const double remaining = totalNs - current.deltaNs;
        current.speedup =
            remaining <= 0 ? 1e9 : totalNs / remaining;
        front.push_back(current);
    }
    result.front = rii::paretoFilter(std::move(front));
    return result;
}

}  // namespace baselines
}  // namespace isamore
