#include "rii/cost.hpp"

#include <algorithm>

#include "egraph/ematch_program.hpp"
#include "profile/timing.hpp"
#include "support/check.hpp"

namespace isamore {
namespace rii {

CostModel::CostModel(const frontend::EncodedProgram& prog,
                     const profile::ModuleProfile& profile,
                     const PatternRegistry& registry)
    : prog_(&prog), profile_(&profile), registry_(&registry),
      totalNs_(profile.totalNs())
{}

double
CostModel::siteOpNs(int func, ir::BlockId block) const
{
    if (static_cast<size_t>(func) >= profile_->functions.size()) {
        return profile::cyclesToNs(1.0);
    }
    const auto& blocks = profile_->functions[func].blocks;
    if (block >= blocks.size()) {
        return profile::cyclesToNs(1.0);
    }
    return profile::cyclesToNs(blocks[block].cpo());
}

uint64_t
CostModel::blockExecCount(int func, ir::BlockId block) const
{
    if (static_cast<size_t>(func) >= profile_->functions.size()) {
        return 0;
    }
    const auto& blocks = profile_->functions[func].blocks;
    return block < blocks.size() ? blocks[block].execCount : 0;
}

double
CostModel::blockSoftwareNs(int func, ir::BlockId block) const
{
    if (static_cast<size_t>(func) >= profile_->functions.size()) {
        return 0;
    }
    const auto& blocks = profile_->functions[func].blocks;
    if (block >= blocks.size()) {
        return 0;
    }
    return profile::cyclesToNs(static_cast<double>(blocks[block].cycles));
}

PatternEval
CostModel::evaluate(int64_t id, const EGraph& egraph,
                    size_t maxMatches) const
{
    PatternEval eval;
    eval.id = id;
    eval.body = registry_->body(id);
    // Unique ops: a CPU with common-subexpression elimination executes
    // each distinct subterm once, so shared subtrees must not be billed
    // per occurrence.
    eval.opCount = termOpCountUnique(eval.body);
    // The hardware estimate is pointer-topology sensitive (area per
    // distinct node): schedule the registry's dedicated scheduling
    // view, not the hash-consed canonical body (see dsl/intern.hpp).
    eval.hw = hls::estimatePattern(registry_->costBody(id),
                                   registry_->costResolver());

    // Operand delivery: a tightly-coupled CI reads two register operands
    // per issue slot, so wide patterns pay extra transfer time per use.
    const double operandNs =
        0.25 * static_cast<double>(termHoles(eval.body).size());

    // Matched classes (deduplicated, ascending) in the working e-graph:
    // the roots ematchAll(egraph, body, maxMatches) would report, counted
    // without building substitutions.
    const PatternProgram program = PatternProgram::compile(eval.body);
    thread_local MatchScratch scratch;
    thread_local std::vector<EClassId> matched;
    matched.clear();
    size_t found = 0;
    for (EClassId id : program.candidateRoots(egraph)) {
        if (found >= maxMatches) {
            break;
        }
        const size_t n =
            program.countAt(egraph, id, maxMatches - found, scratch);
        if (n > 0) {
            matched.push_back(egraph.find(id));
            found += n;
        }
    }
    std::sort(matched.begin(), matched.end());
    matched.erase(std::unique(matched.begin(), matched.end()),
                  matched.end());

    // Every original-program site living in a matched class is a use.
    const double hwNs =
        eval.hw.latencyNs + kInvokeOverheadNs + operandNs;
    for (const frontend::Site& site : prog_->sites) {
        EClassId canon = egraph.find(site.klass);
        if (!std::binary_search(matched.begin(), matched.end(), canon)) {
            continue;
        }
        UseSite use;
        use.klass = canon;
        use.func = site.func;
        use.block = site.block;
        use.execCount = blockExecCount(site.func, site.block);
        use.cpoCycles = profile::cyclesToNs(1.0) > 0
                            ? siteOpNs(site.func, site.block) *
                                  profile::kCpuFreqGHz
                            : 1.0;
        const double sw_ns = static_cast<double>(eval.opCount) *
                             siteOpNs(site.func, site.block);
        const double per_exec = sw_ns - hwNs;
        use.savedNs = per_exec > 0
                          ? per_exec * static_cast<double>(use.execCount)
                          : 0.0;
        eval.deltaNs += use.savedNs;
        eval.uses.push_back(use);
    }
    return eval;
}

}  // namespace rii
}  // namespace isamore
