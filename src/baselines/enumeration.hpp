/**
 * @file
 * ENUM baseline (paper §7.1.2): fine-grained convex subgraph enumeration
 * in the style of Clark'05 / Giaquinta'15.
 *
 * Per basic block, enumerates connected convex subgraphs of the block's
 * dataflow graph under input/output port constraints, deduplicates them
 * *syntactically* (exact isomorphism of the canonicalized pattern term —
 * no semantic merging, which is the point of the comparison), costs each
 * with the shared hardware-aware model, and produces a speedup/area
 * Pareto front by greedy accumulation.
 */
#pragma once

#include "profile/interp.hpp"
#include "rii/select.hpp"
#include "workloads/workload.hpp"

namespace isamore {
namespace baselines {

/** ENUM configuration. */
struct EnumOptions {
    size_t maxSubgraphSize = 32;  ///< ops per candidate
    size_t maxInputs = 8;         ///< loose I/O constraints (RoCC-style)
    size_t maxOutputs = 3;
    size_t maxCandidatesPerBlock = 512;
    size_t maxSelected = 16;      ///< instructions in the largest solution
};

/** One enumerated candidate instruction. */
struct EnumCandidate {
    TermPtr pattern;        ///< canonicalized (holes = subgraph inputs)
    size_t opCount = 0;
    size_t occurrences = 0; ///< syntactically identical sites
    double deltaNs = 0.0;
    double areaUm2 = 0.0;
    double latencyNs = 0.0;
};

/** Result: candidates plus the derived Pareto front. */
struct EnumResult {
    std::vector<EnumCandidate> candidates;  ///< selected, by greedy order
    std::vector<rii::Solution> front;
};

/** Run ENUM over a profiled module. */
EnumResult runEnum(const ir::Module& module,
                   const profile::ModuleProfile& profile,
                   const EnumOptions& options = {});

}  // namespace baselines
}  // namespace isamore
