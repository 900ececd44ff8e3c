/**
 * @file
 * NOVIA baseline (Trilla et al., MICRO'21; paper §7.1.2): coarse-grained
 * inline accelerators from *syntactic merging* of hot basic blocks.
 *
 * Hot blocks are clustered by opcode-sequence similarity (longest common
 * subsequence ratio); each cluster becomes one merged functional unit
 * whose datapath contains the common operation backbone plus per-member
 * divergent operations behind multiplexers.  The unit offloads whole
 * member blocks.  Costing uses the shared profiling-driven model (the
 * paper upgrades NOVIA with the same cost model for fairness).
 */
#pragma once

#include "profile/interp.hpp"
#include "rii/select.hpp"
#include "workloads/workload.hpp"

namespace isamore {
namespace baselines {

/** One merged accelerator unit. */
struct NoviaUnit {
    std::vector<std::pair<int, ir::BlockId>> members;  ///< merged blocks
    size_t mergedOps = 0;    ///< backbone + divergent ops
    size_t muxCount = 0;     ///< inserted multiplexers
    double latencyNs = 0.0;  ///< offload latency per invocation
    double areaUm2 = 0.0;
    double deltaNs = 0.0;    ///< total saving over the profile
};

/** NOVIA result: units plus a prefix Pareto front. */
struct NoviaResult {
    std::vector<NoviaUnit> units;
    std::vector<rii::Solution> front;

    /** Average reuse (blocks per unit), the paper's Table 3 metric. */
    double averageReuse() const;
    /** Average merged size (ops per unit). */
    double averageSize() const;
};

/** Run NOVIA over a profiled module. */
NoviaResult runNovia(const ir::Module& module,
                     const profile::ModuleProfile& profile);

}  // namespace baselines
}  // namespace isamore
