/**
 * @file
 * AU-based pattern vectorization (paper §5.3).
 *
 * Three steps over an encoded scalar program:
 *  1. *Seed packing*: smart AU finds recurring scalar patterns; instances
 *     rooted in the same basic block (by site provenance) become a seed
 *     pack, unified under a new Vec e-node.  Couple edges Get(vec, i) are
 *     merged with the lane classes, deliberately creating the
 *     Get->Vec->Get cycles the paper describes.
 *  2. *Pack expansion*: equality saturation with the vector lift ruleset
 *     recovers VecOp constructors over the packs.
 *  3. *Acyclic pruning*: a greedy DLP-favoring extraction picks one
 *     concrete vectorization scheme; re-encoding the extracted program
 *     (the Enumo-style compress) yields a lightweight acyclic hybrid
 *     scalar-vector e-graph.  Site provenance is carried through, and
 *     VecOp classes inherit their lanes' sites so the cost model sees
 *     vector uses.
 */
#pragma once

#include "frontend/encode.hpp"
#include "rii/au.hpp"
#include "egraph/rewrite.hpp"

namespace isamore {
namespace rii {

/** Preferred pack width (a remainder pair packs 2 wide). */
inline constexpr size_t kPackLanes = 4;
/** Seed-pack budget. */
inline constexpr size_t kMaxPacks = 64;
/** AU configuration for seed finding. */
inline constexpr AuOptions kSeedAu{.maxDepth = 4, .maxResultPatterns = 64};
/** Pack-expansion EqSat limits. */
inline constexpr EqSatLimits kLiftLimits{.maxNodes = 60000,
                                         .maxIterations = 4};

/** Result of vectorization. */
struct VectorizeResult {
    frontend::EncodedProgram program;  ///< acyclic hybrid program
    size_t packsCreated = 0;
    size_t vecOpsInResult = 0;
};

/** Run the vectorization pipeline. */
VectorizeResult vectorizeProgram(const frontend::EncodedProgram& prog,
                                 const std::vector<RewriteRule>& liftRules);

}  // namespace rii
}  // namespace isamore
