/**
 * @file
 * Cost-based term extraction from an e-graph.
 *
 * A greedy bottom-up extractor: given a cost function over e-nodes (whose
 * value may depend on the chosen children's costs), it relaxes per-class
 * best costs to a fixpoint and then materializes the cheapest term for any
 * root.  Cycles are handled naturally: a class is only extractable once at
 * least one of its nodes has all children extractable.  The relaxation
 * visits classes in the order of an ascending "sweep until no change"
 * (DESIGN.md §7), driven by two bitmap worklists over class ids.
 *
 * Used by RII for: AstSize extraction, latency-saving extraction (§5.4.3),
 * and the DLP-favoring extraction inside acyclic pruning (§5.3).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "egraph/egraph.hpp"

namespace isamore {

/**
 * Cost of selecting @p node given the best costs of its (canonical)
 * children.  Must be >= max(childCosts) for termination of the greedy
 * relaxation (monotone cost functions).
 */
using CostFn =
    std::function<double(const ENode& node,
                         const std::vector<double>& childCosts)>;

/** The standard term-size cost (1 + sum of children). */
double astSizeCost(const ENode& node, const std::vector<double>& childCosts);

/** Extraction result for one root. */
struct Extraction {
    TermPtr term;
    double cost = 0.0;
};

/**
 * Greedy bottom-up extractor over a (rebuilt) e-graph.
 *
 * Per-class state lives in arrays indexed by class id, and the chosen
 * node of a class is a pointer into the e-graph's own node list, so the
 * graph must not be mutated while the extractor is alive.
 */
class Extractor {
 public:
    /** Computes best costs for all classes immediately. */
    Extractor(const EGraph& egraph, CostFn costFn);

    /** Best cost of @p klass, if any ground term exists. */
    std::optional<double> costOf(EClassId klass) const;

    /** Best e-node chosen for @p klass, if extractable. */
    const ENode* chosenNode(EClassId klass) const;

    /** Materialize the best term for @p root.
     *  @throws InternalError if the class is not extractable. */
    Extraction extract(EClassId root) const;

 private:
    const EGraph& egraph_;
    CostFn costFn_;
    /** Per class id: best cost, meaningful where bestNode_ is set. */
    std::vector<double> bestCost_;
    /** Per class id: the chosen node, or null while not extractable. */
    std::vector<const ENode*> bestNode_;
    /**
     * Materialized term per class id, shared across extract() calls: the
     * chosen node per class is fixed at construction, so a class always
     * materializes to the same (hash-consed) term.  Extracting n roots
     * over a shared subgraph then costs O(subgraph) once, not per root.
     * Sized at the first extract(), with the cycle guard beside it (all
     * zero again whenever extract() returns).
     */
    mutable std::vector<TermPtr> termMemo_;
    mutable std::vector<uint8_t> inProgress_;
};

}  // namespace isamore
