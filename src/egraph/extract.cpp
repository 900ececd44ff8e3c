#include "egraph/extract.hpp"

#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace isamore {

double
astSizeCost(const ENode& /*node*/, const std::vector<double>& childCosts)
{
    double total = 1.0;
    for (double c : childCosts) {
        total += c;
    }
    return total;
}

Extractor::Extractor(const EGraph& egraph, CostFn costFn)
    : egraph_(egraph), costFn_(std::move(costFn)),
      bestCost_(egraph.numIds(), 0.0), bestNode_(egraph.numIds(), nullptr)
{
    ISAMORE_USER_CHECK(!egraph_.needsRebuild(),
                       "extract requires a rebuilt e-graph");

    // Greedy relaxation to a fixpoint, driven by a parent worklist instead
    // of repeated whole-graph sweeps.  Cost functions must strictly
    // increase along edges (>= max(child) + epsilon) so cyclic choices can
    // never beat ground ones.
    //
    // The evolution of bestCost_/bestNode_ — including which node wins an
    // epsilon-tie — is identical to the classic "ascending sweep until no
    // change" loop: a sweep's visit to a class only does anything when a
    // child's cost changed since the class was last evaluated, and in that
    // case the class is a parent of the improved child and sits in the
    // worklist.  A parent above the improved class re-evaluates within the
    // current ascending pass (as the sweep would), one at or below it
    // waits for the next pass.
    TELEM_SPAN("extract.relax", "extract");
    uint64_t evals = 0;
    uint64_t improvements = 0;
    std::vector<double> childCosts;
    auto evaluate = [&](EClassId id) {
        ++evals;
        bool improved = false;
        for (const ENode& node : egraph_.cls(id).nodes) {
            childCosts.clear();
            bool feasible = true;
            for (EClassId child : node.children) {
                const EClassId c = egraph_.find(child);
                if (bestNode_[c] == nullptr) {
                    feasible = false;
                    break;
                }
                childCosts.push_back(bestCost_[c]);
            }
            if (!feasible) {
                continue;
            }
            const double cost = costFn_(node, childCosts);
            if (bestNode_[id] == nullptr || cost < bestCost_[id] - 1e-12) {
                bestCost_[id] = cost;
                bestNode_[id] = &node;
                improved = true;
                ++improvements;
            }
        }
        return improved;
    };

    // The worklists are bitmaps over class ids, drained in ascending id
    // order: a parent above the class being evaluated joins the current
    // pass, where the scan has not reached it yet, and any other parent
    // the next pass.  Only classes holding a leaf node can become
    // extractable unprompted; everything else activates when a child
    // first gets a cost.
    const size_t words = (egraph_.numIds() + 63) / 64;
    std::vector<uint64_t> current(words, 0);
    std::vector<uint64_t> next(words, 0);
    auto mark = [](std::vector<uint64_t>& set, EClassId id) {
        set[id >> 6] |= uint64_t{1} << (id & 63);
    };
    bool pending = false;
    for (EClassId id : egraph_.classIds()) {
        for (const ENode& node : egraph_.cls(id).nodes) {
            if (node.children.empty()) {
                mark(current, id);
                pending = true;
                break;
            }
        }
    }
    while (pending) {
        pending = false;
        for (size_t w = 0; w < words; ++w) {
            while (current[w] != 0) {
                const EClassId id = static_cast<EClassId>(
                    w * 64 + static_cast<size_t>(__builtin_ctzll(current[w])));
                current[w] &= current[w] - 1;
                if (!evaluate(id)) {
                    continue;
                }
                for (const auto& use : egraph_.cls(id).parents) {
                    const EClassId parent = egraph_.find(use.second);
                    if (parent > id) {
                        mark(current, parent);
                    } else {
                        mark(next, parent);
                        pending = true;
                    }
                }
            }
        }
        current.swap(next);
    }
    if (telemetry::enabled()) {
        auto& registry = telemetry::Registry::instance();
        registry.counter("extract.evals").add(evals);
        registry.counter("extract.improvements").add(improvements);
    }
}

std::optional<double>
Extractor::costOf(EClassId klass) const
{
    const EClassId id = egraph_.find(klass);
    if (bestNode_[id] == nullptr) {
        return std::nullopt;
    }
    return bestCost_[id];
}

const ENode*
Extractor::chosenNode(EClassId klass) const
{
    return bestNode_[egraph_.find(klass)];
}

namespace {

TermPtr
materialize(const EGraph& egraph, const std::vector<const ENode*>& bestNode,
            EClassId klass, std::vector<TermPtr>& memo,
            std::vector<uint8_t>& inProgress)
{
    klass = egraph.find(klass);
    if (memo[klass] != nullptr) {
        return memo[klass];
    }
    ISAMORE_CHECK_MSG(bestNode[klass] != nullptr,
                      "class has no extractable ground term");
    ISAMORE_CHECK_MSG(inProgress[klass] == 0,
                      "cyclic extraction choice; cost function must "
                      "strictly increase along edges");
    inProgress[klass] = 1;
    const ENode& node = *bestNode[klass];
    std::vector<TermPtr> children;
    children.reserve(node.children.size());
    for (EClassId child : node.children) {
        children.push_back(
            materialize(egraph, bestNode, child, memo, inProgress));
    }
    TermPtr term = makeTerm(node.op, node.payload, std::move(children));
    inProgress[klass] = 0;
    memo[klass] = term;
    return term;
}

}  // namespace

Extraction
Extractor::extract(EClassId root) const
{
    if (telemetry::enabled()) {
        telemetry::Registry::instance().counter("extract.terms").add();
    }
    root = egraph_.find(root);
    auto cost = costOf(root);
    ISAMORE_CHECK_MSG(cost.has_value(), "root class is not extractable");
    if (termMemo_.empty()) {
        termMemo_.resize(bestNode_.size());
        inProgress_.resize(bestNode_.size(), 0);
    }
    Extraction out;
    out.term = materialize(egraph_, bestNode_, root, termMemo_, inProgress_);
    out.cost = *cost;
    return out;
}

}  // namespace isamore
