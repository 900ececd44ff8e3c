#include "rii/vectorize.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_set>

#include "egraph/analysis.hpp"
#include "egraph/ematch.hpp"
#include "egraph/extract.hpp"
#include "support/check.hpp"

namespace isamore {
namespace rii {
namespace {

/**
 * Materialize the best term while recording each node's source class.
 *
 * The DLP-discounted cost function can (rarely) pick a mutually
 * referential set of choices (lane -> Get(vec) -> Vec(lane)); when a
 * cycle is detected through the in-progress set, the current class falls
 * back to its next-cheapest node whose children materialize acyclically —
 * every lane class always has its original scalar node as a ground
 * alternative, so this terminates.
 */
TermPtr
materializeWithClasses(const EGraph& egraph, const Extractor& extractor,
                       EClassId klass,
                       std::unordered_map<EClassId, TermPtr>& memo,
                       std::unordered_map<const Term*, EClassId>& classes,
                       std::unordered_set<EClassId>& inProgress)
{
    klass = egraph.find(klass);
    auto it = memo.find(klass);
    if (it != memo.end()) {
        return it->second;
    }
    if (inProgress.count(klass) != 0) {
        return nullptr;  // cycle: the caller tries another node
    }
    inProgress.insert(klass);

    // Candidate nodes: the extractor's choice first, then the remaining
    // nodes ordered by their (feasible) cost.
    std::vector<const ENode*> order;
    const ENode* chosen = extractor.chosenNode(klass);
    if (chosen != nullptr) {
        order.push_back(chosen);
    }
    std::vector<std::pair<double, const ENode*>> rest;
    for (const ENode& node : egraph.cls(klass).nodes) {
        if (chosen != nullptr && node == *chosen) {
            continue;
        }
        double cost = 0;
        bool feasible = true;
        for (EClassId child : node.children) {
            auto c = extractor.costOf(child);
            if (!c.has_value()) {
                feasible = false;
                break;
            }
            cost += *c;
        }
        if (feasible) {
            rest.emplace_back(cost, &node);
        }
    }
    std::sort(rest.begin(), rest.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [cost, node] : rest) {
        order.push_back(node);
    }

    for (const ENode* node : order) {
        std::vector<TermPtr> children;
        children.reserve(node->children.size());
        bool ok = true;
        for (EClassId child : node->children) {
            TermPtr t = materializeWithClasses(egraph, extractor, child,
                                               memo, classes, inProgress);
            if (t == nullptr) {
                ok = false;
                break;
            }
            children.push_back(std::move(t));
        }
        if (!ok) {
            continue;
        }
        TermPtr term =
            makeTerm(node->op, node->payload, std::move(children));
        inProgress.erase(klass);
        memo.emplace(klass, term);
        classes.emplace(term.get(), klass);
        return term;
    }
    inProgress.erase(klass);
    return nullptr;
}

}  // namespace

VectorizeResult
vectorizeProgram(const frontend::EncodedProgram& prog,
                 const std::vector<RewriteRule>& liftRules)
{
    VectorizeResult result;
    // Work on a copy: packing mutates the graph.
    frontend::EncodedProgram work = prog;
    EGraph& g = work.egraph;

    // ---- Step 1: seed packing ----
    AuResult seeds = identifyPatterns(g, kSeedAu);
    auto siteIndex = work.sitesByClass();

    // Group matched classes by (pattern, function, block).
    size_t packs = 0;
    std::unordered_set<EClassId> packed;
    for (const TermPtr& pattern : seeds.patterns) {
        if (packs >= kMaxPacks) {
            break;
        }
        auto matches = ematchAll(g, pattern, 512);
        std::map<std::pair<int, ir::BlockId>, std::vector<EClassId>> groups;
        for (const EMatch& m : matches) {
            EClassId c = g.find(m.root);
            auto sites = siteIndex.find(c);
            if (sites == siteIndex.end()) {
                continue;
            }
            for (const frontend::Site* s : sites->second) {
                groups[{s->func, s->block}].push_back(c);
            }
        }
        for (auto& [where, classes] : groups) {
            std::sort(classes.begin(), classes.end());
            classes.erase(std::unique(classes.begin(), classes.end()),
                          classes.end());
            // Avoid packing a class twice (overlapping patterns).
            std::vector<EClassId> fresh;
            for (EClassId c : classes) {
                if (packed.count(c) == 0) {
                    fresh.push_back(c);
                }
            }
            // Cut packs of kPackLanes, falling back to 2 for a remainder
            // pair.
            size_t i = 0;
            while (fresh.size() - i >= 2) {
                const size_t width =
                    fresh.size() - i >= kPackLanes ? kPackLanes : 2;
                std::vector<EClassId> lanes(fresh.begin() + i,
                                            fresh.begin() + i + width);
                i += width;
                EClassId vec =
                    g.add(ENode(Op::Vec, Payload::none(), lanes));
                // Couple: Get(vec, k) == lane k (creates the cycles the
                // acyclic pruning later removes).
                for (size_t k = 0; k < lanes.size(); ++k) {
                    EClassId got = g.add(
                        ENode(Op::Get,
                              Payload::ofInt(static_cast<int64_t>(k)),
                              {vec}));
                    g.merge(got, lanes[k]);
                }
                for (EClassId c : lanes) {
                    packed.insert(c);
                }
                ++packs;
                if (packs >= kMaxPacks) {
                    break;
                }
            }
            if (packs >= kMaxPacks) {
                break;
            }
        }
    }
    g.rebuild();
    result.packsCreated = packs;

    // ---- Step 2: pack expansion (lift rewrites) ----
    runEqSat(g, liftRules, kLiftLimits);

    // ---- Step 3: acyclic pruning ----
    // Greedy extraction favoring vector constructors of high DLP.
    // Tree extraction double-counts shared children, which would make the
    // Get(VecOp(...)) route look `lanes` times more expensive than it is.
    // The Get discount (~1/lanes) restores the amortized economics so the
    // extractor favors high-DLP vector forms, per the paper's "custom cost
    // function that deliberately favors vector constructors".
    auto dlpCost = [](const ENode& node,
                      const std::vector<double>& childCosts) -> double {
        double children = 0;
        for (double c : childCosts) {
            children += c;
        }
        switch (node.op) {
          case Op::VecOp:
            return 0.3 + children;  // strongly preferred
          case Op::Vec:
            return 0.4 + children;
          case Op::Get:
            return 0.1 + 0.28 * children;
          default:
            return 1.0 + children;
        }
    };
    Extractor extractor(g, dlpCost);
    ISAMORE_CHECK_MSG(extractor.costOf(work.root).has_value(),
                      "program root became unextractable after packing");

    std::unordered_map<EClassId, TermPtr> memo;
    std::unordered_map<const Term*, EClassId> termClasses;
    std::unordered_set<EClassId> inProgress;
    TermPtr program = materializeWithClasses(g, extractor, work.root, memo,
                                             termClasses, inProgress);
    ISAMORE_CHECK_MSG(program != nullptr,
                      "vectorized program has no acyclic derivation");

    // Compress: re-encode the extracted hybrid program into a fresh
    // e-graph, carrying provenance.
    frontend::EncodedProgram out;
    std::unordered_map<const Term*, EClassId> newClasses;
    std::unordered_map<EClassId, std::vector<const frontend::Site*>> oldSites =
        work.sitesByClass();

    // Recursive add with provenance transfer.
    std::function<EClassId(const TermPtr&)> addTerm =
        [&](const TermPtr& term) -> EClassId {
        auto it = newClasses.find(term.get());
        if (it != newClasses.end()) {
            return it->second;
        }
        std::vector<EClassId> children;
        children.reserve(term->children.size());
        for (const auto& child : term->children) {
            children.push_back(addTerm(child));
        }
        EClassId id = out.egraph.add(
            ENode(term->op, term->payload, std::move(children)));
        newClasses.emplace(term.get(), id);

        // Transfer the old class's sites.
        auto oc = termClasses.find(term.get());
        if (oc != termClasses.end()) {
            auto sites = oldSites.find(g.find(oc->second));
            if (sites != oldSites.end()) {
                for (const frontend::Site* s : sites->second) {
                    out.sites.push_back(
                        frontend::Site{id, s->func, s->block});
                }
            }
        }
        // VecOp nodes inherit their first Vec child's lane sites so the
        // cost model sees one use per lane.
        if (term->op == Op::VecOp) {
            for (const auto& child : term->children) {
                if (child->op != Op::Vec) {
                    continue;
                }
                for (const auto& lane : child->children) {
                    auto lc = termClasses.find(lane.get());
                    if (lc == termClasses.end()) {
                        continue;
                    }
                    auto sites = oldSites.find(g.find(lc->second));
                    if (sites == oldSites.end()) {
                        continue;
                    }
                    for (const frontend::Site* s : sites->second) {
                        out.sites.push_back(
                            frontend::Site{id, s->func, s->block});
                    }
                }
                break;
            }
            ++result.vecOpsInResult;
        }
        return id;
    };

    out.root = addTerm(program);
    // Function roots: re-resolve through the extracted program's root
    // List children.
    for (const auto& child : program->children) {
        out.functionRoots.push_back(newClasses.at(child.get()));
    }
    out.egraph.rebuild();
    result.program = std::move(out);
    return result;
}

}  // namespace rii
}  // namespace isamore
