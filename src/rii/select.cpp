#include "rii/select.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "egraph/extract.hpp"
#include "profile/timing.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"

namespace isamore {
namespace rii {
namespace {

using Mask = uint64_t;
static_assert(kMaxSelectCandidates == 8 * sizeof(Mask),
              "one mask bit per candidate");

/** Pattern id of an App e-node (via its PatRef child), or -1. */
int64_t
appPatternId(const EGraph& egraph, const ENode& node)
{
    if (node.op != Op::App || node.children.empty()) {
        return -1;
    }
    for (const ENode& child :
         egraph.cls(egraph.find(node.children[0])).nodes) {
        if (child.op == Op::PatRef) {
            return child.payload.a;
        }
    }
    return -1;
}

/**
 * Front pruner: dedupe, drop dominated, keep the top K by saving.  Its
 * operations write into caller-owned vectors and work in member scratch,
 * so a fixpoint round allocates only where a class's front grows.
 */
class FrontOps {
 public:
    FrontOps(const std::vector<double>& delta,
             const std::vector<double>& area, size_t beamK)
        : delta_(delta), area_(area), beamK_(beamK)
    {}

    /** Prune @p masks (reordered in place) into @p out. */
    void
    prune(std::vector<Mask>& masks, std::vector<Mask>& out)
    {
        std::sort(masks.begin(), masks.end());
        masks.erase(std::unique(masks.begin(), masks.end()), masks.end());
        // Sort by saving (descending), then area (ascending), each summed
        // once per mask.
        keyed_.clear();
        for (Mask m : masks) {
            keyed_.push_back(Keyed{sumOf(delta_, m), sumOf(area_, m), m});
        }
        std::sort(keyed_.begin(), keyed_.end(),
                  [](const Keyed& x, const Keyed& y) {
                      if (x.delta != y.delta) {
                          return x.delta > y.delta;
                      }
                      return x.area < y.area;
                  });
        // Non-dominated prefix scan: keep masks whose area is below every
        // better-saving mask's area.
        out.clear();
        double best_area = std::numeric_limits<double>::infinity();
        for (const Keyed& k : keyed_) {
            if (k.area < best_area || out.empty()) {
                out.push_back(k.mask);
                best_area = std::min(best_area, k.area);
            }
            if (out.size() >= beamK_) {
                break;
            }
        }
    }

    /** Cartesian combine of fronts @p a and @p b, pruned into @p out
     *  (which may be @p a). */
    void
    combine(const std::vector<Mask>& a, const std::vector<Mask>& b,
            std::vector<Mask>& out)
    {
        product_.clear();
        for (Mask x : a) {
            for (Mask y : b) {
                product_.push_back(x | y);
            }
        }
        prune(product_, out);
    }

 private:
    struct Keyed {
        double delta;
        double area;
        Mask mask;
    };

    static double
    sumOf(const std::vector<double>& values, Mask m)
    {
        double total = 0;
        while (m != 0) {
            int bit = __builtin_ctzll(m);
            total += values[bit];
            m &= m - 1;
        }
        return total;
    }

    const std::vector<double>& delta_;
    const std::vector<double>& area_;
    size_t beamK_;
    std::vector<Keyed> keyed_;
    std::vector<Mask> product_;
};

}  // namespace

std::vector<Solution>
paretoFilter(std::vector<Solution> solutions)
{
    std::sort(solutions.begin(), solutions.end(),
              [](const Solution& a, const Solution& b) {
                  if (a.speedup != b.speedup) {
                      return a.speedup > b.speedup;
                  }
                  return a.areaUm2 < b.areaUm2;
              });
    std::vector<Solution> kept;
    double best_area = std::numeric_limits<double>::infinity();
    for (Solution& s : solutions) {
        if (kept.empty() || s.areaUm2 < best_area) {
            best_area = std::min(best_area, s.areaUm2);
            kept.push_back(std::move(s));
        }
    }
    std::sort(kept.begin(), kept.end(),
              [](const Solution& a, const Solution& b) {
                  return a.areaUm2 < b.areaUm2;
              });
    return kept;
}

std::vector<Solution>
selectAndRefine(const EGraph& egraph, EClassId root,
                const std::vector<PatternEval>& candidates,
                const CostModel& cost, const SelectOptions& options,
                Budget* parent, SelectOutcome* outcome)
{
    ISAMORE_USER_CHECK(candidates.size() <= kMaxSelectCandidates,
                       "selection supports at most 64 candidates");
    root = egraph.find(root);

    Budget budget(BudgetSpec{}, parent);
    SelectOutcome localOutcome;
    SelectOutcome& out = outcome != nullptr ? *outcome : localOutcome;
    out = SelectOutcome{};

    // Bit tables.
    std::unordered_map<int64_t, int> bitOf;
    std::vector<double> delta(candidates.size());
    std::vector<double> area(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
        bitOf[candidates[i].id] = static_cast<int>(i);
        area[i] = candidates[i].hw.areaUm2;
        delta[i] = options.astSizeObjective
                       ? static_cast<double>(candidates[i].uses.size()) *
                             (static_cast<double>(candidates[i].opCount) -
                              1.0)
                       : candidates[i].deltaNs;
    }
    FrontOps ops(delta, area, options.beamK);

    // Fixpoint propagation of per-class fronts, indexed by class id.  A
    // computed front is never empty (pruning keeps its best mask), so an
    // empty slot means "not reached yet".
    const auto& ids = egraph.classIds();
    std::vector<std::vector<Mask>> fronts(egraph.numIds());
    std::vector<Mask> nodeFront;
    std::vector<Mask> merged;
    std::vector<Mask> pruned;
    for (size_t round = 0; round < kMaxSelectRounds; ++round) {
        // The fronts computed so far stay internally consistent when the
        // fixpoint is cut short; stopping here only loses solutions.
        if (fault::tripped("select.round") || !budget.ok()) {
            out.truncated = true;
            break;
        }
        out.roundsRun = round + 1;
        bool changed = false;
        for (EClassId id : ids) {
            merged.clear();
            for (const ENode& node : egraph.cls(id).nodes) {
                nodeFront.assign(1, 0);
                bool ready = true;
                for (EClassId child : node.children) {
                    const std::vector<Mask>& childFront =
                        fronts[egraph.find(child)];
                    if (childFront.empty()) {
                        ready = false;
                        break;
                    }
                    ops.combine(nodeFront, childFront, nodeFront);
                }
                if (!ready) {
                    continue;
                }
                int64_t pid = appPatternId(egraph, node);
                if (pid >= 0) {
                    auto bit = bitOf.find(pid);
                    if (bit == bitOf.end()) {
                        continue;  // unknown pattern: not selectable
                    }
                    for (Mask& m : nodeFront) {
                        m |= (1ull << bit->second);
                    }
                }
                merged.insert(merged.end(), nodeFront.begin(),
                              nodeFront.end());
            }
            if (merged.empty()) {
                continue;
            }
            ops.prune(merged, pruned);
            std::vector<Mask>& slot = fronts[id];
            if (slot != pruned) {
                slot = pruned;
                changed = true;
            }
        }
        if (!changed) {
            break;
        }
    }

    if (fronts[root].empty()) {
        return {};
    }

    // Refinement per front element.
    std::vector<Solution> solutions;
    for (Mask mask : fronts[root]) {
        if (fault::tripped("select.refine") || !budget.ok()) {
            out.truncated = true;
            break;
        }
        // Extraction with the latency objective (or AST size).
        auto costFn = [&](const ENode& node,
                          const std::vector<double>& childCosts)
            -> double {
            double children = 0;
            for (double c : childCosts) {
                children += c;
            }
            int64_t pid = appPatternId(egraph, node);
            if (pid >= 0) {
                auto bit = bitOf.find(pid);
                const bool selected =
                    bit != bitOf.end() &&
                    (mask & (1ull << bit->second)) != 0;
                if (!selected) {
                    return 1e15;  // exclude unselected patterns
                }
                if (options.astSizeObjective) {
                    return 1.0 + children;
                }
                const auto& cand =
                    candidates[static_cast<size_t>(bit->second)];
                return cand.hw.latencyNs + kInvokeOverheadNs +
                       children;
            }
            if (options.astSizeObjective) {
                return 1.0 + children;
            }
            if (node.op == Op::Loop && childCosts.size() == 2) {
                // Weight the body by an assumed trip count.
                return 1.0 + childCosts[0] + 16.0 * childCosts[1];
            }
            double own =
                profile::cyclesToNs(profile::cyclesForOp(node.op));
            if (node.isLeaf() || node.op == Op::List ||
                node.op == Op::Get || node.op == Op::Vec) {
                own = 0.01;
            }
            return own + children;
        };
        Extractor extractor(egraph, costFn);
        if (!extractor.costOf(root).has_value()) {
            continue;
        }
        Extraction extraction = extractor.extract(root);

        // Classes reachable through the chosen extraction, and for each,
        // whether the chosen node is an App of which pattern.
        std::unordered_map<EClassId, int64_t> chosenApp;
        {
            std::unordered_set<EClassId> seen;
            std::vector<EClassId> walk{root};
            while (!walk.empty()) {
                EClassId c = egraph.find(walk.back());
                walk.pop_back();
                if (!seen.insert(c).second) {
                    continue;
                }
                const ENode* node = extractor.chosenNode(c);
                if (node == nullptr) {
                    continue;
                }
                chosenApp[c] = appPatternId(egraph, *node);
                for (EClassId child : node->children) {
                    walk.push_back(child);
                }
            }
        }

        // Recompute Eq. 1-3 exactly on the extracted uses: a use counts
        // when its class is reachable and was extracted as this pattern's
        // App.  Overlapping patterns and shared subexpressions can claim
        // the same software work twice (the known optimism of Eq. 1's
        // per-use sum), so the claimed saving in each basic block is
        // capped at 90% of the time the profile actually spent there.
        Solution sol;
        sol.program = extraction.term;
        std::unordered_map<uint64_t, double> claimedPerBlock;
        auto blockKey = [](int func, ir::BlockId block) {
            return (static_cast<uint64_t>(func) << 32) | block;
        };
        for (const PatternEval& cand : candidates) {
            double refined = 0;
            size_t useSites = 0;  // program spots accelerated (reuse)
            for (const UseSite& u : cand.uses) {
                EClassId c = egraph.find(u.klass);
                auto it = chosenApp.find(c);
                if (it != chosenApp.end() && it->second == cand.id) {
                    const uint64_t key = blockKey(u.func, u.block);
                    const double budget =
                        0.9 * cost.blockSoftwareNs(u.func, u.block) -
                        claimedPerBlock[key];
                    const double granted =
                        std::min(u.savedNs, std::max(0.0, budget));
                    claimedPerBlock[key] += granted;
                    refined += granted;
                    ++useSites;
                }
            }
            if (useSites == 0) {
                continue;
            }
            sol.patternIds.push_back(cand.id);
            sol.useCounts.push_back(useSites);
            sol.deltaNs += refined;
            sol.areaUm2 += cand.hw.areaUm2;
        }
        sol.speedup = cost.speedup(sol.deltaNs);
        solutions.push_back(std::move(sol));
    }

    // Always include the empty (no custom instruction) solution so the
    // front starts at (1.0x, 0 area).
    Solution none;
    solutions.push_back(none);
    return paretoFilter(std::move(solutions));
}

}  // namespace rii
}  // namespace isamore
