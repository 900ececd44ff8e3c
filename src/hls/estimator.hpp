/**
 * @file
 * The lightweight HLS engine (paper §5.4.1 and §6; substitute for the
 * XLS delay/area estimators plus ASAP scheduling).
 *
 * Given a candidate pattern (a DSL term, possibly with holes as inputs),
 * estimates the hardware implementation at a 1 GHz target clock:
 *  - latency: ASAP schedule with operator chaining inside the 1000 ps
 *    clock period; the cycle count is ceil(criticalPath / period);
 *  - Loop patterns are pipelined: the initiation interval is bounded by
 *    the loop-carried dependence recurrence, and total latency is
 *    depth + (trips - 1) * II for a profiled/assumed trip count;
 *  - area: sum of per-operator areas (vector ops pay per lane; control
 *    adds multiplexing).
 *
 * The absolute numbers are calibrated to ASAP7-flavored relative costs
 * (multipliers ~13x an adder, dividers ~45x); only these ratios matter to
 * the Pareto study.
 */
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "dsl/term.hpp"
#include "support/hashing.hpp"

namespace isamore {
namespace hls {

/** Target accelerator clock. */
inline constexpr double kClockPeriodPs = 1000.0;  // 1 GHz

/** Loop trip count assumed when none is profiled. */
inline constexpr int kDefaultTripHint = 16;

/** Hardware cost estimate for one pattern. */
struct HwCost {
    int cycles = 0;         ///< pipeline latency in clock cycles
    double latencyNs = 0;   ///< cycles at the 1 GHz target clock
    double areaUm2 = 0;     ///< synthesized area estimate
    int initiationInterval = 1;  ///< for pipelined Loop patterns
};

/** Resolves previously-registered pattern bodies for App nodes. */
using PatternResolver = std::function<TermPtr(int64_t patternId)>;

/** Combinational delay of one operator instance in picoseconds. */
double opDelayPs(Op op);

/** Area of one operator instance in square micrometers. */
double opAreaUm2(Op op);

/**
 * Estimate the hardware cost of @p pattern.
 *
 * @param pattern candidate instruction behaviour (holes = operand ports)
 * @param resolver optional resolver for App(previous-pattern) nodes
 * @param loopTripHint assumed trip count for pipelined Loop patterns
 */
HwCost estimatePattern(const TermPtr& pattern,
                       const PatternResolver& resolver = nullptr,
                       int loopTripHint = kDefaultTripHint);

/**
 * Bloom set of term nodes keyed on their structural hash (Term::hash),
 * one bit per node in 256.  It has no false negatives, so two sets that
 * share no bit provably share no node.  Keying on the hash instead of
 * the address keeps every answer independent of where nodes happen to
 * be allocated: equal pointers have equal hashes, and structurally equal
 * nodes at different addresses merely look shared.
 */
class NodeSet {
 public:
    void
    insert(uint64_t hash)
    {
        // Structural hashes are not uniform in their top bits alone.
        const uint64_t bit = mix64(hash) >> 56;
        words_[bit >> 6] |= uint64_t{1} << (bit & 63);
    }

    bool
    intersects(const NodeSet& other) const
    {
        uint64_t common = 0;
        for (size_t i = 0; i < words_.size(); ++i) {
            common |= words_[i] & other.words_[i];
        }
        return common != 0;
    }

    NodeSet&
    operator|=(const NodeSet& other)
    {
        for (size_t i = 0; i < words_.size(); ++i) {
            words_[i] |= other.words_[i];
        }
        return *this;
    }

    bool operator==(const NodeSet&) const = default;

 private:
    std::array<uint64_t, 4> words_{};
};

/**
 * What the sampling feature knows about a pattern DAG, and all a parent
 * node's schedule needs from it: the root's ASAP arrival, the area and
 * memory operations of the DAG's distinct nodes, the vector width the
 * root offers a VecOp parent, and the set of the DAG's charged
 * (non-leaf) nodes.  Summaries use the feature model: no resolver,
 * kDefaultTripHint.
 */
struct FeatureSummary {
    double arrival = 0.0;  ///< critical-path arrival of the root (ps)
    double areaUm2 = 0.0;  ///< area of the distinct charged nodes
    int memOps = 0;        ///< distinct Load/Store nodes
    int lanes = 0;         ///< arity of a Vec root, else 0
    NodeSet charged;       ///< every non-leaf node of the DAG

    bool operator==(const FeatureSummary&) const = default;
};

/** Summary of the DAG under @p pattern: one scheduling walk. */
FeatureSummary summarize(const TermPtr& pattern);

/**
 * Summary of a fresh @p op / @p payload node over children summarized
 * in @p children (one per child position), without building the node.
 * Arrival is a max over the children plus the node's delay, and area and
 * memory operations are sums of integer-valued constants, so the answer
 * is bit-identical to summarize() of the built node -- provided the
 * children the node schedules share no charged node, which disjoint
 * NodeSets prove.  When the sets intersect this returns nullopt and the
 * caller must walk.  The node itself is not in the returned set: it has
 * no hash until it is built (see includeRoot).
 */
std::optional<FeatureSummary>
compose(Op op, const Payload& payload,
        std::span<const FeatureSummary* const> children);

/** Add @p root, the node built from a compose() answer, to its set. */
void includeRoot(FeatureSummary& summary, const Term& root);

/**
 * The scalar feature used by smart-AU pattern sampling (§5.2): estimated
 * latency (prioritized) with area as a secondary tie-breaker.
 */
double featureOf(const FeatureSummary& summary);

/** featureOf(summarize(pattern)). */
double patternFeature(const TermPtr& pattern);

}  // namespace hls
}  // namespace isamore
