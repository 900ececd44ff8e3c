#include "hls/estimator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/check.hpp"

namespace isamore {
namespace hls {

double
opDelayPs(Op op)
{
    switch (op) {
      case Op::Not:
        return 50;
      case Op::And:
      case Op::Or:
      case Op::Xor:
        return 80;
      case Op::Neg:
        return 120;
      case Op::Shl:
      case Op::Shr:
      case Op::AShr:
        return 150;
      case Op::Eq:
      case Op::Ne:
      case Op::Lt:
      case Op::Le:
      case Op::Gt:
      case Op::Ge:
        return 200;
      case Op::Add:
      case Op::Sub:
        return 280;
      case Op::Abs:
        return 300;
      case Op::Min:
      case Op::Max:
        return 320;
      case Op::Select:
        return 120;
      case Op::Mul:
        return 850;
      case Op::Mad:
        return 1000;
      case Op::Div:
      case Op::Rem:
        return 3800;
      case Op::IToF:
      case Op::FToI:
        return 400;
      case Op::FAdd:
      case Op::FSub:
        return 700;
      case Op::FMin:
      case Op::FMax:
        return 450;
      case Op::FEq:
      case Op::FLt:
      case Op::FLe:
        return 350;
      case Op::FMul:
        return 900;
      case Op::Fma:
        return 1100;
      case Op::FDiv:
        return 3500;
      case Op::FSqrt:
        return 4500;
      case Op::FNeg:
      case Op::FAbs:
        return 60;
      case Op::Load:
        return 1500;
      case Op::Store:
        return 1000;
      default:
        return 0;  // leaves, wiring (List/Get/Vec), control handled apart
    }
}

double
opAreaUm2(Op op)
{
    switch (op) {
      case Op::Not:
        return 6;
      case Op::And:
      case Op::Or:
      case Op::Xor:
        return 12;
      case Op::Neg:
        return 20;
      case Op::Shl:
      case Op::Shr:
      case Op::AShr:
        return 35;
      case Op::Eq:
      case Op::Ne:
      case Op::Lt:
      case Op::Le:
      case Op::Gt:
      case Op::Ge:
        return 30;
      case Op::Add:
      case Op::Sub:
        return 42;
      case Op::Abs:
        return 48;
      case Op::Min:
      case Op::Max:
        return 55;
      case Op::Select:
        return 18;
      case Op::Mul:
        return 560;
      case Op::Mad:
        return 600;
      case Op::Div:
      case Op::Rem:
        return 1900;
      case Op::IToF:
      case Op::FToI:
        return 90;
      case Op::FAdd:
      case Op::FSub:
        return 320;
      case Op::FMin:
      case Op::FMax:
        return 110;
      case Op::FEq:
      case Op::FLt:
      case Op::FLe:
        return 60;
      case Op::FMul:
        return 680;
      case Op::Fma:
        return 760;
      case Op::FDiv:
        return 2400;
      case Op::FSqrt:
        return 3100;
      case Op::FNeg:
      case Op::FAbs:
        return 8;
      case Op::Load:
        return 150;  // memory port + address path
      case Op::Store:
        return 120;
      case Op::Vec:
      case Op::Get:
      case Op::List:
        return 2;  // wiring/register slivers
      default:
        return 0;
    }
}

namespace {

/**
 * Arrival-time memo of one scheduling walk, keyed on node identity:
 * open addressing over a power-of-two slot array with linear probing,
 * doubling at half load.  The first kInlineSlots slots live inside the
 * table, so a typical candidate pattern schedules without touching the
 * heap.  Entries are never erased; a walk owns its table.
 */
class ArrivalTable {
 public:
    ArrivalTable() = default;
    // slots_ may point into inline_, so a copy would alias the original.
    ArrivalTable(const ArrivalTable&) = delete;
    ArrivalTable& operator=(const ArrivalTable&) = delete;

    /** The arrival recorded for @p key, if any, in @p arrival. */
    bool
    find(const Term* key, double& arrival) const
    {
        for (size_t i = hashSlot(key, shift_);; i = (i + 1) & mask_) {
            if (slots_[i].key == key) {
                arrival = slots_[i].arrival;
                return true;
            }
            if (slots_[i].key == nullptr) {
                return false;
            }
        }
    }

    /** Record @p arrival for @p key, which must not be present yet. */
    void
    insert(const Term* key, double arrival)
    {
        if (2 * (size_ + 1) > mask_ + 1) {
            grow();
        }
        place(slots_, mask_, shift_, key, arrival);
        ++size_;
    }

 private:
    struct Slot {
        const Term* key = nullptr;
        double arrival = 0.0;
    };
    static constexpr size_t kInlineSlots = 64;
    static constexpr unsigned kInlineShift = 64 - 6;  // log2(kInlineSlots)

    /** Fibonacci hashing: the top bits of the key times 2^64/phi. */
    static size_t
    hashSlot(const Term* key, unsigned shift)
    {
        return static_cast<size_t>(
            (reinterpret_cast<uintptr_t>(key) * 0x9E3779B97F4A7C15ull) >>
            shift);
    }

    static void
    place(Slot* slots, size_t mask, unsigned shift, const Term* key,
          double arrival)
    {
        size_t i = hashSlot(key, shift);
        while (slots[i].key != nullptr) {
            i = (i + 1) & mask;
        }
        slots[i] = Slot{key, arrival};
    }

    void
    grow()
    {
        const size_t capacity = 2 * (mask_ + 1);
        std::vector<Slot> bigger(capacity);
        for (size_t i = 0; i <= mask_; ++i) {
            if (slots_[i].key != nullptr) {
                place(bigger.data(), capacity - 1, shift_ - 1,
                      slots_[i].key, slots_[i].arrival);
            }
        }
        heap_ = std::move(bigger);
        slots_ = heap_.data();
        mask_ = capacity - 1;
        --shift_;
    }

    std::array<Slot, kInlineSlots> inline_{};
    std::vector<Slot> heap_;
    Slot* slots_ = inline_.data();
    size_t mask_ = kInlineSlots - 1;
    unsigned shift_ = kInlineShift;
    size_t size_ = 0;
};

/** Scheduling charge of one node. */
struct NodeCost {
    double arrival = 0.0;  ///< ps along the critical path
    double areaUm2 = 0.0;  ///< the node's own area
    int memOps = 0;        ///< 1 for a Load/Store
    int ii = 0;            ///< initiation interval of a Loop, else 0
};

/** Vector width @p term offers a VecOp parent. */
int
vectorLanes(const Term& term)
{
    return term.op == Op::Vec ? static_cast<int>(term.children.size())
                              : 0;
}

/**
 * The per-node step of the ASAP schedule, the one place the cost model
 * lives.  @p arrivalOf(i) yields child i's arrival and is called exactly
 * for the children the node schedules, in order (the walk recurses
 * through it, composition charges the child there); @p lanesOf(i) is
 * child i's vectorLanes.  An App is wiring here: instantiating a
 * resolved sub-instruction is the walk's business.
 */
template <typename ArrivalOf, typename LanesOf>
NodeCost
scheduleNode(Op op, const Payload& payload, size_t arity, int trips,
             ArrivalOf&& arrivalOf, LanesOf&& lanesOf)
{
    NodeCost cost;
    switch (op) {
      case Op::Lit:
      case Op::Arg:
      case Op::Hole:
      case Op::PatRef:
        return cost;
      case Op::Loop: {
        const double inputs = arrivalOf(0);
        // The body's own depth; its area accrues with the rest.
        const double body = arrivalOf(1);
        const int depth = std::max(
            1, static_cast<int>(std::ceil(body / kClockPeriodPs)));
        // Recurrence bound: the carried-dependence chain cannot be
        // pipelined away.  Approximate it with the arrival time of the
        // body output list's slowest element that transitively reads an
        // Arg; using the full body depth is a safe upper bound, so take
        // half as a typical forwarded recurrence.
        cost.ii = std::max(1, depth / 2);
        cost.arrival =
            inputs + (depth + (trips - 1) * cost.ii) * kClockPeriodPs;
        cost.areaUm2 = 40.0;  // loop control (counter, pipeline valid chain)
        return cost;
      }
      case Op::If: {
        const double inputs = arrivalOf(0);
        const double thenArrival = arrivalOf(1);
        const double elseArrival = arrivalOf(2);
        cost.areaUm2 = 18.0;  // output muxing
        cost.arrival =
            std::max({inputs, thenArrival, elseArrival}) + 120.0;
        return cost;
      }
      case Op::VecOp: {
        // Lane-parallel: delay of one scalar unit, area per lane.
        double worst = 0.0;
        int lanes = 0;
        for (size_t i = 0; i < arity; ++i) {
            worst = std::max(worst, arrivalOf(i));
            lanes = std::max(lanes, lanesOf(i));
        }
        const Op scalar = static_cast<Op>(payload.a);
        lanes = std::max(lanes, 2);
        cost.areaUm2 = opAreaUm2(scalar) * lanes;
        cost.arrival = worst + opDelayPs(scalar);
        return cost;
      }
      case Op::App: {
        // Child 0 is the PatRef head, not an operand.
        for (size_t i = 1; i < arity; ++i) {
            cost.arrival = std::max(cost.arrival, arrivalOf(i));
        }
        return cost;
      }
      default: {
        double worst = 0.0;
        for (size_t i = 0; i < arity; ++i) {
            worst = std::max(worst, arrivalOf(i));
        }
        if (op == Op::Load || op == Op::Store) {
            cost.memOps = 1;
        }
        cost.areaUm2 = opAreaUm2(op);
        cost.arrival = worst + opDelayPs(op);
        return cost;
      }
    }
}

/** Whether a summary's set holds @p term (every non-leaf node). */
bool
isCharged(const Term& term)
{
    return !opHasFlag(term.op, kLeaf);
}

/**
 * Schedule cycles of a unit with critical path @p arrival and @p memOps
 * memory operations: memory operations serialize through two ports at
 * 1.5 cycles each, and the unit is bound by the slower of the dataflow
 * and memory streams.
 */
int
scheduleCycles(double arrival, int memOps)
{
    const double memCycles = std::ceil(memOps / 2.0) * 1.5;
    const double dataCycles = std::ceil(arrival / kClockPeriodPs);
    return std::max(1, static_cast<int>(std::max(dataCycles, memCycles)));
}

double
latencyNsOf(int cycles)
{
    return cycles * (kClockPeriodPs / 1000.0);
}

/** Bottom-up scheduling walk producing arrival time and area. */
class Scheduler {
 public:
    Scheduler(const PatternResolver& resolver, int loopTripHint)
        : resolver_(resolver), trips_(loopTripHint)
    {}

    /** Loads/stores encountered (they serialize through two ports). */
    int memOps() const { return memOps_; }

    /** Arrival time (ps along the critical path) of @p term. */
    double
    visit(const TermPtr& term)
    {
        double arrival = 0.0;
        if (arrival_.find(term.get(), arrival)) {
            return arrival;
        }
        // compute() may grow the table; insert only afterwards.
        arrival = compute(term);
        arrival_.insert(term.get(), arrival);
        return arrival;
    }

    double areaUm2() const { return area_; }

    int lastII() const { return lastII_; }

    /** The charged nodes visited so far. */
    const NodeSet& charged() const { return charged_; }

 private:
    double
    compute(const TermPtr& term)
    {
        const auto& children = term->children;
        const NodeCost cost = scheduleNode(
            term->op, term->payload, children.size(), trips_,
            [&](size_t i) { return visit(children[i]); },
            [&](size_t i) { return vectorLanes(*children[i]); });
        area_ += cost.areaUm2;
        memOps_ += cost.memOps;
        if (cost.ii > 0) {
            lastII_ = cost.ii;
        }
        if (isCharged(*term)) {
            charged_.insert(term->hash);
        }
        if (term->op == Op::App) {
            return instantiate(term, cost.arrival);
        }
        return cost.arrival;
    }

    /**
     * A resolved App instantiates its sub-instruction as a module and
     * pays the module's own critical path and area on top of its
     * operands' arrival @p operands.  Ill-formed heads (possible
     * mid-anti-unification) and unknown sub-instructions stay wiring.
     */
    double
    instantiate(const TermPtr& term, double operands)
    {
        if (!resolver_ || term->children.empty() ||
            term->children[0]->op != Op::PatRef) {
            return operands;
        }
        TermPtr body = resolver_(term->children[0]->payload.a);
        if (body == nullptr) {
            return operands;
        }
        // Cost callers pass a resolver over scheduling views
        // (PatternRegistry::costResolver), which carry the per-occurrence
        // topology this walk charges area against.
        Scheduler sub(resolver_, trips_);
        double sub_arrival = sub.visit(body);
        area_ += sub.areaUm2();
        return operands + sub_arrival;
    }

    const PatternResolver& resolver_;
    int trips_;
    double area_ = 0.0;
    int memOps_ = 0;
    int lastII_ = 1;
    NodeSet charged_;
    ArrivalTable arrival_;
};

}  // namespace

HwCost
estimatePattern(const TermPtr& pattern, const PatternResolver& resolver,
                int loopTripHint)
{
    Scheduler scheduler(resolver, loopTripHint);
    const double critical = scheduler.visit(pattern);
    HwCost cost;
    cost.cycles = scheduleCycles(critical, scheduler.memOps());
    cost.latencyNs = latencyNsOf(cost.cycles);
    cost.areaUm2 = scheduler.areaUm2();
    cost.initiationInterval = scheduler.lastII();
    return cost;
}

FeatureSummary
summarize(const TermPtr& pattern)
{
    const PatternResolver none;
    Scheduler scheduler(none, kDefaultTripHint);
    FeatureSummary summary;
    summary.arrival = scheduler.visit(pattern);
    summary.areaUm2 = scheduler.areaUm2();
    summary.memOps = scheduler.memOps();
    summary.lanes = vectorLanes(*pattern);
    summary.charged = scheduler.charged();
    return summary;
}

std::optional<FeatureSummary>
compose(Op op, const Payload& payload,
        std::span<const FeatureSummary* const> children)
{
    FeatureSummary out;
    bool shared = false;
    // The step asks for exactly the children the node schedules; charge
    // each one's DAG there, so the union covers what a walk would visit.
    const NodeCost cost = scheduleNode(
        op, payload, children.size(), kDefaultTripHint,
        [&](size_t i) {
            const FeatureSummary& child = *children[i];
            shared = shared || out.charged.intersects(child.charged);
            out.charged |= child.charged;
            out.areaUm2 += child.areaUm2;
            out.memOps += child.memOps;
            return child.arrival;
        },
        [&](size_t i) { return children[i]->lanes; });
    if (shared) {
        return std::nullopt;
    }
    out.arrival = cost.arrival;
    out.areaUm2 += cost.areaUm2;
    out.memOps += cost.memOps;
    out.lanes =
        op == Op::Vec ? static_cast<int>(children.size()) : 0;
    return out;
}

void
includeRoot(FeatureSummary& summary, const Term& root)
{
    if (isCharged(root)) {
        summary.charged.insert(root.hash);
    }
}

double
featureOf(const FeatureSummary& summary)
{
    const double latencyNs =
        latencyNsOf(scheduleCycles(summary.arrival, summary.memOps));
    return latencyNs * 1000.0 + summary.areaUm2 * 1e-3;
}

double
patternFeature(const TermPtr& pattern)
{
    return featureOf(summarize(pattern));
}

}  // namespace hls
}  // namespace isamore
