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

 private:
    double
    compute(const TermPtr& term)
    {
        switch (term->op) {
          case Op::Lit:
          case Op::Arg:
          case Op::Hole:
          case Op::PatRef:
            return 0.0;
          case Op::Loop:
            return computeLoop(term);
          case Op::If:
            return computeIf(term);
          case Op::VecOp: {
            // Lane-parallel: delay of one scalar unit, area per lane.
            double worst = 0.0;
            int lanes = 0;
            for (const auto& child : term->children) {
                worst = std::max(worst, visit(child));
                if (child->op == Op::Vec) {
                    lanes = std::max(
                        lanes, static_cast<int>(child->children.size()));
                }
            }
            const Op scalar = static_cast<Op>(term->payload.a);
            lanes = std::max(lanes, 2);
            area_ += opAreaUm2(scalar) * lanes;
            return worst + opDelayPs(scalar);
          }
          case Op::App:
            return computeApp(term);
          default: {
            double worst = 0.0;
            for (const auto& child : term->children) {
                worst = std::max(worst, visit(child));
            }
            if (term->op == Op::Load || term->op == Op::Store) {
                ++memOps_;
            }
            area_ += opAreaUm2(term->op);
            return worst + opDelayPs(term->op);
          }
        }
    }

    double
    computeLoop(const TermPtr& term)
    {
        const double inputs = visit(term->children[0]);
        // Schedule the body in isolation to get its depth; area accrues
        // into this scheduler.
        const double body = visit(term->children[1]);
        const int depth = std::max(
            1, static_cast<int>(std::ceil(body / kClockPeriodPs)));
        // Recurrence bound: the carried-dependence chain cannot be
        // pipelined away.  Approximate it with the arrival time of the
        // body output list's slowest element that transitively reads an
        // Arg; using the full body depth is a safe upper bound, so take
        // half as a typical forwarded recurrence.
        const int ii = std::max(1, depth / 2);
        lastII_ = ii;
        const double total =
            inputs + (depth + (trips_ - 1) * ii) * kClockPeriodPs;
        area_ += 40.0;  // loop control (counter, pipeline valid chain)
        return total;
    }

    double
    computeIf(const TermPtr& term)
    {
        double inputs = visit(term->children[0]);
        double then_arrival = visit(term->children[1]);
        double else_arrival = visit(term->children[2]);
        area_ += 18.0;  // output muxing
        return std::max({inputs, then_arrival, else_arrival}) + 120.0;
    }

    double
    computeApp(const TermPtr& term)
    {
        double worst = 0.0;
        for (size_t i = 1; i < term->children.size(); ++i) {
            worst = std::max(worst, visit(term->children[i]));
        }
        // Ill-formed App heads (possible mid-anti-unification) and
        // unknown sub-instructions degrade to wiring.
        if (!resolver_ || term->children.empty() ||
            term->children[0]->op != Op::PatRef) {
            return worst;
        }
        TermPtr body = resolver_(term->children[0]->payload.a);
        if (body == nullptr) {
            return worst;
        }
        // Sub-instruction instantiated as a module: pay its own critical
        // path and area.  Cost callers pass a resolver over scheduling
        // views (PatternRegistry::costResolver), which carry the
        // per-occurrence topology this walk charges area against.
        Scheduler sub(resolver_, trips_);
        double sub_arrival = sub.visit(body);
        area_ += sub.areaUm2();
        return worst + sub_arrival;
    }

    const PatternResolver& resolver_;
    int trips_;
    double area_ = 0.0;
    int memOps_ = 0;
    int lastII_ = 1;
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
    // Memory operations serialize through two ports at 1.5 cycles each;
    // the unit is bound by the slower of dataflow and memory streams.
    const double memCycles =
        std::ceil(scheduler.memOps() / 2.0) * 1.5;
    const double dataCycles = std::ceil(critical / kClockPeriodPs);
    cost.cycles =
        std::max(1, static_cast<int>(std::max(dataCycles, memCycles)));
    cost.latencyNs = cost.cycles * (kClockPeriodPs / 1000.0);
    cost.areaUm2 = scheduler.areaUm2();
    cost.initiationInterval = scheduler.lastII();
    return cost;
}

double
patternFeature(const TermPtr& pattern)
{
    HwCost cost = estimatePattern(pattern);
    return cost.latencyNs * 1000.0 + cost.areaUm2 * 1e-3;
}

}  // namespace hls
}  // namespace isamore
