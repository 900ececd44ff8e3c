/**
 * @file
 * Hierarchical resource budgets for the pipeline stages.
 *
 * A Budget bundles the two resources a stage can run out of -- a
 * wall-clock deadline and a consumable work-unit allowance (rewrite
 * applications, AU candidates, ...) -- behind one object that can be
 * *split*: `parent.child(spec)` derives a budget whose deadline is
 * clamped to the parent's and whose unit charges propagate up the
 * chain, so a run-level budget bounds the sum of all stage-level
 * consumption no matter how the stages subdivide it.
 *
 * All limits default to "unlimited", making a default Budget free to
 * thread through hot paths: charge() is a counter bump and compare, and
 * expired() only reads the clock when a deadline is actually set.
 *
 * Budgets are sticky: once any limit trips, ok() stays false and stop()
 * reports the first limit that tripped.  Nothing outside the stages
 * stops a run: each stage polls its budget where it charges work.
 * Callers are expected to treat a tripped budget as "stop cleanly and
 * report partial results", never as an error (see DESIGN.md "Error
 * taxonomy and degradation semantics").
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <limits>
#include <string>

namespace isamore {

/** "No limit" sentinel for time limits. */
inline constexpr double kUnlimitedSeconds =
    std::numeric_limits<double>::infinity();
/** "No limit" sentinel for counted limits. */
inline constexpr size_t kUnlimitedAmount =
    std::numeric_limits<size_t>::max();

/** Declarative limits for one Budget; every field defaults to unlimited. */
struct BudgetSpec {
    double maxSeconds = kUnlimitedSeconds;  ///< wall-clock allowance
    size_t maxUnits = kUnlimitedAmount;     ///< consumable work units

    bool
    unlimited() const
    {
        return maxSeconds == kUnlimitedSeconds &&
               maxUnits == kUnlimitedAmount;
    }
};

/** The first limit a budget ran out of. */
enum class BudgetStop { None, Deadline, Units };

/** Printable name of a BudgetStop. */
const char* budgetStopName(BudgetStop stop);

class Budget {
 public:
    /** An unlimited root budget. */
    Budget();

    /**
     * A budget with the given limits.  When @p parent is non-null the
     * deadline is clamped to the parent's and unit charges propagate to
     * every ancestor; the parent must outlive this budget.
     */
    explicit Budget(const BudgetSpec& spec, Budget* parent = nullptr);

    /** Split off a child budget (deadline-clamped, charge-propagating). */
    Budget child(const BudgetSpec& spec);

    /**
     * Consume @p units of work against this budget and all ancestors.
     * Returns false -- and latches the Units stop on the level that ran
     * out -- once any level's allowance is exceeded.
     */
    bool charge(size_t units = 1);

    /**
     * Whether any limit has tripped here or in an ancestor.  Polls the
     * deadline; the result is sticky.
     */
    bool expired();

    /** !expired(). */
    bool ok() { return !expired(); }

    /** The first limit that tripped on *this* level (None while ok). */
    BudgetStop stop() const { return stop_.load(std::memory_order_relaxed); }

    /**
     * Whether this budget and every ancestor carry no limit at all: no
     * deadline, no unit allowance, and no stop latched.
     * Caching layers use this to decide whether recorded work may be
     * replayed: only an unconstrained chain is guaranteed to reach the
     * same outcome the recorded (uninterrupted) run reached.
     */
    bool unconstrained() const;

    /** The first tripped limit along the ancestor chain (None while ok).
     *  Does not poll the clock; call expired() first for a fresh view. */
    BudgetStop effectiveStop() const;

    /** Work units charged against this level so far. */
    size_t
    usedUnits() const
    {
        return usedUnits_.load(std::memory_order_relaxed);
    }

    /** Seconds elapsed since this budget was created. */
    double elapsedSeconds() const;

    /** Seconds until the deadline (kUnlimitedSeconds when none is set). */
    double remainingSeconds() const;

    /** One-line human-readable state, for diagnostics and logs. */
    std::string describe() const;

    Budget(const Budget&) = delete;
    Budget& operator=(const Budget&) = delete;
    Budget(Budget&&) noexcept;  // manual: atomic members are not movable

 private:
    using Clock = std::chrono::steady_clock;

    bool checkDeadline();
    bool latchStop(BudgetStop stop);

    Budget* parent_ = nullptr;
    Clock::time_point start_;
    bool hasDeadline_ = false;
    Clock::time_point deadline_{};
    size_t maxUnits_ = kUnlimitedAmount;
    // charge() and expired() may be called concurrently from pool workers
    // (the AU shards and EqSat's match fan-out all charge one run budget),
    // so the mutable state is a fetch_add counter plus a CAS-once latch.
    std::atomic<size_t> usedUnits_{0};
    std::atomic<BudgetStop> stop_{BudgetStop::None};
};

}  // namespace isamore
