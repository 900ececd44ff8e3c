#include "support/budget.hpp"

#include <algorithm>
#include <sstream>

namespace isamore {

const char*
budgetStopName(BudgetStop stop)
{
    switch (stop) {
      case BudgetStop::None:
        return "none";
      case BudgetStop::Deadline:
        return "deadline";
      case BudgetStop::Units:
        return "units";
    }
    return "?";
}

Budget::Budget() : start_(Clock::now()) {}

Budget::Budget(const BudgetSpec& spec, Budget* parent)
    : parent_(parent),
      start_(Clock::now()),
      maxUnits_(spec.maxUnits)
{
    if (spec.maxSeconds != kUnlimitedSeconds) {
        hasDeadline_ = true;
        deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     std::max(0.0, spec.maxSeconds)));
    }
    if (parent_ != nullptr && parent_->hasDeadline_) {
        if (!hasDeadline_ || parent_->deadline_ < deadline_) {
            hasDeadline_ = true;
            deadline_ = parent_->deadline_;
        }
    }
}

Budget::Budget(Budget&& other) noexcept
    : parent_(other.parent_),
      start_(other.start_),
      hasDeadline_(other.hasDeadline_),
      deadline_(other.deadline_),
      maxUnits_(other.maxUnits_),
      usedUnits_(other.usedUnits_.load(std::memory_order_relaxed)),
      stop_(other.stop_.load(std::memory_order_relaxed))
{
}

Budget
Budget::child(const BudgetSpec& spec)
{
    return Budget(spec, this);
}

bool
Budget::latchStop(BudgetStop stop)
{
    BudgetStop expected = BudgetStop::None;
    stop_.compare_exchange_strong(expected, stop,
                                  std::memory_order_relaxed);
    return true;
}

bool
Budget::charge(size_t units)
{
    bool granted = true;
    for (Budget* level = this; level != nullptr; level = level->parent_) {
        if (level->stop_.load(std::memory_order_relaxed) !=
            BudgetStop::None) {
            granted = false;
            continue;
        }
        const size_t used =
            level->usedUnits_.fetch_add(units, std::memory_order_relaxed) +
            units;
        if (used > level->maxUnits_) {
            level->latchStop(BudgetStop::Units);
            granted = false;
        }
    }
    return granted;
}

bool
Budget::checkDeadline()
{
    if (stop_.load(std::memory_order_relaxed) != BudgetStop::None) {
        return true;
    }
    if (hasDeadline_ && Clock::now() > deadline_) {
        return latchStop(BudgetStop::Deadline);
    }
    return false;
}

bool
Budget::expired()
{
    for (Budget* level = this; level != nullptr; level = level->parent_) {
        if (level->checkDeadline()) {
            return true;
        }
    }
    return false;
}

BudgetStop
Budget::effectiveStop() const
{
    for (const Budget* level = this; level != nullptr;
         level = level->parent_) {
        if (level->stop_ != BudgetStop::None) {
            return level->stop_;
        }
    }
    return BudgetStop::None;
}

bool
Budget::unconstrained() const
{
    for (const Budget* level = this; level != nullptr;
         level = level->parent_) {
        if (level->hasDeadline_ ||
            level->maxUnits_ != kUnlimitedAmount ||
            level->stop_.load(std::memory_order_relaxed) !=
                BudgetStop::None) {
            return false;
        }
    }
    return true;
}

double
Budget::elapsedSeconds() const
{
    return std::chrono::duration<double>(Clock::now() - start_).count();
}

double
Budget::remainingSeconds() const
{
    if (!hasDeadline_) {
        return kUnlimitedSeconds;
    }
    return std::max(
        0.0,
        std::chrono::duration<double>(deadline_ - Clock::now()).count());
}

std::string
Budget::describe() const
{
    std::ostringstream os;
    os << "budget[stop=" << budgetStopName(stop())
       << " units=" << usedUnits() << "/";
    if (maxUnits_ == kUnlimitedAmount) {
        os << "inf";
    } else {
        os << maxUnits_;
    }
    os << " elapsed=" << elapsedSeconds() << "s";
    if (hasDeadline_) {
        os << " remaining=" << remainingSeconds() << "s";
    }
    os << "]";
    return os.str();
}

}  // namespace isamore
