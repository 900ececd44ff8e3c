#include "support/fault.hpp"

#include <cstdlib>
#include <new>
#include <optional>

#include "support/check.hpp"
#include "support/pool.hpp"

namespace isamore {
namespace fault {
namespace {

/** Strip leading/trailing whitespace. */
std::string
trim(const std::string& text)
{
    size_t begin = text.find_first_not_of(" \t\n\r");
    if (begin == std::string::npos) {
        return "";
    }
    size_t end = text.find_last_not_of(" \t\n\r");
    return text.substr(begin, end - begin + 1);
}

FaultKind
parseKind(const std::string& text)
{
    if (text == "trip" || text == "timeout") {
        return FaultKind::Trip;
    }
    if (text == "alloc") {
        return FaultKind::BadAlloc;
    }
    if (text == "invariant") {
        return FaultKind::Invariant;
    }
    ISAMORE_USER_CHECK(false, "unknown fault kind '" + text +
                                  "' (expected trip|timeout|alloc|"
                                  "invariant)");
    return FaultKind::Trip;  // unreachable
}

/** Parse one `site=kind[@hit[+]]` clause. */
FaultArm
parseArm(const std::string& clause)
{
    const size_t eq = clause.find('=');
    ISAMORE_USER_CHECK(eq != std::string::npos && eq > 0,
                       "fault clause '" + clause +
                           "' is not of the form site=kind[@hit[+]]");
    FaultArm arm;
    arm.site = trim(clause.substr(0, eq));
    std::string rest = trim(clause.substr(eq + 1));
    ISAMORE_USER_CHECK(!arm.site.empty() && !rest.empty(),
                       "fault clause '" + clause +
                           "' is missing a site or kind");

    const size_t at = rest.find('@');
    if (at != std::string::npos) {
        std::string hit = trim(rest.substr(at + 1));
        rest = trim(rest.substr(0, at));
        if (!hit.empty() && hit.back() == '+') {
            arm.repeat = true;
            hit.pop_back();
        }
        // Decimal digits only: a sign, junk or overflow is refused, not
        // read as some other hit ("-1" must not wrap to 2^64-1).
        const std::optional<size_t> value =
            parseCount(hit, /*allowZero=*/false);
        ISAMORE_USER_CHECK(value.has_value(),
                           "fault clause '" + clause +
                               "' has a bad hit index (want @N or @N+ "
                               "with N >= 1)");
        arm.hit = *value;
    }
    arm.kind = parseKind(rest);
    return arm;
}

}  // namespace

Registry::Registry()
{
    const char* env = std::getenv("ISAMORE_FAULTS");
    if (env != nullptr && *env != '\0') {
        configure(env);
    }
}

Registry&
Registry::instance()
{
    static Registry registry;
    return registry;
}

void
Registry::configure(const std::string& spec)
{
    size_t begin = 0;
    while (begin <= spec.size()) {
        size_t end = spec.find(';', begin);
        if (end == std::string::npos) {
            end = spec.size();
        }
        const std::string clause = trim(spec.substr(begin, end - begin));
        if (!clause.empty()) {
            arm(parseArm(clause));
        }
        begin = end + 1;
    }
}

void
Registry::arm(FaultArm arm)
{
    std::lock_guard<std::mutex> lock(mutex_);
    arms_.push_back(std::move(arm));
    enabled_.store(true, std::memory_order_relaxed);
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    enabled_.store(false, std::memory_order_relaxed);
    fired_.store(0, std::memory_order_relaxed);
    arms_.clear();
    sites_.clear();
}

uint64_t
Registry::hitCount(const std::string& site) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sites_.find(site);
    return it == sites_.end()
               ? 0
               : it->second.hits.load(std::memory_order_relaxed);
}

std::vector<FaultArm>
Registry::arms() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return arms_;
}

Scope::Scope(const std::string& spec)
{
    Registry& registry = Registry::instance();
    saved_ = registry.arms();
    registry.reset();
    try {
        registry.configure(spec);
    } catch (...) {
        // A malformed spec must not leave the registry disarmed when the
        // process had faults armed before the scope.
        for (FaultArm& arm : saved_) {
            registry.arm(std::move(arm));
        }
        throw;
    }
}

Scope::~Scope()
{
    Registry& registry = Registry::instance();
    registry.reset();
    for (FaultArm& arm : saved_) {
        registry.arm(std::move(arm));
    }
}

bool
Registry::shouldTrip(const char* site)
{
    // Taken only when a fault is armed, so the lock is off the production
    // fast path; it keeps the visit count and the arm scan one atomic
    // step, which is what makes `@N` fire on exactly one visit even when
    // several workers poll the same site concurrently.
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t hits =
        sites_[site].hits.fetch_add(1, std::memory_order_relaxed) + 1;
    for (const FaultArm& arm : arms_) {
        if (arm.site != site) {
            continue;
        }
        if (arm.repeat ? hits < arm.hit : hits != arm.hit) {
            continue;
        }
        fired_.fetch_add(1, std::memory_order_relaxed);
        switch (arm.kind) {
          case FaultKind::Trip:
            return true;
          case FaultKind::BadAlloc:
            throw std::bad_alloc();
          case FaultKind::Invariant:
            throw InternalError(std::string("injected fault at site ") +
                                site);
        }
    }
    return false;
}

}  // namespace fault
}  // namespace isamore
