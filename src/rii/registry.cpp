#include "rii/registry.hpp"

#include "dsl/intern.hpp"
#include "support/check.hpp"

namespace isamore {
namespace rii {

int64_t
PatternRegistry::add(const TermPtr& body)
{
    // Probe with the canonical hash and equality first: a body seen
    // before costs no copy.  A new one gets its scheduling view, which
    // renames holes like canonicalizeHoles but keeps the body's arrival
    // topology (the pointer-counting HLS estimator observes it), and
    // the interned canonical body.
    const uint64_t hash = canonicalHoleHash(body);
    const auto [first, last] = byHash_.equal_range(hash);
    for (auto it = first; it != last; ++it) {
        if (canonicalHolesEqual(bodies_[static_cast<size_t>(it->second)],
                                body)) {
            return it->second;
        }
    }
    TermPtr costBody = canonicalizeHolesUninterned(body);
    bodies_.push_back(internTerm(costBody));
    costBodies_.push_back(std::move(costBody));
    const int64_t id = static_cast<int64_t>(bodies_.size() - 1);
    byHash_.emplace(hash, id);
    return id;
}

const TermPtr&
PatternRegistry::body(int64_t id) const
{
    ISAMORE_CHECK_MSG(contains(id), "unknown pattern id");
    return bodies_[static_cast<size_t>(id)];
}

const TermPtr&
PatternRegistry::costBody(int64_t id) const
{
    ISAMORE_CHECK_MSG(contains(id), "unknown pattern id");
    return costBodies_[static_cast<size_t>(id)];
}

bool
PatternRegistry::contains(int64_t id) const
{
    return id >= 0 && static_cast<size_t>(id) < bodies_.size();
}

std::function<TermPtr(int64_t)>
PatternRegistry::resolver() const
{
    // Capture by pointer: the registry outlives the closures in RII runs.
    const auto* self = this;
    return [self](int64_t id) -> TermPtr {
        return self->contains(id) ? self->body(id) : nullptr;
    };
}

std::function<TermPtr(int64_t)>
PatternRegistry::costResolver() const
{
    const auto* self = this;
    return [self](int64_t id) -> TermPtr {
        return self->contains(id) ? self->costBody(id) : nullptr;
    };
}

RewriteRule
PatternRegistry::applicationRule(int64_t id) const
{
    const TermPtr& b = body(id);
    std::vector<TermPtr> args;
    for (int64_t h : termHoles(b)) {
        args.push_back(hole(h));
    }
    RewriteRule rule;
    rule.name = "apply-pattern-" + std::to_string(id);
    rule.lhs = b;
    rule.rhs = app(id, std::move(args));
    rule.flags = kRuleSat;  // App nodes join the matched class
    return rule;
}

std::vector<RewriteRule>
PatternRegistry::applicationRules(const std::vector<int64_t>& ids) const
{
    std::vector<RewriteRule> out;
    out.reserve(ids.size());
    for (int64_t id : ids) {
        out.push_back(applicationRule(id));
    }
    return out;
}

}  // namespace rii
}  // namespace isamore
