/**
 * @file
 * Pattern registry: stable identities for candidate patterns across RII
 * phases, plus the κ(P) pattern-application rewrites (paper Fig. 7).
 *
 * κ(p) rewrites an instance of p's body into App(PatRef(p), args...),
 * unioned with the matched class, which is how identified patterns become
 * visible to the Pareto selection analysis and to later phases (enabling
 * patterns-over-patterns discovery).
 */
#pragma once

#include <unordered_map>

#include "egraph/rewrite.hpp"

namespace isamore {
namespace rii {

/** Registry of identified patterns; ids are dense and stable. */
class PatternRegistry {
 public:
    /** Register (or find) the pattern with canonical body @p body. */
    int64_t add(const TermPtr& body);

    /** Body of pattern @p id. @throws InternalError for unknown ids. */
    const TermPtr& body(int64_t id) const;

    /**
     * Scheduling view of pattern @p id's body: hole-spine nodes fresh
     * per occurrence, hole-free subtrees carrying the sharing the body
     * arrived with (see canonicalizeHolesUninterned).  The HLS
     * estimator charges area per distinct pointer, so it must schedule
     * this view, not the hash-consed canonical body.
     */
    const TermPtr& costBody(int64_t id) const;

    /** Whether @p id is registered. */
    bool contains(int64_t id) const;

    size_t size() const { return bodies_.size(); }

    /** Resolver closure for rewriting and the DSL evaluator. */
    std::function<TermPtr(int64_t)> resolver() const;

    /** Resolver over costBody() views, for the HLS estimator. */
    std::function<TermPtr(int64_t)> costResolver() const;

    /** The κ rewrite for pattern @p id: body => App(PatRef(id), holes). */
    RewriteRule applicationRule(int64_t id) const;

    /** κ rewrites for a set of patterns. */
    std::vector<RewriteRule>
    applicationRules(const std::vector<int64_t>& ids) const;

 private:
    std::vector<TermPtr> bodies_;
    /** Per-id scheduling views, index-aligned with bodies_. */
    std::vector<TermPtr> costBodies_;
    /** Canonical body hash -> id, probed with canonicalHolesEqual. */
    std::unordered_multimap<uint64_t, int64_t> byHash_;
};

}  // namespace rii
}  // namespace isamore
