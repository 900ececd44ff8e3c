#include "egraph/ematch.hpp"

#include <functional>

#include "egraph/ematch_program.hpp"
#include "support/check.hpp"

namespace isamore {
namespace {

/** Backtracking matcher with a global result cap. */
class Matcher {
 public:
    Matcher(const EGraph& egraph, size_t maxMatches)
        : egraph_(egraph), max_(maxMatches)
    {}

    std::vector<Subst>
    matchAt(const TermPtr& pattern, EClassId root)
    {
        results_.clear();
        Subst subst;
        matchClass(pattern, egraph_.find(root), subst,
                   [this](Subst& s) { results_.push_back(s); });
        return std::move(results_);
    }

 private:
    /** Type-erased continuation over partial substitutions. */
    using Cont = std::function<void(Subst&)>;

    void
    matchClass(const TermPtr& pattern, EClassId klass, Subst& subst,
               const Cont& cont)
    {
        if (results_.size() >= max_) {
            return;
        }
        if (pattern->op == Op::Hole) {
            const int64_t id = pattern->payload.a;
            auto it = subst.find(id);
            if (it != subst.end()) {
                if (egraph_.find(it->second) == klass) {
                    cont(subst);
                }
                return;
            }
            subst.emplace(id, klass);
            cont(subst);
            subst.erase(id);
            return;
        }
        for (const ENode& node : egraph_.cls(klass).nodes) {
            if (node.op != pattern->op || node.payload != pattern->payload ||
                node.children.size() != pattern->children.size()) {
                continue;
            }
            matchChildren(pattern, node, 0, subst, cont);
            if (results_.size() >= max_) {
                return;
            }
        }
    }

    void
    matchChildren(const TermPtr& pattern, const ENode& node, size_t index,
                  Subst& subst, const Cont& cont)
    {
        if (index == pattern->children.size()) {
            cont(subst);
            return;
        }
        matchClass(pattern->children[index],
                   egraph_.find(node.children[index]), subst,
                   [&](Subst& extended) {
                       matchChildren(pattern, node, index + 1, extended,
                                     cont);
                   });
    }

    const EGraph& egraph_;
    size_t max_;
    std::vector<Subst> results_;
};

}  // namespace

std::vector<Subst>
ematchAtLegacy(const EGraph& egraph, const TermPtr& pattern, EClassId root,
               size_t maxMatches)
{
    return Matcher(egraph, maxMatches).matchAt(pattern, root);
}

std::vector<EMatch>
ematchAllLegacy(const EGraph& egraph, const TermPtr& pattern,
                size_t maxTotal)
{
    std::vector<EMatch> out;
    for (EClassId id : egraph.classIds()) {
        if (out.size() >= maxTotal) {
            break;
        }
        const size_t budget = maxTotal - out.size();
        for (Subst& subst : ematchAtLegacy(egraph, pattern, id, budget)) {
            out.push_back(EMatch{id, std::move(subst)});
        }
    }
    return out;
}

std::vector<Subst>
ematchAt(const EGraph& egraph, const TermPtr& pattern, EClassId root,
         size_t maxMatches)
{
    std::vector<Subst> out;
    MatchScratch scratch;
    PatternProgram::compile(pattern).matchAt(egraph, root, maxMatches, out,
                                             scratch);
    return out;
}

std::vector<EMatch>
ematchAll(const EGraph& egraph, const TermPtr& pattern, size_t maxTotal)
{
    return searchPattern(egraph, PatternProgram::compile(pattern), maxTotal);
}

EClassId
instantiate(EGraph& egraph, const TermPtr& term, const Subst& subst)
{
    if (term->op == Op::Hole) {
        auto it = subst.find(term->payload.a);
        if (it != subst.end()) {
            return egraph.find(it->second);
        }
        return egraph.add(ENode(Op::Hole, term->payload, {}));
    }
    std::vector<EClassId> children;
    children.reserve(term->children.size());
    for (const auto& child : term->children) {
        children.push_back(instantiate(egraph, child, subst));
    }
    return egraph.add(ENode(term->op, term->payload, std::move(children)));
}

}  // namespace isamore
