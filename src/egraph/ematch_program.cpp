#include "egraph/ematch_program.hpp"

#include "support/check.hpp"

namespace isamore {

PatternProgram
PatternProgram::compile(const TermPtr& pattern)
{
    PatternProgram program;
    program.rootOp_ = pattern->op;
    program.compileNode(pattern, 0);
    return program;
}

void
PatternProgram::compileNode(const TermPtr& node, uint16_t reg)
{
    if (node->op == Op::Hole) {
        const int64_t holeId = node->payload.a;
        uint16_t slot = 0;
        while (slot < slotHoleIds_.size() && slotHoleIds_[slot] != holeId) {
            ++slot;
        }
        Insn insn;
        insn.reg = reg;
        insn.slot = slot;
        if (slot == slotHoleIds_.size()) {
            slotHoleIds_.push_back(holeId);
            insn.kind = Kind::BindHole;
        } else {
            insn.kind = Kind::Compare;
        }
        insns_.push_back(insn);
        return;
    }
    Insn insn;
    insn.kind = Kind::Bind;
    insn.reg = reg;
    insn.op = node->op;
    insn.payload = node->payload;
    ISAMORE_CHECK(node->children.size() <= UINT16_MAX);
    insn.arity = static_cast<uint16_t>(node->children.size());
    insn.outBase = numRegs_;
    numRegs_ = static_cast<uint16_t>(numRegs_ + insn.arity);
    insns_.push_back(insn);
    for (size_t i = 0; i < node->children.size(); ++i) {
        compileNode(node->children[i],
                    static_cast<uint16_t>(insn.outBase + i));
    }
}

const std::vector<EClassId>&
PatternProgram::candidateRoots(const EGraph& egraph) const
{
    return rootIsHole() ? egraph.classIds() : egraph.classesWithOp(rootOp_);
}

template <typename OnMatch>
size_t
PatternProgram::run(const EGraph& egraph, EClassId root, size_t maxMatches,
                    MatchScratch& scratch, const OnMatch& onMatch) const
{
    if (maxMatches == 0) {
        return 0;
    }
    auto& regs = scratch.regs;
    auto& slots = scratch.slots;
    auto& choices = scratch.choices;
    regs.resize(numRegs_);
    slots.resize(slotHoleIds_.size());
    choices.clear();
    regs[0] = egraph.find(root);

    // Straight-line execution with one explicit choice stack: Bind is the
    // only instruction that can resume (at the next candidate node of its
    // class).  Slot/register writes need no undo trail — every value an
    // instruction reads was written by an earlier instruction on the
    // current path, so re-execution after backtracking overwrites all
    // state that later instructions observe.
    const uint32_t end = static_cast<uint32_t>(insns_.size());
    size_t found = 0;
    uint32_t pc = 0;
    uint32_t bindFrom = 0;  // node index at which to (re)enter a Bind
    for (;;) {
        bool fail = false;
        if (pc == end) {
            onMatch(slots);
            if (++found >= maxMatches) {
                return found;
            }
            fail = true;  // enumerate the next match
        } else {
            const Insn& insn = insns_[pc];
            switch (insn.kind) {
              case Kind::BindHole:
                slots[insn.slot] = regs[insn.reg];
                ++pc;
                break;
              case Kind::Compare:
                if (slots[insn.slot] == regs[insn.reg]) {
                    ++pc;
                } else {
                    fail = true;
                }
                break;
              case Kind::Bind: {
                const std::vector<ENode>& nodes =
                    egraph.cls(regs[insn.reg]).nodes;
                uint32_t i = bindFrom;
                bindFrom = 0;
                while (i < nodes.size() &&
                       (nodes[i].op != insn.op ||
                        nodes[i].payload != insn.payload ||
                        nodes[i].children.size() != insn.arity)) {
                    ++i;
                }
                if (i == nodes.size()) {
                    fail = true;
                    break;
                }
                choices.push_back({pc, i + 1});
                const ENode& node = nodes[i];
                for (uint16_t k = 0; k < insn.arity; ++k) {
                    regs[insn.outBase + k] = egraph.find(node.children[k]);
                }
                ++pc;
                break;
              }
            }
        }
        if (fail) {
            if (choices.empty()) {
                return found;
            }
            const MatchScratch::Choice choice = choices.back();
            choices.pop_back();
            pc = choice.pc;
            bindFrom = choice.nodeIdx;
        }
    }
}

size_t
PatternProgram::matchAt(const EGraph& egraph, EClassId root,
                        size_t maxMatches, std::vector<Subst>& out,
                        MatchScratch& scratch) const
{
    return run(egraph, root, maxMatches, scratch,
               [&](const std::vector<EClassId>& slots) {
                   Subst subst;
                   subst.reserve(slots.size());
                   for (size_t s = 0; s < slots.size(); ++s) {
                       subst.emplace(slotHoleIds_[s], slots[s]);
                   }
                   out.push_back(std::move(subst));
               });
}

size_t
PatternProgram::countAt(const EGraph& egraph, EClassId root,
                        size_t maxMatches, MatchScratch& scratch) const
{
    return run(egraph, root, maxMatches, scratch,
               [](const std::vector<EClassId>&) {});
}

std::vector<EMatch>
searchPattern(const EGraph& egraph, const PatternProgram& program,
              size_t maxTotal)
{
    std::vector<EMatch> matches;
    const std::vector<EClassId>& candidates =
        program.candidateRoots(egraph);
    // The VM scratch and the per-class substitution buffer survive across
    // calls (per thread) so a search allocates nothing but its results.
    thread_local MatchScratch scratch;
    thread_local std::vector<Subst> substs;
    for (EClassId id : candidates) {
        if (matches.size() >= maxTotal) {
            break;
        }
        substs.clear();
        program.matchAt(egraph, id, maxTotal - matches.size(), substs,
                        scratch);
        for (Subst& subst : substs) {
            matches.push_back(EMatch{id, std::move(subst)});
        }
    }
    return matches;
}

}  // namespace isamore
