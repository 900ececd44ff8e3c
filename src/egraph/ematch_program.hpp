/**
 * @file
 * Compiled e-matching: patterns compiled once into flat abstract-machine
 * programs, executed by a small VM with an explicit backtracking stack,
 * plus a whole-graph search driver over the e-graph's op index
 * (DESIGN.md "Matching engine").
 *
 * The VM enumerates matches in exactly the order of the legacy
 * backtracking matcher in ematch.cpp (pre-order, class-node order,
 * depth-first), which is what keeps pipeline output byte-identical when
 * the rewrite engine switches over; the legacy matcher remains as the
 * differential-test oracle.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "dsl/term.hpp"
#include "egraph/ematch.hpp"

namespace isamore {

/** Reusable VM execution state; one per searching thread. */
struct MatchScratch {
    std::vector<EClassId> regs;   ///< class registers
    std::vector<EClassId> slots;  ///< hole bindings
    struct Choice {
        uint32_t pc;       ///< Bind instruction to resume
        uint32_t nodeIdx;  ///< next node index to try in that class
    };
    std::vector<Choice> choices;  ///< backtracking stack
};

/**
 * A pattern LHS compiled to a flat instruction sequence.
 *
 * Instructions, laid out in pattern pre-order:
 *  - Bind: iterate the e-nodes of the class in register `reg` whose
 *    (op, payload, arity) match; write the canonical child classes to
 *    registers `outBase..outBase+arity-1`.  The only choice point.
 *  - BindHole: first occurrence of a hole — bind its slot to `reg`.
 *  - Compare: later occurrence — fail unless the slot equals `reg`.
 */
class PatternProgram {
 public:
    /** One-time compile of @p pattern (a term with Hole leaves). */
    static PatternProgram compile(const TermPtr& pattern);

    /** Root operator, for seeding candidates from the op index. */
    Op rootOp() const { return rootOp_; }

    /** Whether the whole pattern is a bare hole (matches any class). */
    bool rootIsHole() const { return rootOp_ == Op::Hole; }

    /** The classes a search must try as roots, ascending: every class
     *  for a bare hole, else those holding a node with rootOp(). */
    const std::vector<EClassId>& candidateRoots(const EGraph& egraph) const;

    /**
     * Enumerate matches rooted at @p root, appending at most
     * @p maxMatches substitutions to @p out.  @p scratch is caller-owned
     * so repeated calls reuse its buffers (no per-frame allocation).
     * @return the number of matches appended.
     */
    size_t matchAt(const EGraph& egraph, EClassId root, size_t maxMatches,
                   std::vector<Subst>& out, MatchScratch& scratch) const;

    /**
     * The number matchAt() would return, under the same cap, without
     * building any substitution.  For callers that need only which
     * classes match (the cost model's use sites).
     */
    size_t countAt(const EGraph& egraph, EClassId root, size_t maxMatches,
                   MatchScratch& scratch) const;

 private:
    enum class Kind : uint8_t { Bind, BindHole, Compare };

    struct Insn {
        Kind kind;
        uint16_t reg = 0;
        uint16_t outBase = 0;  // Bind only
        uint16_t arity = 0;    // Bind only
        uint16_t slot = 0;     // BindHole / Compare only
        Op op = Op::Lit;       // Bind only
        Payload payload;       // Bind only
    };

    void compileNode(const TermPtr& node, uint16_t reg);

    /** The VM: enumerate up to @p maxMatches matches at @p root, calling
     *  @p onMatch with the slot bindings of each; returns the count. */
    template <typename OnMatch>
    size_t run(const EGraph& egraph, EClassId root, size_t maxMatches,
               MatchScratch& scratch, const OnMatch& onMatch) const;

    std::vector<Insn> insns_;
    std::vector<int64_t> slotHoleIds_;  // slot index -> hole id
    uint16_t numRegs_ = 1;
    Op rootOp_ = Op::Hole;
};

/**
 * Search @p program across all candidate root classes (from the op
 * index, ascending), returning at most @p maxTotal matches in the same
 * order as the legacy full scan.
 */
std::vector<EMatch> searchPattern(const EGraph& egraph,
                                  const PatternProgram& program,
                                  size_t maxTotal);

}  // namespace isamore
