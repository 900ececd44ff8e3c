/**
 * @file
 * The profiling-based, hardware-aware cost model (paper §5.4.1, Eq. 1-3).
 *
 *   Δ_L(p) = Σ_{u ∈ use(p)}  ( Σ_{o ∈ p} CPO(bb(o, u)) − L_HLS(p) )
 *   S(P)   = L_cpu / (L_cpu − Σ_{p ∈ P} Δ_L(p))
 *   A(P)   = Σ_{p ∈ P} A_HLS(p)
 *
 * Uses are original-program sites whose e-class matches the pattern; each
 * use is weighted by its basic block's profiled execution count, and the
 * software side is ops(p) × CPO(bb) converted to nanoseconds at the CPU
 * clock.  Per-use savings are clamped at zero (a use where the custom
 * instruction is slower would simply not be rewritten).
 */
#pragma once

#include "frontend/encode.hpp"
#include "hls/estimator.hpp"
#include "profile/interp.hpp"
#include "rii/registry.hpp"

namespace isamore {
namespace rii {

/**
 * Per-invocation custom-instruction overhead in nanoseconds (RoCC dispatch
 * plus writeback).  RII and both baselines charge this same value.
 */
inline constexpr double kInvokeOverheadNs = 0.5;

/** One profiled use site of a pattern. */
struct UseSite {
    EClassId klass = kInvalidClass;  ///< canonical matched class
    int func = 0;
    ir::BlockId block = 0;
    uint64_t execCount = 0;
    double cpoCycles = 1.0;
    double savedNs = 0.0;  ///< clamped contribution to Δ_L
};

/** A costed candidate pattern. */
struct PatternEval {
    int64_t id = -1;
    TermPtr body;
    size_t opCount = 0;
    hls::HwCost hw;
    std::vector<UseSite> uses;
    double deltaNs = 0.0;  ///< Eq. 1 over all uses
};

/** Cost model bound to one encoded program and its profile. */
class CostModel {
 public:
    /**
     * @param prog encoded program (site provenance)
     * @param profile dynamic profile (CPO + exec counts)
     * @param registry resolves App sub-patterns during HLS estimation
     */
    CostModel(const frontend::EncodedProgram& prog,
              const profile::ModuleProfile& profile,
              const PatternRegistry& registry);

    /** Total software execution time L_cpu in nanoseconds. */
    double totalNs() const { return totalNs_; }

    /**
     * Evaluate pattern @p id against @p egraph (typically the saturated
     * per-phase graph; its classes must re-canonize the program's sites).
     */
    PatternEval evaluate(int64_t id, const EGraph& egraph,
                         size_t maxMatches = 4096) const;

    /** Speedup for a summed saving (Eq. 2). */
    double
    speedup(double sumDeltaNs) const
    {
        const double remaining = totalNs_ - sumDeltaNs;
        return remaining <= 0 ? 1e9 : totalNs_ / remaining;
    }

    /** Exec-weighted software ns for one op at @p site's CPO. */
    double siteOpNs(int func, ir::BlockId block) const;

    /** Profile row for a block (exec count). */
    uint64_t blockExecCount(int func, ir::BlockId block) const;

    /** Total software nanoseconds spent in one block over the profile. */
    double blockSoftwareNs(int func, ir::BlockId block) const;

    const frontend::EncodedProgram& program() const { return *prog_; }
    const PatternRegistry& registry() const { return *registry_; }

 private:
    const frontend::EncodedProgram* prog_;
    const profile::ModuleProfile* profile_;
    const PatternRegistry* registry_;
    double totalNs_;
};

}  // namespace rii
}  // namespace isamore
