/**
 * @file
 * Output oracle.  A report passes when it equals the committed golden
 * (where one exists), equals every earlier report of the same
 * (program, mode, rules) key in this run, is not degraded, and carries a
 * Pareto-consistent front.  All comparisons drop the wall-clock
 * "seconds" line, exactly as the golden-identity tests do.
 */
#pragma once

#include <map>
#include <string>

#include "rii/rii.hpp"

namespace perfbench {

/** Drop every line holding the wall-clock "seconds" field. */
std::string stripWallClock(const std::string& report);

/** Whether no solution of @p result's front dominates another. */
bool paretoConsistent(const isamore::rii::RiiResult& result);

class Oracle {
 public:
    /** Goldens are read from @p goldenDir/<program>.json, for the
     *  default-mode, default-library reports of the golden programs. */
    explicit Oracle(std::string goldenDir);

    /**
     * Check one report (raw resultToJson bytes) for @p key.  @p golden
     * names the golden file to compare with ("" = none).  Returns "" when
     * it passes, else the reason.
     */
    std::string check(const std::string& key, const std::string& golden,
                      const std::string& report);

    /** The golden name for a default-mode, default-library analysis of
     *  @p program, or "" when the program has no golden. */
    static std::string goldenFor(const std::string& program,
                                 const std::string& mode, bool extended);

    /** Golden comparisons made so far (each must pass). */
    size_t goldenChecks() const { return goldenChecks_; }

 private:
    const std::string& golden(const std::string& name);

    std::string goldenDir_;
    std::map<std::string, std::string> goldens_;  ///< stripped bytes
    std::map<std::string, std::string> firstByKey_;
    size_t goldenChecks_ = 0;
};

}  // namespace perfbench
