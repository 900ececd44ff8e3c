/**
 * @file
 * The warm-start analysis path: identifyInstructions() backed by a
 * persistent Corpus.
 *
 * A warm run consults the corpus at two levels:
 *
 *  1. **Result cache**: if the (workload, program, mode, rules, config)
 *     key has a stored result, the whole pipeline is skipped and the
 *     cached result rehydrated (corpus.hits).  On a miss the plain
 *     pipeline runs (corpus.misses) and a clean result is stored.
 *  2. **Pattern library** (opt-in): WarmOptions::seedLibrary injects
 *     patterns mined from *other* workloads as first-phase candidates,
 *     so e.g. fft-mined patterns cross-match against 2dconv.
 *
 * Level 1 preserves the determinism contract: a warm run's output is
 * byte-identical to the cold run it replaces (modulo wall-clock), at
 * every thread count, and a miss is byte-identical to a run with no
 * corpus.  Level 2 deliberately widens the candidate set and is
 * therefore never enabled on golden-checked runs; seeded runs get a
 * distinct result-cache key (seeds are in the config fingerprint).
 */
#pragma once

#include "corpus/corpus.hpp"

namespace isamore {
namespace corpus {

/** Options for a corpus-backed analysis run. */
struct WarmOptions {
    /**
     * Seed the run with the corpus's cross-workload pattern library
     * (RiiConfig::seedPatterns).  Output-changing; off by default.
     */
    bool seedLibrary = false;
};

/**
 * Whether a run with @p config may consult and populate the corpus's
 * result cache.  Requires: a mode whose base program is the input
 * program (everything but Vector), an unlimited run budget, no
 * constrained parent budget, and no armed fault injection -- the
 * conditions under which a stored result is guaranteed to reproduce the
 * recorded run.  Ineligible runs still execute normally.
 */
bool warmEligible(const rii::RiiConfig& config);

/**
 * identifyInstructions() with corpus warm-start (see file comment).
 * Mutates only @p corpus's in-memory state; persisting to disk remains
 * the caller's decision (save()), which is how read-only corpus mounts
 * stay warm without ever writing.
 */
rii::RiiResult identifyInstructions(const AnalyzedWorkload& analyzed,
                                    const rules::RulesetLibrary& rules,
                                    rii::RiiConfig config, Corpus& corpus,
                                    const WarmOptions& options = {});

}  // namespace corpus
}  // namespace isamore
