/**
 * @file
 * The warm-start analysis path: identifyInstructions() backed by a
 * persistent Corpus's result cache.
 *
 * If the (workload, program, mode, rules, config) key has a stored
 * result, the whole pipeline is skipped and the cached result
 * rehydrated (corpus.hits).  On a miss the plain pipeline runs
 * (corpus.misses) and a clean result is stored.
 *
 * A warm run's output is byte-identical to the cold run it replaces
 * (modulo wall-clock), at every thread count, and a miss -- like every
 * run warmEligible() refuses -- is byte-identical to a run with no
 * corpus.
 */
#pragma once

#include "corpus/corpus.hpp"

namespace isamore {
namespace corpus {

/**
 * Whether a run with @p config may consult and populate the corpus's
 * result cache.  Requires: a mode whose base program is the input
 * program (everything but Vector), no constrained run budget, and no
 * armed fault injection -- the conditions under which a stored result
 * is guaranteed to reproduce the recorded run.  Ineligible runs still execute normally and leave the
 * corpus untouched.
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
                                    const rii::RiiConfig& config,
                                    Corpus& corpus);

}  // namespace corpus
}  // namespace isamore
