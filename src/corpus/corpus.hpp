/**
 * @file
 * Persistent result corpus: cross-run caching of full analysis results.
 *
 * A Corpus keeps one kind of state: **full analysis results** keyed by
 * (workload, program, mode, rules, config) fingerprints, so an unchanged
 * request skips the pipeline entirely.  Reuse *across* programs is the
 * analysis's own job -- one e-graph per workload, anti-unified as a
 * whole (a library module or `all` is one workload) -- so the corpus
 * never replays patterns into another workload's run.
 *
 * Determinism contract: a warm run that hits the corpus produces output
 * byte-identical to the cold run it replaces (modulo the "seconds"
 * wall-clock fields), at every thread count, and a miss runs the plain
 * pipeline.  The pieces that guarantee it: results are only stored from
 * non-degraded, unconstrained, fault-free runs, and the file frame
 * refuses any corpus written by a build with different rewrite rules or
 * operators.
 *
 * Concurrency: every method takes an internal mutex; CachedResult
 * pointers returned by findResult() stay valid for the corpus's lifetime
 * (entries are never erased, only refused past a cap).  Terms held by
 * the corpus are strong TermPtr references, which is what pins their
 * interned nodes across internPurge(): the interner only drops nodes
 * with no outside reference, so corpus-held results survive server
 * purge sweeps by construction (see pinnedNodeCount()).
 */
#pragma once

#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <vector>

#include "corpus/format.hpp"
#include "isamore/isamore.hpp"
#include "rii/rii.hpp"
#include "rules/rulesets.hpp"

namespace isamore {
namespace corpus {

/**
 * A full analysis result in storable form: RiiResult minus the base
 * program (the fetcher re-attaches the live AnalyzedWorkload's program)
 * and minus wall-clock (stats.seconds is overwritten at fetch).
 */
struct CachedResult {
    /** Registry scheduling views in id order; rehydrating a registry by
     *  add()-ing these in order reproduces the original ids. */
    std::vector<TermPtr> registryBodies;
    std::vector<rii::Solution> front;
    rii::RiiStats stats;
    rii::RunDiagnostics diagnostics;
    /** (pattern id, evaluation), ascending by id. */
    std::vector<std::pair<int64_t, rii::PatternEval>> evaluations;
};

/** @name Invalidation fingerprints
 *  @{ */

/** Hash of the rewrite-rule library (names, flags, LHS/RHS structure). */
uint64_t rulesFingerprint(const rules::RulesetLibrary& rules);

/** Hash of the operator table (index, name, arity, flags). */
uint64_t opSchemaFingerprint();

/**
 * Hash of an encoded program as the pipeline observes it: e-graph
 * content (canonical classes, nodes), root, function roots, site list,
 * profile total, and IR instruction count.
 */
uint64_t programFingerprint(const AnalyzedWorkload& analyzed);

/**
 * Hash of every RiiConfig field that shapes pipeline output, and of the
 * fixed pipeline constants (kRulesPerPhase, kMaxPairs, kSeedAu, ...).
 */
uint64_t configFingerprint(const rii::RiiConfig& config);

/** The Results-section key for one analysis request. */
std::string resultKey(const std::string& workload, uint64_t programFp,
                      rii::Mode mode, uint64_t rulesFp, uint64_t configFp);

/** @} */

/** The persistent corpus (see file comment). */
class Corpus {
 public:
    Corpus() = default;
    Corpus(const Corpus&) = delete;
    Corpus& operator=(const Corpus&) = delete;

    /** @name Persistence
     *  @{ */

    /**
     * Load @p path, replacing this corpus's contents.  The whole file is
     * validated (frame checksum, magic, format version, rules and op
     * hashes, every section payload) before any state changes, so a
     * corrupt file throws UserError naming the path and leaves the
     * corpus exactly as it was -- no partial loads.
     */
    void load(const std::string& path, const rules::RulesetLibrary& rules);

    /** Serialize and publish to @p path via atomic rename; clears the
     *  dirty flag.  @throws UserError naming the path on I/O failure. */
    void save(const std::string& path, const rules::RulesetLibrary& rules);

    /** Whether anything was recorded since the last load()/save(). */
    bool dirty() const;

    /** @} */

    /** @name Full results
     *  @{ */

    /** The cached result for @p key, or nullptr.  The pointer stays
     *  valid for the corpus's lifetime. */
    const CachedResult* findResult(const std::string& key) const;

    /** Record a result (first store wins; refused past the cap). */
    void storeResult(const std::string& key, CachedResult result);

    size_t resultCount() const;

    /** @} */

    /**
     * Distinct interned term nodes reachable from corpus-held results
     * -- the nodes the corpus's strong references pin across
     * internPurge() (surfaced as the server.corpus_pinned_nodes gauge).
     */
    size_t pinnedNodeCount() const;

 private:
    std::string serializeLocked(const rules::RulesetLibrary& rules) const;

    mutable std::mutex mutex_;
    bool dirty_ = false;
    std::map<std::string, std::unique_ptr<CachedResult>> results_;
};

/**
 * Capture a finished run for the Results section.  @pre the run is not
 * degraded (the warm path only stores clean runs).
 */
CachedResult captureResult(const rii::RiiResult& result);

/**
 * Rebuild a RiiResult from a cached one.  The caller re-attaches
 * baseProgram and overwrites stats.seconds with live wall-clock.
 * @throws UserError when the cached registry bodies do not rehydrate to
 * stable ids (a corrupt or cross-build corpus that escaped the frame
 * checks).
 */
rii::RiiResult rehydrateResult(const CachedResult& cached);

}  // namespace corpus
}  // namespace isamore
