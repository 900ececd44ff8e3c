/**
 * @file
 * Global hash-consing interner for Term nodes.
 *
 * Every makeTerm() canonicalizes through a sharded intern table keyed on
 * (op, payload, child pointers): structurally equal terms are represented
 * by one unique node, so structural equality downstream is pointer
 * identity and the structural hash is a field cached at intern time.
 * The table is striped across 64 mutex-guarded shards selected by the
 * top bits of the node hash, which keeps contention negligible under the
 * work-stealing AU sweep (PR 2) while staying deterministic: nothing
 * about a node -- hash, equality, print order -- depends on its address.
 *
 * Memory behaviour: the interner holds one strong reference per distinct
 * structure, so nodes live until internPurge() drops entries no longer
 * referenced outside the table.  Purging is safe at any quiescent point
 * (no concurrent makeTerm) and never breaks canonicality: an entry is
 * only dropped when no outside TermPtr to it exists.
 *
 * The frontend (frontend/restructure.cpp) deliberately bypasses the
 * interner via makeTermUninterned(): Site provenance is keyed per
 * occurrence, not per structure, so collapsing structurally equal
 * subtrees there would merge distinct program points.  Uninterned nodes
 * still carry the cached hash and interoperate with termEquals/termHash;
 * they are re-canonicalized on first contact with makeTerm().
 */
#pragma once

#include "dsl/term.hpp"

namespace isamore {

/** Counters for the global intern table (approximate under contention). */
struct InternStats {
    size_t terms = 0;    ///< live canonical nodes across all shards
    size_t shards = 0;   ///< stripe count
    uint64_t hits = 0;   ///< makeTerm calls answered by an existing node
    uint64_t misses = 0; ///< makeTerm calls that created a node
};

/** Snapshot of the interner's size and hit counters. */
InternStats internStats();

/**
 * Zero the hit/miss counters (the live-node count is structural and
 * stays).  A long-lived server resets them per sweep window so the
 * telemetry gauges report per-window rates instead of process-lifetime
 * totals.
 */
void internResetCounters();

/**
 * Drop canonical nodes that nothing outside the table references.
 * Iterates to a fixpoint (purging a parent can orphan its children).
 * Must not race with makeTerm; returns the number of nodes dropped.
 */
size_t internPurge();

/**
 * Canonicalize an existing (possibly uninterned) term: returns the
 * unique interned node for its structure, rebuilding bottom-up only
 * where needed.  Identity for already-interned terms.
 */
TermPtr internTerm(const TermPtr& term);

/**
 * Legacy tree constructor: allocates a fresh node per call, bypassing
 * the intern table (children are kept as given).  The node still caches
 * its structural hash.  Two users: the frontend's per-occurrence
 * provenance (see file comment) and tests/benches that need the pre-
 * interner behaviour as a differential oracle.  Validates arity exactly
 * like makeTerm.
 */
TermPtr makeTermUninterned(Op op, Payload payload,
                           std::vector<TermPtr> children);

/**
 * The scheduling view of a pattern body: canonicalizeHoles' renaming,
 * but rebuilding the hole-carrying spine with fresh uninterned nodes
 * per occurrence while hole-free subtrees pass through with whatever
 * sharing the input already had.  This is byte-for-byte the topology
 * the pre-interner canonicalizeHoles produced (its hole substitution
 * always allocated, so every hole-path node was rebuilt per
 * occurrence), which the HLS estimator observes: it accrues area once
 * per distinct pointer.  The registry keeps this view alongside the
 * interned canonical body so hardware costs are unchanged by
 * hash-consing.
 */
TermPtr canonicalizeHolesUninterned(const TermPtr& term);

/**
 * canonicalizeHolesUninterned(@p term)->hash, computed without building
 * anything: hole-free subtrees contribute their cached hash and each
 * hole its first-occurrence number.
 */
uint64_t canonicalHoleHash(const TermPtr& term);

/**
 * termEquals(@p canonical, canonicalizeHolesUninterned(@p term)),
 * decided without building anything.  Lets a table of canonical terms
 * be probed with raw candidates, so only first occurrences are ever
 * materialized (the AU merge and PatternRegistry::add).
 */
bool canonicalHolesEqual(const TermPtr& canonical, const TermPtr& term);

/**
 * Uninterned copy of @p term that preserves its internal sharing: every
 * distinct node of the source DAG maps to exactly one fresh node, so
 * the copy's pointer topology mirrors the source but is private to the
 * caller.  Used by the AU sweep for class representatives, whose
 * pointer-counted hardware features must not see sharing *across*
 * extraction roots (each pre-interner extract() call produced a private
 * DAG; the interner would otherwise collapse equal reps between roots).
 */
TermPtr copyTopologyUninterned(const TermPtr& term);

/** Recursive structural-hash oracle (ignores the cached field). */
uint64_t termHashDeep(const TermPtr& term);

/** Recursive structural-equality oracle (ignores interning). */
bool termEqualsDeep(const TermPtr& a, const TermPtr& b);

namespace detail {

/**
 * makeTerm() back end: re-canonicalizes any uninterned child, computes
 * the node hash from the (now canonical) children's cached hashes, and
 * returns the unique interned node.  Arity/null validation is the
 * caller's job.
 */
TermPtr internNode(Op op, Payload payload, std::vector<TermPtr> children);

}  // namespace detail

}  // namespace isamore
