/**
 * @file
 * The e-graph data structure (paper §2.2, Fig. 2; egg-style implementation).
 *
 * An e-graph compactly represents sets of equivalent terms.  E-classes group
 * equivalent e-nodes; each e-node is a constructor applied to child e-class
 * ids.  Congruence closure is maintained lazily: merge() records pending
 * unions and rebuild() repairs the hashcons and parent lists to a fixpoint
 * (the deferred-rebuilding design from egg).
 *
 * Threading: the graph is a plain single-threaded structure (DESIGN.md
 * "Serial e-graph").  Mutation (add(), merge(), rebuild()) is serial.
 * Once rebuild() returns, the graph may be *read* from several threads
 * at once -- find(), lookup(), cls(), classIds() and classesWithOp()
 * never write, because find() is a non-mutating walk and rebuild()
 * compresses every path and refreshes the read caches eagerly.  The AU
 * sweep's pool lanes and the server's shared workload graphs rely on
 * exactly that.
 *
 * Determinism: class ids and merge outcomes depend only on the
 * order of add()/merge() calls, so pipeline output is byte-identical at
 * every thread count.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dsl/term.hpp"

namespace isamore {

/** Identifier of an e-class. */
using EClassId = uint32_t;

/** Sentinel invalid e-class id. */
inline constexpr EClassId kInvalidClass = ~0u;

/** One constructor application: op + payload + child e-class ids. */
struct ENode {
    Op op = Op::Lit;
    Payload payload;
    std::vector<EClassId> children;

    ENode() = default;
    ENode(Op op_, Payload payload_, std::vector<EClassId> children_)
        : op(op_), payload(payload_), children(std::move(children_))
    {}

    bool
    operator==(const ENode& other) const
    {
        return op == other.op && payload == other.payload &&
               children == other.children;
    }

    uint64_t hash() const;

    /** Whether this node is a leaf (no children). */
    bool isLeaf() const { return children.empty(); }

    /** Printable form for debugging. */
    std::string str() const;
};

/** Hash functor for hashcons maps. */
struct ENodeHash {
    size_t operator()(const ENode& n) const { return n.hash(); }
};

/** Per-class storage. */
struct EClass {
    /** Canonicalized member e-nodes (deduplicated after rebuild()). */
    std::vector<ENode> nodes;

    /**
     * Uses of this class: (parent node as last canonicalized, parent class).
     * Maintained for congruence repair.
     */
    std::vector<std::pair<ENode, EClassId>> parents;
};

/**
 * Flat, pointer-free image of a rebuilt e-graph.  Captures everything
 * later graph operations can observe: the union-find resolution of every
 * id ever allocated, the merge count, and each canonical class's node
 * and parent lists *in storage order* -- repair and merge tie-breaking
 * read those orders, so two graphs with equal images behave identically
 * from then on.
 */
struct EGraphSnapshot {
    uint64_t version = 0;  ///< version() at export
    uint32_t numIds = 0;   ///< total ids ever allocated
    /** Per id: its canonical root (self for canonical ids). */
    std::vector<EClassId> unionFind;
    /** One canonical class's storage, verbatim. */
    struct ClassImage {
        EClassId id = 0;
        std::vector<ENode> nodes;
        std::vector<std::pair<ENode, EClassId>> parents;
    };
    std::vector<ClassImage> classes;  ///< ascending by id
};

/**
 * E-graph with deferred congruence repair.
 *
 * Beyond the core egg design, the graph maintains two derived structures
 * for the e-matching engine (see DESIGN.md "Matching engine"):
 *
 *  - an **op index** mapping each root operator to the ascending list of
 *    canonical classes containing a node with that operator, so pattern
 *    searches seed their root candidates without scanning every class;
 *  - a **cached canonical-id snapshot** (classIds()) and an incrementally
 *    maintained node count, both O(1) on the hot read paths.
 *
 * The caches refresh lazily; rebuild() always leaves them fresh, so
 * concurrent readers of a rebuilt graph never hit a refresh.
 */
class EGraph {
 public:
    EGraph() = default;

    /** Deep copy. */
    EGraph(const EGraph& other);
    EGraph& operator=(const EGraph& other);

    /** Move.  The moved-from graph may only be destroyed or assigned. */
    EGraph(EGraph&& other) noexcept = default;
    EGraph& operator=(EGraph&& other) noexcept = default;

    /** @name Construction
     *  @{ */

    /**
     * Add (hashcons) a node; children must be existing class ids.
     * @return the canonical class containing the node.
     */
    EClassId add(ENode node);

    /** Recursively encode a DSL term. Returns the root class. */
    EClassId addTerm(const TermPtr& term);

    /**
     * Merge two e-classes; repair is deferred until rebuild().  The
     * losing class's storage is freed here.
     * @return true when the classes were distinct.
     */
    bool merge(EClassId a, EClassId b);

    /**
     * Restore the hashcons/congruence invariants after merges.  Each round
     * repairs the dirty classes in worklist order, then applies the
     * unions it discovered in discovery order.  Also snapshots canonical
     * ids into the union-find (full path compression), so post-rebuild
     * find() is O(1), and refreshes the read caches.
     */
    void rebuild();

    /** @} */

    /** @name Queries
     *  @{ */

    /**
     * Canonical representative of @p id.  A non-mutating walk, so it is
     * safe from several readers at once.  After a rebuild() every link
     * points directly at its root, so this is O(1) until the next merge.
     */
    EClassId find(EClassId id) const;

    /** Canonicalize a node's children. */
    ENode canonicalize(const ENode& node) const;

    /**
     * Look a canonicalized node up without inserting.
     * @return the containing class or kInvalidClass.
     */
    EClassId lookup(const ENode& node) const;

    /** Class data. @pre @p id is canonical (call find() first). */
    const EClass& cls(EClassId id) const;

    /** Number of live (canonical) e-classes. */
    size_t numClasses() const { return classCount_; }

    /** Number of e-nodes across live classes (maintained incrementally). */
    size_t numNodes() const { return nodeCount_; }

    /** Total ids ever allocated (canonical or merged away). */
    size_t numIds() const { return parent_.size(); }

    /**
     * Snapshot of all canonical class ids (stable order: ascending).
     * Cached; recomputed lazily after mutations.  The reference stays
     * valid until the next mutation.
     */
    const std::vector<EClassId>& classIds() const;

    /**
     * Canonical classes containing at least one node with root operator
     * @p op, ascending.  Same caching contract as classIds().
     */
    const std::vector<EClassId>& classesWithOp(Op op) const;

    /** Whether there are pending merges not yet rebuilt. */
    bool needsRebuild() const { return !worklist_.empty(); }

    /** Monotone counter of merges performed (for saturation detection). */
    uint64_t version() const { return version_; }

    /**
     * Export a complete image of the graph (ids, union-find, version,
     * node/parent list orders), for tests that pin EqSat output.
     * @pre the graph is rebuilt (!needsRebuild()).
     */
    EGraphSnapshot exportSnapshot() const;

 private:
    /**
     * Repair one dirty class against the current union-find: re-key its
     * parents in the hashcons, dedup its parents and own nodes, and
     * append the congruent pairs it finds to @p unions (discovery order).
     */
    void repair(EClassId id,
                std::vector<std::pair<EClassId, EClassId>>& unions);
    /** find() with path halving; only valid from mutation paths. */
    EClassId findMutable(EClassId id);
    /** Rebuild classIds/op-index caches when stale. */
    void refreshCaches() const;
    /** Point every id's parent link directly at its root. */
    void compressPaths();

    std::unordered_map<ENode, EClassId, ENodeHash> memo_;  // hashcons
    // Per id, indexed by EClassId: union-find link and class storage
    // (null once the class lost a merge).  Storage sits behind a pointer
    // so cls() references survive later add() calls.
    std::vector<EClassId> parent_;
    std::vector<std::unique_ptr<EClass>> classes_;

    size_t classCount_ = 0;
    size_t nodeCount_ = 0;  // Σ nodes over live classes
    uint64_t version_ = 0;

    std::vector<EClassId> worklist_;

    // Lazily refreshed read caches (see refreshCaches()).  Mutable so the
    // const read path can refresh them; rebuild() always refreshes
    // eagerly, which keeps concurrent readers refresh-free.
    mutable std::vector<EClassId> classIdsCache_;
    mutable std::vector<std::vector<EClassId>> opIndex_;  // by Op value
    mutable bool cachesStale_ = true;
};

}  // namespace isamore
