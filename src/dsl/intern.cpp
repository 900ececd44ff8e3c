#include "dsl/intern.hpp"

#include <mutex>
#include <unordered_map>

#include "support/check.hpp"
#include "support/hashing.hpp"

namespace isamore {
namespace {

/**
 * Node hash from the children's cached hashes: identical, term for term,
 * to the recursive formula the pre-interner termHash() used, so hashes
 * are stable across the interning change and across runs (no pointer
 * ever feeds the hash).
 */
uint64_t
nodeHashPrefix(Op op, const Payload& payload)
{
    return hashCombine(mix64(static_cast<uint64_t>(op)), payload.hash());
}

uint64_t
nodeHash(Op op, const Payload& payload,
         const std::vector<TermPtr>& children)
{
    uint64_t h = nodeHashPrefix(op, payload);
    for (const auto& child : children) {
        h = hashCombine(h, child->hash);
    }
    return h;
}

bool
nodeHasHole(Op op, const std::vector<TermPtr>& children)
{
    if (op == Op::Hole) {
        return true;
    }
    for (const auto& child : children) {
        if (child->hasHole) {
            return true;
        }
    }
    return false;
}

/** Shallow identity: children compared by pointer (they are canonical). */
bool
shallowEquals(const Term& node, Op op, const Payload& payload,
              const std::vector<TermPtr>& children)
{
    if (node.op != op || node.payload != payload ||
        node.children.size() != children.size()) {
        return false;
    }
    for (size_t i = 0; i < children.size(); ++i) {
        if (node.children[i].get() != children[i].get()) {
            return false;
        }
    }
    return true;
}

class Interner {
 public:
    static constexpr size_t kShards = 64;

    static Interner&
    instance()
    {
        // Leaked singleton: terms may outlive every static destructor
        // (tests, atexit handlers), so the table is never torn down.
        static Interner* interner = new Interner();
        return *interner;
    }

    TermPtr
    intern(Op op, Payload payload, std::vector<TermPtr> children,
           uint64_t hash, bool hasHole)
    {
        Shard& shard = shards_[shardOf(hash)];
        std::lock_guard<std::mutex> lock(shard.mu);
        auto bucket = shard.buckets.find(hash);
        if (bucket != shard.buckets.end()) {
            for (const TermPtr& candidate : bucket->second) {
                if (shallowEquals(*candidate, op, payload, children)) {
                    ++shard.hits;
                    return candidate;
                }
            }
        }
        ++shard.misses;
        TermPtr node = std::make_shared<Term>(
            op, std::move(payload), std::move(children), hash,
            /*interned=*/true, hasHole);
        shard.buckets[hash].push_back(node);
        return node;
    }

    InternStats
    stats() const
    {
        InternStats out;
        out.shards = kShards;
        for (const Shard& shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mu);
            for (const auto& [hash, chain] : shard.buckets) {
                out.terms += chain.size();
            }
            out.hits += shard.hits;
            out.misses += shard.misses;
        }
        return out;
    }

    void
    resetCounters()
    {
        for (Shard& shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mu);
            shard.hits = 0;
            shard.misses = 0;
        }
    }

    size_t
    purge()
    {
        size_t dropped = 0;
        bool changed = true;
        // A parent holds references to its children, so dropping it can
        // make them purgeable: sweep to a fixpoint.
        while (changed) {
            changed = false;
            for (Shard& shard : shards_) {
                std::lock_guard<std::mutex> lock(shard.mu);
                for (auto it = shard.buckets.begin();
                     it != shard.buckets.end();) {
                    auto& chain = it->second;
                    for (size_t i = 0; i < chain.size();) {
                        if (chain[i].use_count() == 1) {
                            chain.erase(chain.begin() + i);
                            ++dropped;
                            changed = true;
                        } else {
                            ++i;
                        }
                    }
                    it = chain.empty() ? shard.buckets.erase(it)
                                       : std::next(it);
                }
            }
        }
        return dropped;
    }

 private:
    struct Shard {
        mutable std::mutex mu;
        /** Full-hash buckets; chains are ~1 deep (64-bit collisions). */
        std::unordered_map<uint64_t, std::vector<TermPtr>> buckets;
        uint64_t hits = 0;
        uint64_t misses = 0;
    };

    /** Top bits pick the stripe; unordered_map consumes the low bits. */
    static size_t shardOf(uint64_t hash) { return hash >> 58; }

    Shard shards_[kShards];
};

}  // namespace

namespace detail {

/** The makeTerm() back end: canonicalize children, then intern. */
TermPtr
internNode(Op op, Payload payload, std::vector<TermPtr> children)
{
    for (TermPtr& child : children) {
        if (!child->interned) {
            child = internTerm(child);
        }
    }
    const uint64_t hash = nodeHash(op, payload, children);
    const bool hasHole = nodeHasHole(op, children);
    return Interner::instance().intern(op, std::move(payload),
                                       std::move(children), hash, hasHole);
}

}  // namespace detail

InternStats
internStats()
{
    return Interner::instance().stats();
}

size_t
internPurge()
{
    return Interner::instance().purge();
}

void
internResetCounters()
{
    Interner::instance().resetCounters();
}

TermPtr
internTerm(const TermPtr& term)
{
    ISAMORE_CHECK_MSG(term != nullptr, "internTerm on null term");
    if (term->interned) {
        return term;
    }
    std::vector<TermPtr> children;
    children.reserve(term->children.size());
    for (const auto& child : term->children) {
        children.push_back(internTerm(child));
    }
    return detail::internNode(term->op, term->payload,
                              std::move(children));
}

TermPtr
makeTermUninterned(Op op, Payload payload, std::vector<TermPtr> children)
{
    const int arity = opArity(op);
    if (arity >= 0) {
        ISAMORE_USER_CHECK(children.size() == static_cast<size_t>(arity),
                           std::string("arity mismatch for op ") +
                               std::string(opName(op)));
    }
    for (const auto& child : children) {
        ISAMORE_USER_CHECK(child != nullptr, "null child term");
    }
    const uint64_t hash = nodeHash(op, payload, children);
    const bool hasHole = nodeHasHole(op, children);
    return std::make_shared<Term>(op, std::move(payload),
                                  std::move(children), hash,
                                  /*interned=*/false, hasHole);
}

namespace {

TermPtr
copyTopologyRec(const TermPtr& term,
                std::unordered_map<const Term*, TermPtr>& copied)
{
    auto it = copied.find(term.get());
    if (it != copied.end()) {
        return it->second;
    }
    std::vector<TermPtr> children;
    children.reserve(term->children.size());
    for (const auto& child : term->children) {
        children.push_back(copyTopologyRec(child, copied));
    }
    TermPtr copy = makeTermUninterned(term->op, term->payload,
                                      std::move(children));
    copied.emplace(term.get(), copy);
    return copy;
}

}  // namespace

TermPtr
copyTopologyUninterned(const TermPtr& term)
{
    std::unordered_map<const Term*, TermPtr> copied;
    return copyTopologyRec(term, copied);
}

namespace {

/**
 * First-occurrence hole numbering, assigned while a pre-order walk meets
 * each hole: the n-th distinct hole id met gets number n, the order
 * termHoles() lists them in.  Every canonical-form walk below uses it,
 * so the canonical hash, the canonical equality and the materialized
 * view agree by construction.  The id list is per-thread scratch, so
 * at most one numbering may be alive per thread (none of the walks
 * below starts another).
 */
class HoleNumbering {
 public:
    HoleNumbering() : ids_(scratch()) { ids_.clear(); }

    int64_t
    number(int64_t holeId)
    {
        for (size_t i = 0; i < ids_.size(); ++i) {
            if (ids_[i] == holeId) {
                return static_cast<int64_t>(i);
            }
        }
        ids_.push_back(holeId);
        return static_cast<int64_t>(ids_.size() - 1);
    }

 private:
    static std::vector<int64_t>&
    scratch()
    {
        thread_local std::vector<int64_t> ids;
        return ids;
    }

    std::vector<int64_t>& ids_;
};

TermPtr
renameHolesUninterned(const TermPtr& term, HoleNumbering& numbering)
{
    if (term->op == Op::Hole) {
        return makeTermUninterned(
            Op::Hole, Payload::ofInt(numbering.number(term->payload.a)),
            {});
    }
    if (!term->hasHole) {
        return term;
    }
    std::vector<TermPtr> children;
    children.reserve(term->children.size());
    for (const auto& child : term->children) {
        children.push_back(renameHolesUninterned(child, numbering));
    }
    return makeTermUninterned(term->op, term->payload,
                              std::move(children));
}

uint64_t
canonicalHash(const TermPtr& term, HoleNumbering& numbering)
{
    if (term->op == Op::Hole) {
        return nodeHashPrefix(
            Op::Hole, Payload::ofInt(numbering.number(term->payload.a)));
    }
    if (!term->hasHole) {
        return term->hash;
    }
    uint64_t h = nodeHashPrefix(term->op, term->payload);
    for (const auto& child : term->children) {
        h = hashCombine(h, canonicalHash(child, numbering));
    }
    return h;
}

bool
canonicalEquals(const TermPtr& canonical, const TermPtr& term,
                HoleNumbering& numbering)
{
    if (term->op == Op::Hole) {
        return canonical->op == Op::Hole &&
               canonical->payload ==
                   Payload::ofInt(numbering.number(term->payload.a));
    }
    if (!term->hasHole) {
        return termEquals(canonical, term);
    }
    if (canonical->op != term->op || canonical->payload != term->payload ||
        canonical->children.size() != term->children.size()) {
        return false;
    }
    for (size_t i = 0; i < term->children.size(); ++i) {
        if (!canonicalEquals(canonical->children[i], term->children[i],
                             numbering)) {
            return false;
        }
    }
    return true;
}

}  // namespace

TermPtr
canonicalizeHolesUninterned(const TermPtr& term)
{
    if (!term->hasHole) {
        return term;
    }
    HoleNumbering numbering;
    return renameHolesUninterned(term, numbering);
}

uint64_t
canonicalHoleHash(const TermPtr& term)
{
    HoleNumbering numbering;
    return canonicalHash(term, numbering);
}

bool
canonicalHolesEqual(const TermPtr& canonical, const TermPtr& term)
{
    HoleNumbering numbering;
    return canonicalEquals(canonical, term, numbering);
}

uint64_t
termHashDeep(const TermPtr& term)
{
    uint64_t h = mix64(static_cast<uint64_t>(term->op));
    h = hashCombine(h, term->payload.hash());
    for (const auto& child : term->children) {
        h = hashCombine(h, termHashDeep(child));
    }
    return h;
}

bool
termEqualsDeep(const TermPtr& a, const TermPtr& b)
{
    if (a.get() == b.get()) {
        return true;
    }
    if (a->op != b->op || a->payload != b->payload ||
        a->children.size() != b->children.size()) {
        return false;
    }
    for (size_t i = 0; i < a->children.size(); ++i) {
        if (!termEqualsDeep(a->children[i], b->children[i])) {
            return false;
        }
    }
    return true;
}

}  // namespace isamore
