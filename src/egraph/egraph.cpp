#include "egraph/egraph.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "support/check.hpp"
#include "support/hashing.hpp"

namespace isamore {

uint64_t
ENode::hash() const
{
    uint64_t h = mix64(static_cast<uint64_t>(op));
    h = hashCombine(h, payload.hash());
    for (EClassId child : children) {
        h = hashCombine(h, child);
    }
    return h;
}

std::string
ENode::str() const
{
    std::ostringstream os;
    os << '(' << opName(op);
    if (payload.kind != Payload::Kind::None) {
        os << '[' << payload.str() << ']';
    }
    for (EClassId child : children) {
        os << ' ' << child;
    }
    os << ')';
    return os.str();
}

EGraph::EGraph(const EGraph& other)
    : memo_(other.memo_),
      parent_(other.parent_),
      classCount_(other.classCount_),
      nodeCount_(other.nodeCount_),
      version_(other.version_),
      worklist_(other.worklist_),
      classIdsCache_(other.classIdsCache_),
      opIndex_(other.opIndex_),
      cachesStale_(other.cachesStale_)
{
    classes_.reserve(other.classes_.size());
    for (const std::unique_ptr<EClass>& data : other.classes_) {
        classes_.push_back(data ? std::make_unique<EClass>(*data) : nullptr);
    }
}

EGraph&
EGraph::operator=(const EGraph& other)
{
    if (this != &other) {
        *this = EGraph(other);
    }
    return *this;
}

EClassId
EGraph::find(EClassId id) const
{
    // Non-mutating, so rebuilt graphs can be read from several threads.
    // After a rebuild every link is a self-loop or points directly at a
    // root (compressPaths), making this O(1) until the next merge.
    ISAMORE_CHECK(id < parent_.size());
    while (parent_[id] != id) {
        id = parent_[id];
    }
    return id;
}

EClassId
EGraph::findMutable(EClassId id)
{
    ISAMORE_CHECK(id < parent_.size());
    while (parent_[id] != id) {
        parent_[id] = parent_[parent_[id]];  // path halving
        id = parent_[id];
    }
    return id;
}

ENode
EGraph::canonicalize(const ENode& node) const
{
    ENode out = node;
    for (EClassId& child : out.children) {
        child = find(child);
    }
    return out;
}

EClassId
EGraph::lookup(const ENode& node) const
{
    auto it = memo_.find(canonicalize(node));
    return it == memo_.end() ? kInvalidClass : find(it->second);
}

EClassId
EGraph::add(ENode node)
{
    for (EClassId& child : node.children) {
        child = find(child);
    }
    auto it = memo_.find(node);
    if (it != memo_.end()) {
        return find(it->second);
    }
    const auto id = static_cast<EClassId>(parent_.size());
    parent_.push_back(id);
    for (const EClassId child : node.children) {
        classes_[child]->parents.emplace_back(node, id);
    }
    auto data = std::make_unique<EClass>();
    data->nodes.push_back(node);
    classes_.push_back(std::move(data));
    memo_.emplace(std::move(node), id);
    ++classCount_;
    ++nodeCount_;
    cachesStale_ = true;
    return id;
}

EClassId
EGraph::addTerm(const TermPtr& term)
{
    std::vector<EClassId> children;
    children.reserve(term->children.size());
    for (const auto& child : term->children) {
        children.push_back(addTerm(child));
    }
    return add(ENode(term->op, term->payload, std::move(children)));
}

bool
EGraph::merge(EClassId a, EClassId b)
{
    a = findMutable(a);
    b = findMutable(b);
    if (a == b) {
        return false;
    }
    // Union by (node-count) size: keep the larger class canonical.
    if (classes_[a]->nodes.size() + classes_[a]->parents.size() <
        classes_[b]->nodes.size() + classes_[b]->parents.size()) {
        std::swap(a, b);
    }
    EClass& winner = *classes_[a];
    EClass& loser = *classes_[b];
    parent_[b] = a;
    winner.nodes.insert(winner.nodes.end(),
                        std::make_move_iterator(loser.nodes.begin()),
                        std::make_move_iterator(loser.nodes.end()));
    winner.parents.insert(winner.parents.end(),
                          std::make_move_iterator(loser.parents.begin()),
                          std::make_move_iterator(loser.parents.end()));
    classes_[b].reset();
    --classCount_;
    worklist_.push_back(a);
    ++version_;
    cachesStale_ = true;
    return true;
}

void
EGraph::repair(EClassId id,
               std::vector<std::pair<EClassId, EClassId>>& unions)
{
    EClass& data = *classes_[id];

    // Re-canonicalize the parent nodes and re-key them in the hashcons,
    // collecting classes made congruent by the pending unions.  Every
    // stale key is dropped before any fresh key goes in, so a fresh key
    // that equals another parent's stale key survives.
    auto parents = std::move(data.parents);
    data.parents.clear();

    // First-seen dedup of canonical parent nodes; the map carries the
    // index into fresh so the order never depends on the hash map's
    // layout.
    std::unordered_map<ENode, size_t, ENodeHash> seen;
    seen.reserve(parents.size());
    std::vector<std::pair<ENode, EClassId>> fresh;
    fresh.reserve(parents.size());
    for (auto& [pnode, pclass] : parents) {
        memo_.erase(pnode);
        ENode canonical = canonicalize(pnode);
        const EClassId canonicalClass = find(pclass);
        auto it = seen.find(canonical);
        if (it != seen.end()) {
            // Congruent duplicates: union after the round's repairs.
            unions.emplace_back(fresh[it->second].second, canonicalClass);
        } else {
            seen.emplace(canonical, fresh.size());
            fresh.emplace_back(std::move(canonical), canonicalClass);
        }
    }
    for (const auto& [node, klass] : fresh) {
        memo_[node] = klass;
    }
    data.parents = std::move(fresh);

    // Deduplicate this class's own nodes after canonicalization.
    std::unordered_set<uint64_t> hashes;
    std::vector<ENode> unique;
    unique.reserve(data.nodes.size());
    for (ENode& node : data.nodes) {
        ENode canonical = canonicalize(node);
        const uint64_t h = canonical.hash();
        bool duplicate = false;
        if (!hashes.insert(h).second) {
            for (const ENode& existing : unique) {
                if (existing == canonical) {
                    duplicate = true;
                    break;
                }
            }
        }
        if (!duplicate) {
            unique.push_back(std::move(canonical));
        }
    }
    nodeCount_ -= data.nodes.size() - unique.size();
    data.nodes = std::move(unique);
}

void
EGraph::rebuild()
{
    while (!worklist_.empty()) {
        std::vector<EClassId> todo;
        todo.swap(worklist_);

        // Stable-dedup to canonical ids: first-occurrence order of the
        // merge order, so deterministic.
        std::vector<EClassId> classes;
        classes.reserve(todo.size());
        {
            std::unordered_set<EClassId> seen;
            seen.reserve(todo.size() * 2);
            for (EClassId id : todo) {
                const EClassId canonical = findMutable(id);
                if (seen.insert(canonical).second) {
                    classes.push_back(canonical);
                }
            }
        }

        // Repair every dirty class against this round's union-find; the
        // congruences found are applied only once all repairs are done.
        std::vector<std::pair<EClassId, EClassId>> pending;
        for (const EClassId id : classes) {
            repair(id, pending);
        }

        // Union in (class order, discovery order).
        for (const auto& [x, y] : pending) {
            merge(x, y);
        }
    }

    // Snapshot canonical ids into every link: post-rebuild find() is a
    // single load until the next merge.
    compressPaths();
    if (cachesStale_) {
        refreshCaches();
    }
}

void
EGraph::compressPaths()
{
    for (EClassId id = 0; id < parent_.size(); ++id) {
        parent_[id] = findMutable(parent_[id]);
    }
}

const EClass&
EGraph::cls(EClassId id) const
{
    ISAMORE_CHECK_MSG(id < classes_.size() && classes_[id] != nullptr,
                      "cls() requires a canonical id; call find() first");
    return *classes_[id];
}

void
EGraph::refreshCaches() const
{
    classIdsCache_.clear();
    classIdsCache_.reserve(classCount_);
    for (EClassId id = 0; id < classes_.size(); ++id) {
        if (classes_[id] != nullptr) {
            classIdsCache_.push_back(id);
        }
    }

    opIndex_.assign(kNumOps, {});
    for (EClassId id : classIdsCache_) {
        // Emit each (op, class) pair once even when a class holds several
        // nodes with the same root op; ids come out ascending because the
        // outer walk is ascending.
        uint64_t emitted = 0;  // bitset over ops (kNumOps < 64)
        static_assert(kNumOps <= 64);
        for (const ENode& node : classes_[id]->nodes) {
            const uint64_t bit = uint64_t{1} << static_cast<size_t>(node.op);
            if ((emitted & bit) == 0) {
                emitted |= bit;
                opIndex_[static_cast<size_t>(node.op)].push_back(id);
            }
        }
    }
    cachesStale_ = false;
}

const std::vector<EClassId>&
EGraph::classIds() const
{
    if (cachesStale_) {
        refreshCaches();
    }
    return classIdsCache_;
}

const std::vector<EClassId>&
EGraph::classesWithOp(Op op) const
{
    if (cachesStale_) {
        refreshCaches();
    }
    return opIndex_[static_cast<size_t>(op)];
}

EGraphSnapshot
EGraph::exportSnapshot() const
{
    ISAMORE_CHECK_MSG(!needsRebuild(),
                      "exportSnapshot requires a rebuilt graph");
    EGraphSnapshot snap;
    snap.version = version_;
    const auto ids = static_cast<uint32_t>(parent_.size());
    snap.numIds = ids;
    snap.unionFind.reserve(ids);
    for (EClassId id = 0; id < ids; ++id) {
        snap.unionFind.push_back(find(id));
    }
    for (EClassId id = 0; id < ids; ++id) {
        if (classes_[id] == nullptr) {
            continue;
        }
        EGraphSnapshot::ClassImage image;
        image.id = id;
        image.nodes = classes_[id]->nodes;
        image.parents = classes_[id]->parents;
        snap.classes.push_back(std::move(image));
    }
    return snap;
}

}  // namespace isamore
