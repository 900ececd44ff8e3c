#include "corpus/corpus.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "dsl/intern.hpp"
#include "support/hashing.hpp"

namespace isamore {
namespace corpus {
namespace {

/** Entry cap: stores past it are refused (never evicted, so result
 *  pointers handed out by findResult stay valid for the corpus lifetime). */
constexpr size_t kMaxResults = 256;

/** Pool id for a null TermPtr. */
constexpr uint32_t kNullTerm = 0xFFFFFFFFu;

uint64_t
doubleBits(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

uint64_t
stringHash(const std::string& s)
{
    return fnv1a(s.data(), s.size());
}

// ---------------------------------------------------------------------
// Scalar payload / e-node primitives shared by the term pool and the
// e-graph snapshot codecs.

void
writePayload(ByteWriter& out, const Payload& payload)
{
    out.u8(static_cast<uint8_t>(payload.kind));
    switch (payload.kind) {
      case Payload::Kind::None:
        break;
      case Payload::Kind::Int:
        out.i64(payload.a);
        break;
      case Payload::Kind::Float:
        // Raw bits: NaN and -0.0 round-trip exactly, matching Payload's
        // bit-pattern equality and hashing.
        out.f64(payload.f);
        break;
      case Payload::Kind::Pair:
        out.i64(payload.a);
        out.i64(payload.b);
        break;
    }
}

Payload
readPayload(ByteReader& in, const std::string& what)
{
    switch (in.u8()) {
      case static_cast<uint8_t>(Payload::Kind::None):
        return Payload::none();
      case static_cast<uint8_t>(Payload::Kind::Int):
        return Payload::ofInt(in.i64());
      case static_cast<uint8_t>(Payload::Kind::Float):
        return Payload::ofFloat(in.f64());
      case static_cast<uint8_t>(Payload::Kind::Pair): {
        const int64_t a = in.i64();
        const int64_t b = in.i64();
        return Payload::ofPair(a, b);
      }
      default:
        throw UserError(what + ": corrupt payload kind");
    }
}

Op
readOp(ByteReader& in, const std::string& what)
{
    const uint16_t op = in.u16();
    if (op >= kNumOps) {
        throw UserError(what + ": operator index " + std::to_string(op) +
                        " out of range");
    }
    return static_cast<Op>(op);
}

// ---------------------------------------------------------------------
// Term pool: one DAG-preserving table of term nodes per section.  Nodes
// are written children-before-parents; pointer identity inside the pool
// captures sharing exactly, so restored uninterned DAGs keep the
// topology the pointer-counting cost model observes.

class TermPoolWriter {
 public:
    uint32_t
    id(const TermPtr& term)
    {
        if (term == nullptr) {
            return kNullTerm;
        }
        const auto it = ids_.find(term.get());
        if (it != ids_.end()) {
            return it->second;
        }
        for (const TermPtr& child : term->children) {
            id(child);
        }
        const uint32_t fresh = static_cast<uint32_t>(nodes_.size());
        ids_.emplace(term.get(), fresh);
        nodes_.push_back(term.get());
        return fresh;
    }

    void
    serialize(ByteWriter& out) const
    {
        out.u32(static_cast<uint32_t>(nodes_.size()));
        for (const Term* node : nodes_) {
            out.u16(static_cast<uint16_t>(node->op));
            writePayload(out, node->payload);
            out.boolean(node->interned);
            out.u32(static_cast<uint32_t>(node->children.size()));
            for (const TermPtr& child : node->children) {
                out.u32(ids_.at(child.get()));
            }
        }
    }

 private:
    std::unordered_map<const Term*, uint32_t> ids_;
    std::vector<const Term*> nodes_;
};

class TermPoolReader {
 public:
    static TermPoolReader
    deserialize(ByteReader& in, const std::string& what)
    {
        TermPoolReader pool;
        const uint32_t count = in.u32();
        in.checkCount(count, 8);
        pool.terms_.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
            const Op op = readOp(in, what);
            Payload payload = readPayload(in, what);
            const bool interned = in.boolean();
            const uint32_t childCount = in.u32();
            in.checkCount(childCount, 4);
            const int arity = opArity(op);
            if (arity >= 0 && childCount != static_cast<uint32_t>(arity)) {
                throw UserError(what + ": term arity mismatch for " +
                                std::string(opName(op)));
            }
            std::vector<TermPtr> children;
            children.reserve(childCount);
            for (uint32_t c = 0; c < childCount; ++c) {
                const uint32_t child = in.u32();
                if (child >= pool.terms_.size()) {
                    throw UserError(
                        what + ": term child precedes its definition");
                }
                children.push_back(pool.terms_[child]);
            }
            pool.terms_.push_back(
                interned ? makeTerm(op, payload, std::move(children))
                         : makeTermUninterned(op, payload,
                                              std::move(children)));
        }
        return pool;
    }

    TermPtr
    get(uint32_t id, const std::string& what) const
    {
        if (id == kNullTerm) {
            return nullptr;
        }
        if (id >= terms_.size()) {
            throw UserError(what + ": term reference out of range");
        }
        return terms_[id];
    }

 private:
    std::vector<TermPtr> terms_;
};

// ---------------------------------------------------------------------
// rii-type codecs.

void
writeSolution(ByteWriter& out, TermPoolWriter& pool,
              const rii::Solution& s)
{
    out.u32(static_cast<uint32_t>(s.patternIds.size()));
    for (const int64_t id : s.patternIds) {
        out.i64(id);
    }
    out.f64(s.deltaNs);
    out.f64(s.speedup);
    out.f64(s.areaUm2);
    out.u32(pool.id(s.program));
    out.u32(static_cast<uint32_t>(s.useCounts.size()));
    for (const size_t n : s.useCounts) {
        out.u64(n);
    }
}

rii::Solution
readSolution(ByteReader& in, const TermPoolReader& pool,
             const std::string& what)
{
    rii::Solution s;
    const uint32_t ids = in.u32();
    in.checkCount(ids, 8);
    s.patternIds.reserve(ids);
    for (uint32_t i = 0; i < ids; ++i) {
        s.patternIds.push_back(in.i64());
    }
    s.deltaNs = in.f64();
    s.speedup = in.f64();
    s.areaUm2 = in.f64();
    s.program = pool.get(in.u32(), what);
    const uint32_t uses = in.u32();
    in.checkCount(uses, 8);
    s.useCounts.reserve(uses);
    for (uint32_t i = 0; i < uses; ++i) {
        s.useCounts.push_back(in.u64());
    }
    return s;
}

void
writeStats(ByteWriter& out, const rii::RiiStats& stats)
{
    out.u64(stats.origNodes);
    out.u64(stats.origClasses);
    out.u64(stats.peakNodes);
    out.u64(stats.peakClasses);
    out.u64(stats.rawCandidates);
    out.u64(stats.dedupedCandidates);
    out.u64(stats.phasesRun);
    out.boolean(stats.auAborted);
    out.f64(stats.seconds);
    out.u64(stats.peakRssBytes);
    out.u64(stats.packsCreated);
    out.u32(static_cast<uint32_t>(stats.ruleTotals.size()));
    for (const auto& [name, totals] : stats.ruleTotals) {
        out.str(name);
        out.u64(totals.matches);
        out.u64(totals.applications);
    }
}

rii::RiiStats
readStats(ByteReader& in)
{
    rii::RiiStats stats;
    stats.origNodes = in.u64();
    stats.origClasses = in.u64();
    stats.peakNodes = in.u64();
    stats.peakClasses = in.u64();
    stats.rawCandidates = in.u64();
    stats.dedupedCandidates = in.u64();
    stats.phasesRun = in.u64();
    stats.auAborted = in.boolean();
    stats.seconds = in.f64();
    stats.peakRssBytes = in.u64();
    stats.packsCreated = in.u64();
    const uint32_t rules = in.u32();
    in.checkCount(rules, 20);
    for (uint32_t i = 0; i < rules; ++i) {
        std::string name = in.str();
        RuleTotals totals;
        totals.matches = in.u64();
        totals.applications = in.u64();
        stats.ruleTotals.emplace(std::move(name), totals);
    }
    return stats;
}

void
writeDiagnostics(ByteWriter& out, const rii::RunDiagnostics& diag)
{
    out.u32(static_cast<uint32_t>(diag.lastEqSatStop));
    out.u64(diag.eqsatNodeTrips);
    out.u64(diag.eqsatTimeouts);
    out.u64(diag.skippedRules);
    out.u64(diag.skippedPairs);
    out.u64(diag.skippedPatterns);
    out.u64(diag.skippedPhases);
    out.u64(diag.faultsInjected);
    out.boolean(diag.auBudgetTripped);
    out.boolean(diag.auTimedOut);
    out.boolean(diag.selectionTruncated);
    out.boolean(diag.budgetExhausted);
}

rii::RunDiagnostics
readDiagnostics(ByteReader& in, const std::string& what)
{
    rii::RunDiagnostics diag;
    const uint32_t stop = in.u32();
    if (stop > static_cast<uint32_t>(StopReason::Budget)) {
        throw UserError(what + ": corrupt stop reason");
    }
    diag.lastEqSatStop = static_cast<StopReason>(stop);
    diag.eqsatNodeTrips = in.u64();
    diag.eqsatTimeouts = in.u64();
    diag.skippedRules = in.u64();
    diag.skippedPairs = in.u64();
    diag.skippedPatterns = in.u64();
    diag.skippedPhases = in.u64();
    diag.faultsInjected = in.u64();
    diag.auBudgetTripped = in.boolean();
    diag.auTimedOut = in.boolean();
    diag.selectionTruncated = in.boolean();
    diag.budgetExhausted = in.boolean();
    return diag;
}

void
writeEval(ByteWriter& out, TermPoolWriter& pool, const rii::PatternEval& e)
{
    out.i64(e.id);
    out.u32(pool.id(e.body));
    out.u64(e.opCount);
    out.i64(e.hw.cycles);
    out.f64(e.hw.latencyNs);
    out.f64(e.hw.areaUm2);
    out.i64(e.hw.initiationInterval);
    out.u32(static_cast<uint32_t>(e.uses.size()));
    for (const rii::UseSite& use : e.uses) {
        out.u32(use.klass);
        out.i64(use.func);
        out.u32(use.block);
        out.u64(use.execCount);
        out.f64(use.cpoCycles);
        out.f64(use.savedNs);
    }
    out.f64(e.deltaNs);
}

rii::PatternEval
readEval(ByteReader& in, const TermPoolReader& pool,
         const std::string& what)
{
    rii::PatternEval e;
    e.id = in.i64();
    e.body = pool.get(in.u32(), what);
    e.opCount = in.u64();
    e.hw.cycles = static_cast<int>(in.i64());
    e.hw.latencyNs = in.f64();
    e.hw.areaUm2 = in.f64();
    e.hw.initiationInterval = static_cast<int>(in.i64());
    const uint32_t uses = in.u32();
    in.checkCount(uses, 40);
    e.uses.reserve(uses);
    for (uint32_t i = 0; i < uses; ++i) {
        rii::UseSite use;
        use.klass = in.u32();
        use.func = static_cast<int>(in.i64());
        use.block = in.u32();
        use.execCount = in.u64();
        use.cpoCycles = in.f64();
        use.savedNs = in.f64();
        e.uses.push_back(use);
    }
    e.deltaNs = in.f64();
    return e;
}

void
writeCachedResult(ByteWriter& out, TermPoolWriter& pool,
                  const CachedResult& result)
{
    out.u32(static_cast<uint32_t>(result.registryBodies.size()));
    for (const TermPtr& body : result.registryBodies) {
        out.u32(pool.id(body));
    }
    out.u32(static_cast<uint32_t>(result.front.size()));
    for (const rii::Solution& s : result.front) {
        writeSolution(out, pool, s);
    }
    writeStats(out, result.stats);
    writeDiagnostics(out, result.diagnostics);
    out.u32(static_cast<uint32_t>(result.evaluations.size()));
    for (const auto& [id, eval] : result.evaluations) {
        out.i64(id);
        writeEval(out, pool, eval);
    }
}

CachedResult
readCachedResult(ByteReader& in, const TermPoolReader& pool,
                 const std::string& what)
{
    CachedResult result;
    const uint32_t bodies = in.u32();
    in.checkCount(bodies, 4);
    result.registryBodies.reserve(bodies);
    for (uint32_t i = 0; i < bodies; ++i) {
        TermPtr body = pool.get(in.u32(), what);
        if (body == nullptr) {
            throw UserError(what + ": null registry body");
        }
        result.registryBodies.push_back(std::move(body));
    }
    const uint32_t front = in.u32();
    in.checkCount(front, 40);
    result.front.reserve(front);
    for (uint32_t i = 0; i < front; ++i) {
        result.front.push_back(readSolution(in, pool, what));
    }
    result.stats = readStats(in);
    result.diagnostics = readDiagnostics(in, what);
    const uint32_t evals = in.u32();
    in.checkCount(evals, 60);
    result.evaluations.reserve(evals);
    for (uint32_t i = 0; i < evals; ++i) {
        const int64_t id = in.i64();
        result.evaluations.emplace_back(id, readEval(in, pool, what));
    }
    return result;
}

uint64_t
hashEqSatLimits(const EqSatLimits& limits)
{
    uint64_t h = mix64(0x65713464ull);
    h = hashCombine(h, limits.maxNodes);
    h = hashCombine(h, limits.maxIterations);
    h = hashCombine(h, limits.maxMatchesPerRule);
    return h;
}

uint64_t
hashAuOptions(const rii::AuOptions& au)
{
    uint64_t h = mix64(0x61753634ull);
    h = hashCombine(h, static_cast<uint64_t>(au.sampling));
    h = hashCombine(h, au.typeFilter ? 1 : 0);
    h = hashCombine(h, au.hashFilter ? 1 : 0);
    h = hashCombine(h, static_cast<uint64_t>(au.hammingThreshold));
    h = hashCombine(h, static_cast<uint64_t>(au.maxDepth));
    h = hashCombine(h, au.maxCandidates);
    h = hashCombine(h, au.maxPatternsPerPair);
    h = hashCombine(h, au.maxResultPatterns);
    return h;
}

}  // namespace

uint64_t
rulesFingerprint(const rules::RulesetLibrary& rules)
{
    uint64_t h = mix64(0x72756c65ull);
    for (const RewriteRule& rule : rules.all()) {
        h = hashCombine(h, stringHash(rule.name));
        h = hashCombine(h, rule.flags);
        h = hashCombine(h, stringHash(termToString(rule.lhs)));
        h = hashCombine(h, stringHash(termToString(rule.rhs)));
    }
    return h;
}

uint64_t
opSchemaFingerprint()
{
    uint64_t h = mix64(0x6f707363ull);
    for (size_t i = 0; i < kNumOps; ++i) {
        const OpInfo& info = opInfo(static_cast<Op>(i));
        h = hashCombine(h, i);
        h = hashCombine(h, fnv1a(info.name.data(), info.name.size()));
        h = hashCombine(h, static_cast<uint64_t>(
                               static_cast<int64_t>(info.arity)));
        h = hashCombine(h, info.flags);
    }
    return h;
}

uint64_t
programFingerprint(const AnalyzedWorkload& analyzed)
{
    const frontend::EncodedProgram& program = analyzed.program;
    const EGraph& egraph = program.egraph;
    uint64_t h = mix64(0x70726f67ull);
    for (const EClassId id : egraph.classIds()) {
        h = hashCombine(h, id);
        for (const ENode& node : egraph.cls(id).nodes) {
            h = hashCombine(h, node.hash());
        }
    }
    h = hashCombine(h, egraph.find(program.root));
    for (const EClassId root : program.functionRoots) {
        h = hashCombine(h, egraph.find(root));
    }
    for (const frontend::Site& site : program.sites) {
        h = hashCombine(h, egraph.find(site.klass));
        h = hashCombine(h, static_cast<uint64_t>(
                               static_cast<int64_t>(site.func)));
        h = hashCombine(h, site.block);
    }
    h = hashCombine(h, doubleBits(analyzed.profile.totalNs()));
    h = hashCombine(h, analyzed.irInstructions);
    return h;
}

uint64_t
configFingerprint(const rii::RiiConfig& config)
{
    uint64_t h = mix64(0x636f6e66ull);
    h = hashCombine(h, static_cast<uint64_t>(config.mode));
    h = hashCombine(h, static_cast<uint64_t>(
                           static_cast<int64_t>(config.maxPhases)));
    h = hashCombine(h, hashEqSatLimits(config.eqsat));
    h = hashCombine(h, hashAuOptions(config.au));
    h = hashCombine(h, config.select.beamK);
    h = hashCombine(h, config.select.astSizeObjective ? 1 : 0);
    // The fixed values, so that editing one changes every result key.
    h = hashCombine(h, rii::kRulesPerPhase);
    h = hashCombine(h, rii::kMaxCostedCandidates);
    h = hashCombine(h, doubleBits(rii::kInvokeOverheadNs));
    h = hashCombine(h, rii::kMaxSelectCandidates);
    h = hashCombine(h, rii::kMaxSelectRounds);
    h = hashCombine(h, rii::kMaxPairs);
    h = hashCombine(h, rii::kQuadraticPairLimit);
    h = hashCombine(h, rii::kBandingWindow);
    h = hashCombine(h, rii::kKdDims);
    h = hashCombine(h, rii::kKdBeta);
    h = hashCombine(h, rii::kMinOps);
    h = hashCombine(h, rii::kPackLanes);
    h = hashCombine(h, rii::kMaxPacks);
    h = hashCombine(h, hashAuOptions(rii::kSeedAu));
    h = hashCombine(h, hashEqSatLimits(rii::kLiftLimits));
    return h;
}

std::string
resultKey(const std::string& workload, uint64_t programFp, rii::Mode mode,
          uint64_t rulesFp, uint64_t configFp)
{
    std::ostringstream os;
    os << workload << '\x1f' << rii::modeName(mode) << '\x1f' << std::hex
       << programFp << '\x1f' << rulesFp << '\x1f' << configFp;
    return os.str();
}

// ---------------------------------------------------------------------
// Corpus.

void
Corpus::load(const std::string& path, const rules::RulesetLibrary& rules)
{
    std::string image;
    std::string error;
    if (!readFile(path, image, error)) {
        throw UserError("corpus: " + error);
    }
    const auto sections =
        unframeFile(image, rulesFingerprint(rules), opSchemaFingerprint(),
                    path);
    const std::string what = "corpus " + path;

    // Parse everything into locals; state swaps in only after the whole
    // file validated (the no-partial-loads contract).
    std::map<std::string, std::unique_ptr<CachedResult>> results;

    for (const auto& [tag, payload] : sections) {
        if (tag != SectionTag::Results) {
            throw UserError(what + ": unknown section tag " +
                            std::to_string(static_cast<uint32_t>(tag)));
        }
        ByteReader in(payload, what.c_str());
        const TermPoolReader pool = TermPoolReader::deserialize(in, what);
        const uint32_t count = in.u32();
        in.checkCount(count, 8);
        for (uint32_t i = 0; i < count; ++i) {
            std::string key = in.str();
            auto result = std::make_unique<CachedResult>(
                readCachedResult(in, pool, what));
            if (!results.emplace(std::move(key), std::move(result))
                     .second) {
                throw UserError(what + ": duplicate result key");
            }
        }
        in.expectEnd();
    }

    std::lock_guard<std::mutex> lock(mutex_);
    results_ = std::move(results);
    dirty_ = false;
}

std::string
Corpus::serializeLocked(const rules::RulesetLibrary& rules) const
{
    TermPoolWriter pool;
    ByteWriter body;
    body.u32(static_cast<uint32_t>(results_.size()));
    for (const auto& [key, result] : results_) {
        body.str(key);
        writeCachedResult(body, pool, *result);
    }
    ByteWriter out;
    pool.serialize(out);
    out.bytes(body.take());
    return frameFile(rulesFingerprint(rules), opSchemaFingerprint(),
                     {{SectionTag::Results, out.take()}});
}

void
Corpus::save(const std::string& path, const rules::RulesetLibrary& rules)
{
    std::string image;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        image = serializeLocked(rules);
        dirty_ = false;
    }
    writeFileAtomic(path, image);
}

bool
Corpus::dirty() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dirty_;
}

const CachedResult*
Corpus::findResult(const std::string& key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = results_.find(key);
    return it == results_.end() ? nullptr : it->second.get();
}

void
Corpus::storeResult(const std::string& key, CachedResult result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (results_.size() >= kMaxResults || results_.count(key) != 0) {
        return;
    }
    results_.emplace(key,
                     std::make_unique<CachedResult>(std::move(result)));
    dirty_ = true;
}

size_t
Corpus::resultCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return results_.size();
}

size_t
Corpus::pinnedNodeCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_set<const Term*> seen;
    size_t interned = 0;
    const std::function<void(const TermPtr&)> walk =
        [&](const TermPtr& term) {
            if (term == nullptr || !seen.insert(term.get()).second) {
                return;
            }
            if (term->interned) {
                ++interned;
            }
            for (const TermPtr& child : term->children) {
                walk(child);
            }
        };
    for (const auto& [key, result] : results_) {
        for (const TermPtr& body : result->registryBodies) {
            walk(body);
        }
        for (const rii::Solution& s : result->front) {
            walk(s.program);
        }
        for (const auto& [id, eval] : result->evaluations) {
            walk(eval.body);
        }
    }
    return interned;
}

CachedResult
captureResult(const rii::RiiResult& result)
{
    CachedResult cached;
    cached.registryBodies.reserve(result.registry.size());
    for (size_t id = 0; id < result.registry.size(); ++id) {
        cached.registryBodies.push_back(
            result.registry.costBody(static_cast<int64_t>(id)));
    }
    cached.front = result.front;
    cached.stats = result.stats;
    cached.diagnostics = result.diagnostics;
    cached.evaluations.reserve(result.evaluations.size());
    for (const auto& [id, eval] : result.evaluations) {
        cached.evaluations.emplace_back(id, eval);
    }
    std::sort(cached.evaluations.begin(), cached.evaluations.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return cached;
}

rii::RiiResult
rehydrateResult(const CachedResult& cached)
{
    rii::RiiResult result;
    for (size_t i = 0; i < cached.registryBodies.size(); ++i) {
        const int64_t id = result.registry.add(cached.registryBodies[i]);
        ISAMORE_USER_CHECK(
            id == static_cast<int64_t>(i),
            "corpus: cached registry bodies collapse to fewer ids "
            "(corrupt or cross-build corpus)");
    }
    result.front = cached.front;
    result.stats = cached.stats;
    result.diagnostics = cached.diagnostics;
    result.evaluations.reserve(cached.evaluations.size());
    for (const auto& [id, eval] : cached.evaluations) {
        result.evaluations.emplace(id, eval);
    }
    return result;
}

}  // namespace corpus
}  // namespace isamore
