/**
 * @file
 * Google-benchmark microbenchmarks of the e-graph engine: hashcons adds,
 * congruence-closure rebuilds, e-matching, equality saturation, and the
 * smart-AU sweep.  These quantify the substrate costs behind Table 2.
 */
#include <benchmark/benchmark.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "dsl/intern.hpp"
#include "egraph/ematch_program.hpp"
#include "egraph/rewrite.hpp"
#include "rii/au.hpp"
#include "rii/structhash.hpp"
#include "rules/rulesets.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace isamore;

/** A chain of adds/muls over n leaves. */
EClassId
buildChain(EGraph& g, int n)
{
    EClassId acc = g.addTerm(arg(0, 0));
    for (int i = 1; i < n; ++i) {
        EClassId leaf = g.addTerm(arg(0, i % 8));
        Op op = (i % 3 == 0) ? Op::Mul : Op::Add;
        acc = g.add(ENode(op, Payload::none(), {acc, leaf}));
    }
    return acc;
}

void
BM_EGraphAdd(benchmark::State& state)
{
    for (auto _ : state) {
        EGraph g;
        benchmark::DoNotOptimize(
            buildChain(g, static_cast<int>(state.range(0))));
    }
}
BENCHMARK(BM_EGraphAdd)->Arg(64)->Arg(512);

void
BM_RebuildAfterMerges(benchmark::State& state)
{
    for (auto _ : state) {
        state.PauseTiming();
        EGraph g;
        buildChain(g, static_cast<int>(state.range(0)));
        auto ids = g.classIds();
        state.ResumeTiming();
        for (size_t i = 8; i + 1 < ids.size(); i += 7) {
            g.merge(ids[i], ids[i + 1]);
        }
        g.rebuild();
        benchmark::DoNotOptimize(g.numClasses());
    }
}
BENCHMARK(BM_RebuildAfterMerges)->Arg(256);

/**
 * Const find() over every id after a rebuild: the path-compression
 * sweep at the end of rebuild() guarantees one-hop resolution, so this
 * measures the O(1) post-rebuild read path the matcher and extractor
 * sit on (a regression here means the sweep stopped compressing).
 */
void
BM_FindPostRebuild(benchmark::State& state)
{
    EGraph g;
    buildChain(g, static_cast<int>(state.range(0)));
    auto ids = g.classIds();
    for (size_t i = 8; i + 1 < ids.size(); i += 7) {
        g.merge(ids[i], ids[i + 1]);
    }
    g.rebuild();
    const EGraph& frozen = g;
    const size_t n = frozen.numIds();
    for (auto _ : state) {
        EClassId acc = 0;
        for (size_t id = 0; id < n; ++id) {
            acc ^= frozen.find(static_cast<EClassId>(id));
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(n));
}
BENCHMARK(BM_FindPostRebuild)->Arg(256)->Arg(4096);

void
BM_EMatch(benchmark::State& state)
{
    EGraph g;
    buildChain(g, 256);
    TermPtr pattern = parseTerm("(+ (* ?0 ?1) ?2)");
    for (auto _ : state) {
        benchmark::DoNotOptimize(ematchAll(g, pattern, 4096));
    }
}
BENCHMARK(BM_EMatch);

/**
 * BM_EMatchNaive and BM_EMatchCompiled compare the matching engines head
 * to head on a saturated graph (where classes are fat and the scan
 * dominates): the legacy std::function matcher over every class, and the
 * compiled pattern VM seeded from the op index.
 */
EGraph
saturatedChain(int n)
{
    EGraph g;
    buildChain(g, n);
    EqSatLimits limits;
    limits.maxIterations = 3;
    runEqSat(g, rules::defaultLibrary().intSat(), limits);
    return g;
}

const TermPtr&
ematchBenchPattern()
{
    static const TermPtr pattern = parseTerm("(+ (* ?0 ?1) ?2)");
    return pattern;
}

void
BM_EMatchNaive(benchmark::State& state)
{
    EGraph g = saturatedChain(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ematchAllLegacy(g, ematchBenchPattern(), 1 << 20));
    }
}
BENCHMARK(BM_EMatchNaive)->Arg(64)->Arg(256);

void
BM_EMatchCompiled(benchmark::State& state)
{
    EGraph g = saturatedChain(static_cast<int>(state.range(0)));
    const PatternProgram program =
        PatternProgram::compile(ematchBenchPattern());
    for (auto _ : state) {
        benchmark::DoNotOptimize(searchPattern(g, program, 1 << 20));
    }
}
BENCHMARK(BM_EMatchCompiled)->Arg(64)->Arg(256);

void
BM_EqSatCoreRules(benchmark::State& state)
{
    auto rules = rules::defaultLibrary().intSat();
    for (auto _ : state) {
        state.PauseTiming();
        EGraph g;
        buildChain(g, 64);
        state.ResumeTiming();
        EqSatLimits limits;
        limits.maxIterations = 4;
        runEqSat(g, rules, limits);
        benchmark::DoNotOptimize(g.numNodes());
    }
}
BENCHMARK(BM_EqSatCoreRules);

/** A synthetic pattern set with ~50% duplicates, shaped like AU output. */
std::vector<TermPtr>
buildPatternSet(int n)
{
    std::vector<TermPtr> patterns;
    for (int i = 0; i < n; ++i) {
        // i and i+n/2 produce the same term: realistic duplicate rate.
        const int k = i % (n / 2);
        patterns.push_back(makeTerm(
            Op::Add,
            {makeTerm(Op::Mul, {hole(0), lit(2 + k % 5)}),
             makeTerm(Op::Shl, {hole(1), lit(k % 7)})}));
    }
    return patterns;
}

/**
 * Candidate dedup, old way: stringify every pattern and key a set on the
 * strings.  Kept as the baseline for BM_DedupStructHash below; the AU
 * sweep's merge now uses the structural variant, which skips the O(size)
 * allocation-heavy printing per candidate (typically ~3-5x faster here
 * and the gap widens with pattern size).
 */
void
BM_DedupStringKey(benchmark::State& state)
{
    const auto patterns = buildPatternSet(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        std::unordered_set<std::string> seen;
        size_t kept = 0;
        for (const TermPtr& p : patterns) {
            if (seen.insert(termToString(p)).second) {
                ++kept;
            }
        }
        benchmark::DoNotOptimize(kept);
    }
}
BENCHMARK(BM_DedupStringKey)->Arg(256)->Arg(2048);

/** Candidate dedup, current way: termHash/termEquals set, no printing. */
void
BM_DedupStructHash(benchmark::State& state)
{
    struct Hash {
        size_t operator()(const TermPtr& t) const
        {
            return static_cast<size_t>(termHash(t));
        }
    };
    struct Eq {
        bool operator()(const TermPtr& a, const TermPtr& b) const
        {
            return termEquals(a, b);
        }
    };
    const auto patterns = buildPatternSet(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        std::unordered_set<TermPtr, Hash, Eq> seen;
        size_t kept = 0;
        for (const TermPtr& p : patterns) {
            if (seen.insert(p).second) {
                ++kept;
            }
        }
        benchmark::DoNotOptimize(kept);
    }
}
BENCHMARK(BM_DedupStructHash)->Arg(256)->Arg(2048);

/**
 * The BM_Term* group measures what hash-consing bought (PR 4): term
 * construction through the intern table vs the legacy fresh-node
 * constructor, the cached-field termHash vs the recursive oracle, and
 * candidate dedup keyed on canonical pointers vs structural walks.
 */
std::vector<TermPtr>
buildPatternSetUninterned(int n)
{
    std::vector<TermPtr> patterns;
    for (int i = 0; i < n; ++i) {
        const int k = i % (n / 2);
        patterns.push_back(makeTermUninterned(
            Op::Add, Payload::none(),
            {makeTermUninterned(
                 Op::Mul, Payload::none(),
                 {hole(0),
                  makeTermUninterned(Op::Lit,
                                     Payload::ofInt(2 + k % 5), {})}),
             makeTermUninterned(
                 Op::Shl, Payload::none(),
                 {hole(1), makeTermUninterned(Op::Lit,
                                              Payload::ofInt(k % 7), {})})}));
    }
    return patterns;
}

/** Construction through the intern table (warm: mostly hits). */
void
BM_TermIntern(benchmark::State& state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            buildPatternSet(static_cast<int>(state.range(0))));
    }
}
BENCHMARK(BM_TermIntern)->Arg(256)->Arg(2048);

/** Legacy construction: fresh node per call, no table probe. */
void
BM_TermUninterned(benchmark::State& state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            buildPatternSetUninterned(static_cast<int>(state.range(0))));
    }
}
BENCHMARK(BM_TermUninterned)->Arg(256)->Arg(2048);

/** termHash on interned terms: a field load per term. */
void
BM_TermHashInterned(benchmark::State& state)
{
    const auto patterns = buildPatternSet(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        uint64_t acc = 0;
        for (const TermPtr& p : patterns) {
            acc ^= termHash(p);
        }
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_TermHashInterned)->Arg(2048);

/** The pre-interner recursive hash walk, for comparison. */
void
BM_TermHashDeep(benchmark::State& state)
{
    const auto patterns = buildPatternSet(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        uint64_t acc = 0;
        for (const TermPtr& p : patterns) {
            acc ^= termHashDeep(p);
        }
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_TermHashDeep)->Arg(2048);

/** Candidate dedup on canonical pointers: hash & compare are O(1). */
void
BM_DedupInterned(benchmark::State& state)
{
    const auto patterns = buildPatternSet(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        std::unordered_set<const Term*> seen;
        size_t kept = 0;
        for (const TermPtr& p : patterns) {
            if (seen.insert(p.get()).second) {
                ++kept;
            }
        }
        benchmark::DoNotOptimize(kept);
    }
}
BENCHMARK(BM_DedupInterned)->Arg(256)->Arg(2048);

/** The structural-hash analysis sweep (paper §5.2) on a saturated graph. */
void
BM_StructHash(benchmark::State& state)
{
    EGraph g = saturatedChain(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(rii::computeStructHashes(g));
    }
}
BENCHMARK(BM_StructHash)->Arg(64)->Arg(256);

void
BM_SmartAu(benchmark::State& state)
{
    EGraph g;
    for (int i = 0; i < 16; ++i) {
        g.addTerm(makeTerm(
            Op::Add,
            {makeTerm(Op::Mul, {arg(0, i % 4), lit(2 + i % 3)}),
             arg(0, (i + 1) % 8)}));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            rii::identifyPatterns(g, rii::AuOptions{}));
    }
}
BENCHMARK(BM_SmartAu);

/**
 * The BM_Telemetry* group prices the observability probes (PR 5).  The
 * disabled variants measure what every production call site pays -- one
 * relaxed atomic load and a branch -- and back the <2% pipeline overhead
 * contract; the enabled variants price the full record path (clock reads
 * plus a ring append for spans, a relaxed fetch_add for counters).
 */
void
BM_TelemetrySpanDisabled(benchmark::State& state)
{
    telemetry::setEnabled(false);
    for (auto _ : state) {
        TELEM_SPAN("bench.span", "bench");
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_TelemetrySpanDisabled);

void
BM_TelemetrySpanEnabled(benchmark::State& state)
{
    telemetry::setEnabled(true);
    size_t sinceClear = 0;
    for (auto _ : state) {
        {
            TELEM_SPAN("bench.span", "bench");
            benchmark::ClobberMemory();
        }
        // Drain well before the per-thread cap so every iteration pays
        // the true append cost rather than the post-cap drop path.
        if (++sinceClear == (1u << 18)) {
            state.PauseTiming();
            telemetry::Tracer::instance().clear();
            sinceClear = 0;
            state.ResumeTiming();
        }
    }
    telemetry::setEnabled(false);
    telemetry::Tracer::instance().clear();
}
BENCHMARK(BM_TelemetrySpanEnabled);

void
BM_CounterIncrDisabled(benchmark::State& state)
{
    telemetry::setEnabled(false);
    telemetry::Counter& counter =
        telemetry::Registry::instance().counter("bench.counter");
    for (auto _ : state) {
        counter.add();
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_CounterIncrDisabled);

void
BM_CounterIncr(benchmark::State& state)
{
    telemetry::setEnabled(true);
    telemetry::Counter& counter =
        telemetry::Registry::instance().counter("bench.counter");
    for (auto _ : state) {
        counter.add();
        benchmark::ClobberMemory();
    }
    telemetry::setEnabled(false);
    telemetry::Registry::instance().reset();
}
BENCHMARK(BM_CounterIncr);

}  // namespace

BENCHMARK_MAIN();
