/**
 * @file
 * Persistent-corpus tests: serialization primitives, frame validation,
 * the Results round trip, corruption rejection (whole-file refusal with
 * no partial loads), seeded fuzz round-trips, and the warm-start
 * determinism contract -- a warm run byte-identical to the cold run it
 * replaces, and a result miss byte-identical to a corpus-less run, at 1,
 * 2, and 4 threads; an uncacheable run leaves the corpus untouched.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/corpus.hpp"
#include "corpus/format.hpp"
#include "corpus/warm.hpp"
#include "dsl/intern.hpp"
#include "egraph/rewrite.hpp"
#include "isamore/isamore.hpp"
#include "isamore/report.hpp"
#include "rules/rulesets.hpp"
#include "support/check.hpp"
#include "support/pool.hpp"
#include "support/rng.hpp"
#include "workloads/workload.hpp"

namespace isamore {
namespace corpus {
namespace {

std::string
tempPath(const std::string& name)
{
    return ::testing::TempDir() + "corpus_test_" + name;
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
spit(const std::string& path, const std::string& data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
}

/** Same wall-clock strip the golden tests and the bench apply. */
std::string
stripWallClock(const std::string& json)
{
    std::ostringstream out;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"seconds\":") == std::string::npos) {
            out << line << "\n";
        }
    }
    return out.str();
}

TEST(CorpusFormat, PrimitivesRoundTrip)
{
    ByteWriter w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.i64(-42);
    w.f64(-0.0);
    w.f64(std::nan(""));
    w.boolean(true);
    w.str("hello \x01 world");
    w.str("");

    ByteReader r(w.data(), "test");
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i64(), -42);
    // Bit-pattern transport: -0.0 and NaN survive exactly.
    EXPECT_TRUE(std::signbit(r.f64()));
    EXPECT_TRUE(std::isnan(r.f64()));
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.str(), "hello \x01 world");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.atEnd());
    r.expectEnd();
}

TEST(CorpusFormat, ReaderRefusesOverrunAndAbsurdCounts)
{
    ByteWriter w;
    w.u32(7);
    ByteReader r(w.data(), "test");
    EXPECT_THROW(r.u64(), UserError);

    ByteReader counts(w.data(), "test");
    // 4 remaining bytes can never hold 7 elements of >= 4 bytes each.
    EXPECT_THROW(counts.checkCount(7, 4), UserError);
}

TEST(CorpusFormat, FrameRoundTripAndRejection)
{
    const std::string image = frameFile(
        11, 22, {{SectionTag::Results, "abc"}, {SectionTag::Results, ""}});
    const auto sections = unframeFile(image, 11, 22, "good.bin");
    ASSERT_EQ(sections.size(), 2u);
    EXPECT_EQ(sections[0].first, SectionTag::Results);
    EXPECT_EQ(sections[0].second, "abc");
    EXPECT_EQ(sections[1].first, SectionTag::Results);
    EXPECT_EQ(sections[1].second, "");

    // Bad magic.
    std::string bad = image;
    bad[0] ^= 0x40;
    EXPECT_THROW(unframeFile(bad, 11, 22, "bad.bin"), UserError);
    // Stale format version (bytes 8..11).
    bad = image;
    bad[8] = static_cast<char>(bad[8] + 1);
    EXPECT_THROW(unframeFile(bad, 11, 22, "bad.bin"), UserError);
    // Rules / op-schema hash from another build.
    EXPECT_THROW(unframeFile(image, 12, 22, "bad.bin"), UserError);
    EXPECT_THROW(unframeFile(image, 11, 23, "bad.bin"), UserError);
    // Truncations at every prefix length must throw, never crash.
    for (size_t cut : {size_t{0}, size_t{4}, size_t{9}, image.size() / 2,
                       image.size() - 1}) {
        EXPECT_THROW(unframeFile(image.substr(0, cut), 11, 22, "bad.bin"),
                     UserError);
    }
    // A flipped payload byte fails the whole-file checksum.
    bad = image;
    bad[image.size() / 2] ^= 0x01;
    EXPECT_THROW(unframeFile(bad, 11, 22, "bad.bin"), UserError);
    // The refusal names the offending path.
    try {
        unframeFile(bad, 11, 22, "named.bin");
        FAIL() << "corrupt image accepted";
    } catch (const UserError& e) {
        EXPECT_NE(std::string(e.what()).find("named.bin"),
                  std::string::npos);
    }
}

TEST(Corpus, ResultsRoundTripPreservesDagSharing)
{
    const rules::RulesetLibrary rules = rules::defaultLibrary();
    const std::string path = tempPath("results.bin");

    // A registry scheduling view (shared + shared): uninterned, with
    // both children the same node.  The serializer must keep them one
    // node, not two equal copies -- the cost model counts pointers.
    TermPtr shared = makeTermUninterned(Op::Mul, Payload::none(),
                                        {arg(0, 0), lit(3)});
    TermPtr body =
        makeTermUninterned(Op::Add, Payload::none(), {shared, shared});
    CachedResult stored;
    stored.registryBodies = {body};

    Corpus out;
    out.storeResult("dag-key", stored);
    out.save(path, rules);

    Corpus in;
    in.load(path, rules);
    EXPECT_EQ(in.resultCount(), 1u);
    const CachedResult* loaded = in.findResult("dag-key");
    ASSERT_NE(loaded, nullptr);
    ASSERT_EQ(loaded->registryBodies.size(), 1u);
    const TermPtr& got = loaded->registryBodies[0];
    EXPECT_FALSE(got->interned);
    EXPECT_TRUE(termEqualsDeep(got, body));
    ASSERT_EQ(got->children.size(), 2u);
    EXPECT_EQ(got->children[0].get(), got->children[1].get());
    std::remove(path.c_str());
}

TEST(Corpus, ConfigFingerprintSeparatesModesAndSettableFields)
{
    std::set<uint64_t> modeKeys;
    for (const rii::Mode mode : rii::kAllModes) {
        modeKeys.insert(configFingerprint(rii::RiiConfig::forMode(mode)));
    }
    EXPECT_EQ(modeKeys.size(), std::size(rii::kAllModes));

    // Every field a mode or a caller can set must move the key.
    using Edit = void (*)(rii::RiiConfig&);
    const std::pair<const char*, Edit> edits[] = {
        {"mode", [](rii::RiiConfig& c) { c.mode = rii::Mode::LLMT; }},
        {"maxPhases", [](rii::RiiConfig& c) { ++c.maxPhases; }},
        {"eqsat.maxNodes", [](rii::RiiConfig& c) { ++c.eqsat.maxNodes; }},
        {"eqsat.maxIterations",
         [](rii::RiiConfig& c) { ++c.eqsat.maxIterations; }},
        {"eqsat.maxMatchesPerRule",
         [](rii::RiiConfig& c) { ++c.eqsat.maxMatchesPerRule; }},
        {"au.sampling",
         [](rii::RiiConfig& c) { c.au.sampling = rii::Sampling::KdTree; }},
        {"au.typeFilter", [](rii::RiiConfig& c) { c.au.typeFilter = false; }},
        {"au.hashFilter", [](rii::RiiConfig& c) { c.au.hashFilter = false; }},
        {"au.hammingThreshold",
         [](rii::RiiConfig& c) { ++c.au.hammingThreshold; }},
        {"au.maxDepth", [](rii::RiiConfig& c) { ++c.au.maxDepth; }},
        {"au.maxCandidates", [](rii::RiiConfig& c) { ++c.au.maxCandidates; }},
        {"au.maxPatternsPerPair",
         [](rii::RiiConfig& c) { ++c.au.maxPatternsPerPair; }},
        {"au.maxResultPatterns",
         [](rii::RiiConfig& c) { ++c.au.maxResultPatterns; }},
        {"select.beamK", [](rii::RiiConfig& c) { ++c.select.beamK; }},
        {"select.astSizeObjective",
         [](rii::RiiConfig& c) { c.select.astSizeObjective = true; }},
    };
    const rii::RiiConfig base = rii::RiiConfig::forMode(rii::Mode::Default);
    const uint64_t baseKey = configFingerprint(base);
    for (const auto& [field, edit] : edits) {
        rii::RiiConfig changed = base;
        edit(changed);
        EXPECT_NE(configFingerprint(changed), baseKey) << field;
    }
}

TEST(Corpus, CorruptFileRefusedWithoutPartialState)
{
    const rules::RulesetLibrary rules = rules::defaultLibrary();
    const std::string path = tempPath("corrupt.bin");

    Corpus writer;
    writer.storeResult("writer-key", CachedResult{});
    writer.save(path, rules);

    const std::string image = slurp(path);
    ASSERT_FALSE(image.empty());

    // A flipped payload byte fails the whole-file checksum.
    std::string flipped = image;
    flipped[image.size() / 2] ^= 0x01;
    // A well-formed file of an older format: version bytes 8..11 say
    // @p version and the checksum is recomputed, so only the version
    // check fires.
    const auto stale = [&](char version) {
        std::string bytes = image;
        bytes[8] = version;
        ByteWriter checksum;
        checksum.u64(fnv1a(bytes.data(), bytes.size() - 8));
        bytes.replace(bytes.size() - 8, 8, checksum.data());
        return bytes;
    };
    // A current frame carrying a retired section: the pattern library
    // (tag 2) or the AU chunk memo (tag 3).
    const auto retired = [&](uint32_t tag) {
        return frameFile(rulesFingerprint(rules), opSchemaFingerprint(),
                         {{static_cast<SectionTag>(tag), ""}});
    };

    const std::pair<std::string, std::string> inputs[] = {
        {flipped, "checksum mismatch"},
        {stale(2), "format version 2 unsupported"},
        {stale(3), "format version 3 unsupported"},
        {stale(4), "format version 4 unsupported"},
        {stale(5), "format version 5 unsupported"},
        {stale(6), "format version 6 unsupported"},
        {retired(2), "unknown section tag 2"},
        {retired(3), "unknown section tag 3"},
    };
    Corpus reader;
    reader.storeResult("reader-key", CachedResult{});
    for (const auto& [bytes, reason] : inputs) {
        spit(path, bytes);
        try {
            reader.load(path, rules);
            ADD_FAILURE() << "load accepted a file that should fail with: "
                          << reason;
        } catch (const UserError& e) {
            EXPECT_NE(std::string(e.what()).find(reason),
                      std::string::npos)
                << e.what();
        }
        // The failed load took no partial state: everything the reader
        // held before is still there, and nothing from the file is.
        EXPECT_EQ(reader.resultCount(), 1u) << reason;
        EXPECT_NE(reader.findResult("reader-key"), nullptr) << reason;
        EXPECT_EQ(reader.findResult("writer-key"), nullptr) << reason;
    }
    std::remove(path.c_str());
}

/** A storable result with seed-dependent contents in every section. */
CachedResult
randomResult(Rng& rng, const std::vector<TermPtr>& bodies)
{
    CachedResult result;
    result.registryBodies = bodies;
    rii::Solution solution;
    solution.patternIds = {0};
    solution.deltaNs = static_cast<double>(rng.below(5000));
    solution.speedup = 1.0 + static_cast<double>(rng.below(100)) / 8.0;
    solution.areaUm2 = static_cast<double>(rng.below(20000));
    solution.program = bodies[rng.below(bodies.size())];
    solution.useCounts = {rng.below(6)};
    result.front.push_back(std::move(solution));
    result.stats.peakNodes = rng.below(10000);
    result.stats.phasesRun = rng.below(8);
    result.stats.ruleTotals["add-comm"] =
        RuleTotals{rng.below(50), rng.below(20)};
    result.diagnostics.skippedPairs = rng.below(3);
    return result;
}

class CorpusFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CorpusFuzz, RandomStateSurvivesSaveLoadByteExact)
{
    const uint64_t seed = 7100 + static_cast<uint64_t>(GetParam());
    const rules::RulesetLibrary rules = rules::defaultLibrary();
    const std::string path =
        tempPath("fuzz_" + std::to_string(seed) + ".bin");
    Rng rng(seed);

    Corpus out;
    std::vector<TermPtr> bodies;
    for (size_t i = 0; i < 4 + rng.below(5); ++i) {
        TermPtr t = arg(0, static_cast<int64_t>(rng.below(3)));
        for (size_t d = 0; d < 1 + rng.below(3); ++d) {
            static const Op ops[] = {Op::Add, Op::Mul, Op::Xor, Op::Min};
            t = makeTerm(ops[rng.below(std::size(ops))],
                         {t, lit(static_cast<int64_t>(rng.below(4)))});
        }
        bodies.push_back(t);
    }
    const CachedResult stored = randomResult(rng, bodies);
    out.storeResult("fuzz_key", stored);
    out.save(path, rules);

    Corpus in;
    in.load(path, rules);
    const CachedResult* loaded = in.findResult("fuzz_key");
    ASSERT_NE(loaded, nullptr);
    ASSERT_EQ(loaded->registryBodies.size(), stored.registryBodies.size());
    for (size_t i = 0; i < stored.registryBodies.size(); ++i) {
        EXPECT_TRUE(termEqualsDeep(loaded->registryBodies[i],
                                   stored.registryBodies[i]));
    }
    ASSERT_EQ(loaded->front.size(), 1u);
    EXPECT_EQ(loaded->front[0].speedup, stored.front[0].speedup);
    EXPECT_EQ(loaded->front[0].areaUm2, stored.front[0].areaUm2);
    EXPECT_EQ(loaded->front[0].useCounts, stored.front[0].useCounts);
    EXPECT_TRUE(
        termEqualsDeep(loaded->front[0].program, stored.front[0].program));
    EXPECT_EQ(loaded->stats.peakNodes, stored.stats.peakNodes);
    EXPECT_EQ(loaded->stats.phasesRun, stored.stats.phasesRun);
    EXPECT_EQ(loaded->stats.ruleTotals.at("add-comm").matches,
              stored.stats.ruleTotals.at("add-comm").matches);
    EXPECT_EQ(loaded->stats.ruleTotals.at("add-comm").applications,
              stored.stats.ruleTotals.at("add-comm").applications);
    EXPECT_EQ(loaded->diagnostics.skippedPairs,
              stored.diagnostics.skippedPairs);

    // A second save of the loaded state is byte-identical: the format
    // is canonical, so save/load/save is a fixpoint.
    const std::string image = slurp(path);
    in.storeResult("fuzz_key", stored);  // no-op: first store wins
    const std::string rewritten = tempPath("fuzz_rw.bin");
    in.save(rewritten, rules);
    EXPECT_EQ(slurp(rewritten), image);
    std::remove(path.c_str());
    std::remove(rewritten.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusFuzz, ::testing::Range(0, 4));

TEST(CorpusWarm, WarmRunByteIdenticalToColdAtEveryWidth)
{
    const rules::RulesetLibrary rules = rules::defaultLibrary();
    const rii::RiiConfig config =
        rii::RiiConfig::forMode(rii::Mode::Default);
    const AnalyzedWorkload analyzed =
        analyzeWorkload(workloads::makeMatMul());
    ASSERT_TRUE(warmEligible(config));

    Corpus corpus;
    const rii::RiiResult cold =
        identifyInstructions(analyzed, rules, config, corpus);
    EXPECT_EQ(corpus.resultCount(), 1u);
    const std::string coldJson =
        stripWallClock(resultToJson(analyzed, cold));

    const size_t before = globalThreadCount();
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
        setGlobalThreads(threads);
        const rii::RiiResult warm =
            identifyInstructions(analyzed, rules, config, corpus);
        EXPECT_EQ(stripWallClock(resultToJson(analyzed, warm)), coldJson)
            << "warm result diverged from cold at " << threads
            << " threads";
    }
    setGlobalThreads(before);
    // Warm hits replay; they never re-store.
    EXPECT_EQ(corpus.resultCount(), 1u);
}

TEST(CorpusWarm, IneligibleRunLeavesCorpusUntouched)
{
    // Vector mode's base program is not the input program, so its runs
    // are not cached: the corpus must stay clean and empty, so that
    // neither the CLI nor the server rewrites the file after one.
    const rules::RulesetLibrary rules = rules::defaultLibrary();
    const rii::RiiConfig config = rii::RiiConfig::forMode(rii::Mode::Vector);
    ASSERT_FALSE(warmEligible(config));
    const AnalyzedWorkload analyzed =
        analyzeWorkload(workloads::makeMatMul());

    Corpus corpus;
    const rii::RiiResult result =
        identifyInstructions(analyzed, rules, config, corpus);
    EXPECT_FALSE(result.best().patternIds.empty());
    EXPECT_FALSE(corpus.dirty());
    EXPECT_EQ(corpus.resultCount(), 0u);
}

TEST(CorpusWarm, ResultsSurviveSaveLoadAndStayIdentical)
{
    const rules::RulesetLibrary rules = rules::defaultLibrary();
    const rii::RiiConfig config =
        rii::RiiConfig::forMode(rii::Mode::Default);
    const AnalyzedWorkload analyzed =
        analyzeWorkload(workloads::makeMatMul());
    const std::string path = tempPath("warm.bin");

    Corpus writer;
    const rii::RiiResult cold =
        identifyInstructions(analyzed, rules, config, writer);
    writer.save(path, rules);

    // The restarted-process view: a fresh corpus loaded from disk must
    // serve the same bytes the live one did.
    Corpus reader;
    reader.load(path, rules);
    EXPECT_EQ(reader.resultCount(), writer.resultCount());
    const rii::RiiResult warm =
        identifyInstructions(analyzed, rules, config, reader);
    EXPECT_EQ(stripWallClock(resultToJson(analyzed, warm)),
              stripWallClock(resultToJson(analyzed, cold)));
    std::remove(path.c_str());
}

TEST(CorpusWarm, ResultMissMatchesCorpuslessRun)
{
    // A result-cache miss on a warm corpus runs the pipeline; its output
    // must be exactly what a run with no corpus at all produces.
    const rules::RulesetLibrary rules = rules::defaultLibrary();
    const AnalyzedWorkload analyzed =
        analyzeWorkload(workloads::makeMatMul());
    const rii::Mode modes[] = {rii::Mode::AstSize, rii::Mode::KDSample};
    std::vector<std::string> plain;
    for (const rii::Mode mode : modes) {
        const rii::RiiConfig config = rii::RiiConfig::forMode(mode);
        ASSERT_TRUE(warmEligible(config));
        plain.push_back(stripWallClock(resultToJson(
            analyzed, isamore::identifyInstructions(analyzed, rules,
                                                    config))));
    }

    const size_t before = globalThreadCount();
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
        setGlobalThreads(threads);
        Corpus corpus;
        identifyInstructions(analyzed, rules,
                             rii::RiiConfig::forMode(rii::Mode::Default),
                             corpus);
        ASSERT_EQ(corpus.resultCount(), 1u);
        for (size_t m = 0; m < std::size(modes); ++m) {
            const rii::RiiResult warm = identifyInstructions(
                analyzed, rules, rii::RiiConfig::forMode(modes[m]), corpus);
            // Every mode is a fresh key, so each run was a miss.
            EXPECT_EQ(corpus.resultCount(), m + 2);
            EXPECT_EQ(stripWallClock(resultToJson(analyzed, warm)),
                      plain[m])
                << modeName(modes[m]) << " miss diverged from a "
                << "corpus-less run at " << threads << " threads";
        }
    }
    setGlobalThreads(before);
}

}  // namespace
}  // namespace corpus
}  // namespace isamore
