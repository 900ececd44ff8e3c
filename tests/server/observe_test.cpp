#include "server/observe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "server/serve.hpp"
#include "server/session.hpp"
#include "support/telemetry.hpp"

namespace isamore {
namespace server {
namespace {

RequestTrace
makeTrace(const std::string& requestId, Status status)
{
    RequestTrace trace;
    trace.requestId = requestId;
    trace.idJson = "\"" + requestId + "\"";
    trace.op = "analyze";
    trace.workload = "matmul";
    trace.status = status;
    trace.queueWaitMs = 0.5;
    trace.elapsedMs = 2.0;
    trace.startNs = 1000;
    trace.endNs = 3000;
    return trace;
}

TEST(FlightRecorderTest, KeepsTheLastNTracesOldestFirst)
{
    FlightRecorder ring(3);
    EXPECT_EQ(ring.capacity(), 3u);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());

    for (int i = 1; i <= 5; ++i) {
        ring.record(makeTrace("r-" + std::to_string(i), Status::Ok));
    }
    EXPECT_EQ(ring.size(), 3u);
    const std::vector<const RequestTrace*> traces = ring.snapshot();
    ASSERT_EQ(traces.size(), 3u);
    EXPECT_EQ(traces[0]->requestId, "r-3");  // r-1, r-2 evicted
    EXPECT_EQ(traces[1]->requestId, "r-4");
    EXPECT_EQ(traces[2]->requestId, "r-5");
}

TEST(FlightRecorderTest, BelowCapacityPreservesArrivalOrder)
{
    FlightRecorder ring(8);
    ring.record(makeTrace("r-1", Status::Ok));
    ring.record(makeTrace("r-2", Status::Degraded));
    const std::vector<const RequestTrace*> traces = ring.snapshot();
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0]->requestId, "r-1");
    EXPECT_EQ(traces[1]->requestId, "r-2");
    EXPECT_EQ(traces[1]->status, Status::Degraded);
}

TEST(FlightTraceTest, JsonIsParseableAndCarriesIdentityAndSpans)
{
    RequestTrace trace = makeTrace("r-42", Status::Degraded);
    telemetry::TraceEvent span;
    span.name = "rii.analyze";
    span.cat = "rii";
    span.startNs = 1200;
    span.durNs = 800;
    trace.events.push_back({span, 7});

    const std::string json = flightTraceJson(trace);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, doc, error)) << error << "\n" << json;

    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->type, JsonValue::Type::Array);

    // One synthetic whole-request span carrying the identity args, plus
    // the captured pipeline span (and their track metadata events).
    bool sawRequest = false;
    bool sawSpan = false;
    for (const JsonValue& event : events->items) {
        const JsonValue* name = event.find("name");
        if (name == nullptr) {
            continue;
        }
        if (name->text == "server.request") {
            const JsonValue* args = event.find("args");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->find("req")->text, "r-42");
            EXPECT_EQ(args->find("status")->text, "degraded");
            EXPECT_EQ(args->find("workload")->text, "matmul");
            sawRequest = true;
        } else if (name->text == "rii.analyze") {
            sawSpan = true;
        }
    }
    EXPECT_TRUE(sawRequest);
    EXPECT_TRUE(sawSpan);
}

TEST(FlightTraceTest, DumpWritesFlightFileNamedByRequestId)
{
    const std::string dir =
        ::testing::TempDir() + "isamore_observe_dump_test";
    std::filesystem::remove_all(dir);

    const std::string path =
        dumpFlightTrace(dir, makeTrace("r-9", Status::Internal));
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path, dir + "/flight_r-9.json");

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream body;
    body << in.rdbuf();
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(body.str(), doc, error)) << error;
    std::filesystem::remove_all(dir);
}

TEST(LatencyRecorderTest, MergedDigestsAreSlotSplitInvariant)
{
    // The same (stage, op, workload) sample multiset must merge to the
    // same digests whether it was recorded through 1, 2, or 4 lane
    // slots -- the serve-side face of LatencyDigest's determinism
    // contract.
    std::vector<uint64_t> samples;
    uint64_t state = 12345;
    for (int i = 0; i < 500; ++i) {
        state = state * 48271 % 2147483647;
        samples.push_back(state % 50000);
    }

    auto record = [&](size_t slots) {
        LatencyRecorder recorder(slots);
        for (size_t i = 0; i < samples.size(); ++i) {
            recorder.observe(i % slots, kStageAnalyze, "analyze",
                             "matmul", samples[i]);
        }
        return recorder.merged();
    };
    const std::map<std::string, LatencyDigest> one = record(1);
    const std::map<std::string, LatencyDigest> two = record(2);
    const std::map<std::string, LatencyDigest> four = record(4);

    ASSERT_EQ(one.size(), two.size());
    ASSERT_EQ(one.size(), four.size());
    for (const auto& [key, digest] : one) {
        ASSERT_TRUE(two.count(key)) << key;
        ASSERT_TRUE(four.count(key)) << key;
        for (const double q : {0.5, 0.9, 0.99}) {
            EXPECT_EQ(digest.quantile(q), two.at(key).quantile(q));
            EXPECT_EQ(digest.quantile(q), four.at(key).quantile(q));
        }
        EXPECT_EQ(digest.count(), four.at(key).count());
        EXPECT_EQ(digest.sum(), four.at(key).sum());
    }
}

TEST(LatencyRecorderTest, MergedAggregatesAcrossWorkloadsUnderAll)
{
    LatencyRecorder recorder(1);
    recorder.observe(0, kStageAnalyze, "analyze", "matmul", 100);
    recorder.observe(0, kStageAnalyze, "analyze", "fft", 200);
    const std::map<std::string, LatencyDigest> merged = recorder.merged();

    const std::string allKey =
        std::string(kStageAnalyze) + '\x1f' + "analyze" + '\x1f' + "_all";
    ASSERT_TRUE(merged.count(allKey));
    EXPECT_EQ(merged.at(allKey).count(), 2u);
    EXPECT_EQ(merged.at(allKey).sum(), 300u);
}

/**
 * Run one observed serve session and return stdout responses plus raw
 * stderr (event log + notices) and, when @p rawLines is given, the
 * response lines as written.
 */
std::vector<JsonValue>
runObservedSession(const std::vector<std::string>& requestLines,
                   ServeOptions options, std::string* errText,
                   std::vector<std::string>* rawLines = nullptr)
{
    std::ostringstream feed;
    for (const std::string& line : requestLines) {
        feed << line << "\n";
    }
    std::istringstream in(feed.str());
    std::ostringstream out;
    std::ostringstream err;
    options.banner = false;
    EXPECT_EQ(serveLoop(in, out, err, options), 0);
    if (errText != nullptr) {
        *errText = err.str();
    }

    std::vector<JsonValue> responses;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        JsonValue doc;
        std::string error;
        EXPECT_TRUE(parseJson(line, doc, error))
            << "stdout hygiene violated: " << line;
        responses.push_back(std::move(doc));
        if (rawLines != nullptr) {
            rawLines->push_back(line);
        }
    }
    return responses;
}

/** The raw line and the parsed answer of the response with id @p id. */
std::pair<std::string, JsonValue>
metricsAnswer(const std::vector<JsonValue>& responses,
              const std::vector<std::string>& rawLines,
              const std::string& id)
{
    for (size_t i = 0; i < responses.size(); ++i) {
        const JsonValue* field = responses[i].find("id");
        if (field != nullptr && field->text == id) {
            return {rawLines[i], responses[i]};
        }
    }
    ADD_FAILURE() << "no answer with id " << id;
    return {};
}

std::string
metricsRequest(const std::string& id)
{
    return "{\"id\": \"" + id + "\", \"op\": \"metrics\"}";
}

TEST(ObservedServeTest, MetricsAnswerStaysBoundedAcrossAnalyses)
{
    // The daemon runs with telemetry on and never resets the registry,
    // so nothing in a metrics answer may grow per analysis: five more
    // analyses move counter values, they add no entries.  The first
    // metrics op only warms up its own digests; one lane answers in
    // order, and no purge sweep adds its gauges in between.
    ServeOptions options;
    options.lanes = 1;
    options.purgeEvery = 0;
    const std::string analyze =
        "{\"workload\": \"matmul\", \"cache\": false}";
    std::vector<std::string> requests = {analyze, metricsRequest("m0"),
                                         metricsRequest("m1")};
    for (int i = 0; i < 5; ++i) {
        requests.push_back(analyze);
    }
    requests.push_back(metricsRequest("m2"));
    std::vector<std::string> raw;
    const std::vector<JsonValue> responses =
        runObservedSession(requests, options, nullptr, &raw);
    ASSERT_EQ(responses.size(), requests.size());
    for (const JsonValue& doc : responses) {
        EXPECT_EQ(doc.find("status")->text, "ok");
    }

    const auto before = metricsAnswer(responses, raw, "m1");
    const auto after = metricsAnswer(responses, raw, "m2");
    ASSERT_FALSE(before.first.empty());
    ASSERT_GE(after.first.size(), before.first.size());
    EXPECT_LT(after.first.size() - before.first.size(), 1024u)
        << "metrics answer grew from " << before.first.size() << " to "
        << after.first.size() << " bytes over five analyses";
}

TEST(ObservedServeTest, EveryResponseEchoesItsLineNumberRequestId)
{
    ServeOptions options;
    options.lanes = 2;
    const std::vector<JsonValue> responses = runObservedSession(
        {
            "{\"id\": \"a\", \"workload\": \"matmul\"}",   // line 1
            "not json at all",                              // line 2
            "{\"id\": \"p\", \"op\": \"ping\"}",            // line 3
            "{\"id\": \"u\", \"workload\": \"starship\"}",  // line 4
        },
        options, nullptr);

    ASSERT_EQ(responses.size(), 4u);
    std::set<std::string> reqIds;
    for (const JsonValue& doc : responses) {
        const JsonValue* req = doc.find("req");
        ASSERT_NE(req, nullptr) << "response missing req echo";
        reqIds.insert(req->text);
    }
    // Request ids are the 1-based stdin line numbers -- stable joins
    // between client logs and the server's event log.
    EXPECT_EQ(reqIds,
              (std::set<std::string>{"r-1", "r-2", "r-3", "r-4"}));
}

TEST(ObservedServeTest, EventLogCoversTheRequestLifecycle)
{
    ServeOptions options;
    options.lanes = 1;
    options.observe.events = true;
    std::string errText;
    const std::vector<JsonValue> responses = runObservedSession(
        {
            "{\"id\": \"a\", \"workload\": \"matmul\"}",
            "garbage line",
        },
        options, &errText);
    ASSERT_EQ(responses.size(), 2u);

    // Every event line is a complete JSON object with an "event" and a
    // "req" field; the lifecycle of the analyze request must show up as
    // accept -> dispatch -> done, the malformed line as a reject.
    std::map<std::string, std::set<std::string>> eventsByReq;
    std::istringstream lines(errText);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] != '{') {
            continue;  // human notice, not an event
        }
        JsonValue doc;
        std::string error;
        ASSERT_TRUE(parseJson(line, doc, error))
            << "unparseable event line: " << line;
        const JsonValue* event = doc.find("event");
        const JsonValue* req = doc.find("req");
        ASSERT_NE(event, nullptr) << line;
        ASSERT_NE(req, nullptr) << line;
        EXPECT_NE(doc.find("ns"), nullptr) << line;
        eventsByReq[req->text].insert(event->text);
    }
    EXPECT_EQ(eventsByReq["r-1"],
              (std::set<std::string>{"accept", "dispatch", "done"}));
    EXPECT_EQ(eventsByReq["r-2"], (std::set<std::string>{"reject"}));
}

TEST(ObservedServeTest, NonOkResponsesDumpFlightTraces)
{
    const std::string dir =
        ::testing::TempDir() + "isamore_observe_serve_test";
    std::filesystem::remove_all(dir);

    ServeOptions options;
    options.lanes = 1;
    options.observe.flightDir = dir;
    const std::vector<JsonValue> responses = runObservedSession(
        {
            "{\"id\": \"ok\", \"workload\": \"matmul\"}",      // line 1
            "{\"id\": \"bad\", \"workload\": \"starship\"}",   // line 2
            "not json",                                        // line 3
            "{\"id\": \"deg\", \"workload\": \"matmul\","
            " \"inject\": \"rii.phase=trip@1\"}",              // line 4
        },
        options, nullptr);
    ASSERT_EQ(responses.size(), 4u);

    // Each non-ok response must have left a parseable, request-id-named
    // Perfetto trace; the ok one (no SLO configured) must not.
    for (const char* req : {"r-2", "r-3", "r-4"}) {
        const std::string path = dir + "/flight_" + req + ".json";
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << "missing flight dump " << path;
        std::stringstream body;
        body << in.rdbuf();
        JsonValue doc;
        std::string error;
        EXPECT_TRUE(parseJson(body.str(), doc, error))
            << path << ": " << error;
        EXPECT_NE(doc.find("traceEvents"), nullptr) << path;
    }
    EXPECT_FALSE(std::filesystem::exists(dir + "/flight_r-1.json"));
    std::filesystem::remove_all(dir);
}

TEST(ObservedServeTest, SloBustingOkResponsesDumpToo)
{
    const std::string dir =
        ::testing::TempDir() + "isamore_observe_slo_test";
    std::filesystem::remove_all(dir);

    ServeOptions options;
    options.lanes = 1;
    options.observe.flightDir = dir;
    // Any real analysis takes far longer than a 0.001ms SLO (and ping
    // far less than the no-dump check relies on... keep it to analyze).
    options.observe.sloMs = 0.001;
    const std::vector<JsonValue> responses = runObservedSession(
        {"{\"id\": \"slow\", \"workload\": \"matmul\"}"}, options,
        nullptr);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].find("status")->text, "ok");
    EXPECT_TRUE(std::filesystem::exists(dir + "/flight_r-1.json"));
    std::filesystem::remove_all(dir);
}

/** (stage, op, workload) digests in a metrics answer's latency block. */
size_t
digestKeyCount(const JsonValue& answer)
{
    const JsonValue* metrics = answer.find("metrics");
    const JsonValue* latency =
        metrics == nullptr ? nullptr : metrics->find("latency");
    if (latency == nullptr) {
        ADD_FAILURE() << "metrics answer without a latency block";
        return 0;
    }
    size_t keys = 0;
    for (const auto& [stage, ops] : latency->members) {
        for (const auto& [op, workloads] : ops.members) {
            keys += workloads.members.size();
        }
    }
    return keys;
}

size_t
expositionLineCount(const JsonValue& answer)
{
    const JsonValue* exposition = answer.find("exposition");
    if (exposition == nullptr) {
        ADD_FAILURE() << "metrics answer without an exposition";
        return 0;
    }
    return static_cast<size_t>(std::count(exposition->text.begin(),
                                          exposition->text.end(), '\n'));
}

TEST(ObservedServeTest, UnknownWorkloadNamesAddNoLatencyDigests)
{
    // A digest is keyed by workload only when the request resolved to a
    // known one, so clients naming ever new workloads (every request
    // answered `invalid`) cannot grow the metrics answer.  The first
    // metrics op only warms up its own digests.
    ServeOptions options;
    options.lanes = 1;
    options.purgeEvery = 0;
    options.queueCapacity = 256;  // no request is shed
    auto unknown = [](int i) {
        return "{\"workload\": \"no-such-workload-" + std::to_string(i) +
               "\"}";
    };
    std::vector<std::string> requests = {unknown(0), metricsRequest("m0"),
                                         metricsRequest("m1")};
    for (int i = 1; i <= 200; ++i) {
        requests.push_back(unknown(i));
    }
    requests.push_back(metricsRequest("m2"));
    std::vector<std::string> raw;
    const std::vector<JsonValue> responses =
        runObservedSession(requests, options, nullptr, &raw);
    ASSERT_EQ(responses.size(), requests.size());
    EXPECT_EQ(responses.front().find("status")->text, "invalid");

    const JsonValue before = metricsAnswer(responses, raw, "m1").second;
    const JsonValue after = metricsAnswer(responses, raw, "m2").second;
    EXPECT_GT(digestKeyCount(before), 0u);
    EXPECT_EQ(digestKeyCount(after), digestKeyCount(before));
    EXPECT_EQ(expositionLineCount(after), expositionLineCount(before));
}

TEST(ObservedServeTest, AliasesOfOneWorkloadShareLatencyDigests)
{
    // "PCL/sac", "pcl/sac" and "sac" resolve to one registry workload,
    // so their analyses feed the digests keyed by its name, not three
    // per-spelling ones.  One lane answers in order.
    ServeOptions options;
    options.lanes = 1;
    options.purgeEvery = 0;
    std::vector<std::string> requests;
    for (const char* name : {"sac", "PCL/sac", "pcl/sac"}) {
        requests.push_back(std::string("{\"workload\": \"") + name +
                           "\"}");
    }
    requests.push_back(metricsRequest("m"));
    std::vector<std::string> raw;
    const std::vector<JsonValue> responses =
        runObservedSession(requests, options, nullptr, &raw);
    ASSERT_EQ(responses.size(), requests.size());
    for (size_t i = 0; i + 1 < responses.size(); ++i) {
        EXPECT_EQ(responses[i].find("status")->text, "ok");
    }

    const JsonValue answer = metricsAnswer(responses, raw, "m").second;
    const JsonValue* metrics = answer.find("metrics");
    ASSERT_NE(metrics, nullptr);
    const JsonValue* latency = metrics->find("latency");
    ASSERT_NE(latency, nullptr);
    const JsonValue* analyze = latency->find(kStageAnalyze);
    ASSERT_NE(analyze, nullptr);
    std::set<std::string> workloads;
    for (const auto& [op, byWorkload] : analyze->members) {
        for (const auto& [workload, digest] : byWorkload.members) {
            workloads.insert(workload);
        }
    }
    EXPECT_EQ(workloads.count("PCL/sac"), 1u);
    EXPECT_EQ(workloads.count("sac"), 0u);
    EXPECT_EQ(workloads.count("pcl/sac"), 0u);
}

TEST(ObservedServeTest, MetricsOpReturnsJsonAndPrometheusMidSession)
{
    // One lane serializes the session, so the analyze request's digests
    // and counters are committed before the metrics op snapshots them.
    ServeOptions options;
    options.lanes = 1;
    const std::vector<JsonValue> responses = runObservedSession(
        {
            "{\"id\": \"a\", \"workload\": \"matmul\"}",
            "{\"id\": \"m\", \"op\": \"metrics\"}",
            "{\"id\": \"c\", \"op\": \"corpus\"}",
        },
        options, nullptr);
    ASSERT_EQ(responses.size(), 3u);

    const JsonValue* metricsDoc = nullptr;
    const JsonValue* corpusDoc = nullptr;
    for (const JsonValue& doc : responses) {
        if (doc.find("metrics") != nullptr) {
            metricsDoc = &doc;
        }
        if (doc.find("corpus") != nullptr) {
            corpusDoc = &doc;
        }
    }
    ASSERT_NE(metricsDoc, nullptr);
    EXPECT_EQ(metricsDoc->find("status")->text, "ok");

    // The snapshot document: server counters + latency digests + the
    // full registry, all inline (already-parsed JSON by runSession).
    const JsonValue* metrics = metricsDoc->find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_EQ(metrics->type, JsonValue::Type::Object);
    const JsonValue* server = metrics->find("server");
    ASSERT_NE(server, nullptr);
    EXPECT_GE(server->find("served")->number, 1.0);
    const JsonValue* latency = metrics->find("latency");
    ASSERT_NE(latency, nullptr);
    EXPECT_NE(latency->find(kStageAnalyze), nullptr)
        << "analyze stage digest missing from the latency snapshot";
    EXPECT_NE(metrics->find("registry"), nullptr);

    // The Prometheus exposition rides along as an escaped string: it
    // must carry typed server families and the latency summary.
    const JsonValue* exposition = metricsDoc->find("exposition");
    ASSERT_NE(exposition, nullptr);
    ASSERT_EQ(exposition->type, JsonValue::Type::String);
    const std::string& text = exposition->text;
    EXPECT_NE(text.find("# TYPE isamore_server_served counter"),
              std::string::npos);
    EXPECT_NE(text.find("isamore_server_latency_us"), std::string::npos);
    EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
    // Exposition hygiene: every line is a comment or `name{...} value`.
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        const size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_TRUE(line[0] == '_' || std::isalpha(line[0])) << line;
    }

    // The corpus op without an attached corpus reports so instead of
    // failing -- the inspection surface is always on.
    ASSERT_NE(corpusDoc, nullptr);
    EXPECT_EQ(corpusDoc->find("status")->text, "ok");
    const JsonValue* corpus = corpusDoc->find("corpus");
    ASSERT_NE(corpus, nullptr);
    const JsonValue* attached = corpus->find("attached");
    ASSERT_NE(attached, nullptr);
    EXPECT_FALSE(attached->boolean);
}

TEST(ObservedServeTest, CorpusOpReportsSectionsWhenAttached)
{
    const std::string path = ::testing::TempDir() +
                             "isamore_observe_corpus_test.bin";
    std::filesystem::remove(path);

    ServeOptions options;
    options.lanes = 1;
    options.corpusPath = path;
    const std::vector<JsonValue> responses = runObservedSession(
        {
            "{\"id\": \"a\", \"workload\": \"matmul\"}",
            "{\"id\": \"c\", \"op\": \"corpus\"}",
        },
        options, nullptr);
    ASSERT_EQ(responses.size(), 2u);

    const JsonValue* corpus = nullptr;
    for (const JsonValue& doc : responses) {
        if (doc.find("corpus") != nullptr) {
            corpus = doc.find("corpus");
        }
    }
    ASSERT_NE(corpus, nullptr);
    EXPECT_TRUE(corpus->find("attached")->boolean);
    const JsonValue* sections = corpus->find("sections");
    ASSERT_NE(sections, nullptr);
    // The corpus holds one section: the result cache, which the
    // analyze request populated.
    ASSERT_EQ(sections->members.size(), 1u);
    ASSERT_NE(sections->find("results"), nullptr);
    EXPECT_GE(sections->find("results")->number, 1.0);
    EXPECT_NE(corpus->find("pinnedNodes"), nullptr);
    EXPECT_NE(corpus->find("hits"), nullptr);
    EXPECT_NE(corpus->find("misses"), nullptr);
    // Those four plus "sections" are all of it: no pattern-library
    // counter is left.
    EXPECT_EQ(corpus->members.size(), 5u);
    std::filesystem::remove(path);
}

TEST(ObservedServeTest, UncachedRequestsBypassTheCorpus)
{
    const std::string path = ::testing::TempDir() +
                             "isamore_observe_uncached_corpus_test.bin";
    std::filesystem::remove(path);

    ServeOptions options;
    options.lanes = 1;
    options.corpusPath = path;
    std::vector<std::string> rawLines;
    const std::vector<JsonValue> responses = runObservedSession(
        {
            "{\"id\": \"a\", \"workload\": \"matmul\"}",
            "{\"id\": \"c1\", \"op\": \"corpus\"}",
            "{\"id\": \"b\", \"workload\": \"matmul\", \"cache\": false}",
            "{\"id\": \"c2\", \"op\": \"corpus\"}",
        },
        options, nullptr, &rawLines);
    ASSERT_EQ(responses.size(), 4u);

    const JsonValue uncached = metricsAnswer(responses, rawLines, "b").second;
    ASSERT_NE(uncached.find("status"), nullptr);
    EXPECT_EQ(uncached.find("status")->text, "ok");
    EXPECT_EQ(uncached.find("cached"), nullptr);

    // "cache": false ran the pipeline: the corpus saw neither a hit nor
    // a miss.  The counters are process-wide, so compare the two
    // answers of this session.
    const JsonValue before = metricsAnswer(responses, rawLines, "c1").second;
    const JsonValue after = metricsAnswer(responses, rawLines, "c2").second;
    ASSERT_NE(before.find("corpus"), nullptr);
    ASSERT_NE(after.find("corpus"), nullptr);
    EXPECT_EQ(after.find("corpus")->find("hits")->number,
              before.find("corpus")->find("hits")->number);
    EXPECT_EQ(after.find("corpus")->find("misses")->number,
              before.find("corpus")->find("misses")->number);
    std::filesystem::remove(path);
}

TEST(ObservedServeTest, MetricsIntervalWritesAtomicSnapshotFiles)
{
    const std::string base = ::testing::TempDir() +
                             "isamore_observe_metrics_test";
    std::filesystem::remove(base + ".json");
    std::filesystem::remove(base + ".prom");

    ServeOptions options;
    options.lanes = 1;
    options.metricsIntervalMs = 5;
    options.metricsPath = base;
    const std::vector<JsonValue> responses = runObservedSession(
        {"{\"id\": \"a\", \"workload\": \"matmul\"}"}, options, nullptr);
    ASSERT_EQ(responses.size(), 1u);

    // serveLoop writes a final snapshot at shutdown, so both documents
    // exist and parse regardless of timer racing.
    std::ifstream json(base + ".json");
    ASSERT_TRUE(json.good());
    std::stringstream jsonBody;
    jsonBody << json.rdbuf();
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(jsonBody.str(), doc, error)) << error;
    EXPECT_NE(doc.find("server"), nullptr);
    EXPECT_NE(doc.find("latency"), nullptr);
    EXPECT_NE(doc.find("registry"), nullptr);

    std::ifstream prom(base + ".prom");
    ASSERT_TRUE(prom.good());
    std::stringstream promBody;
    promBody << prom.rdbuf();
    EXPECT_NE(promBody.str().find("# TYPE isamore_server_served counter"),
              std::string::npos);
    std::filesystem::remove(base + ".json");
    std::filesystem::remove(base + ".prom");
}

TEST(ObservedServeTest, ObservabilityStaysOutOfTheResultBytes)
{
    // The deterministic report partition: the same analyze request must
    // produce byte-identical `result` documents with the full
    // observability layer on (events, flight dumps, SLO) and with it
    // off at defaults.
    const std::string dir =
        ::testing::TempDir() + "isamore_observe_identity_test";
    std::filesystem::remove_all(dir);

    ServeOptions plain;
    plain.lanes = 1;
    const std::vector<JsonValue> base = runObservedSession(
        {"{\"id\": \"a\", \"workload\": \"matmul\"}"}, plain, nullptr);

    ServeOptions observed;
    observed.lanes = 2;
    observed.observe.events = true;
    observed.observe.flightDir = dir;
    observed.observe.sloMs = 0.001;  // force a dump of the ok request
    const std::vector<JsonValue> traced = runObservedSession(
        {"{\"id\": \"a\", \"workload\": \"matmul\"}"}, observed, nullptr);

    // Drop the wall-clock "seconds" line (the golden suite's
    // normalization); every other byte must match.
    auto withoutTimings = [](const std::string& text) {
        std::istringstream in(text);
        std::ostringstream out;
        std::string line;
        while (std::getline(in, line)) {
            if (line.find("\"seconds\":") == std::string::npos) {
                out << line << "\n";
            }
        }
        return out.str();
    };
    ASSERT_EQ(base.size(), 1u);
    ASSERT_EQ(traced.size(), 1u);
    EXPECT_EQ(withoutTimings(base[0].find("result")->text),
              withoutTimings(traced[0].find("result")->text));
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace server
}  // namespace isamore
