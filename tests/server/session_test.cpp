#include "server/session.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "dsl/intern.hpp"
#include "support/budget.hpp"

namespace isamore {
namespace server {
namespace {

/** ---- JSON parser --------------------------------------------------- */

JsonValue
mustParse(const std::string& text)
{
    JsonValue value;
    std::string error;
    EXPECT_TRUE(parseJson(text, value, error)) << error;
    return value;
}

std::string
parseError(const std::string& text)
{
    JsonValue value;
    std::string error;
    EXPECT_FALSE(parseJson(text, value, error)) << text;
    return error;
}

TEST(JsonParserTest, Scalars)
{
    EXPECT_EQ(mustParse("null").type, JsonValue::Type::Null);
    EXPECT_TRUE(mustParse("true").boolean);
    EXPECT_FALSE(mustParse("false").boolean);
    EXPECT_DOUBLE_EQ(mustParse("42").number, 42.0);
    EXPECT_DOUBLE_EQ(mustParse("-3.5e2").number, -350.0);
    EXPECT_EQ(mustParse("\"hi\\n\\\"there\\\"\"").text, "hi\n\"there\"");
    EXPECT_EQ(mustParse("\"\\u0041\\u00e9\"").text, "A\xc3\xa9");
}

TEST(JsonParserTest, Containers)
{
    const JsonValue array = mustParse("[1, [2], {\"k\": 3}]");
    ASSERT_EQ(array.items.size(), 3u);
    EXPECT_DOUBLE_EQ(array.items[0].number, 1.0);

    const JsonValue object = mustParse("{\"a\": 1, \"b\": \"x\"}");
    ASSERT_NE(object.find("a"), nullptr);
    EXPECT_DOUBLE_EQ(object.find("a")->number, 1.0);
    EXPECT_EQ(object.find("missing"), nullptr);
}

TEST(JsonParserTest, RejectsMalformedInput)
{
    for (const char* bad :
         {"", "{", "[1,", "{\"a\": }", "nul", "1 2", "{\"a\": 1} x",
          "\"unterminated", "\"bad \\q escape\"", "01x", "nan", "--1",
          "{\"a\" 1}", "[1 2]", "\"\x01\""}) {
        JsonValue value;
        std::string error;
        EXPECT_FALSE(parseJson(bad, value, error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(JsonParserTest, RejectsHostileNesting)
{
    const std::string deep(200, '[');
    EXPECT_NE(parseError(deep).find("nesting"), std::string::npos);
}

/** ---- Request parsing / status taxonomy ------------------------------ */

TEST(ParseRequestTest, MinimalAnalyze)
{
    const Request request = parseRequest("{\"workload\": \"matmul\"}", 7);
    EXPECT_TRUE(request.valid);
    EXPECT_EQ(request.op, RequestOp::Analyze);
    EXPECT_EQ(request.workload, "matmul");
    EXPECT_EQ(request.modeText, "default");
    EXPECT_EQ(request.idJson, "7");  // seq is the default id
    EXPECT_TRUE(request.cache);
    EXPECT_FALSE(request.wantsExclusive());
}

TEST(ParseRequestTest, AllFields)
{
    const Request request = parseRequest(
        "{\"id\": \"r-1\", \"workload\": \"fft\", \"mode\": \"astsize\","
        " \"extendedRules\": true, \"deadlineMs\": 250.5,"
        " \"maxUnits\": 1000, \"inject\": \"rii.phase=trip@1\","
        " \"cache\": false}",
        1);
    EXPECT_TRUE(request.valid);
    EXPECT_EQ(request.idJson, "\"r-1\"");
    EXPECT_EQ(request.modeText, "astsize");
    EXPECT_TRUE(request.extendedRules);
    EXPECT_DOUBLE_EQ(request.deadlineMs, 250.5);
    EXPECT_EQ(request.maxUnits, 1000u);
    EXPECT_TRUE(request.wantsExclusive());
    EXPECT_FALSE(request.cache);
}

TEST(ParseRequestTest, OpsAndValidation)
{
    EXPECT_EQ(parseRequest("{\"op\": \"ping\"}", 1).op, RequestOp::Ping);
    EXPECT_EQ(parseRequest("{\"op\": \"stats\"}", 1).op, RequestOp::Stats);

    // Everything below is a BadRequest-class refusal: structured, never
    // a crash, never a pipeline run.
    for (const char* bad : {
             "not json",
             "[1, 2]",
             "\"just a string\"",
             "{\"op\": \"destroy\"}",
             "{}",                               // analyze needs workload
             "{\"workload\": 42}",               // wrong type
             "{\"workload\": \"matmul\", \"x\": 1}",  // unknown field
             "{\"workload\": \"m\", \"strategy\": \"x\"}",  // retired field
             "{\"workload\": \"m\", \"deadlineMs\": -1}",
             "{\"workload\": \"m\", \"deadlineMs\": 0}",
             "{\"workload\": \"m\", \"maxUnits\": 1.5}",
             "{\"workload\": \"m\", \"extendedRules\": \"yes\"}",
             "{\"id\": [1], \"workload\": \"m\"}",
         }) {
        const Request request = parseRequest(bad, 9);
        EXPECT_FALSE(request.valid) << bad;
        EXPECT_FALSE(request.error.empty()) << bad;
    }
}

TEST(ParseRequestTest, IdIsEchoedEvenWhenInvalid)
{
    const Request request =
        parseRequest("{\"id\": 5, \"workload\": 42}", 3);
    EXPECT_FALSE(request.valid);
    EXPECT_EQ(request.idJson, "5");
}

TEST(ParseRequestTest, UnknownModeIsDeferredToExecution)
{
    // An unknown mode is a *user* error (the CLI's exit-3 class), not a
    // protocol error, so parsing accepts it and execution refuses it.
    const Request request = parseRequest(
        "{\"workload\": \"matmul\", \"mode\": \"warp9\"}", 1);
    EXPECT_TRUE(request.valid);
    EXPECT_EQ(request.modeText, "warp9");
}

TEST(StatusTest, CodesMirrorCliExitCodes)
{
    EXPECT_EQ(statusCode(Status::Ok), 0);
    EXPECT_EQ(statusCode(Status::BadRequest), 2);
    EXPECT_EQ(statusCode(Status::Invalid), 3);
    EXPECT_EQ(statusCode(Status::Internal), 4);
    EXPECT_EQ(statusCode(Status::Degraded), 5);
    EXPECT_EQ(statusCode(Status::Overloaded), 6);
    EXPECT_STREQ(statusName(Status::Overloaded), "overloaded");
}

TEST(RequestBudgetTest, SpecFromRequest)
{
    Request request;
    EXPECT_TRUE(requestBudgetSpec(request).unlimited());
    request.deadlineMs = 2000;
    request.maxUnits = 77;
    const BudgetSpec spec = requestBudgetSpec(request);
    EXPECT_DOUBLE_EQ(spec.maxSeconds, 2.0);
    EXPECT_EQ(spec.maxUnits, 77u);
}

TEST(SerializeResponseTest, OneStrictJsonLine)
{
    Response response;
    response.idJson = "\"r-1\"";
    response.status = Status::Degraded;
    response.workload = "matmul";
    response.result = "{\n  \"front\": []\n}";
    response.diagnostics = "budget: exhausted";
    response.elapsedMs = 1.5;
    const std::string line = serializeResponse(response);

    // Single line, and it round-trips through the strict parser.
    EXPECT_EQ(line.find('\n'), std::string::npos);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(line, doc, error)) << error;
    EXPECT_EQ(doc.find("status")->text, "degraded");
    EXPECT_DOUBLE_EQ(doc.find("code")->number, 5.0);
    EXPECT_EQ(doc.find("id")->text, "r-1");
    // The embedded result decodes back to the exact original bytes.
    EXPECT_EQ(doc.find("result")->text, response.result);
}

/** ---- SharedState execution ------------------------------------------ */

/** Drop the one wall-clock line; everything else is deterministic. */
std::string
stripWallClock(const std::string& json)
{
    std::string out;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"seconds\":") == std::string::npos) {
            out += line + "\n";
        }
    }
    return out;
}

Request
analyzeRequest(const std::string& workload, bool useCache = true)
{
    Request request;
    request.op = RequestOp::Analyze;
    request.workload = workload;
    request.cache = useCache;
    request.valid = true;
    request.idJson = "1";
    return request;
}

TEST(SharedStateTest, PingAndStats)
{
    SharedState state;
    Budget root;
    Request ping;
    ping.op = RequestOp::Ping;
    ping.valid = true;
    Response response = state.executeRequest(ping, root);
    EXPECT_EQ(response.status, Status::Ok);
    EXPECT_TRUE(response.pong);

    state.recordServed(response.status, false);
    Request stats;
    stats.op = RequestOp::Stats;
    stats.valid = true;
    response = state.executeRequest(stats, root);
    EXPECT_EQ(response.status, Status::Ok);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(response.statsJson, doc, error)) << error;
    EXPECT_DOUBLE_EQ(doc.find("served")->number, 1.0);
}

TEST(SharedStateTest, UnknownWorkloadAndModeAreInvalid)
{
    SharedState state;
    Budget root;
    Response response =
        state.executeRequest(analyzeRequest("warpcore"), root);
    EXPECT_EQ(response.status, Status::Invalid);
    EXPECT_NE(response.error.find("unknown workload"), std::string::npos);

    Request request = analyzeRequest("matmul");
    request.modeText = "warp9";
    response = state.executeRequest(request, root);
    EXPECT_EQ(response.status, Status::Invalid);
    EXPECT_NE(response.error.find("unknown mode"), std::string::npos);
}

TEST(SharedStateTest, BadInjectSpecIsInvalidNotFatal)
{
    SharedState state;
    Budget root;
    Request request = analyzeRequest("matmul");
    request.inject = "au.pair=explode";
    const Response response = state.executeRequest(request, root);
    EXPECT_EQ(response.status, Status::Invalid);
    // The daemon survives: the next request is fine.
    EXPECT_EQ(state.executeRequest(analyzeRequest("matmul"), root).status,
              Status::Ok);
}

TEST(SharedStateTest, InjectedFaultDegradesWithDiagnostics)
{
    SharedState state;
    Budget root;
    Request request = analyzeRequest("matmul");
    request.inject = "rii.phase=trip@1";
    const Response response = state.executeRequest(request, root);
    EXPECT_EQ(response.status, Status::Degraded);
    EXPECT_FALSE(response.diagnostics.empty());
    EXPECT_FALSE(response.result.empty());  // partial result still ships

    // Isolation: the next fault-free request must not see the injection
    // (the scope restored the registry) and must be byte-clean Ok.
    const Response clean =
        state.executeRequest(analyzeRequest("matmul"), root);
    EXPECT_EQ(clean.status, Status::Ok);
}

TEST(SharedStateTest, TightDeadlineDegrades)
{
    SharedState state;
    Request request = analyzeRequest("matmul");
    request.deadlineMs = 1;
    Budget root(requestBudgetSpec(request));
    const Response response = state.executeRequest(request, root);
    EXPECT_EQ(response.status, Status::Degraded);
    EXPECT_NE(response.diagnostics.find("budget"), std::string::npos);
}

TEST(SharedStateTest, ResponseCacheHitsAreByteIdentical)
{
    SharedState state;
    Budget root;
    const Response first =
        state.executeRequest(analyzeRequest("matmul"), root);
    ASSERT_EQ(first.status, Status::Ok);
    EXPECT_FALSE(first.cached);

    const Response second =
        state.executeRequest(analyzeRequest("matmul"), root);
    EXPECT_EQ(second.status, Status::Ok);
    EXPECT_TRUE(second.cached);
    EXPECT_EQ(first.result, second.result);

    // cache=false opts out but must still produce the same bytes
    // (modulo the one wall-clock field, which never repeats).
    const Response fresh =
        state.executeRequest(analyzeRequest("matmul", false), root);
    EXPECT_FALSE(fresh.cached);
    EXPECT_EQ(stripWallClock(first.result), stripWallClock(fresh.result));
}

TEST(SharedStateTest, WorkloadAliasesShareOneAnalysisAndCacheEntry)
{
    // The full, lower-case and bare spellings of one library module
    // resolve to one workload: one analysis, one response-cache entry.
    SharedState state;
    Budget root;
    for (const char* name : {"PCL/sac", "pcl/sac", "sac"}) {
        const Response response =
            state.executeRequest(analyzeRequest(name), root);
        ASSERT_EQ(response.status, Status::Ok) << name;
        // Each answer still echoes the spelling its request used.
        EXPECT_EQ(response.workload, name);
        state.recordServed(response.status, response.cached);
    }

    Request stats;
    stats.op = RequestOp::Stats;
    stats.valid = true;
    const Response response = state.executeRequest(stats, root);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(response.statsJson, doc, error)) << error;
    EXPECT_DOUBLE_EQ(doc.find("workloadsCached")->number, 1.0);
    EXPECT_DOUBLE_EQ(doc.find("cacheHits")->number, 2.0);
}

TEST(SharedStateTest, HundredSequentialRequestsDoNotGrowInternTable)
{
    // The long-run memory contract: re-analyzing the same workload over
    // and over, with the server's purge sweep running between batches,
    // must not monotonically grow the process-global intern table.
    SharedState state;
    const Request request = analyzeRequest("matmul", /*useCache=*/false);

    size_t baseline = 0;
    for (int i = 1; i <= 100; ++i) {
        Budget root;
        const Response response = state.executeRequest(request, root);
        ASSERT_EQ(response.status, Status::Ok) << "request " << i;
        if (i % 10 == 0) {
            internPurge();
            const size_t terms = internStats().terms;
            if (baseline == 0) {
                baseline = terms;
            } else {
                // Identical work, purged identically: the table must
                // return to its steady-state size, not creep upward.
                EXPECT_LE(terms, baseline) << "after request " << i;
            }
        }
    }
    EXPECT_GT(baseline, 0u);
}

}  // namespace
}  // namespace server
}  // namespace isamore
