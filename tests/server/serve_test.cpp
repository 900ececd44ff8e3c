#include "server/serve.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "server/session.hpp"

namespace isamore {
namespace server {
namespace {

/**
 * Run one serve session over @p requestLines and return the parsed
 * responses.  Every stdout line must be strict JSON with a status --
 * the stdout-hygiene contract -- so the helper asserts it for every
 * test that goes through here.
 */
std::vector<JsonValue>
runSession(const std::vector<std::string>& requestLines,
           ServeOptions options)
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

    std::vector<JsonValue> responses;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        JsonValue doc;
        std::string error;
        EXPECT_TRUE(parseJson(line, doc, error))
            << "stdout hygiene violated: " << line;
        EXPECT_NE(doc.find("status"), nullptr) << line;
        EXPECT_NE(doc.find("code"), nullptr) << line;
        responses.push_back(std::move(doc));
    }
    return responses;
}

std::map<std::string, const JsonValue*>
byId(const std::vector<JsonValue>& responses)
{
    std::map<std::string, const JsonValue*> out;
    for (const JsonValue& doc : responses) {
        const JsonValue* id = doc.find("id");
        if (id != nullptr && id->type == JsonValue::Type::String) {
            out[id->text] = &doc;
        }
    }
    return out;
}

TEST(ServeLoopTest, MixedSessionAnswersEveryRequest)
{
    ServeOptions options;
    options.lanes = 2;
    const std::vector<JsonValue> responses = runSession(
        {
            "{\"id\": \"p\", \"op\": \"ping\"}",
            "{\"id\": \"a\", \"workload\": \"matmul\"}",
            "this line is not JSON",
            "",  // blank keep-alive, not a request
            "{\"id\": \"u\", \"workload\": \"starship\"}",
            "{\"id\": \"f\", \"workload\": \"matmul\","
            " \"inject\": \"rii.phase=trip@1\"}",
            "{\"id\": \"s\", \"op\": \"stats\"}",
        },
        options);

    ASSERT_EQ(responses.size(), 6u);  // blank line answered nothing
    const auto docs = byId(responses);
    EXPECT_EQ(docs.at("p")->find("status")->text, "ok");
    EXPECT_EQ(docs.at("a")->find("status")->text, "ok");
    EXPECT_FALSE(docs.at("a")->find("result")->text.empty());
    EXPECT_EQ(docs.at("u")->find("status")->text, "invalid");
    EXPECT_EQ(docs.at("f")->find("status")->text, "degraded");
    EXPECT_EQ(docs.at("s")->find("status")->text, "ok");

    // The malformed line got a bad_request with the default (seq) id.
    size_t badRequests = 0;
    for (const JsonValue& doc : responses) {
        if (doc.find("status")->text == "bad_request") {
            ++badRequests;
            EXPECT_DOUBLE_EQ(doc.find("code")->number, 2.0);
        }
    }
    EXPECT_EQ(badRequests, 1u);
}

TEST(ServeLoopTest, OverloadShedsExplicitlyAndAnswersEverything)
{
    // One lane, a 2-slot queue, and a burst of slow analyses: the lane
    // is busy with the first request while the reader floods the rest,
    // so most of the burst must be shed -- each with an explicit
    // overloaded response, never silently.
    ServeOptions options;
    options.lanes = 1;
    options.queueCapacity = 2;

    std::vector<std::string> lines;
    for (int i = 0; i < 12; ++i) {
        lines.push_back("{\"id\": \"b" + std::to_string(i) +
                        "\", \"workload\": \"matmul\","
                        " \"cache\": false}");
    }
    const std::vector<JsonValue> responses = runSession(lines, options);

    ASSERT_EQ(responses.size(), lines.size());
    size_t ok = 0;
    size_t overloaded = 0;
    for (const JsonValue& doc : responses) {
        const std::string& status = doc.find("status")->text;
        if (status == "ok") {
            ++ok;
        } else if (status == "overloaded") {
            ++overloaded;
            EXPECT_DOUBLE_EQ(doc.find("code")->number, 6.0);
        } else {
            ADD_FAILURE() << "unexpected status " << status;
        }
    }
    // The in-flight request plus a full queue are served; the reader
    // floods faster than ~40ms-per-analysis drains, so the rest shed.
    EXPECT_GE(ok, 1u);
    EXPECT_GE(overloaded, lines.size() - 1 - options.queueCapacity - 1);
}

TEST(ServeLoopTest, DeadlineOverrunDegradesAndServingContinues)
{
    // A deadline far shorter than the analysis: the pipeline's own
    // deadline polls stop it, the response must be a structured
    // degraded, and the daemon must keep serving the next request.
    ServeOptions options;
    options.lanes = 1;
    const std::vector<JsonValue> responses = runSession(
        {
            "{\"id\": \"d\", \"workload\": \"matmul\","
            " \"deadlineMs\": 5, \"cache\": false}",
            "{\"id\": \"after\", \"op\": \"ping\"}",
        },
        options);

    ASSERT_EQ(responses.size(), 2u);
    const auto docs = byId(responses);
    EXPECT_EQ(docs.at("d")->find("status")->text, "degraded");
    EXPECT_EQ(docs.at("after")->find("status")->text, "ok");
}

TEST(ServeLoopTest, PurgeSweepRunsAndTableStaysBounded)
{
    // purgeEvery=2 over a run of uncached analyses: sweeps must fire
    // (visible in the stats response) while every request still serves.
    ServeOptions options;
    options.lanes = 1;
    options.purgeEvery = 2;

    std::vector<std::string> lines;
    for (int i = 0; i < 6; ++i) {
        lines.push_back("{\"id\": \"r" + std::to_string(i) +
                        "\", \"workload\": \"matmul\","
                        " \"cache\": false}");
    }
    lines.push_back("{\"id\": \"s\", \"op\": \"stats\"}");
    const std::vector<JsonValue> responses = runSession(lines, options);

    ASSERT_EQ(responses.size(), lines.size());
    const auto docs = byId(responses);
    const JsonValue* stats = docs.at("s")->find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_GE(stats->find("purgeSweeps")->number, 3.0);
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(
            docs.at("r" + std::to_string(i))->find("status")->text, "ok");
    }
}

TEST(ServeLoopTest, EmptyInputShutsDownCleanly)
{
    const std::vector<JsonValue> responses = runSession({}, ServeOptions{});
    EXPECT_TRUE(responses.empty());
}

}  // namespace
}  // namespace server
}  // namespace isamore
