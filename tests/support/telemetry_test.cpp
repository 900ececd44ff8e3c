/**
 * @file
 * Telemetry layer tests: disabled probes stay inert, counters survive a
 * concurrent hammer (the TSan job runs this suite), spans nest, and both
 * exports (Chrome trace, metrics registry) emit well-formed JSON.
 */
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/telemetry.hpp"

namespace isamore {
namespace telemetry {
namespace {

/**
 * Minimal JSON well-formedness checker (objects, arrays, strings,
 * numbers, true/false/null).  Good enough to catch an unbalanced brace
 * or a broken escape in our hand-rolled emitters without a JSON
 * dependency.
 */
class JsonChecker {
 public:
    explicit JsonChecker(const std::string& text) : text_(text) {}

    bool
    valid()
    {
        skipSpace();
        if (!value()) {
            return false;
        }
        skipSpace();
        return pos_ == text_.size();
    }

 private:
    bool
    value()
    {
        if (pos_ >= text_.size()) {
            return false;
        }
        switch (text_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_;  // '{'
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            if (!string()) {
                return false;
            }
            skipSpace();
            if (peek() != ':') {
                return false;
            }
            ++pos_;
            skipSpace();
            if (!value()) {
                return false;
            }
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_;  // '['
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            if (!value()) {
                return false;
            }
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"') {
            return false;
        }
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size()) {
                    return false;
                }
            }
            ++pos_;
        }
        if (pos_ >= text_.size()) {
            return false;
        }
        ++pos_;  // closing quote
        return true;
    }

    bool
    number()
    {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool
    literal(const char* word)
    {
        const size_t len = std::char_traits<char>::length(word);
        if (text_.compare(pos_, len, word) != 0) {
            return false;
        }
        pos_ += len;
        return true;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    const std::string& text_;
    size_t pos_ = 0;
};

/** Every test leaves the global telemetry state as it found it: off
 *  and empty. */
class TelemetryTest : public ::testing::Test {
 protected:
    void
    SetUp() override
    {
        if (!kCompiled) {
            GTEST_SKIP() << "probes compiled out (ISAMORE_TELEMETRY=OFF)";
        }
        setEnabled(false);
        Tracer::instance().clear();
        Registry::instance().reset();
    }

    void
    TearDown() override
    {
        setEnabled(false);
        Tracer::instance().clear();
        Registry::instance().reset();
    }
};

TEST(JsonEscapeTest, EscapesControlBytesAndQuotes)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd\te\x01"),
              "a\\\"b\\\\c\\nd\\te\\u0001");
    EXPECT_EQ(jsonEscape("\r\x1f"), "\\r\\u001f");
    // No byte below 0x20 passes through raw.
    for (int c = 0; c < 0x20; ++c) {
        const std::string out =
            jsonEscape(std::string(1, static_cast<char>(c)));
        EXPECT_GT(out.size(), 1u) << c;
        EXPECT_EQ(out[0], '\\') << c;
    }
}

TEST_F(TelemetryTest, DisabledProbesAreInert)
{
    Counter& counter = Registry::instance().counter("test.inert");
    counter.add(7);
    EXPECT_EQ(counter.value(), 0u);

    {
        TELEM_SPAN("test.span", "test");
    }
    EXPECT_EQ(Tracer::instance().eventCount(), 0u);
}

TEST_F(TelemetryTest, SpanArgsBuildOnlyWhenEnabled)
{
    int evaluations = 0;
    auto expensive = [&evaluations] {
        ++evaluations;
        return std::string("\"k\": 1");
    };
    {
        TELEM_SPAN_ARGS("test.args", "test", expensive());
    }
    EXPECT_EQ(evaluations, 0);

    setEnabled(true);
    {
        TELEM_SPAN_ARGS("test.args", "test", expensive());
    }
    EXPECT_EQ(evaluations, 1);
    EXPECT_EQ(Tracer::instance().eventCount(), 1u);
}

TEST_F(TelemetryTest, CounterConcurrentHammer)
{
    setEnabled(true);
    Counter& counter = Registry::instance().counter("test.hammer");
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                counter.add();
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST_F(TelemetryTest, ConcurrentSpansAndRegistryResolution)
{
    setEnabled(true);
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 200;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                TELEM_SPAN("test.worker", "test");
                Registry::instance()
                    .counter("test.shared." + std::to_string(t % 2))
                    .add();
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    // Buffers of dead threads must still be visible to the export.
    EXPECT_EQ(Tracer::instance().eventCount(),
              static_cast<size_t>(kThreads) * kSpansPerThread);
    const uint64_t total =
        Registry::instance().counter("test.shared.0").value() +
        Registry::instance().counter("test.shared.1").value();
    EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kSpansPerThread);
}

TEST_F(TelemetryTest, SpanNesting)
{
    setEnabled(true);
    {
        TELEM_SPAN("outer", "test");
        {
            TELEM_SPAN("inner", "test");
        }
    }
    const std::string json = Tracer::instance().toChromeJson();
    EXPECT_EQ(Tracer::instance().eventCount(), 2u);
    // The inner span closes first, so it serializes first; both land on
    // the same tid and the outer one must contain the inner.
    const size_t inner = json.find("\"inner\"");
    const size_t outer = json.find("\"outer\"");
    ASSERT_NE(inner, std::string::npos);
    ASSERT_NE(outer, std::string::npos);
    EXPECT_LT(inner, outer);
}

TEST_F(TelemetryTest, ChromeTraceJsonWellFormed)
{
    setEnabled(true);
    {
        TELEM_SPAN("plain", "test");
    }
    {
        TELEM_SPAN_ARGS("with.args", "test",
                        std::string("\"iter\": 3, \"note\": \"a\\\"b\""));
    }
    const std::string json = Tracer::instance().toChromeJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(json.find("\"iter\": 3"), std::string::npos);
}

TEST_F(TelemetryTest, MetricsJsonNestsAndSorts)
{
    setEnabled(true);
    auto& registry = Registry::instance();
    registry.counter("eqsat.applications{rule=x.y}").add(3);
    registry.counter("eqsat.matches").add(10);
    registry.counter("au.memo_hits").add(5);
    registry.gauge("pool.lanes").set(4);

    const std::string json = registry.toJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    // Dot-nesting with the {label} suffix kept on the leaf: the label's
    // dot must not split.
    EXPECT_NE(json.find("\"applications{rule=x.y}\": 3"),
              std::string::npos)
        << json;
    // "au" sorts before "eqsat" sorts before "pool".
    const size_t au = json.find("\"au\"");
    const size_t eqsat = json.find("\"eqsat\"");
    const size_t pool = json.find("\"pool\"");
    ASSERT_NE(au, std::string::npos);
    ASSERT_NE(eqsat, std::string::npos);
    ASSERT_NE(pool, std::string::npos);
    EXPECT_LT(au, eqsat);
    EXPECT_LT(eqsat, pool);
    EXPECT_NE(json.find("\"lanes\": 4"), std::string::npos) << json;
    // Counters and gauges are the whole document.
    EXPECT_EQ(json.find("histograms"), std::string::npos) << json;
    EXPECT_EQ(json.find("records"), std::string::npos) << json;
}

TEST_F(TelemetryTest, ClearAndResetDropEverything)
{
    setEnabled(true);
    {
        TELEM_SPAN("gone", "test");
    }
    Registry::instance().counter("gone.counter").add();
    Tracer::instance().clear();
    Registry::instance().reset();
    EXPECT_EQ(Tracer::instance().eventCount(), 0u);
    const std::string json = Registry::instance().toJson();
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_EQ(json.find("gone"), std::string::npos);
}

}  // namespace
}  // namespace telemetry
}  // namespace isamore
