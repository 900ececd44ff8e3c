#include "server/session.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "corpus/warm.hpp"
#include "dsl/intern.hpp"
#include "isamore/report.hpp"
#include "server/observe.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/pool.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"
#include "workloads/registry.hpp"

namespace isamore {
namespace server {

namespace {

/** ---- JSON parsing -------------------------------------------------- */

class JsonParser {
 public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    bool
    parse(JsonValue& out, std::string& error)
    {
        try {
            skipWs();
            out = parseValue();
            skipWs();
            if (pos_ != text_.size()) {
                fail("trailing bytes after the JSON value");
            }
            return true;
        } catch (const std::runtime_error& e) {
            error = e.what();
            return false;
        }
    }

 private:
    [[noreturn]] void
    fail(const std::string& why)
    {
        throw std::runtime_error("JSON error at byte " +
                                 std::to_string(pos_) + ": " + why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
        }
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++pos_;
    }

    bool
    consumeLiteral(const char* literal)
    {
        const size_t n = std::strlen(literal);
        if (text_.compare(pos_, n, literal) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        // Depth cap: a hostile request line must not overflow the stack.
        if (++depth_ > 32) {
            fail("nesting deeper than 32");
        }
        JsonValue value;
        const char c = peek();
        if (c == '{') {
            value = parseObject();
        } else if (c == '[') {
            value = parseArray();
        } else if (c == '"') {
            value.type = JsonValue::Type::String;
            value.text = parseString();
        } else if (c == 't' && consumeLiteral("true")) {
            value.type = JsonValue::Type::Bool;
            value.boolean = true;
        } else if (c == 'f' && consumeLiteral("false")) {
            value.type = JsonValue::Type::Bool;
            value.boolean = false;
        } else if (c == 'n' && consumeLiteral("null")) {
            value.type = JsonValue::Type::Null;
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            value.type = JsonValue::Type::Number;
            value.number = parseNumber();
        } else {
            fail("unexpected character");
        }
        --depth_;
        return value;
    }

    JsonValue
    parseObject()
    {
        JsonValue value;
        value.type = JsonValue::Type::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return value;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            skipWs();
            value.members.emplace_back(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return value;
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue value;
        value.type = JsonValue::Type::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return value;
        }
        for (;;) {
            skipWs();
            value.items.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return value;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
            }
            const char c = text_[pos_++];
            if (c == '"') {
                return out;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("raw control character in string");
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) {
                fail("unterminated escape");
            }
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9') {
                        code |= static_cast<unsigned>(h - '0');
                    } else if (h >= 'a' && h <= 'f') {
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    } else if (h >= 'A' && h <= 'F') {
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    } else {
                        fail("bad \\u escape digit");
                    }
                }
                // Encode as UTF-8 (surrogate pairs left as-is: request
                // ids never need astral-plane characters, and round-
                // tripping the raw code units is lossless for matching).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    double
    parseNumber()
    {
        const size_t start = pos_;
        if (peek() == '-') {
            ++pos_;
        }
        while (pos_ < text_.size() && std::isdigit(
                   static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            while (pos_ < text_.size() && std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-')) {
                ++pos_;
            }
            while (pos_ < text_.size() && std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        const std::string token = text_.substr(start, pos_ - start);
        try {
            size_t used = 0;
            const double value = std::stod(token, &used);
            if (used != token.size() || !std::isfinite(value)) {
                fail("bad number '" + token + "'");
            }
            return value;
        } catch (const std::logic_error&) {
            fail("bad number '" + token + "'");
        }
    }

    const std::string& text_;
    size_t pos_ = 0;
    int depth_ = 0;
};

/** Render a JSON number the way we echo ids: integers stay integral. */
std::string
numberToJson(double value)
{
    if (std::floor(value) == value && std::fabs(value) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", value);
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

}  // namespace

const JsonValue*
JsonValue::find(const std::string& key) const
{
    if (type != Type::Object) {
        return nullptr;
    }
    for (const auto& [k, v] : members) {
        if (k == key) {
            return &v;
        }
    }
    return nullptr;
}

bool
parseJson(const std::string& text, JsonValue& out, std::string& error)
{
    return JsonParser(text).parse(out, error);
}

const char*
statusName(Status status)
{
    switch (status) {
      case Status::Ok: return "ok";
      case Status::BadRequest: return "bad_request";
      case Status::Invalid: return "invalid";
      case Status::Internal: return "internal";
      case Status::Degraded: return "degraded";
      case Status::Overloaded: return "overloaded";
    }
    return "?";
}

int
statusCode(Status status)
{
    return static_cast<int>(status);
}

const char*
opName(RequestOp op)
{
    switch (op) {
      case RequestOp::Analyze: return "analyze";
      case RequestOp::Ping: return "ping";
      case RequestOp::Stats: return "stats";
      case RequestOp::Metrics: return "metrics";
      case RequestOp::Corpus: return "corpus";
    }
    return "?";
}

Request
parseRequest(const std::string& line, uint64_t seq)
{
    Request request;
    request.seq = seq;
    request.idJson = std::to_string(seq);
    // The stable wire id, assigned before any validation can bail so
    // even a reject is attributable: seq is the 1-based stdin line
    // number (the reader counts every line, blank or not).
    request.requestId = "r-" + std::to_string(seq);

    JsonValue root;
    std::string error;
    if (!parseJson(line, root, error)) {
        request.error = error;
        return request;
    }
    if (root.type != JsonValue::Type::Object) {
        request.error = "request must be a JSON object";
        return request;
    }

    // The id is echoed even for otherwise-broken requests, so pull it
    // out before any validation can bail.
    if (const JsonValue* id = root.find("id")) {
        if (id->type == JsonValue::Type::String) {
            request.idJson = "\"" + telemetry::jsonEscape(id->text) + "\"";
        } else if (id->type == JsonValue::Type::Number) {
            request.idJson = numberToJson(id->number);
        } else {
            request.error = "field 'id' must be a string or a number";
            return request;
        }
    }

    auto wantString = [&](const JsonValue& v, const char* name,
                          std::string& into) {
        if (v.type != JsonValue::Type::String) {
            request.error = std::string("field '") + name +
                            "' must be a string";
            return false;
        }
        into = v.text;
        return true;
    };
    auto wantBool = [&](const JsonValue& v, const char* name, bool& into) {
        if (v.type != JsonValue::Type::Bool) {
            request.error = std::string("field '") + name +
                            "' must be a boolean";
            return false;
        }
        into = v.boolean;
        return true;
    };

    std::string opText = "analyze";
    for (const auto& [key, value] : root.members) {
        if (key == "id") {
            continue;  // handled above
        } else if (key == "op") {
            if (!wantString(value, "op", opText)) {
                return request;
            }
        } else if (key == "workload") {
            if (!wantString(value, "workload", request.workload)) {
                return request;
            }
        } else if (key == "mode") {
            if (!wantString(value, "mode", request.modeText)) {
                return request;
            }
        } else if (key == "extendedRules") {
            if (!wantBool(value, "extendedRules", request.extendedRules)) {
                return request;
            }
        } else if (key == "inject") {
            if (!wantString(value, "inject", request.inject)) {
                return request;
            }
        } else if (key == "cache") {
            if (!wantBool(value, "cache", request.cache)) {
                return request;
            }
        } else if (key == "deadlineMs") {
            if (value.type != JsonValue::Type::Number ||
                !(value.number > 0.0)) {
                request.error = "field 'deadlineMs' must be a positive "
                                "number";
                return request;
            }
            request.deadlineMs = value.number;
        } else if (key == "maxUnits") {
            if (value.type != JsonValue::Type::Number ||
                value.number < 1.0 ||
                std::floor(value.number) != value.number) {
                request.error = "field 'maxUnits' must be a positive "
                                "integer";
                return request;
            }
            request.maxUnits = static_cast<uint64_t>(value.number);
        } else if (key == "threads") {
            if (value.type != JsonValue::Type::Number ||
                value.number < 1.0 || value.number > 64.0 ||
                std::floor(value.number) != value.number) {
                request.error = "field 'threads' must be an integer "
                                "between 1 and 64";
                return request;
            }
            request.threads = static_cast<size_t>(value.number);
        } else {
            // Strict: a typo'd field name must not silently change the
            // request's meaning.
            request.error = "unknown field '" + key + "'";
            return request;
        }
    }

    if (opText == "analyze") {
        request.op = RequestOp::Analyze;
        if (request.workload.empty()) {
            request.error = "analyze requests need a 'workload' field";
            return request;
        }
    } else if (opText == "ping") {
        request.op = RequestOp::Ping;
    } else if (opText == "stats") {
        request.op = RequestOp::Stats;
    } else if (opText == "metrics") {
        request.op = RequestOp::Metrics;
    } else if (opText == "corpus") {
        request.op = RequestOp::Corpus;
    } else {
        request.error = "unknown op '" + opText +
                        "' (expected analyze|ping|stats|metrics|corpus)";
        return request;
    }

    request.valid = true;
    return request;
}

BudgetSpec
requestBudgetSpec(const Request& request)
{
    BudgetSpec spec;
    if (request.deadlineMs > 0.0) {
        spec.maxSeconds = request.deadlineMs / 1e3;
    }
    if (request.maxUnits > 0) {
        spec.maxUnits = request.maxUnits;
    }
    return spec;
}

std::string
serializeResponse(const Response& response)
{
    std::ostringstream os;
    os << "{\"id\": " << response.idJson;
    if (!response.requestId.empty()) {
        os << ", \"req\": \"" << telemetry::jsonEscape(response.requestId)
           << "\"";
    }
    os << ", \"status\": \"" << statusName(response.status)
       << "\", \"code\": " << statusCode(response.status);
    if (!response.workload.empty()) {
        os << ", \"workload\": \"" << telemetry::jsonEscape(response.workload)
           << "\"";
    }
    if (response.pong) {
        os << ", \"pong\": true";
    }
    if (!response.statsJson.empty()) {
        os << ", \"stats\": " << response.statsJson;
    }
    if (!response.metricsJson.empty()) {
        os << ", \"metrics\": " << response.metricsJson;
    }
    if (!response.exposition.empty()) {
        os << ", \"exposition\": \""
           << telemetry::jsonEscape(response.exposition) << "\"";
    }
    if (!response.corpusJson.empty()) {
        os << ", \"corpus\": " << response.corpusJson;
    }
    if (response.cached) {
        os << ", \"cached\": true";
    }
    if (!response.result.empty()) {
        os << ", \"result\": \"" << telemetry::jsonEscape(response.result)
           << "\"";
    }
    if (!response.diagnostics.empty()) {
        os << ", \"diagnostics\": \""
           << telemetry::jsonEscape(response.diagnostics) << "\"";
    }
    if (!response.error.empty()) {
        os << ", \"error\": \"" << telemetry::jsonEscape(response.error)
           << "\"";
    }
    os << ", \"elapsedMs\": " << response.elapsedMs << "}";
    return os.str();
}

/** ---- SharedState --------------------------------------------------- */

SharedState::SharedState() : default_(rules::defaultLibrary()) {}

void
SharedState::attachCorpus(corpus::Corpus* corpus)
{
    corpus_ = corpus;
}

std::shared_ptr<const AnalyzedWorkload>
SharedState::getOrAnalyze(const std::string& name)
{
    std::lock_guard<std::mutex> lock(workloadMutex_);
    auto it = byRequestedName_.find(name);
    if (it != byRequestedName_.end()) {
        return it->second;
    }
    auto workload = workloads::find(name);
    if (!workload.has_value()) {
        return nullptr;
    }
    auto resolved = workloads_.find(workload->name);
    if (resolved == workloads_.end()) {
        const std::string key = workload->name;
        auto analyzed = std::make_shared<AnalyzedWorkload>(
            analyzeWorkload(std::move(*workload)));
        // Prime the e-graph's lazy read caches while we still hold the
        // insertion lock: after this the shared graph is only ever read,
        // so concurrent sessions never race on a refresh (see EGraph
        // docs).
        analyzed->program.egraph.classIds();
        resolved = workloads_.emplace(key, std::move(analyzed)).first;
    }
    byRequestedName_.emplace(name, resolved->second);
    return resolved->second;
}

const rules::RulesetLibrary&
SharedState::extendedLibrary()
{
    std::lock_guard<std::mutex> lock(libraryMutex_);
    if (extended_ == nullptr) {
        extended_ = std::make_unique<rules::RulesetLibrary>(
            rules::extendedLibrary());
    }
    return *extended_;
}

Response
SharedState::runAnalysis(const Request& request, Budget& rootBudget)
{
    Response response;
    response.idJson = request.idJson;
    response.workload = request.workload;

    const auto mode = rii::parseMode(request.modeText);
    if (!mode.has_value()) {
        response.status = Status::Invalid;
        response.error = "unknown mode: " + request.modeText;
        return response;
    }

    std::shared_ptr<const AnalyzedWorkload> analyzed;
    try {
        analyzed = getOrAnalyze(request.workload);
    } catch (const std::exception& e) {
        response.status = Status::Internal;
        response.error = std::string("workload analysis failed: ") +
                         e.what();
        return response;
    }
    if (analyzed == nullptr) {
        response.status = Status::Invalid;
        response.error = "unknown workload: " + request.workload +
                         " (send {\"op\": \"stats\"} or see isamore_cli "
                         "list)";
        return response;
    }
    response.resolvedWorkload = analyzed->workload.name;

    // Only unconstrained, fault-free requests may use the response
    // cache: anything with a budget, an injection, or a pinned thread
    // count must actually run to observe its own degradation (or, for
    // threads, to actually exercise the pipeline at that width).
    const bool cacheable = request.cache && request.inject.empty() &&
                           request.deadlineMs == 0.0 &&
                           request.maxUnits == 0 &&
                           request.threads == 0;
    const std::string cacheKey = analyzed->workload.name + '\x1f' +
                                 rii::modeName(*mode) + '\x1f' +
                                 (request.extendedRules ? "x" : "-");
    if (cacheable) {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        auto it = responseCache_.find(cacheKey);
        if (it != responseCache_.end()) {
            Response cached = it->second;
            cached.idJson = request.idJson;
            cached.workload = request.workload;
            cached.cached = true;
            return cached;
        }
    }

    // Per-request fault scope.  The caller holds the exclusive isolation
    // lane whenever inject is non-empty, so the process-global registry
    // swap cannot leak faults into a concurrently running request.
    std::optional<fault::Scope> scope;

    // Pin the pool width for the duration of the request.  The caller
    // holds the exclusive isolation lane whenever threads != 0, so the
    // process-global pool swap cannot race another request.
    struct ThreadPin {
        bool active;
        size_t previous = 0;
        explicit ThreadPin(size_t threads) : active(threads != 0)
        {
            if (active) {
                previous = globalThreadCount();
                setGlobalThreads(threads);
            }
        }
        ~ThreadPin()
        {
            if (active) {
                setGlobalThreads(previous);
            }
        }
    } threadPin(request.threads);

    try {
        if (!request.inject.empty()) {
            scope.emplace(request.inject);
        }

        rii::RiiConfig config = rii::RiiConfig::forMode(*mode);
        config.parentBudget = &rootBudget;
        const rules::RulesetLibrary& library =
            request.extendedRules ? extendedLibrary() : default_;
        // The corpus is a second response cache, so the same requests
        // bypass it (the warm wrapper also self-bypasses under armed
        // faults or a constrained root budget).
        const bool warm = corpus_ != nullptr && cacheable;
        rii::RiiResult result =
            warm ? corpus::identifyInstructions(*analyzed, library,
                                                config, *corpus_)
                 : identifyInstructions(*analyzed, library, config);

        response.result = resultToJson(*analyzed, result);
        if (result.diagnostics.degraded()) {
            response.status = Status::Degraded;
            response.diagnostics = result.diagnostics.summary();
        } else {
            response.status = Status::Ok;
            if (cacheable) {
                std::lock_guard<std::mutex> lock(cacheMutex_);
                if (responseCache_.size() >= kMaxCachedResponses) {
                    responseCache_.clear();
                }
                responseCache_.emplace(cacheKey, response);
            }
        }
    } catch (const UserError& e) {
        response.status = Status::Invalid;
        response.error = e.what();
    } catch (const InternalError& e) {
        response.status = Status::Internal;
        response.error = e.what();
    } catch (const std::bad_alloc&) {
        response.status = Status::Internal;
        response.error = "out of memory";
    } catch (const std::exception& e) {
        response.status = Status::Internal;
        response.error = e.what();
    }
    return response;
}

Response
SharedState::executeRequest(const Request& request, Budget& rootBudget)
{
    Stopwatch watch;
    // The request-level span: with a RequestSink installed on this
    // thread (the serve loop does that), every pipeline span closed in
    // here lands in the request's flight trace under this root.
    TELEM_SPAN_ARGS("server.request", "server",
                    "\"req\": \"" +
                        telemetry::jsonEscape(request.requestId) +
                        "\", \"op\": \"" + opName(request.op) +
                        "\", \"workload\": \"" +
                        telemetry::jsonEscape(request.workload) + "\"");
    Response response;
    response.idJson = request.idJson;
    try {
        switch (request.op) {
          case RequestOp::Ping:
            response.status = Status::Ok;
            response.pong = true;
            break;
          case RequestOp::Stats: {
            const ServerCounters c = counters();
            const InternStats intern = internStats();
            std::ostringstream os;
            os << "{\"served\": " << c.served << ", \"ok\": " << c.ok
               << ", \"degraded\": " << c.degraded
               << ", \"invalid\": " << c.invalid
               << ", \"internal\": " << c.internal
               << ", \"badRequest\": " << c.badRequest
               << ", \"overloaded\": " << c.overloaded
               << ", \"cacheHits\": " << c.cacheHits
               << ", \"purgeSweeps\": " << c.purgeSweeps
               << ", \"purgedNodes\": " << c.purgedNodes
               << ", \"internTerms\": " << intern.terms
               << ", \"workloadsCached\": " << workloadCacheSize() << "}";
            response.status = Status::Ok;
            response.statsJson = os.str();
            break;
          }
          case RequestOp::Metrics:
            // Live snapshot: counters are mutex-guarded, registry
            // metrics are relaxed atomics, latency digests lock one
            // lane slot at a time -- no lane quiesces for this.
            response.metricsJson = buildMetricsJson(*this, observability_);
            response.exposition = buildExposition(*this, observability_);
            response.status = Status::Ok;
            break;
          case RequestOp::Corpus:
            response.corpusJson = corpusStatusJson(*this);
            response.status = Status::Ok;
            break;
          case RequestOp::Analyze:
            response = runAnalysis(request, rootBudget);
            break;
        }
    } catch (const std::exception& e) {
        // Nothing below may take the daemon down; runAnalysis already
        // maps its own failures, this is the last-resort fence.
        response.status = Status::Internal;
        response.error = e.what();
    } catch (...) {
        response.status = Status::Internal;
        response.error = "unknown exception";
    }
    // Centralized so every path -- including a response-cache copy,
    // whose stored requestId belongs to the request that filled it --
    // echoes the id of *this* request.
    response.requestId = request.requestId;
    response.elapsedMs = watch.seconds() * 1e3;
    return response;
}

Response
SharedState::overloadedResponse(const Request& request,
                                size_t queueCapacity)
{
    Response response;
    response.idJson = request.idJson;
    response.requestId = request.requestId;
    response.status = Status::Overloaded;
    response.error = "request queue full (capacity " +
                     std::to_string(queueCapacity) +
                     "); retry with backoff";
    return response;
}

Response
SharedState::badRequestResponse(const Request& request)
{
    Response response;
    response.idJson = request.idJson;
    response.requestId = request.requestId;
    response.status = Status::BadRequest;
    response.error = request.error.empty() ? "malformed request"
                                           : request.error;
    return response;
}

ServerCounters
SharedState::counters() const
{
    std::lock_guard<std::mutex> lock(countersMutex_);
    return counters_;
}

void
SharedState::recordServed(Status status, bool cached)
{
    std::lock_guard<std::mutex> lock(countersMutex_);
    ++counters_.served;
    switch (status) {
      case Status::Ok: ++counters_.ok; break;
      case Status::Degraded: ++counters_.degraded; break;
      case Status::Invalid: ++counters_.invalid; break;
      case Status::Internal: ++counters_.internal; break;
      case Status::BadRequest: ++counters_.badRequest; break;
      case Status::Overloaded: ++counters_.overloaded; break;
    }
    if (cached) {
        ++counters_.cacheHits;
    }
}

ServerCounters
SharedState::recordPurge(size_t droppedNodes)
{
    std::lock_guard<std::mutex> lock(countersMutex_);
    ++counters_.purgeSweeps;
    counters_.purgedNodes += droppedNodes;
    return counters_;
}

size_t
SharedState::workloadCacheSize() const
{
    std::lock_guard<std::mutex> lock(workloadMutex_);
    return workloads_.size();
}

void
SharedState::clearResponseCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    responseCache_.clear();
}

}  // namespace server
}  // namespace isamore
