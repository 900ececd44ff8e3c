#include "server/observe.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "corpus/corpus.hpp"

namespace isamore {
namespace server {

namespace {

/** The composite digest key: fields never contain '\x1f'. */
std::string
digestKey(const std::string& stage, const std::string& op,
          const std::string& workload)
{
    return stage + '\x1f' + op + '\x1f' + (workload.empty() ? "-"
                                                            : workload);
}

struct KeyParts {
    std::string stage;
    std::string op;
    std::string workload;
};

KeyParts
splitKey(const std::string& key)
{
    KeyParts parts;
    const size_t a = key.find('\x1f');
    const size_t b = key.find('\x1f', a + 1);
    parts.stage = key.substr(0, a);
    parts.op = key.substr(a + 1, b - a - 1);
    parts.workload = key.substr(b + 1);
    return parts;
}

}  // namespace

// -------------------------------------------------------- LatencyRecorder

LatencyRecorder::LatencyRecorder(size_t slots)
{
    slots_.reserve(slots == 0 ? 1 : slots);
    for (size_t i = 0; i < (slots == 0 ? 1 : slots); ++i) {
        slots_.push_back(std::make_unique<Slot>());
    }
}

void
LatencyRecorder::observe(size_t slot, const char* stage,
                         const std::string& op,
                         const std::string& workload, uint64_t micros)
{
    Slot& s = *slots_[slot % slots_.size()];
    std::lock_guard<std::mutex> lock(s.mutex);
    s.digests[digestKey(stage, op, workload)].observe(micros);
}

std::map<std::string, LatencyDigest>
LatencyRecorder::merged() const
{
    std::map<std::string, LatencyDigest> out;
    for (const auto& slot : slots_) {
        std::lock_guard<std::mutex> lock(slot->mutex);
        for (const auto& [key, digest] : slot->digests) {
            out[key].merge(digest);
        }
    }
    // Per-(stage, op) aggregates across workloads, under "_all".
    std::map<std::string, LatencyDigest> aggregates;
    for (const auto& [key, digest] : out) {
        const KeyParts parts = splitKey(key);
        aggregates[digestKey(parts.stage, parts.op, "_all")].merge(digest);
    }
    for (auto& [key, digest] : aggregates) {
        out[key].merge(digest);
    }
    return out;
}

std::string
LatencyRecorder::toJson() const
{
    const auto digests = merged();
    // std::map ordering makes the nesting walk deterministic: keys
    // sharing a stage (and then an op) are adjacent.
    std::ostringstream os;
    os << "{";
    std::string openStage;
    std::string openOp;
    bool firstStage = true;
    bool firstOp = true;
    bool firstWorkload = true;
    for (const auto& [key, digest] : digests) {
        const KeyParts parts = splitKey(key);
        if (parts.stage != openStage) {
            if (!openStage.empty()) {
                os << "}}";
            }
            os << (firstStage ? "" : ", ") << "\""
               << telemetry::jsonEscape(parts.stage) << "\": {";
            firstStage = false;
            openStage = parts.stage;
            openOp.clear();
            firstOp = true;
        }
        if (parts.op != openOp) {
            if (!openOp.empty()) {
                os << "}";
            }
            os << (firstOp ? "" : ", ") << "\""
               << telemetry::jsonEscape(parts.op) << "\": {";
            firstOp = false;
            openOp = parts.op;
            firstWorkload = true;
        }
        os << (firstWorkload ? "" : ", ") << "\""
           << telemetry::jsonEscape(parts.workload) << "\": {\"count\": "
           << digest.count() << ", \"mean_us\": " << digest.mean()
           << ", \"p50_us\": " << digest.quantile(0.5)
           << ", \"p90_us\": " << digest.quantile(0.9)
           << ", \"p99_us\": " << digest.quantile(0.99)
           << ", \"max_us\": " << digest.max() << "}";
        firstWorkload = false;
    }
    if (!openStage.empty()) {
        os << "}}";
    }
    os << "}";
    return os.str();
}

std::string
LatencyRecorder::toPrometheus() const
{
    const auto digests = merged();
    std::ostringstream os;
    if (digests.empty()) {
        return "";
    }
    os << "# TYPE isamore_server_latency_us summary\n";
    for (const auto& [key, digest] : digests) {
        const KeyParts parts = splitKey(key);
        const std::string labels = "stage=\"" + parts.stage + "\",op=\"" +
                                   parts.op + "\",workload=\"" +
                                   parts.workload + "\"";
        for (const auto& [name, q] :
             {std::pair<const char*, double>{"0.5", 0.5},
              {"0.9", 0.9},
              {"0.99", 0.99}}) {
            os << "isamore_server_latency_us{" << labels << ",quantile=\""
               << name << "\"} " << digest.quantile(q) << "\n";
        }
        os << "isamore_server_latency_us_sum{" << labels << "} "
           << digest.sum() << "\n";
        os << "isamore_server_latency_us_count{" << labels << "} "
           << digest.count() << "\n";
    }
    return os.str();
}

// -------------------------------------------------------- FlightRecorder

void
FlightRecorder::record(RequestTrace trace)
{
    ring_[next_] = std::move(trace);
    next_ = (next_ + 1) % ring_.size();
    if (count_ < ring_.size()) {
        ++count_;
    }
}

std::vector<const RequestTrace*>
FlightRecorder::snapshot() const
{
    std::vector<const RequestTrace*> out;
    out.reserve(count_);
    // Oldest entry sits at next_ once the ring wrapped, else at 0.
    const size_t begin = count_ == ring_.size() ? next_ : 0;
    for (size_t i = 0; i < count_; ++i) {
        out.push_back(&ring_[(begin + i) % ring_.size()]);
    }
    return out;
}

std::string
flightTraceJson(const RequestTrace& trace)
{
    std::ostringstream os;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    // Synthetic request-level span on its own track, so even a trace
    // with no pipeline spans (a reader-side reject, a shed) is a valid,
    // non-empty Perfetto document.
    os << "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 1000000, \"name\": "
          "\"thread_name\", \"args\": {\"name\": \"request\"}}";
    const uint64_t durNs =
        trace.endNs > trace.startNs ? trace.endNs - trace.startNs : 0;
    os << ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": 1000000, "
          "\"name\": \"server.request\", \"cat\": \"server\", \"ts\": "
       << trace.startNs / 1000 << "." << (trace.startNs % 1000) / 100
       << ", \"dur\": " << durNs / 1000 << "." << (durNs % 1000) / 100
       << ", \"args\": {\"req\": \"" << telemetry::jsonEscape(trace.requestId)
       << "\", \"id\": " << (trace.idJson.empty() ? "null" : trace.idJson)
       << ", \"op\": \"" << telemetry::jsonEscape(trace.op)
       << "\", \"workload\": \"" << telemetry::jsonEscape(trace.workload)
       << "\", \"status\": \"" << statusName(trace.status)
       << "\", \"queueWaitMs\": " << trace.queueWaitMs
       << ", \"elapsedMs\": " << trace.elapsedMs << "}}";
    // Pipeline spans, one Perfetto track per recording thread.
    std::vector<uint32_t> namedTids;
    for (const auto& entry : trace.events) {
        bool seen = false;
        for (uint32_t tid : namedTids) {
            if (tid == entry.tid) {
                seen = true;
                break;
            }
        }
        if (!seen) {
            namedTids.push_back(entry.tid);
            os << ",\n  {\"ph\": \"M\", \"pid\": 1, \"tid\": " << entry.tid
               << ", \"name\": \"thread_name\", \"args\": {\"name\": "
                  "\"thread-"
               << entry.tid << "\"}}";
        }
        const telemetry::TraceEvent& event = entry.event;
        os << ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": " << entry.tid
           << ", \"name\": \""
           << telemetry::jsonEscape(event.name == nullptr ? "?" : event.name)
           << "\", \"cat\": \""
           << telemetry::jsonEscape(event.cat == nullptr ? "isamore"
                                                    : event.cat)
           << "\", \"ts\": " << event.startNs / 1000 << "."
           << (event.startNs % 1000) / 100
           << ", \"dur\": " << event.durNs / 1000 << "."
           << (event.durNs % 1000) / 100;
        if (!event.args.empty()) {
            os << ", \"args\": {" << event.args << "}";
        }
        os << "}";
    }
    os << "\n]}\n";
    return os.str();
}

std::string
dumpFlightTrace(const std::string& dir, const RequestTrace& trace)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/flight_" + trace.requestId + ".json";
    std::ofstream out(path);
    if (!out.good()) {
        return "";
    }
    out << flightTraceJson(trace);
    return out.good() ? path : "";
}

// --------------------------------------------------------- Observability

Observability::Observability(const ObserveOptions& options, size_t lanes)
    : options_(options), latency_(lanes + 1)
{
    flights_.reserve(lanes + 1);
    for (size_t i = 0; i < lanes + 1; ++i) {
        flights_.push_back(
            std::make_unique<FlightRecorder>(options.flightRing));
    }
}

// ---------------------------------------------------- exposition builders

namespace {

std::string
serverCountersJson(const ServerCounters& c)
{
    std::ostringstream os;
    os << "{\"served\": " << c.served << ", \"ok\": " << c.ok
       << ", \"degraded\": " << c.degraded << ", \"invalid\": " << c.invalid
       << ", \"internal\": " << c.internal
       << ", \"badRequest\": " << c.badRequest
       << ", \"overloaded\": " << c.overloaded
       << ", \"cacheHits\": " << c.cacheHits
       << ", \"purgeSweeps\": " << c.purgeSweeps
       << ", \"purgedNodes\": " << c.purgedNodes << "}";
    return os.str();
}

}  // namespace

std::string
buildMetricsJson(const SharedState& state,
                 const Observability* observability)
{
    std::ostringstream os;
    os << "{\"server\": " << serverCountersJson(state.counters())
       << ", \"latency\": "
       << (observability != nullptr ? observability->latency().toJson()
                                    : std::string("{}"))
       << ", \"registry\": "
       << telemetry::Registry::instance().toJson(/*compact=*/true) << "}";
    return os.str();
}

std::string
buildExposition(const SharedState& state,
                const Observability* observability)
{
    const ServerCounters c = state.counters();
    std::ostringstream os;
    auto family = [&os](const char* name, const char* type,
                        uint64_t value) {
        os << "# TYPE isamore_server_" << name << " " << type << "\n"
           << "isamore_server_" << name << " " << value << "\n";
    };
    family("served", "counter", c.served);
    family("ok", "counter", c.ok);
    family("degraded", "counter", c.degraded);
    family("invalid", "counter", c.invalid);
    family("internal", "counter", c.internal);
    family("bad_request", "counter", c.badRequest);
    family("overloaded", "counter", c.overloaded);
    family("cache_hits", "counter", c.cacheHits);
    family("purge_sweeps", "counter", c.purgeSweeps);
    family("purged_nodes", "counter", c.purgedNodes);
    if (observability != nullptr) {
        os << observability->latency().toPrometheus();
    }
    os << telemetry::Registry::instance().toPrometheus();
    return os.str();
}

std::string
corpusStatusJson(const SharedState& state)
{
    const corpus::Corpus* corpus = state.corpusStore();
    std::ostringstream os;
    if (corpus == nullptr) {
        os << "{\"attached\": false}";
        return os.str();
    }
    auto& registry = telemetry::Registry::instance();
    os << "{\"attached\": true, \"sections\": {\"results\": "
       << corpus->resultCount()
       << "}, \"hits\": " << registry.counter("corpus.hits").value()
       << ", \"misses\": " << registry.counter("corpus.misses").value()
       << ", \"pinnedNodes\": " << corpus->pinnedNodeCount() << "}";
    return os.str();
}

}  // namespace server
}  // namespace isamore
