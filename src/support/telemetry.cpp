#include "support/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace isamore {
namespace telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
thread_local RequestSink* t_requestSink = nullptr;
}  // namespace detail

void
setEnabled(bool on)
{
#if defined(ISAMORE_NO_TELEMETRY)
    (void)on;
#else
    // Touch the epoch before the first probe can, so timestamps are
    // relative to the moment tracing was first switched on, not to an
    // arbitrary first span.
    nowNs();
    detail::g_enabled.store(on, std::memory_order_relaxed);
#endif
}

uint64_t
nowNs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch)
            .count());
}

// ---------------------------------------------------------------- Tracer

Tracer&
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

Tracer::ThreadBuffer&
Tracer::localBuffer()
{
    // One buffer per recording thread, registered once.  The shared_ptr
    // in buffers_ keeps the events alive after the thread exits (pool
    // workers die on every resize), so a late export still sees them.
    thread_local std::shared_ptr<ThreadBuffer> buffer = [this] {
        auto fresh = std::make_shared<ThreadBuffer>();
        std::lock_guard<std::mutex> lock(mutex_);
        fresh->tid = static_cast<uint32_t>(buffers_.size());
        buffers_.push_back(fresh);
        return fresh;
    }();
    return *buffer;
}

void
Tracer::record(TraceEvent event)
{
    ThreadBuffer& buffer = localBuffer();
    if (buffer.events.size() >= kMaxEventsPerThread) {
        ++buffer.dropped;
        return;
    }
    buffer.events.push_back(std::move(event));
}

std::string
jsonEscape(const std::string& text)
{
    std::string out;
    out.reserve(text.size() + 8);
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof(hex), "\\u%04x",
                              static_cast<unsigned>(c));
                out += hex;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/** Microseconds with three fractional digits, as Chrome "ts" wants. */
void
writeMicros(std::ostream& os, uint64_t ns)
{
    os << ns / 1000 << '.' << static_cast<char>('0' + (ns % 1000) / 100)
       << static_cast<char>('0' + (ns % 100) / 10)
       << static_cast<char>('0' + ns % 10);
}

}  // namespace

std::string
Tracer::toChromeJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    for (const auto& buffer : buffers_) {
        if (buffer->events.empty()) {
            continue;
        }
        // One metadata event names the thread so Perfetto's track labels
        // are readable.
        os << (first ? "" : ",\n")
           << "  {\"ph\": \"M\", \"pid\": 1, \"tid\": " << buffer->tid
           << ", \"name\": \"thread_name\", \"args\": {\"name\": "
              "\"thread-"
           << buffer->tid << "\"}}";
        first = false;
        for (const TraceEvent& event : buffer->events) {
            os << ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": "
               << buffer->tid << ", \"name\": \""
               << jsonEscape(event.name) << "\", \"cat\": \""
               << jsonEscape(event.cat == nullptr ? "isamore" : event.cat)
               << "\", \"ts\": ";
            writeMicros(os, event.startNs);
            os << ", \"dur\": ";
            writeMicros(os, event.durNs);
            if (!event.args.empty()) {
                os << ", \"args\": {" << event.args << "}";
            }
            os << "}";
        }
    }
    os << "\n]}\n";
    return os.str();
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buffer : buffers_) {
        buffer->events.clear();
        buffer->dropped = 0;
    }
}

size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t total = 0;
    for (const auto& buffer : buffers_) {
        total += buffer->events.size();
    }
    return total;
}

std::vector<RequestSink::Entry>
RequestSink::take()
{
    const size_t claimed = next_.load(std::memory_order_relaxed);
    const size_t used = claimed < slots_.size() ? claimed : slots_.size();
    std::vector<Entry> out(slots_.begin(),
                           slots_.begin() + static_cast<ptrdiff_t>(used));
    std::stable_sort(out.begin(), out.end(),
                     [](const Entry& a, const Entry& b) {
                         return a.event.startNs < b.event.startNs;
                     });
    return out;
}

uint64_t
Tracer::droppedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t total = 0;
    for (const auto& buffer : buffers_) {
        total += buffer->dropped;
    }
    return total;
}

// -------------------------------------------------------------- Registry

Registry&
Registry::instance()
{
    static Registry registry;
    return registry;
}

Counter&
Registry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = counters_[name];
    if (!slot) {
        slot = std::make_unique<Counter>();
    }
    return *slot;
}

Gauge&
Registry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = gauges_[name];
    if (!slot) {
        slot = std::make_unique<Gauge>();
    }
    return *slot;
}

namespace {

/**
 * A sorted name->rendered-value map printed as dot-nested JSON objects:
 * "a.b.c" and "a.b.d{rule=x}" become {"a": {"b": {"c": ..., "d{rule=x}":
 * ...}}}.  The label suffix never splits (no dots inside {...} by
 * construction of our metric names).  Input being a std::map makes every
 * object's keys sorted.
 */
void
writeNested(std::ostream& os,
            const std::map<std::string, std::string>& entries,
            size_t begin, size_t end, size_t depth,
            const std::string& prefix, bool pretty)
{
    // Materialize the [begin, end) slice of entries whose keys start with
    // prefix; group by the next dot-segment.
    auto it = entries.begin();
    std::advance(it, begin);
    std::string indent(pretty ? 2 * (depth + 1) : 0, ' ');
    os << "{";
    bool first = true;
    size_t index = begin;
    while (index < end) {
        const std::string& key = it->first;
        const std::string rest = key.substr(prefix.size());
        const size_t brace = rest.find('{');
        size_t dot = rest.find('.');
        if (brace != std::string::npos && dot != std::string::npos &&
            brace < dot) {
            dot = std::string::npos;  // dots inside a label stay put
        }
        os << (first ? (pretty ? "\n" : "") : (pretty ? ",\n" : ", "))
           << indent;
        first = false;
        if (dot == std::string::npos) {
            // Leaf at this level.
            os << "\"" << jsonEscape(rest) << "\": " << it->second;
            ++it;
            ++index;
            continue;
        }
        // Subtree: emit one nested object for every key sharing this
        // segment.
        const std::string segment = rest.substr(0, dot);
        const std::string child = prefix + segment + ".";
        size_t span = index;
        auto probe = it;
        while (span < end && probe->first.compare(0, child.size(), child) ==
                                 0) {
            ++probe;
            ++span;
        }
        os << "\"" << jsonEscape(segment) << "\": ";
        writeNested(os, entries, index, span, depth + 1, child, pretty);
        it = probe;
        index = span;
    }
    if (!first && pretty) {
        os << "\n" << std::string(2 * depth, ' ');
    }
    os << "}";
}

void
writeSection(std::ostream& os, const char* title,
             const std::map<std::string, std::string>& entries, bool last,
             bool pretty)
{
    os << (pretty ? "  " : "") << "\"" << title << "\": ";
    writeNested(os, entries, 0, entries.size(), 1, "", pretty);
    os << (last ? "" : ",") << (pretty ? "\n" : (last ? "" : " "));
}

}  // namespace

std::string
Registry::toJson(bool compact) const
{
    const bool pretty = !compact;
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, std::string> counters;
    for (const auto& [name, counter] : counters_) {
        counters[name] = std::to_string(counter->value());
    }
    std::map<std::string, std::string> gauges;
    for (const auto& [name, gauge] : gauges_) {
        gauges[name] = std::to_string(gauge->value());
    }
    std::ostringstream os;
    os << (pretty ? "{\n" : "{");
    writeSection(os, "counters", counters, false, pretty);
    writeSection(os, "gauges", gauges, true, pretty);
    os << (pretty ? "}\n" : "}");
    return os.str();
}

namespace {

/**
 * Split a registry metric name into a Prometheus family name and label
 * set: dots (and any other character outside [a-zA-Z0-9_]) become
 * underscores under an `isamore_` prefix, and a trailing
 * `{key=value,...}` suffix becomes `{key="value",...}`.
 */
void
promName(const std::string& name, std::string* family, std::string* labels)
{
    const size_t brace = name.find('{');
    const std::string base =
        brace == std::string::npos ? name : name.substr(0, brace);
    *family = "isamore_";
    for (char c : base) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        *family += ok ? c : '_';
    }
    labels->clear();
    if (brace == std::string::npos || name.back() != '}') {
        return;
    }
    const std::string inside =
        name.substr(brace + 1, name.size() - brace - 2);
    size_t pos = 0;
    while (pos < inside.size()) {
        size_t comma = inside.find(',', pos);
        if (comma == std::string::npos) {
            comma = inside.size();
        }
        const std::string pair = inside.substr(pos, comma - pos);
        const size_t eq = pair.find('=');
        if (eq != std::string::npos) {
            if (!labels->empty()) {
                *labels += ",";
            }
            *labels += pair.substr(0, eq) + "=\"" +
                       jsonEscape(pair.substr(eq + 1)) + "\"";
        }
        pos = comma + 1;
    }
}

}  // namespace

std::string
Registry::toPrometheus() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;

    // Group samples by family so each `# TYPE` header prints once even
    // when a family fans out over labels.
    auto renderScalars = [&os](const auto& metrics, const char* type) {
        std::map<std::string, std::vector<std::pair<std::string, int64_t>>>
            families;
        for (const auto& [name, metric] : metrics) {
            std::string family;
            std::string labels;
            promName(name, &family, &labels);
            families[family].emplace_back(
                labels, static_cast<int64_t>(metric->value()));
        }
        for (const auto& [family, samples] : families) {
            os << "# TYPE " << family << " " << type << "\n";
            for (const auto& [labels, value] : samples) {
                os << family;
                if (!labels.empty()) {
                    os << "{" << labels << "}";
                }
                os << " " << value << "\n";
            }
        }
    };
    renderScalars(counters_, "counter");
    renderScalars(gauges_, "gauge");
    return os.str();
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
}

bool
writeChromeTrace(const std::string& path)
{
    std::ofstream out(path);
    if (!out.good()) {
        return false;
    }
    out << Tracer::instance().toChromeJson();
    return out.good();
}

bool
writeMetrics(const std::string& path)
{
    std::ofstream out(path);
    if (!out.good()) {
        return false;
    }
    out << Registry::instance().toJson();
    return out.good();
}

}  // namespace telemetry
}  // namespace isamore
