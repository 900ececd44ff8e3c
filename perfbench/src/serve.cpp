/**
 * @file
 * serve_open: open-loop traffic against an in-process server::serveLoop.
 *
 * One generator thread writes request lines on a seeded schedule into
 * the loop's input stream, whatever the server is doing; the output
 * stream stamps each response line as the server finishes writing it,
 * and one reader thread matches it to its request, checks it, and
 * records its latency from the instant the request was due.
 */
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <istream>
#include <mutex>
#include <numeric>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "oracle.hpp"
#include "plan.hpp"
#include "rules/rulesets.hpp"
#include "server/serve.hpp"
#include "server/session.hpp"
#include "support/pool.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace isamore;
using server::JsonValue;

namespace {

/**
 * Latency limits of goodput, per class, above each class's p90 on
 * unchanged code (pipeline p90 230-275 ms; fast path p90 5-27 ms, the
 * tail being hits queued behind interactive misses; see STEADINESS.md).
 * An answer later than its limit is not good, so goodput falls as the
 * lanes slow down and the queue builds.
 */
constexpr double kPipelineLimitMs = 300.0;
constexpr double kHitLimitMs = 50.0;
/** How long before each due time the generator stops sleeping. */
constexpr std::chrono::microseconds kSpinLead{2000};
/** How long the batch client waits for one answer before giving up. */
constexpr std::chrono::seconds kBatchAnswerLimit{60};
/** Serve-loop starts measured for setup_s (the last one serves). */
constexpr int kSetups = 21;

/** Blocking line source: the serve loop's stdin. */
class LineSource : public std::streambuf {
 public:
    /** Queue make(n) as input line n, counting from 1; make runs under
     *  the source's lock, so line numbers follow the queue order. */
    template <typename Make>
    void
    push(Make&& make)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            lines_.push_back(make(++count_) + "\n");
        }
        cv_.notify_one();
    }
    size_t
    count()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return count_;
    }
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        cv_.notify_one();
    }

 protected:
    int_type
    underflow() override
    {
        if (gptr() < egptr()) {
            return traits_type::to_int_type(*gptr());
        }
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return closed_ || !lines_.empty(); });
        if (lines_.empty()) {
            return traits_type::eof();
        }
        current_ = std::move(lines_.front());
        lines_.pop_front();
        setg(current_.data(), current_.data(),
             current_.data() + current_.size());
        return traits_type::to_int_type(*gptr());
    }

 private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::string> lines_;
    std::string current_;
    size_t count_ = 0;
    bool closed_ = false;
};

/** Line sink: hands every complete line, stamped, to a callback. */
class LineSink : public std::streambuf {
 public:
    using Callback = std::function<void(std::string, uint64_t)>;
    explicit LineSink(Callback onLine) : onLine_(std::move(onLine)) {}

 protected:
    int_type
    overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof())) {
            put(traits_type::to_char_type(c));
        }
        return traits_type::not_eof(c);
    }
    /** Whole chunks at a time: a cached answer is one ~16 KB line, and
     *  copying it a byte at a time added to every fast-path latency. */
    std::streamsize
    xsputn(const char* s, std::streamsize n) override
    {
        const char* end = s + n;
        while (s < end) {
            const char* newline = static_cast<const char*>(
                std::memchr(s, '\n', static_cast<size_t>(end - s)));
            if (newline == nullptr) {
                pending_.append(s, end);
                break;
            }
            pending_.append(s, newline);
            put('\n');
            s = newline + 1;
        }
        return n;
    }

 private:
    void
    put(char c)
    {
        if (c != '\n') {
            pending_ += c;
            return;
        }
        onLine_(std::move(pending_), telemetry::nowNs());
        pending_.clear();
    }
    Callback onLine_;
    std::string pending_;
};

/** A stamped line queue between a sink and the benchmark's reader. */
class Mailbox {
 public:
    void
    post(std::string line, uint64_t ns)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            items_.emplace_back(std::move(line), ns);
        }
        cv_.notify_one();
    }
    /** Next line, or false once closed and drained. */
    bool
    take(std::string& line, uint64_t& ns)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
        if (items_.empty()) {
            return false;
        }
        line = std::move(items_.front().first);
        ns = items_.front().second;
        items_.pop_front();
        return true;
    }
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        cv_.notify_all();
    }

 private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::pair<std::string, uint64_t>> items_;
    bool closed_ = false;
};

/** Lets a closed-loop client wait for the answer to one request line. */
class AnswerWatch {
 public:
    /** Await the answer with this id; call before its line is queued. */
    void
    expect(uint64_t id)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        awaited_ = id;
        answered_ = false;
    }
    /** Called with every response line, which starts {"id": <n>. */
    void
    seen(const std::string& line)
    {
        static const std::string prefix = "{\"id\": ";
        if (line.rfind(prefix, 0) != 0) {
            return;
        }
        const uint64_t id =
            std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (id == 0 || id != awaited_) {
                return;
            }
            answered_ = true;
        }
        cv_.notify_one();
    }
    /** Wait for the awaited answer; false if none came within @p limit. */
    bool
    wait(std::chrono::seconds limit)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        return cv_.wait_for(lock, limit, [&] { return answered_; });
    }

 private:
    std::mutex mutex_;
    std::condition_variable cv_;
    uint64_t awaited_ = 0;
    bool answered_ = false;
};

/** One in-process serve loop with its three streams. */
class ServeInstance {
 public:
    explicit ServeInstance(const server::ServeOptions& options)
        : out_([this](std::string l, uint64_t ns) {
              watch.seen(l);
              responses.post(std::move(l), ns);
          }),
          err_([this](std::string l, uint64_t ns) {
              events.post(std::move(l), ns);
          }),
          in_(&source_), outStream_(&out_), errStream_(&err_)
    {
        thread_ = std::thread([this, options] {
            exitCode_ = server::serveLoop(in_, outStream_, errStream_,
                                          options);
        });
    }
    ~ServeInstance() { finish(); }
    ServeInstance(const ServeInstance&) = delete;
    ServeInstance& operator=(const ServeInstance&) = delete;

    void
    send(const std::string& line)
    {
        source_.push([&](size_t) { return line; });
    }
    /** Send make(n) as input line n; the loop echoes n as the id of a
     *  line too broken to carry one. */
    template <typename Make>
    void
    sendNumbered(Make&& make)
    {
        source_.push(std::forward<Make>(make));
    }
    size_t linesSent() { return source_.count(); }

    /** EOF the input, wait for the loop to drain and return. */
    int
    finish()
    {
        if (thread_.joinable()) {
            source_.close();
            thread_.join();
            responses.close();
            events.close();
        }
        return exitCode_;
    }

    Mailbox responses;
    Mailbox events;
    AnswerWatch watch;

 private:
    LineSource source_;
    LineSink out_;
    LineSink err_;
    std::istream in_;
    std::ostream outStream_;
    std::ostream errStream_;
    int exitCode_ = 0;
    std::thread thread_;  // last: joins before the streams go away
};

double
numberField(const JsonValue& v, const char* key, double fallback = 0.0)
{
    const JsonValue* f = v.find(key);
    return f != nullptr && f->type == JsonValue::Type::Number ? f->number
                                                              : fallback;
}

std::string
stringField(const JsonValue& v, const char* key)
{
    const JsonValue* f = v.find(key);
    return f != nullptr && f->type == JsonValue::Type::String ? f->text
                                                              : "";
}

bool
boolField(const JsonValue& v, const char* key)
{
    const JsonValue* f = v.find(key);
    return f != nullptr && f->type == JsonValue::Type::Bool && f->boolean;
}

/** Sum (or max) of every `"<field>": <number>` in a report. */
double
scanReport(const std::string& report, const std::string& field, bool max)
{
    const std::string needle = "\"" + field + "\": ";
    double acc = 0.0;
    for (size_t at = report.find(needle); at != std::string::npos;
         at = report.find(needle, at + 1)) {
        const double v = std::strtod(report.c_str() + at + needle.size(),
                                     nullptr);
        acc = max ? std::max(acc, v) : acc + v;
    }
    return acc;
}

/** Start a loop, have it answer one ping, and return the seconds that
 *  took. */
double
startAndPing(std::unique_ptr<ServeInstance>& holder,
             const server::ServeOptions& options)
{
    const double start = nowSeconds();
    holder = std::make_unique<ServeInstance>(options);
    holder->send("{\"op\": \"ping\", \"id\": 1}");
    std::string line;
    uint64_t ns = 0;
    if (!holder->responses.take(line, ns) ||
        line.find("\"pong\": true") == std::string::npos) {
        throw std::runtime_error("perfbench: serve loop did not answer ping");
    }
    return nowSeconds() - start;
}

struct Observed {
    std::vector<double> reqMs, hitMs, execMs, lateMs, speedups;
    uint64_t attempted = 0, correct = 0, good = 0, shed = 0;
    uint64_t cacheable = 0, cachedHits = 0;
    /** Purge sweeps the server announced during the timed schedule. */
    double purgeSweeps = 0;
    /** Server-side execution time of every lane-served answer. */
    double busyMs = 0.0;
    WorkCounts work;
};

/** Self-time of one flight dump's lane-side request span tree. */
void
attributeFlight(const std::string& path, LayerClock& clock, double& wallMs)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    JsonValue doc;
    std::string error;
    if (!server::parseJson(text.str(), doc, error)) {
        return;
    }
    const JsonValue* events = doc.find("traceEvents");
    if (events == nullptr) {
        return;
    }
    std::vector<SpanRecord> spans;
    const SpanRecord* request = nullptr;
    for (const auto& e : events->items) {
        if (stringField(e, "ph") != "X") {
            continue;
        }
        const uint32_t tid = static_cast<uint32_t>(numberField(e, "tid"));
        spans.push_back(SpanRecord{
            stringField(e, "name"),
            static_cast<uint64_t>(numberField(e, "ts") * 1000.0),
            static_cast<uint64_t>(numberField(e, "dur") * 1000.0), tid});
    }
    for (const auto& s : spans) {
        // The lane's own executeRequest span; tid 1000000 is the
        // synthetic accept-to-write span of the dump.
        if (s.name == "server.request" && s.tid != 1000000) {
            request = &s;
        }
    }
    if (request == nullptr) {
        return;
    }
    clock.attribute("unattributed_ms", request->startNs, request->durNs,
                    spans, request->tid);
    wallMs += static_cast<double>(request->durNs) / 1e6;
}

}  // namespace

RunResult
runServeOpen(const Options& options)
{
    setGlobalThreads(kSerialWidth);
    const ServePlan plan = planServeOpen(options.seed, options.seconds);
    RunResult run;
    Oracle oracle(options.goldenDir);

    server::ServeOptions serveOptions;
    serveOptions.lanes = kServeLanes;
    serveOptions.banner = false;
    std::string flightDir;
    double compileMs = 0.0;
    size_t ruleCount = 0;
    if (options.trace) {
        // Rule compilation happens lazily inside the loop with no span of
        // its own; time it here, out of band.
        const double t0 = nowSeconds();
        ruleCount = rules::defaultLibrary().all().size() +
                    rules::extendedLibrary().all().size();
        compileMs = (nowSeconds() - t0) * 1e3;
        flightDir = options.scratchDir + "/flight-" +
                    std::to_string(static_cast<long>(::getpid()));
        std::filesystem::remove_all(flightDir);
        std::filesystem::create_directories(flightDir);
        serveOptions.observe.events = true;
        serveOptions.observe.flightDir = flightDir;
        // Every lane-served request exceeds this SLO, so every one dumps
        // its span tree.
        serveOptions.observe.sloMs = 1e-9;
    }

    std::vector<double> setups;
    std::unique_ptr<ServeInstance> server;
    for (int i = 0; i < kSetups; ++i) {
        server.reset();  // EOF and join the previous loop first
        setups.push_back(startAndPing(server, serveOptions));
    }
    // Warm-up, closed loop and untimed, so the timed schedule meets a
    // daemon in its steady state (workloads analysed, libraries
    // compiled, the popular keys cached) instead of a cold burst.
    for (const auto& req : plan.warmup) {
        server->send(req.line + ", \"id\": 0}");
        std::string line;
        uint64_t ns = 0;
        if (!server->responses.take(line, ns) ||
            line.find("\"status\": \"ok\"") == std::string::npos) {
            throw std::runtime_error("perfbench: warm-up failed: " + req.line);
        }
    }
    // Count from the timed schedule only.
    telemetry::Registry::instance().reset();

    // Timed request i is the open-loop request i, or batch request
    // i - nOpen.  Each goes out as the next input line with that line
    // number as its id, so even a line too broken to carry an id maps
    // back to its request (the loop echoes the line number).
    const size_t nOpen = plan.requests.size();
    const size_t n = nOpen + plan.batch.size();
    auto requestAt = [&](size_t i) -> const ServeRequest& {
        return i < nOpen ? plan.requests[i] : plan.batch[i - nOpen];
    };
    const size_t firstLine = server->linesSent() + 1;
    std::vector<size_t> requestOfLine(n, n);
    std::vector<uint64_t> dueNs(n, 0);
    auto lineFor = [&](size_t i, size_t lineNo) {
        requestOfLine[lineNo - firstLine] = i;
        return requestAt(i).line + ", \"id\": " + std::to_string(lineNo) +
               "}";
    };
    Observed obs;
    obs.attempted = n;
    std::set<std::string> programsSeen;

    const PoolStats poolBefore = globalPool().stats();
    const uint64_t startNs = telemetry::nowNs() + 20'000'000;  // lead-in
    for (size_t i = 0; i < nOpen; ++i) {
        dueNs[i] = startNs + static_cast<uint64_t>(
                                 plan.requests[i].dueSeconds * 1e9);
    }
    const auto epoch = std::chrono::steady_clock::now();
    const uint64_t epochNs = telemetry::nowNs();
    auto steadyAt = [&](uint64_t ns) {
        return epoch + std::chrono::nanoseconds(ns - epochNs);
    };

    // Batch client: from the start of the schedule, each request as soon
    // as the previous one is answered.
    uint64_t batchEndNs = 0;
    std::thread batchClient([&] {
        std::this_thread::sleep_until(steadyAt(startNs));
        for (size_t i = nOpen; i < n; ++i) {
            dueNs[i] = telemetry::nowNs();
            server->sendNumbered([&](size_t lineNo) {
                server->watch.expect(lineNo);
                return lineFor(i, lineNo);
            });
            if (!server->watch.wait(kBatchAnswerLimit)) {
                return;
            }
        }
        batchEndNs = telemetry::nowNs();
    });
    // Generator: send on schedule regardless of the server's progress.
    for (size_t i = 0; i < nOpen; ++i) {
        // Sleep to just short of the due time, then spin: waking from a
        // sleep on an idle virtual CPU can take milliseconds, and every
        // one of them would count against the server.
        const auto due = steadyAt(dueNs[i]);
        std::this_thread::sleep_until(due - kSpinLead);
        while (std::chrono::steady_clock::now() < due) {
        }
        server->sendNumbered(
            [&](size_t lineNo) { return lineFor(i, lineNo); });
        const uint64_t sent = telemetry::nowNs();
        obs.lateMs.push_back(
            sent > dueNs[i] ? static_cast<double>(sent - dueNs[i]) / 1e6
                            : 0.0);
    }
    batchClient.join();
    server->finish();  // EOF: the loop drains its backlog and returns
    const PoolStats poolAfter = globalPool().stats();

    // Check the answers only now, so the benchmark's own parsing never
    // competes with the server for the CPU while it is being measured.
    // Each line was stamped when the server finished writing it.
    std::vector<std::string> failures;
    if (batchEndNs == 0) {
        failures.push_back("the batch client gave up waiting for an answer");
    }
    std::vector<bool> answered(n, false);
    std::string line;
    uint64_t ns = 0;
    while (server->responses.take(line, ns)) {
        JsonValue response;
        std::string error;
        if (!server::parseJson(line, response, error)) {
            failures.push_back("unparseable response line");
            continue;
        }
        const double id = numberField(response, "id", -1.0);
        const size_t i =
            id >= static_cast<double>(firstLine) &&
                    id < static_cast<double>(firstLine + n)
                ? requestOfLine[static_cast<size_t>(id) - firstLine]
                : n;
        if (i >= n) {
            failures.push_back("response with unknown id");
            continue;
        }
        if (answered[i]) {
            failures.push_back("duplicate response for one request");
            continue;
        }
        answered[i] = true;
        const ServeRequest& req = requestAt(i);
        const double latencyMs =
            static_cast<double>(ns - dueNs[i]) / 1e6;
        obs.busyMs += numberField(response, "elapsedMs");
        const std::string status = stringField(response, "status");
        const bool cached = boolField(response, "cached");
        const bool ranPipeline = req.kind == RequestKind::Analyze && !cached;
        // Latency classes: the batch client's analyses (the same set on
        // every seed) and the fast path.  Interactive misses also run the
        // pipeline, but how many there are depends on the seed, which
        // would shift the percentile ranks; they count towards ok_frac,
        // goodput and lane load, not towards either class.
        const bool pipeline = req.batch && !cached;
        const bool fastPath = !ranPipeline;
        if (status == "overloaded") {
            ++obs.shed;
        }
        std::string why;
        switch (req.kind) {
          case RequestKind::Analyze: {
            const std::string report = stringField(response, "result");
            if (status != "ok" || report.empty()) {
                why = req.program + ": status " + status;
                break;
            }
            const std::string key =
                req.program + "|" + req.mode +
                (req.extended ? "|extended" : "|default");
            why = oracle.check(
                key, Oracle::goldenFor(req.program, req.mode,
                                       req.extended),
                report);
            const double best = scanReport(report, "speedup", true);
            obs.speedups.push_back(best > 1.0 ? best : 1.0);
            if (req.cache) {
                ++obs.cacheable;
                obs.cachedHits += cached ? 1 : 0;
            }
            WorkCounts& work = obs.work;
            if (programsSeen.insert(req.program).second) {
                work.origNodes += scanReport(report, "origNodes", false);
            }
            if (pipeline) {
                obs.execMs.push_back(numberField(response, "elapsedMs"));
            }
            if (ranPipeline) {
                work.peakNodes = std::max(
                    work.peakNodes, scanReport(report, "peakNodes", true));
                work.applications +=
                    scanReport(report, "applications", false);
                work.rawCandidates +=
                    scanReport(report, "rawCandidates", false);
                work.dedupedCandidates +=
                    scanReport(report, "dedupedCandidates", false);
                work.phases += scanReport(report, "phases", false);
                work.reportBytes += static_cast<double>(report.size());
            }
            break;
          }
          case RequestKind::Ping:
            if (status != "ok" || !boolField(response, "pong")) {
                why = "ping: status " + status;
            }
            break;
          case RequestKind::Stats:
            if (status != "ok" || response.find("stats") == nullptr) {
                why = "stats: status " + status;
            }
            break;
          case RequestKind::Metrics:
            if (status != "ok" || response.find("metrics") == nullptr) {
                why = "metrics: status " + status;
            }
            break;
          case RequestKind::Malformed:
            if (status != "bad_request") {
                why = "malformed line answered " + status;
            }
            break;
        }
        if (pipeline) {
            obs.reqMs.push_back(latencyMs);
        } else if (fastPath) {
            obs.hitMs.push_back(latencyMs);
        }
        if (why.empty()) {
            ++obs.correct;
            if (latencyMs <= (ranPipeline ? kPipelineLimitMs
                                          : kHitLimitMs)) {
                ++obs.good;
            }
        } else {
            failures.push_back(why);
        }
    }
    // The server's stderr: purge notices (plain text) and, traced, the
    // event log.  Sweeps count from the start of the timed schedule.
    std::vector<std::string> eventLines;
    {
        std::string line;
        uint64_t ns = 0;
        while (server->events.take(line, ns)) {
            if (ns >= startNs &&
                line.rfind("[isamore_serve] purge sweep #", 0) == 0) {
                ++obs.purgeSweeps;
            }
            eventLines.push_back(std::move(line));
        }
    }

    for (size_t i = 0; i < n; ++i) {
        if (!answered[i]) {
            failures.push_back("request without a response");
        }
    }
    run.attempted = obs.attempted;
    run.failed = obs.attempted - obs.correct;
    for (size_t k = 0; k < failures.size() && k < 20; ++k) {
        run.fail(failures[k]);
    }
    if (!failures.empty()) {
        run.correct = false;
    }
    if (oracle.goldenChecks() == 0) {
        run.fail("no golden comparison was made");
    }

    const double laneBusy =
        ratio(obs.busyMs / 1e3, static_cast<double>(kServeLanes) * plan.seconds);
    if (!options.trace) {
        run.set("setup_s", median(setups), "s");
        run.set("pass_s", static_cast<double>(batchEndNs - startNs) / 1e9,
                "s");
        run.set("analyze_ms_p50", quantile(obs.execMs, 0.5), "ms");
        run.set("analyze_ms_p90", quantile(obs.execMs, 0.9), "ms");
        run.set("peak_rss_mb",
                static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0),
                "MB");
        run.set("best_speedup_geomean", geomean(obs.speedups), "x");
        run.set("ok_frac",
                ratio(static_cast<double>(obs.correct),
                      static_cast<double>(obs.attempted)),
                "ratio");
        run.set("req_ms_p50", quantile(obs.reqMs, 0.5), "ms");
        run.set("req_ms_p90", quantile(obs.reqMs, 0.9), "ms");
        run.set("goodput_rps",
                static_cast<double>(obs.good) / plan.seconds, "1/s");
        std::ostringstream note;
        note << "serve_open: " << obs.reqMs.size() << " pipeline answers (mean "
             << (obs.execMs.empty() ? 0.0
                                    : std::accumulate(obs.execMs.begin(),
                                                      obs.execMs.end(), 0.0) /
                                          static_cast<double>(obs.execMs.size()))
             << " ms on a lane), " << obs.hitMs.size()
             << " fast-path answers (p90 " << quantile(obs.hitMs, 0.9)
             << " ms), offered " << plan.rate << " req/s, generator late p99 "
             << quantile(obs.lateMs, 0.99) << " ms, lanes busy " << laneBusy;
        run.notes.push_back(note.str());
        return run;
    }

    // Traced breakdown: event log for the server stages, flight dumps
    // for the lane-side span trees.
    std::vector<double> queueWait, exec, parse, serialize;
    LayerClock clock;
    double wallMs = 0.0;
    for (const auto& line : eventLines) {
        JsonValue ev;
        std::string error;
        if (!server::parseJson(line, ev, error)) {
            continue;  // purge notices are plain text
        }
        const std::string kind = stringField(ev, "event");
        if (kind == "accept") {
            parse.push_back(numberField(ev, "parseUs") / 1e3);
        } else if (kind == "dispatch") {
            queueWait.push_back(numberField(ev, "queueWaitUs") / 1e3);
        } else if (kind == "done") {
            exec.push_back(numberField(ev, "elapsedMs"));
            serialize.push_back(numberField(ev, "serializeUs") / 1e3);
            const std::string flight = stringField(ev, "flight");
            if (!flight.empty()) {
                attributeFlight(flight, clock, wallMs);
            }
        }
    }
    std::filesystem::remove_all(flightDir);

    std::map<std::string, double> ms = clock.milliseconds();
    double attributed = 0.0;
    for (const auto& [layer, value] : ms) {
        if (layer != "unattributed_ms") {
            attributed += value;
        }
    }
    ms["unattributed_ms"] = wallMs - attributed;
    ms["rules.compile_ms"] = compileMs;
    for (const auto& [layer, value] : ms) {
        run.set(layer, value, "ms");
    }
    reportLayerCounts(run, obs.work, static_cast<double>(ruleCount),
                      poolBefore, poolAfter);
    run.set("server.queue_wait_ms_p50", quantile(queueWait, 0.5), "ms");
    run.set("server.queue_wait_ms_p90", quantile(queueWait, 0.9), "ms");
    run.set("server.exec_ms_p50", quantile(exec, 0.5), "ms");
    run.set("server.exec_ms_p90", quantile(exec, 0.9), "ms");
    run.set("server.parse_ms_p50", quantile(parse, 0.5), "ms");
    run.set("server.serialize_ms_p50", quantile(serialize, 0.5), "ms");
    run.set("server.cache_hit_ratio",
            ratio(static_cast<double>(obs.cachedHits),
                  static_cast<double>(obs.cacheable)),
            "ratio");
    run.set("server.purge_sweeps", obs.purgeSweeps, "count");
    run.set("server.shed", static_cast<double>(obs.shed), "count");
    run.set("server.lane_busy_ratio", laneBusy, "ratio");
    run.set("loadgen.late_ms_p99", quantile(obs.lateMs, 0.99), "ms");
    run.set("hit_ms_p50", quantile(obs.hitMs, 0.5), "ms");
    run.set("hit_ms_p90", quantile(obs.hitMs, 0.9), "ms");
    run.set("trace.wall_ms", wallMs, "ms");
    return run;
}

}  // namespace perfbench
