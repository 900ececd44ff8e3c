/**
 * @file
 * Per-layer self-time attribution for traced runs.
 *
 * Spans come from the program's existing telemetry (eqsat.*, au.*,
 * rii.*, extract.relax, isamore.*), captured with a RequestSink on the
 * calling thread or read back from the serve loop's flight dumps, plus
 * windows the benchmark opens around its own public calls.  Self time is
 * computed on the calling thread's span tree only: spans that pool lanes
 * record on other threads lie inside their parent's interval on the
 * calling thread, so counting them again would double-count.  Every
 * nanosecond of a window therefore lands in exactly one layer, and the
 * layers plus the explicit unattributed row sum to the traced wall time.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
    std::string name;
    uint64_t startNs = 0;
    uint64_t durNs = 0;
    uint32_t tid = 0;
};

/** Layer metric a program span's self time belongs to. */
std::string layerOf(const std::string& spanName);

/** Layer metrics the attribution can produce (all reported, 0 if idle). */
const std::vector<std::string>& selfTimeLayers();

class LayerClock {
 public:
    /**
     * Attribute the window [startNs, startNs + durNs) on thread @p tid:
     * spans of @p spans on that thread nest inside it, and the window's
     * own self time goes to @p windowLayer.
     */
    void attribute(const std::string& windowLayer, uint64_t startNs,
                   uint64_t durNs, const std::vector<SpanRecord>& spans,
                   uint32_t tid);
    /** Milliseconds per layer metric. */
    std::map<std::string, double> milliseconds() const;

 private:
    std::map<std::string, int64_t> selfNs_;
};

}  // namespace perfbench
