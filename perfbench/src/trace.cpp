#include "trace.hpp"

#include <algorithm>

namespace perfbench {

namespace {

bool
startsWith(const std::string& text, const char* prefix)
{
    return text.rfind(prefix, 0) == 0;
}

}  // namespace

std::string
layerOf(const std::string& name)
{
    if (startsWith(name, "eqsat.")) {
        return "egraph.eqsat_self_ms";
    }
    if (startsWith(name, "extract.")) {
        return "egraph.extract_self_ms";
    }
    if (startsWith(name, "au.")) {
        return "rii.au_self_ms";
    }
    if (name == "rii.cost") {
        return "rii.cost_self_ms";
    }
    if (name == "rii.select") {
        return "rii.select_self_ms";
    }
    if (name == "rii.vectorize") {
        return "rii.vectorize_self_ms";
    }
    if (name == "isamore.analyze") {
        return "frontend.analyze_ms";
    }
    if (startsWith(name, "rii.") || name == "isamore.identify") {
        return "rii.unattributed_ms";
    }
    return "unattributed_ms";
}

const std::vector<std::string>&
selfTimeLayers()
{
    static const std::vector<std::string> layers = {
        "frontend.analyze_ms",    "rules.compile_ms",
        "egraph.eqsat_self_ms",   "egraph.extract_self_ms",
        "rii.au_self_ms",         "rii.cost_self_ms",
        "rii.select_self_ms",     "rii.vectorize_self_ms",
        "rii.unattributed_ms",    "isamore.report_ms",
        "unattributed_ms",
    };
    return layers;
}

void
LayerClock::attribute(const std::string& windowLayer, uint64_t startNs,
                      uint64_t durNs, const std::vector<SpanRecord>& spans,
                      uint32_t tid)
{
    struct Open {
        uint64_t end;
        std::string layer;
        int64_t self;
    };
    const uint64_t windowEnd = startNs + durNs;
    std::vector<const SpanRecord*> mine;
    for (const auto& s : spans) {
        if (s.tid == tid && s.startNs < windowEnd &&
            s.startNs + s.durNs > startNs) {
            mine.push_back(&s);
        }
    }
    // Parents before children: earlier start first, longer span first.
    std::sort(mine.begin(), mine.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                  if (a->startNs != b->startNs) {
                      return a->startNs < b->startNs;
                  }
                  return a->durNs > b->durNs;
              });
    std::vector<Open> stack;
    stack.push_back(Open{windowEnd, windowLayer, static_cast<int64_t>(durNs)});
    auto close = [&] {
        selfNs_[stack.back().layer] += stack.back().self;
        stack.pop_back();
    };
    for (const SpanRecord* s : mine) {
        const uint64_t begin = std::max(s->startNs, startNs);
        while (stack.size() > 1 && stack.back().end <= begin) {
            close();
        }
        // Clip to the parent so imperfect nesting never double-counts.
        const uint64_t end = std::min(s->startNs + s->durNs, stack.back().end);
        if (end <= begin) {
            continue;
        }
        const int64_t covered = static_cast<int64_t>(end - begin);
        stack.back().self -= covered;
        stack.push_back(Open{end, layerOf(s->name), covered});
    }
    while (!stack.empty()) {
        close();
    }
}

std::map<std::string, double>
LayerClock::milliseconds() const
{
    std::map<std::string, double> out;
    for (const auto& layer : selfTimeLayers()) {
        out[layer] = 0.0;
    }
    for (const auto& [layer, ns] : selfNs_) {
        out[layer] = static_cast<double>(ns) / 1e6;
    }
    return out;
}

}  // namespace perfbench
