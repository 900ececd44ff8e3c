/**
 * @file
 * Shared pieces of the benchmark driver: the seeded generator, sample
 * statistics, the metric sheet a run prints, and clocks.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace isamore {
struct PoolStats;
}

namespace perfbench {

/** SplitMix64: the benchmark's own generator, identical on every
 *  platform (std:: distributions are not). */
class SeededRng {
 public:
    explicit SeededRng(uint64_t seed) : state_(seed) {}
    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return n == 0 ? 0 : next() % n; }
    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    template <typename T>
    void
    shuffle(std::vector<T>& items)
    {
        for (size_t i = items.size(); i > 1; --i) {
            std::swap(items[i - 1], items[below(i)]);
        }
    }

 private:
    uint64_t state_;
};

/** Linear-interpolated quantile (q in [0,1]); 0 for an empty sample. */
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
double geomean(const std::vector<double>& values);
/** num / den, or 0 when den is 0. */
double ratio(double num, double den);

/** Monotonic seconds (steady clock). */
double nowSeconds();

/** One metric of the printed result. */
struct Metric {
    double value = 0.0;
    std::string unit;
};

/** What one run measured: the printed result line plus notes. */
struct RunResult {
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** Human-readable lines printed before the result (oracle failures,
     *  the traced per-layer table). */
    std::vector<std::string> notes;

    void set(const std::string& name, double value, const char* unit)
    {
        metrics[name] = Metric{value, unit};
    }
    /** Record an oracle failure; the run then reports correct=false. */
    void fail(const std::string& why)
    {
        correct = false;
        notes.push_back("oracle: " + why);
    }
};

/** Deterministic work counts, summed over the analyses of a run. */
struct WorkCounts {
    double origNodes = 0, peakNodes = 0, applications = 0, rawCandidates = 0,
           dedupedCandidates = 0, costed = 0, phases = 0, reportBytes = 0;
};

/**
 * Set the per-layer counts every workload reports: @p work, the rule
 * count, the telemetry counters au.pairs_explored, au.memo_hits/misses
 * and extract.evals, the pool's task and steal deltas between @p before
 * and @p after, and the interner's size and hit ratio.
 */
void reportLayerCounts(RunResult& run, const WorkCounts& work,
                       double ruleCount, const isamore::PoolStats& before,
                       const isamore::PoolStats& after);

/** Command-line options every workload receives. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string goldenDir = "tests/isamore/golden";
    /** Scratch directory for the serve loop's flight dumps (traced
     *  serve_open runs only). */
    std::string scratchDir = ".bench_build/scratch";
};

/** Pool width of au_large, whose AU sweeps the pool parallelises: the
 *  caller plus one worker. */
constexpr size_t kPoolWidth = 2;
/**
 * Pool width of mode_mix and serve_open: every analysis runs serially on
 * its calling thread, and two busy serve lanes need two of a 4-core box's
 * cores.  At width 2 each of the hundreds of parallel loops in an
 * analysis waits for the pool worker to wake and join, so the machine's
 * scheduling noise was multiplied into every latency: serve_open's
 * pipeline and fast-path latencies and mode_mix's pass spread past or up
 * to their bounds between runs of unchanged code (see STEADINESS.md).
 */
constexpr size_t kSerialWidth = 1;
/** Session lanes of serve_open's serve loop. */
constexpr size_t kServeLanes = 2;

RunResult runAuLarge(const Options& options);
RunResult runModeMix(const Options& options);
RunResult runServeOpen(const Options& options);

}  // namespace perfbench
