/**
 * @file
 * Wall-clock timing and resident-memory measurement for the evaluation
 * harnesses (Table 2 / Table 3 runtime and memory columns).
 */
#pragma once

#include <chrono>
#include <cstddef>

namespace isamore {

/** A simple wall-clock stopwatch. */
class Stopwatch {
 public:
    Stopwatch() : start_(Clock::now()) {}

    /** Restart the stopwatch. */
    void reset() { start_ = Clock::now(); }

    /** Elapsed seconds since construction or the last reset(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

    /** Elapsed milliseconds. */
    double milliseconds() const { return seconds() * 1e3; }

 private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/** Peak resident set size (VmHWM) in bytes; 0 when unavailable. */
size_t peakRssBytes();

}  // namespace isamore
