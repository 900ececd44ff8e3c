/**
 * @file
 * Seeded workload plans.  Everything a run feeds the program -- which
 * programs, in which order, under which mode and rule library, and for
 * serve_open the request lines and their due times -- is generated here
 * from the seed alone, before the program sees any of it.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workloads/libraries.hpp"

namespace perfbench {

/** One input program: a named kernel/library module or a generated
 *  library module. */
struct ProgramSpec {
    /** Lower-case name, as the server's workload lookup spells it for
     *  named programs ("matmul", "pcl/filters"); "gen/<name>" for
     *  generated modules. */
    std::string key;
    /** Set for generated modules (and named library modules). */
    std::optional<isamore::workloads::LibraryModuleSpec> library;

    isamore::workloads::Workload make() const;
    std::string describe() const;
};

/** One batch analysis: program index, mode name and rule library. */
struct Analysis {
    size_t program = 0;
    std::string mode;  ///< default|astsize|kdsample|vector|noeqsat
    bool extended = false;
};

struct BatchPlan {
    std::vector<ProgramSpec> programs;
    std::vector<Analysis> analyses;
};

/** Request classes of serve_open (what the response should be). */
enum class RequestKind { Analyze, Ping, Stats, Metrics, Malformed };

struct ServeRequest {
    double dueSeconds = 0.0;  ///< open loop: offset from the schedule start
    RequestKind kind = RequestKind::Analyze;
    std::string program;      ///< analyze: workload key
    std::string mode;         ///< analyze: mode name
    bool extended = false;
    bool cache = true;
    /** Sent by the closed-loop batch client; the pipeline class. */
    bool batch = false;
    std::string line;         ///< exact JSON line sent (without id)
};

struct ServePlan {
    double seconds = 0.0;
    double rate = 0.0;  ///< interactive Poisson stream, requests per second
    /** Sent closed-loop and untimed before the schedule. */
    std::vector<ServeRequest> warmup;
    /** Sent open-loop at their due times. */
    std::vector<ServeRequest> requests;
    /** Sent closed-loop, in order, from the start of the schedule. */
    std::vector<ServeRequest> batch;
};

BatchPlan planAuLarge(uint64_t seed);
BatchPlan planModeMix(uint64_t seed);
ServePlan planServeOpen(uint64_t seed, double seconds);

/** The five modes batch and serve workloads draw from. */
const std::vector<std::string>& mixModes();

/** Render a plan as text (the self-test's determinism check). */
std::string describePlan(const BatchPlan& plan);
std::string describePlan(const ServePlan& plan);

}  // namespace perfbench
