/**
 * @file
 * The workload name space shared by the CLI, the bench and the server.
 *
 * Kernels and case studies go by their lower-case keys ("matmul", "fft",
 * "kyber", ...); library modules by "<library>/<module>" exactly as
 * names() spells them ("PCL/octree"), by that spelling in lower case
 * ("pcl/octree"), or by the bare module name ("octree").  A kernel key
 * wins over a bare module name of the same spelling.
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace isamore {
namespace workloads {

/** Every workload's canonical name: kernels first, then library modules. */
std::vector<std::string> names();

/** Build the workload called @p name, or nullopt for an unknown name. */
std::optional<Workload> find(const std::string& name);

}  // namespace workloads
}  // namespace isamore
