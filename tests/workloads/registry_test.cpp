/**
 * @file
 * The shared workload name space: every name `isamore_cli list` prints
 * resolves under that spelling, and library modules also resolve in
 * lower case (the server's documented spelling) and by bare module name.
 */
#include "workloads/registry.hpp"

#include <gtest/gtest.h>

#include <set>

namespace isamore {
namespace workloads {
namespace {

TEST(WorkloadRegistryTest, EveryListedNameResolves)
{
    const std::vector<std::string> all = names();
    ASSERT_FALSE(all.empty());
    EXPECT_EQ(std::set<std::string>(all.begin(), all.end()).size(),
              all.size());
    for (const std::string& name : all) {
        const std::optional<Workload> workload = find(name);
        ASSERT_TRUE(workload.has_value()) << name;
        // Library modules carry their listed name; kernels keep their
        // display names ("MatMul" for "matmul").
        if (name.find('/') != std::string::npos) {
            EXPECT_EQ(workload->name, name);
        }
    }
}

TEST(WorkloadRegistryTest, LibraryModulesResolveUnderEverySpelling)
{
    for (const char* spelling : {"PCL/octree", "pcl/octree", "octree"}) {
        const std::optional<Workload> workload = find(spelling);
        ASSERT_TRUE(workload.has_value()) << spelling;
        EXPECT_EQ(workload->name, "PCL/octree") << spelling;
    }
    for (const char* spelling : {"CImg/cimg", "cimg/cimg", "cimg"}) {
        const std::optional<Workload> workload = find(spelling);
        ASSERT_TRUE(workload.has_value()) << spelling;
        EXPECT_EQ(workload->name, "CImg/cimg") << spelling;
    }
    // Only the documented spellings resolve.
    for (const char* unknown : {"", "no-such-workload", "Pcl/Octree",
                                "MatMul"}) {
        EXPECT_FALSE(find(unknown).has_value()) << unknown;
    }
}

}  // namespace
}  // namespace workloads
}  // namespace isamore
