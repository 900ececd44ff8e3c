/**
 * @file
 * Count-based regression check on the pipeline's heap traffic.
 *
 * One default-mode identifyInstructions on sha and on fft, at one pool
 * thread, must stay under a ceiling on the number of heap allocations it
 * makes.  An allocation count is a deterministic work count: unlike a
 * timing it cannot be tripped by machine noise, and it moves whenever a
 * change makes the pipeline copy per candidate instead of per shard or
 * per phase (DESIGN.md §7 and §9 say where the copies were removed).
 *
 * The counter is a replacement global operator new that forwards to
 * malloc.  Under AddressSanitizer the sanitizer runtime owns operator
 * new, so the count comes from its allocation hook instead, which also
 * sees the few direct malloc calls; the ceilings leave room for that.
 *
 * This file is its own test binary: replacing operator new affects
 * every translation unit linked with it.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "dsl/intern.hpp"
#include "isamore/isamore.hpp"
#include "rules/rulesets.hpp"
#include "support/pool.hpp"
#include "workloads/registry.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define ISAMORE_ALLOC_HOOK 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ISAMORE_ALLOC_HOOK 1
#endif
#endif

namespace {

std::atomic<bool> gCounting{false};
std::atomic<uint64_t> gAllocations{0};

void
countAllocation()
{
    if (gCounting.load(std::memory_order_relaxed)) {
        gAllocations.fetch_add(1, std::memory_order_relaxed);
    }
}

}  // namespace

#ifdef ISAMORE_ALLOC_HOOK

extern "C" int __sanitizer_install_malloc_and_free_hooks(
    void (*mallocHook)(const volatile void*, size_t),
    void (*freeHook)(const volatile void*));

namespace {

void
onMalloc(const volatile void*, size_t)
{
    countAllocation();
}

void
onFree(const volatile void*)
{}

void
installCounter()
{
    static const bool installed =
        __sanitizer_install_malloc_and_free_hooks(onMalloc, onFree) != 0;
    ASSERT_TRUE(installed) << "sanitizer allocation hook not installed";
}

}  // namespace

#else

// The deletes stay out of line: inlined into a caller that holds a
// pointer from operator new, their free() reads as a mismatched pair
// to GCC's -Wmismatched-new-delete.

void*
operator new(std::size_t size)
{
    countAllocation();
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

__attribute__((noinline)) void
operator delete(void* p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void* p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

void
installCounter()
{}

}  // namespace

#endif

namespace isamore {
namespace {

/**
 * Allocations made inside one default-mode identifyInstructions on
 * workload @p name at one pool thread.  The frontend, the rule library
 * and the interner's leftovers from earlier tests stay outside the
 * count.
 */
uint64_t
pipelineAllocations(const std::string& name)
{
    installCounter();
    const size_t restore = globalThreadCount();
    setGlobalThreads(1);
    auto workload = workloads::find(name);
    EXPECT_TRUE(workload.has_value()) << name;
    const AnalyzedWorkload analyzed = analyzeWorkload(std::move(*workload));
    const rules::RulesetLibrary library = rules::defaultLibrary();
    const rii::RiiConfig config = rii::RiiConfig::forMode(rii::Mode::Default);
    internPurge();

    gAllocations.store(0);
    gCounting.store(true);
    rii::RiiResult result = identifyInstructions(analyzed, library, config);
    gCounting.store(false);
    const uint64_t count = gAllocations.load();

    EXPECT_FALSE(result.front.empty()) << name;
    setGlobalThreads(restore);
    return count;
}

// Ceilings: the counts this check was committed with (3.22M on sha,
// 6.47M on fft, GCC 12 RelWithDebInfo) plus about 12% slack, which
// absorbs compiler and standard-library differences (copy elision,
// container growth) and the sanitizer hook's malloc calls.  A pipeline
// that copies per AU candidate again makes about twice as many.

TEST(AllocCountTest, ShaDefaultModeStaysUnderCeiling)
{
    const uint64_t count = pipelineAllocations("sha");
    RecordProperty("allocations", std::to_string(count));
    EXPECT_LE(count, 3600000u);
}

TEST(AllocCountTest, FftDefaultModeStaysUnderCeiling)
{
    const uint64_t count = pipelineAllocations("fft");
    RecordProperty("allocations", std::to_string(count));
    EXPECT_LE(count, 7250000u);
}

}  // namespace
}  // namespace isamore
