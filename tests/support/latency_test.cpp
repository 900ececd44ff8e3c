#include "support/latency.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace isamore {
namespace {

TEST(LatencyDigestTest, EmptyDigestReportsZeros)
{
    LatencyDigest digest;
    EXPECT_EQ(digest.count(), 0u);
    EXPECT_EQ(digest.sum(), 0u);
    EXPECT_EQ(digest.max(), 0u);
    EXPECT_EQ(digest.mean(), 0u);
    EXPECT_EQ(digest.quantile(0.5), 0u);
    EXPECT_EQ(digest.quantile(1.0), 0u);
}

TEST(LatencyDigestTest, QuantileIsTheRankedSamplesBucketLowerBound)
{
    // Samples 1..8 land in buckets [2^(i-1), 2^i): 1 -> b1, {2,3} -> b2,
    // {4..7} -> b3, 8 -> b4.  Cumulative counts 1, 3, 7, 8.
    LatencyDigest digest;
    for (uint64_t v = 1; v <= 8; ++v) {
        digest.observe(v);
    }
    EXPECT_EQ(digest.count(), 8u);
    EXPECT_EQ(digest.sum(), 36u);
    EXPECT_EQ(digest.max(), 8u);
    EXPECT_EQ(digest.mean(), 4u);

    EXPECT_EQ(digest.quantile(0.125), 1u);  // rank 1 -> bucket 1
    EXPECT_EQ(digest.quantile(0.25), 2u);   // rank 2 -> bucket 2
    EXPECT_EQ(digest.quantile(0.5), 4u);    // rank 4 -> bucket 3
    EXPECT_EQ(digest.quantile(0.875), 4u);  // rank 7 -> bucket 3
    EXPECT_EQ(digest.quantile(1.0), 8u);    // rank 8 -> bucket 4
}

TEST(LatencyDigestTest, BucketsArePowersOfTwo)
{
    EXPECT_EQ(LatencyDigest::bucketOf(0), 0u);
    EXPECT_EQ(LatencyDigest::bucketOf(1), 1u);
    EXPECT_EQ(LatencyDigest::bucketOf(2), 2u);
    EXPECT_EQ(LatencyDigest::bucketOf(3), 2u);
    EXPECT_EQ(LatencyDigest::bucketOf(4), 3u);
    EXPECT_EQ(LatencyDigest::bucketOf(1023), 10u);
    EXPECT_EQ(LatencyDigest::bucketOf(1024), 11u);
    EXPECT_EQ(LatencyDigest::bucketOf(UINT64_MAX),
              LatencyDigest::kBuckets - 1);
}

TEST(LatencyDigestTest, ZeroSamplesCountInBucketZero)
{
    LatencyDigest digest;
    digest.observe(0);
    digest.observe(0);
    digest.observe(0);
    digest.observe(5);  // [4, 8) -> lower bound 4
    EXPECT_EQ(digest.quantile(0.75), 0u);  // rank 3 -> bucket 0
    EXPECT_EQ(digest.quantile(1.0), 4u);   // rank 4
    EXPECT_EQ(digest.max(), 5u);
}

TEST(LatencyDigestTest, LargeSamplesDoNotOverflowTheBucketWalk)
{
    LatencyDigest digest;
    digest.observe(UINT64_MAX);
    digest.observe(1);
    EXPECT_EQ(digest.count(), 2u);
    EXPECT_EQ(digest.quantile(0.5), 1u);
    // The top bucket's lower bound is 2^63.
    EXPECT_EQ(digest.quantile(1.0), uint64_t(1) << 63);
    EXPECT_EQ(digest.max(), UINT64_MAX);
}

/** Deterministic pseudo-random latency mix (microsecond-ish scale). */
std::vector<uint64_t>
sampleMix(size_t n)
{
    std::vector<uint64_t> samples;
    samples.reserve(n);
    uint64_t state = 0x9e3779b97f4a7c15ull;
    for (size_t i = 0; i < n; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        samples.push_back((state >> 33) % 200000);  // 0 .. 200ms in us
    }
    return samples;
}

/** Observe @p samples round-robin across @p lanes digests, then merge. */
LatencyDigest
splitAndMerge(const std::vector<uint64_t>& samples, size_t lanes)
{
    std::vector<LatencyDigest> locals(lanes);
    for (size_t i = 0; i < samples.size(); ++i) {
        locals[i % lanes].observe(samples[i]);
    }
    LatencyDigest global;
    for (const LatencyDigest& local : locals) {
        global.merge(local);
    }
    return global;
}

TEST(LatencyDigestTest, MergedQuantilesAreLaneSplitInvariant)
{
    // The determinism contract: the same sample multiset reports the
    // same percentiles no matter how it was split across lane-local
    // digests (1, 2, or 4 lanes) or in which order the merge folded.
    const std::vector<uint64_t> samples = sampleMix(997);
    const LatencyDigest one = splitAndMerge(samples, 1);
    const LatencyDigest two = splitAndMerge(samples, 2);
    const LatencyDigest four = splitAndMerge(samples, 4);

    for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
        EXPECT_EQ(one.quantile(q), two.quantile(q)) << "q=" << q;
        EXPECT_EQ(one.quantile(q), four.quantile(q)) << "q=" << q;
    }
    EXPECT_EQ(one.count(), four.count());
    EXPECT_EQ(one.sum(), four.sum());
    EXPECT_EQ(one.max(), four.max());
    EXPECT_EQ(one.mean(), four.mean());
}

TEST(LatencyDigestTest, MergeOrderDoesNotMatter)
{
    const std::vector<uint64_t> samples = sampleMix(64);
    LatencyDigest a;
    LatencyDigest b;
    for (size_t i = 0; i < samples.size(); ++i) {
        (i < samples.size() / 2 ? a : b).observe(samples[i]);
    }

    LatencyDigest ab = a;
    ab.merge(b);
    LatencyDigest ba = b;
    ba.merge(a);
    for (const double q : {0.1, 0.5, 0.99}) {
        EXPECT_EQ(ab.quantile(q), ba.quantile(q)) << "q=" << q;
    }
    EXPECT_EQ(ab.count(), ba.count());
    EXPECT_EQ(ab.sum(), ba.sum());
    EXPECT_EQ(ab.max(), ba.max());
}

TEST(LatencyDigestTest, MergingAnEmptyDigestIsANoOp)
{
    LatencyDigest digest;
    digest.observe(7);
    const uint64_t before = digest.quantile(1.0);
    LatencyDigest empty;
    digest.merge(empty);
    EXPECT_EQ(digest.count(), 1u);
    EXPECT_EQ(digest.quantile(1.0), before);
}

}  // namespace
}  // namespace isamore
