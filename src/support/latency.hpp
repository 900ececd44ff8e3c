/**
 * @file
 * Mergeable latency digests with deterministic percentiles.
 *
 * A LatencyDigest counts samples in power-of-two buckets (bucketOf) and
 * is a plain, non-atomic value type: the server keeps one digest per
 * (lane, stage, op, workload) and each lane mutates only its own, so
 * observation takes no shared lock and never stalls another lane.
 * Snapshots merge lane-local digests into a global one by summing
 * buckets.  The server keys a digest by workload only for requests that
 * resolved to a known workload, so the key set stays bounded however
 * many distinct names clients send.
 *
 * Determinism contract: quantile(q) is computed from bucket counts only
 * -- the rank'th sample's bucket lower bound -- so the reported
 * percentile depends solely on the multiset of observed samples, not on
 * which lane observed which sample or in what order digests merged.
 * That is what makes "p99 per op" stable across 1/2/4-lane runs of the
 * same request mix (pinned by tests/support/latency_test.cpp).
 *
 * The bucket lower bound is a floor of the true percentile with at most
 * 2x relative error -- the right trade for an SLO signal that must be
 * cheap, mergeable, and bit-stable.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace isamore {

class LatencyDigest {
 public:
    /** Bucket i counts samples in [2^(i-1), 2^i); bucket 0 counts 0. */
    static constexpr size_t kBuckets = 65;

    /** The bucket @p sample lands in. */
    static size_t bucketOf(uint64_t sample);

    /** Record one sample (any unit; the server records microseconds). */
    void observe(uint64_t sample);

    /** Fold @p other into this digest (bucket-wise sums). */
    void merge(const LatencyDigest& other);

    /**
     * The bucket lower bound of the sample at rank ceil(q * count),
     * q in (0, 1]; 0 when the digest is empty.
     */
    uint64_t quantile(double q) const;

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    uint64_t max() const { return max_; }
    /** Exact-integer mean floor; 0 when empty. */
    uint64_t mean() const { return count_ == 0 ? 0 : sum_ / count_; }

 private:
    uint64_t buckets_[kBuckets] = {};
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t max_ = 0;
};

}  // namespace isamore
