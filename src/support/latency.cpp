#include "support/latency.hpp"

namespace isamore {

size_t
LatencyDigest::bucketOf(uint64_t sample)
{
    size_t bits = 0;
    while (sample != 0) {
        sample >>= 1;
        ++bits;
    }
    return bits;  // sample in [2^(bits-1), 2^bits) -> bucket `bits`
}

void
LatencyDigest::observe(uint64_t sample)
{
    buckets_[bucketOf(sample)] += 1;
    count_ += 1;
    sum_ += sample;
    if (sample > max_) {
        max_ = sample;
    }
}

void
LatencyDigest::merge(const LatencyDigest& other)
{
    for (size_t i = 0; i < kBuckets; ++i) {
        buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) {
        max_ = other.max_;
    }
}

uint64_t
LatencyDigest::quantile(double q) const
{
    if (count_ == 0) {
        return 0;
    }
    if (q <= 0.0) {
        q = 0.0;
    }
    if (q > 1.0) {
        q = 1.0;
    }
    // Rank of the q'th sample, 1-based: ceil(q * count), clamped to
    // [1, count].  Integer arithmetic would overflow for huge counts;
    // the double round-trip is exact for counts below 2^53, far past
    // anything a daemon accumulates.
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
    if (static_cast<double>(rank) < q * static_cast<double>(count_)) {
        ++rank;
    }
    if (rank == 0) {
        rank = 1;
    }
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (seen >= rank) {
            return i == 0 ? 0 : uint64_t{1} << (i - 1);
        }
    }
    return max_;
}

}  // namespace isamore
