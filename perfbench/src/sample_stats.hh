/**
 * @file
 * Exact statistics over raw samples.  The benchmark keeps every
 * per-request latency and computes quantiles on the sorted samples
 * (nearest rank), never on histogram buckets, so p95 and p99 separate
 * whenever the samples do.  A request that was refused or failed is a
 * sample of +infinity: it misses every latency limit and pushes the
 * upper quantiles, exactly as a user would see it.
 */

#ifndef PERFBENCH_SAMPLE_STATS_HH
#define PERFBENCH_SAMPLE_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/** Latency of a request that never completed. */
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/**
 * Nearest-rank quantile of @p sorted (ascending): the smallest sample
 * with at least a @p q share of the samples at or below it.  NaN for an
 * empty sample set.
 */
inline double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return std::numeric_limits<double>::quiet_NaN();
    const double n = static_cast<double>(sorted.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/** quantileSorted on an unsorted copy. */
inline double
quantile(std::vector<double> samples, double q)
{
    std::sort(samples.begin(), samples.end());
    return quantileSorted(samples, q);
}

/** Median (nearest rank, lower middle for an even count). */
inline double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

/**
 * Throughput a run sustains: the 90th percentile of its per-call (or
 * per-chunk) rates.  Co-tenants of a shared host only ever slow a
 * stretch of the run down, so a high quantile reads the host's
 * undisturbed speed while slow stretches cover up to 90% of the run;
 * the median moves as soon as they cover half.
 */
inline double
sustainedRate(std::vector<double> rates)
{
    return quantile(std::move(rates), 0.9);
}

/** Arithmetic mean; NaN when empty. */
inline double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return std::numeric_limits<double>::quiet_NaN();
    double sum = 0.0;
    for (double v : samples)
        sum += v;
    return sum / static_cast<double>(samples.size());
}

/**
 * Share of @p sent requests that completed within @p limit.  The
 * samples hold one latency per sent request (kMissed for refused or
 * failed ones), so the denominator is the number sent, not the number
 * that succeeded.
 */
inline double
sloFraction(const std::vector<double> &samples, double limit)
{
    if (samples.empty())
        return 0.0;
    std::size_t within = 0;
    for (double v : samples)
        if (v <= limit)
            ++within;
    return static_cast<double>(within) /
           static_cast<double>(samples.size());
}

/**
 * Smallest sample count at which the @p q quantile has at least ten
 * samples beyond it (p99 -> 1000): below it the quantile is reported
 * as unsupported.
 */
inline std::size_t
minSamplesFor(double q)
{
    return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

} // namespace perfbench

#endif // PERFBENCH_SAMPLE_STATS_HH
