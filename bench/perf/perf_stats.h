/**
 * @file
 * Sample statistics and seeded traffic generators of the spatial-perf
 * benchmark: nearest-rank percentiles with the "ten samples beyond"
 * support rule, the run-to-run quartile spread, a Poisson arrival
 * schedule, Zipf weights, and an exact-share mixer.  Pure functions of
 * their inputs and seeds, so perf_selftest can pin every one of them.
 */

#ifndef SPATIAL_BENCH_PERF_PERF_STATS_H
#define SPATIAL_BENCH_PERF_PERF_STATS_H

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace spatial::perf
{

/**
 * Nearest-rank percentile of an ascending sample: the smallest value
 * with at least ceil(q*N) samples at or below it.  0 for an empty
 * sample.
 */
double nearestRank(const std::vector<double> &sorted, double q);

/** nearestRank of an unsorted sample. */
double percentile(std::vector<double> values, double q);

/**
 * True when percentile q of an N-sample set has at least ten samples
 * strictly beyond its rank (N - ceil(q*N) >= 10): p99 needs N >= 1000,
 * p90 needs N >= 100.
 */
bool percentileSupported(std::size_t n, double q);

/** Median, quartiles, and relative spread of a set of run values. */
struct Spread
{
    double median = 0.0; //!< statistics.median
    double q1 = 0.0;     //!< first quartile
    double q3 = 0.0;     //!< third quartile

    /** (q3 - q1) / |median|; 0 when the median is 0. */
    double relative() const;
};

/**
 * Median and quartiles exactly as Python's statistics.median and
 * statistics.quantiles(values, n=4) (the default "exclusive" method)
 * compute them, so a spread printed here matches one computed by a
 * script over the same values.  Requires a non-empty sample.
 */
Spread spreadOf(std::vector<double> values);

/**
 * Arrival times, in seconds from the window's start and ascending, of a
 * Poisson process at `rate` per second over [0, seconds), conditioned
 * on its expected count: round(rate * seconds) uniform draws, sorted.
 * The count is fixed so every seed offers the same load; gaps and
 * bursts still vary with the seed.
 */
std::vector<double> poissonSchedule(double rate, double seconds,
                                    std::uint64_t seed);

/** Zipf popularity weights 1/(rank+1)^s for n items, rank 0 hottest. */
std::vector<double> zipfWeights(std::size_t n, double s);

/**
 * `n` indices into `weights` in a seeded random order, index i making
 * up exactly its share n * weights[i] / sum (largest remainders settle
 * the rounding).  Exact counts keep the work mix, and so throughput,
 * the same for every seed; only the order varies.  Weights must be
 * non-negative with a positive sum.
 */
std::vector<std::size_t> exactMix(const std::vector<double> &weights,
                                  std::size_t n, Rng &rng);

} // namespace spatial::perf

#endif // SPATIAL_BENCH_PERF_PERF_STATS_H
