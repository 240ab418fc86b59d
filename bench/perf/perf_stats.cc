#include "perf_stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace spatial::perf
{

namespace
{

/** ceil(q*N) as an integer rank in [1, N] (N > 0). */
std::size_t
rankOf(std::size_t n, double q)
{
    const double rank = std::ceil(q * static_cast<double>(n));
    return std::clamp<std::size_t>(static_cast<std::size_t>(
                                       std::max(rank, 1.0)),
                                   1, n);
}

} // namespace

double
nearestRank(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    return sorted[rankOf(sorted.size(), q) - 1];
}

double
percentile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    return nearestRank(values, q);
}

bool
percentileSupported(std::size_t n, double q)
{
    return n > 0 && n - rankOf(n, q) >= 10;
}

double
Spread::relative() const
{
    return median == 0.0 ? 0.0 : (q3 - q1) / std::fabs(median);
}

Spread
spreadOf(std::vector<double> values)
{
    if (values.empty())
        SPATIAL_FATAL("spreadOf: empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    Spread s;
    s.median = n % 2 == 1 ? values[n / 2]
                          : (values[n / 2 - 1] + values[n / 2]) / 2.0;
    if (n == 1) {
        s.q1 = s.q3 = values[0];
        return s;
    }
    // statistics.quantiles(method="exclusive", n=4): positions i*(N+1)/4
    // in 1-based order statistics, clamped to [1, N-1], interpolated in
    // exact integer steps of a quarter.
    const auto quartile = [&](std::size_t i) {
        const std::size_t m = n + 1;
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        const double delta =
            static_cast<double>(i * m) - static_cast<double>(j * 4);
        return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

std::vector<double>
poissonSchedule(double rate, double seconds, std::uint64_t seed)
{
    if (!(rate > 0.0) || !(seconds > 0.0))
        SPATIAL_FATAL("Poisson schedule needs a positive rate and window, "
                      "got ", rate, "/s over ", seconds, " s");
    Rng rng(seed);
    std::vector<double> at(static_cast<std::size_t>(
        std::llround(rate * seconds)));
    for (double &t : at)
        t = rng.uniformReal() * seconds;
    std::sort(at.begin(), at.end());
    return at;
}

std::vector<double>
zipfWeights(std::size_t n, double s)
{
    std::vector<double> w(n);
    for (std::size_t i = 0; i < n; ++i)
        w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
    return w;
}

std::vector<std::size_t>
exactMix(const std::vector<double> &weights, std::size_t n, Rng &rng)
{
    double sum = 0.0;
    for (const double w : weights) {
        if (!(w >= 0.0))
            SPATIAL_FATAL("exactMix: negative weight ", w);
        sum += w;
    }
    if (!(sum > 0.0))
        SPATIAL_FATAL("exactMix: weights sum to zero");

    std::vector<std::size_t> count(weights.size());
    std::vector<std::pair<double, std::size_t>> remainder;
    std::size_t placed = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const double share = static_cast<double>(n) * weights[i] / sum;
        count[i] = static_cast<std::size_t>(share);
        placed += count[i];
        remainder.emplace_back(share - static_cast<double>(count[i]), i);
    }
    // Largest remainder first; ties go to the lower index.
    std::sort(remainder.begin(), remainder.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first > b.first
                                            : a.second < b.second;
              });
    for (std::size_t k = 0; placed < n; ++k, ++placed)
        ++count[remainder[k % remainder.size()].second];

    std::vector<std::size_t> mix;
    mix.reserve(n);
    for (std::size_t i = 0; i < count.size(); ++i)
        mix.insert(mix.end(), count[i], i);
    for (std::size_t i = mix.size(); i > 1; --i)
        std::swap(mix[i - 1],
                  mix[static_cast<std::size_t>(rng.uniformInt(
                      0, static_cast<std::int64_t>(i) - 1))]);
    return mix;
}

} // namespace spatial::perf
