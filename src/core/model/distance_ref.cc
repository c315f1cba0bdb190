/**
 * @file
 * Reference differencing kernels (the pre-optimization code paths,
 * preserved verbatim for golden-equivalence tests and the
 * before/after benchmark table).
 */

#include "core/model/distance_ref.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rbv::core::ref {

namespace {

/** Uniformly subsample a sequence down to at most max_len entries. */
std::vector<os::Sys>
subsample(const std::vector<os::Sys> &s, std::size_t max_len)
{
    if (s.size() <= max_len)
        return s;
    std::vector<os::Sys> out;
    out.reserve(max_len);
    const double stride =
        static_cast<double>(s.size()) / static_cast<double>(max_len);
    for (std::size_t i = 0; i < max_len; ++i) {
        const auto idx = static_cast<std::size_t>(
            static_cast<double>(i) * stride);
        out.push_back(s[std::min(idx, s.size() - 1)]);
    }
    return out;
}

} // namespace

double
dtwDistance(const MetricSeries &x, const MetricSeries &y,
            double async_penalty)
{
    const std::size_t m = x.size(), n = y.size();
    if (m == 0 || n == 0) {
        // Degenerate: all steps are asynchronous.
        return static_cast<double>(m + n) * async_penalty;
    }

    constexpr double Inf = std::numeric_limits<double>::infinity();

    std::vector<double> prev(n, Inf), cur(n, Inf);

    prev[0] = std::abs(x[0] - y[0]);
    for (std::size_t j = 1; j < n; ++j)
        prev[j] = prev[j - 1] + std::abs(x[0] - y[j]) + async_penalty;

    for (std::size_t i = 1; i < m; ++i) {
        cur[0] = prev[0] + std::abs(x[i] - y[0]) + async_penalty;
        for (std::size_t j = 1; j < n; ++j) {
            const double best =
                std::min({prev[j - 1],
                          prev[j] + async_penalty,
                          cur[j - 1] + async_penalty});
            cur[j] = best + std::abs(x[i] - y[j]);
        }
        std::swap(prev, cur);
    }
    return prev[n - 1];
}

double
dtwDistanceEarlyAbandon(const MetricSeries &x, const MetricSeries &y,
                        double async_penalty, double cutoff)
{
    const std::size_t m = x.size(), n = y.size();
    if (m == 0 || n == 0)
        return static_cast<double>(m + n) * async_penalty;

    constexpr double Inf = std::numeric_limits<double>::infinity();

    std::vector<double> prev(n), cur(n);

    double row_min = prev[0] = std::abs(x[0] - y[0]);
    for (std::size_t j = 1; j < n; ++j) {
        prev[j] = prev[j - 1] + std::abs(x[0] - y[j]) + async_penalty;
        row_min = std::min(row_min, prev[j]);
    }
    if (row_min >= cutoff)
        return Inf;

    for (std::size_t i = 1; i < m; ++i) {
        row_min = cur[0] =
            prev[0] + std::abs(x[i] - y[0]) + async_penalty;
        for (std::size_t j = 1; j < n; ++j) {
            const double best =
                std::min(std::min(prev[j - 1], prev[j] + async_penalty),
                         cur[j - 1] + async_penalty);
            cur[j] = best + std::abs(x[i] - y[j]);
            row_min = std::min(row_min, cur[j]);
        }
        if (row_min >= cutoff)
            return Inf;
        std::swap(prev, cur);
    }
    return prev[n - 1];
}

double
levenshteinDistance(const std::vector<os::Sys> &a,
                    const std::vector<os::Sys> &b, std::size_t max_len)
{
    const std::vector<os::Sys> x = subsample(a, max_len);
    const std::vector<os::Sys> y = subsample(b, max_len);
    const std::size_t m = x.size(), n = y.size();
    if (m == 0)
        return static_cast<double>(n);
    if (n == 0)
        return static_cast<double>(m);

    std::vector<std::uint32_t> prev(n + 1), cur(n + 1);
    for (std::size_t j = 0; j <= n; ++j)
        prev[j] = static_cast<std::uint32_t>(j);

    for (std::size_t i = 1; i <= m; ++i) {
        cur[0] = static_cast<std::uint32_t>(i);
        for (std::size_t j = 1; j <= n; ++j) {
            const std::uint32_t sub =
                prev[j - 1] + (x[i - 1] == y[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return static_cast<double>(prev[n]);
}

DistanceMatrix
distanceMatrixBuild(
    std::size_t n,
    const std::function<double(std::size_t, std::size_t)> &dist)
{
    DistanceMatrix dm(n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
            dm.set(i, j, dist(i, j));
    return dm;
}

} // namespace rbv::core::ref
