/**
 * @file
 * Batch summary statistics implementation.
 */

#include "stats/summary.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

namespace rbv::stats {

double
quantile(std::vector<double> values, double p)
{
    // Selection, not a full sort: the result interpolates between the
    // i-th and (i+1)-th order statistics, and nth_element yields both
    // exactly (the second as the minimum of the right partition) in
    // O(n) expected time. Values are identical to the sort-based
    // version — order statistics are order statistics.
    if (values.empty())
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const double h = p * static_cast<double>(values.size() - 1);
    const auto i = static_cast<std::size_t>(h);
    const auto mid = values.begin() + static_cast<std::ptrdiff_t>(i);
    std::nth_element(values.begin(), mid, values.end());
    if (i + 1 >= values.size())
        return *mid;
    const double next = *std::min_element(mid + 1, values.end());
    const double frac = h - static_cast<double>(i);
    return *mid + frac * (next - *mid);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

Histogram::Histogram(double lo, double width, std::size_t bins)
    : lo(lo), width(width), counts(bins, 0)
{
}

void
Histogram::add(double x)
{
    ++totalCount;
    if (x < lo) {
        ++under;
        return;
    }
    const double rel = (x - lo) / width;
    const auto bin = static_cast<std::size_t>(rel);
    if (bin >= counts.size()) {
        ++over;
        return;
    }
    ++counts[bin];
}

double
Histogram::probability(std::size_t i) const
{
    if (totalCount == 0)
        return 0.0;
    return static_cast<double>(counts[i]) /
           static_cast<double>(totalCount);
}

std::string
Histogram::ascii(std::size_t barWidth) const
{
    std::uint64_t peak = 1;
    for (auto c : counts)
        peak = std::max(peak, c);

    std::ostringstream os;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const auto bar = static_cast<std::size_t>(
            static_cast<double>(counts[i]) * barWidth /
            static_cast<double>(peak));
        os.setf(std::ios::fixed);
        os.precision(3);
        os << "  [" << binLo(i) << ", " << (binLo(i) + width) << ") "
           << std::string(bar, '#') << "  " << probability(i) << "\n";
    }
    return os.str();
}

} // namespace rbv::stats
