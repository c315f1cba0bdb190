/**
 * @file
 * Replicate aggregation implementation.
 */

#include "exp/aggregate.hh"

#include <algorithm>
#include <cmath>

namespace rbv::exp {

void
ReplicateSummary::add(const std::string &metric, double value)
{
    for (auto &a : accums) {
        if (a.name == metric) {
            a.mv.add(value);
            a.min = std::min(a.min, value);
            a.max = std::max(a.max, value);
            return;
        }
    }
    Accum a;
    a.name = metric;
    a.mv.add(value);
    a.min = value;
    a.max = value;
    accums.push_back(std::move(a));
}

const ReplicateSummary::Accum *
ReplicateSummary::find(const std::string &metric) const
{
    for (const auto &a : accums)
        if (a.name == metric)
            return &a;
    return nullptr;
}

MetricSummary
ReplicateSummary::get(const std::string &metric) const
{
    MetricSummary s;
    const Accum *a = find(metric);
    if (!a)
        return s;
    s.count = a->mv.count();
    s.mean = a->mv.mean();
    s.stddev = a->mv.sampleStddev();
    s.stderrOfMean =
        s.count > 0 ? s.stddev / std::sqrt(static_cast<double>(s.count))
                    : 0.0;
    s.min = a->min;
    s.max = a->max;
    return s;
}

double
ReplicateSummary::mean(const std::string &metric) const
{
    return get(metric).mean;
}

} // namespace rbv::exp
