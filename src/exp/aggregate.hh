/**
 * @file
 * Replicate aggregation for experiment campaigns: named per-metric
 * mean / stddev / stderr / min / max summaries, replacing the
 * hand-rolled accumulate-and-divide loops the bench binaries used to
 * carry.
 */

#ifndef RBV_EXP_AGGREGATE_HH
#define RBV_EXP_AGGREGATE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "stats/online.hh"

namespace rbv::exp {

/** Summary statistics of one metric across replicates. */
struct MetricSummary
{
    std::size_t count = 0;
    double mean = 0.0;

    /** Sample (n-1) standard deviation; 0 below 2 replicates. */
    double stddev = 0.0;

    /** Standard error of the mean: stddev / sqrt(count). */
    double stderrOfMean = 0.0;

    double min = 0.0;
    double max = 0.0;
};

/**
 * Accumulates per-replicate metric observations under stable names
 * and summarizes each.
 */
class ReplicateSummary
{
  public:
    /** Record one replicate's value of @p metric. */
    void add(const std::string &metric, double value);

    /** Summary of @p metric; zeroes when never recorded. */
    MetricSummary get(const std::string &metric) const;

    /** Shorthand for get(metric).mean. */
    double mean(const std::string &metric) const;

  private:
    struct Accum
    {
        std::string name;
        stats::OnlineMeanVar mv;
        double min = 0.0;
        double max = 0.0;
    };

    const Accum *find(const std::string &metric) const;

    std::vector<Accum> accums;
};

} // namespace rbv::exp

#endif // RBV_EXP_AGGREGATE_HH
