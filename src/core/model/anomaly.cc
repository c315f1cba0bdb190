/**
 * @file
 * Anomaly detection implementation.
 */

#include "core/model/anomaly.hh"

#include <algorithm>

#include "core/check.hh"
#include "core/model/cascade.hh"
#include "core/model/distance.hh"
#include "stats/summary.hh"

namespace rbv::core {

CentroidAnomaly
detectCentroidAnomaly(const std::vector<MetricSeries> &series,
                      double async_penalty, int jobs)
{
    CentroidAnomaly out;
    const std::size_t n = series.size();
    if (n < 2)
        return out;

    const DistanceMatrix dm = DistanceMatrix::build(
        n,
        [&](std::size_t i, std::size_t j) {
            return dtwDistance(series[i], series[j], async_penalty);
        },
        jobs);

    // Centroid: minimal summed distance to all members.
    std::size_t centroid = 0;
    double best = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            sum += dm.at(i, j);
        if (best < 0.0 || sum < best) {
            best = sum;
            centroid = i;
        }
    }
    out.centroid = centroid;

    out.distances.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        out.distances[i] = dm.at(i, centroid);
        if (out.distances[i] > out.distances[out.anomaly])
            out.anomaly = i;
    }
    out.distance = out.distances[out.anomaly];
    return out;
}

MetricPairAnomaly
detectMetricPairAnomaly(const std::vector<MetricSeries> &refs_series,
                        const std::vector<MetricSeries> &cpi_series,
                        double refs_penalty, double cpi_penalty)
{
    MetricPairAnomaly out;
    const std::size_t n = refs_series.size();
    RBV_CHECK(cpi_series.size() == n,
              "detectMetricPairAnomaly: " << n << " refs series but "
                                          << cpi_series.size()
                                          << " CPI series");
    if (n < 2)
        return out;

    // Refs-side envelopes for the LB cascade: the pair search only
    // consumes a refs distance when it is small enough to displace
    // the incumbent, so most refs DPs are rejected by a sound lower
    // bound before they start.
    std::vector<const MetricSeries *> refs(n);
    for (std::size_t i = 0; i < n; ++i)
        refs[i] = &refs_series[i];
    const std::vector<SeriesEnvelope> envs =
        buildEnvelopes(refs.data(), n);

    // Normalize distances per metric by series length so the score
    // is scale-free, then search all pairs.
    double best_score = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const double len = static_cast<double>(
                std::max(refs_series[i].size(), refs_series[j].size()));
            if (len == 0.0)
                continue;
            const double dcpi =
                dtwDistance(cpi_series[i], cpi_series[j], cpi_penalty) /
                len;
            // The pair search maximizes dcpi / (dref + 1e-9): a pair
            // can only displace the incumbent when its refs distance
            // is small, dref < dcpi / best_score - 1e-9. Gating the
            // refs DTW at the strictly larger cutoff dcpi / best_score
            // is therefore conservative — the trailing 1e-9 slack
            // dwarfs any rounding in the cutoff. A finite gate result
            // is bit-identical to the plain kernel and is scored even
            // at or above the cutoff, so the winning pair (and every
            // printed number) is unchanged.
            double dref;
            if (best_score > 0.0) {
                const double cutoff = dcpi / best_score * len;
                double raw = 0.0;
                if (pruneGate(refs_series[i], refs_series[j], &envs[i],
                              envs[j], refs_penalty, cutoff,
                              raw) != PruneStage::Exact)
                    continue;
                dref = raw / len;
            } else {
                dref = dtwDistance(refs_series[i], refs_series[j],
                                   refs_penalty) /
                       len;
            }
            const double score = dcpi / (dref + 1e-9);
            if (score > best_score) {
                best_score = score;
                const bool i_is_anomaly =
                    stats::mean(cpi_series[i]) >
                    stats::mean(cpi_series[j]);
                out.anomaly = i_is_anomaly ? i : j;
                out.reference = i_is_anomaly ? j : i;
                out.refsDistance = dref;
                out.cpiDistance = dcpi;
                out.score = score;
            }
        }
    }
    return out;
}

} // namespace rbv::core
