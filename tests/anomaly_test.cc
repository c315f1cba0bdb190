/**
 * @file
 * Tests for anomaly detection (Sec. 4.3).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/model/anomaly.hh"
#include "core/model/distance.hh"

using namespace rbv;
using namespace rbv::core;

namespace {

/** A family of similar series plus one planted outlier. */
std::vector<MetricSeries>
plantedGroup(std::size_t n, std::size_t outlier, double outlier_level)
{
    std::vector<MetricSeries> out;
    stats::Rng rng(31);
    for (std::size_t i = 0; i < n; ++i) {
        MetricSeries s;
        for (int k = 0; k < 30; ++k) {
            double v = 1.0 + 0.5 * std::sin(k * 0.4) +
                       rng.uniform(-0.05, 0.05);
            if (i == outlier && k >= 10)
                v += outlier_level;
            s.push_back(v);
        }
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace

TEST(CentroidAnomaly, FindsPlantedOutlier)
{
    const auto group = plantedGroup(12, 7, 2.0);
    const auto res = detectCentroidAnomaly(group, 0.5);
    EXPECT_EQ(res.anomaly, 7u);
    EXPECT_NE(res.centroid, 7u);
    EXPECT_GT(res.distance, 0.0);
}

TEST(CentroidAnomaly, DistancesAreTheCentroidDtwBitForBit)
{
    const auto group = plantedGroup(10, 3, 1.5);
    const double p = 0.5;
    for (const int jobs : {1, 4}) {
        const auto res = detectCentroidAnomaly(group, p, jobs);
        ASSERT_EQ(res.distances.size(), group.size());
        for (std::size_t i = 0; i < group.size(); ++i)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(res.distances[i]),
                      std::bit_cast<std::uint64_t>(dtwDistance(
                          group[i], group[res.centroid], p)))
                << "member " << i << " at jobs " << jobs;
        EXPECT_EQ(res.distances[res.centroid], 0.0);
        EXPECT_EQ(res.anomaly, 3u);
        EXPECT_EQ(res.distance, res.distances[3]);
    }
}

TEST(CentroidAnomaly, FirstMemberAtTheLargestDistanceIsTheAnomaly)
{
    const MetricSeries a{1.0, 2.0, 3.0, 2.0, 1.0};
    const MetricSeries b{3.0, 4.0, 5.0, 4.0, 3.0};
    const auto res = detectCentroidAnomaly({a, a, b, a, b}, 0.5);
    EXPECT_EQ(res.centroid, 0u);
    EXPECT_EQ(res.distances[2], res.distances[4]);
    EXPECT_EQ(res.anomaly, 2u);
}

TEST(CentroidAnomaly, DegenerateInputs)
{
    EXPECT_TRUE(detectCentroidAnomaly({}, 0.5).distances.empty());
    EXPECT_TRUE(
        detectCentroidAnomaly({MetricSeries{1.0}}, 0.5).distances.empty());
}

TEST(CentroidAnomaly, CleanGroupHasSmallDistance)
{
    const auto clean = plantedGroup(10, 0, 0.0);
    const auto with_outlier = plantedGroup(10, 0, 2.0);
    const auto clean_res = detectCentroidAnomaly(clean, 0.5);
    const auto outlier_res = detectCentroidAnomaly(with_outlier, 0.5);
    EXPECT_LT(clean_res.distance, outlier_res.distance * 0.5);
}

TEST(MetricPairAnomaly, FindsContentionVictim)
{
    // Four requests: same L2 refs pattern; one has inflated CPI in a
    // region (the L2-sharing victim of Figs. 8/9).
    std::vector<MetricSeries> refs, cpi;
    stats::Rng rng(37);
    for (int i = 0; i < 4; ++i) {
        MetricSeries r, c;
        for (int k = 0; k < 40; ++k) {
            r.push_back(0.02 + 0.005 * std::sin(k * 0.3) +
                        rng.uniform(-0.0005, 0.0005));
            double v = 1.5 + rng.uniform(-0.05, 0.05);
            if (i == 2 && k >= 20 && k < 32)
                v += 1.8; // contention episode
            c.push_back(v);
        }
        refs.push_back(std::move(r));
        cpi.push_back(std::move(c));
    }
    const auto res = detectMetricPairAnomaly(refs, cpi, 0.01, 0.5);
    EXPECT_EQ(res.anomaly, 2u);
    EXPECT_NE(res.reference, 2u);
    EXPECT_GT(res.cpiDistance, res.refsDistance);
    EXPECT_GT(res.score, 1.0);
}

TEST(MetricPairAnomaly, AnomalyIsTheSlowerOne)
{
    std::vector<MetricSeries> refs = {MetricSeries(10, 0.02),
                                      MetricSeries(10, 0.02)};
    std::vector<MetricSeries> cpi = {MetricSeries(10, 3.0),
                                     MetricSeries(10, 1.5)};
    const auto res = detectMetricPairAnomaly(refs, cpi, 0.01, 0.5);
    EXPECT_EQ(res.anomaly, 0u);
    EXPECT_EQ(res.reference, 1u);
}

TEST(MetricPairAnomaly, DegenerateInputs)
{
    const auto res = detectMetricPairAnomaly({}, {}, 0.1, 0.1);
    EXPECT_EQ(res.score, 0.0);
}
