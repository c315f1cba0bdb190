/**
 * @file
 * Tests for the request differencing measures (Sec. 4.1).
 */

#include <gtest/gtest.h>

#include "core/model/distance.hh"

using namespace rbv;
using namespace rbv::core;

// ------------------------------------------------------------------ L1

TEST(L1, IdenticalSeriesIsZero)
{
    const MetricSeries x = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(l1Distance(x, x, 5.0), 0.0);
}

TEST(L1, ElementwiseSum)
{
    EXPECT_DOUBLE_EQ(l1Distance({1.0, 2.0}, {2.0, 4.0}, 5.0), 3.0);
}

TEST(L1, LengthPenaltyApplied)
{
    EXPECT_DOUBLE_EQ(l1Distance({1.0, 2.0, 9.0, 9.0}, {1.0, 2.0}, 5.0),
                     10.0);
}

TEST(L1, Symmetric)
{
    const MetricSeries x = {1.0, 5.0, 2.0};
    const MetricSeries y = {2.0, 2.0};
    EXPECT_DOUBLE_EQ(l1Distance(x, y, 3.0), l1Distance(y, x, 3.0));
}

TEST(L1, TriangleInequalityOnEqualLengths)
{
    stats::Rng rng(3);
    for (int trial = 0; trial < 100; ++trial) {
        MetricSeries a, b, c;
        for (int i = 0; i < 8; ++i) {
            a.push_back(rng.uniform());
            b.push_back(rng.uniform());
            c.push_back(rng.uniform());
        }
        EXPECT_LE(l1Distance(a, c, 1.0),
                  l1Distance(a, b, 1.0) + l1Distance(b, c, 1.0) +
                      1e-12);
    }
}

TEST(L1, OverestimatesShiftedSeries)
{
    // The motivating case for DTW (Fig. 6): a shifted copy looks far
    // under L1.
    MetricSeries x, y;
    for (int i = 0; i < 40; ++i) {
        x.push_back(i % 10 == 5 ? 5.0 : 1.0);
        y.push_back(i % 10 == 6 ? 5.0 : 1.0); // peaks shifted by 1
    }
    EXPECT_GT(l1Distance(x, y, 4.0), 10.0);
}

// ----------------------------------------------------------------- DTW

TEST(Dtw, IdenticalSeriesIsZero)
{
    const MetricSeries x = {1.0, 3.0, 2.0, 2.0};
    EXPECT_DOUBLE_EQ(dtwDistance(x, x), 0.0);
}

TEST(Dtw, HandComputedSmallCase)
{
    // x = [1, 2], y = [1, 1, 2]:
    // warp path (0,0) (0,1) (1,2): cost 0 + 0 + 0 = 0.
    EXPECT_DOUBLE_EQ(dtwDistance({1.0, 2.0}, {1.0, 1.0, 2.0}), 0.0);
    // With asynchrony penalty 0.5 the extra step costs 0.5.
    EXPECT_DOUBLE_EQ(dtwDistance({1.0, 2.0}, {1.0, 1.0, 2.0}, 0.5),
                     0.5);
}

TEST(Dtw, AbsorbsTimeShift)
{
    MetricSeries x, y;
    for (int i = 0; i < 40; ++i) {
        x.push_back(i % 10 == 5 ? 5.0 : 1.0);
        y.push_back(i % 10 == 6 ? 5.0 : 1.0);
    }
    // DTW aligns the shifted peaks at no cost.
    EXPECT_LT(dtwDistance(x, y), l1Distance(x, y, 4.0) * 0.2);
}

TEST(Dtw, NeverExceedsL1OnEqualLengths)
{
    stats::Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        MetricSeries a, b;
        for (int i = 0; i < 12; ++i) {
            a.push_back(rng.uniform(0.0, 4.0));
            b.push_back(rng.uniform(0.0, 4.0));
        }
        EXPECT_LE(dtwDistance(a, b), l1Distance(a, b, 0.0) + 1e-9);
    }
}

TEST(Dtw, PenaltyMonotone)
{
    stats::Rng rng(11);
    MetricSeries a, b;
    for (int i = 0; i < 15; ++i)
        a.push_back(rng.uniform(0.0, 4.0));
    for (int i = 0; i < 10; ++i)
        b.push_back(rng.uniform(0.0, 4.0));
    double prev = dtwDistance(a, b, 0.0);
    for (double pen : {0.5, 1.0, 2.0, 4.0}) {
        const double d = dtwDistance(a, b, pen);
        EXPECT_GE(d, prev - 1e-12);
        prev = d;
    }
}

TEST(Dtw, PenaltyPreventsNoCostCollapse)
{
    // Plain DTW can warp a constant onto anything with matching
    // extremes; the asynchrony penalty restores discrimination.
    const MetricSeries flat(20, 1.0);
    MetricSeries spiky;
    for (int i = 0; i < 20; ++i)
        spiky.push_back(i % 2 ? 1.0 : 1.0001);
    MetricSeries longer(60, 1.0);
    // Plain DTW thinks `flat` and `longer` are identical.
    EXPECT_NEAR(dtwDistance(flat, longer), 0.0, 1e-9);
    // With a penalty, the 40 asynchronous steps cost.
    EXPECT_NEAR(dtwDistance(flat, longer, 0.5), 20.0, 1e-9);
    (void)spiky;
}

TEST(Dtw, Symmetric)
{
    stats::Rng rng(13);
    MetricSeries a, b;
    for (int i = 0; i < 10; ++i)
        a.push_back(rng.uniform());
    for (int i = 0; i < 14; ++i)
        b.push_back(rng.uniform());
    EXPECT_NEAR(dtwDistance(a, b, 0.3), dtwDistance(b, a, 0.3), 1e-9);
}

TEST(Dtw, EmptyInputs)
{
    EXPECT_DOUBLE_EQ(dtwDistance({}, {}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(dtwDistance({1.0}, {}, 0.5), 0.5);
}

// ----------------------------------------------------------- AvgMetric

TEST(AvgMetric, MeanDifference)
{
    EXPECT_DOUBLE_EQ(avgMetricDistance({1.0, 3.0}, {4.0, 6.0}), 3.0);
}

TEST(AvgMetric, BlindToPatternShape)
{
    // Same mean, entirely different shapes: distance 0. This is the
    // weakness fine-grained signatures fix.
    EXPECT_DOUBLE_EQ(avgMetricDistance({0.0, 4.0}, {2.0, 2.0}), 0.0);
}

// ---------------------------------------------------------- Levenshtein

TEST(Levenshtein, ClassicCases)
{
    using S = std::vector<os::Sys>;
    const S kitten = {os::Sys::read, os::Sys::open, os::Sys::stat};
    EXPECT_DOUBLE_EQ(levenshteinDistance(kitten, kitten), 0.0);
    EXPECT_DOUBLE_EQ(levenshteinDistance(kitten, {}), 3.0);
    EXPECT_DOUBLE_EQ(levenshteinDistance({}, kitten), 3.0);

    // One substitution.
    const S sub = {os::Sys::read, os::Sys::close, os::Sys::stat};
    EXPECT_DOUBLE_EQ(levenshteinDistance(kitten, sub), 1.0);

    // One insertion.
    const S ins = {os::Sys::read, os::Sys::open, os::Sys::write,
                   os::Sys::stat};
    EXPECT_DOUBLE_EQ(levenshteinDistance(kitten, ins), 1.0);
}

TEST(Levenshtein, SubsamplingKeepsIdenticalAtZero)
{
    std::vector<os::Sys> big;
    for (int i = 0; i < 5000; ++i)
        big.push_back(static_cast<os::Sys>(i % 5));
    EXPECT_DOUBLE_EQ(levenshteinDistance(big, big, 256), 0.0);
}

TEST(Levenshtein, BoundedByMaxLen)
{
    std::vector<os::Sys> a(10000, os::Sys::read);
    std::vector<os::Sys> b(10000, os::Sys::write);
    EXPECT_LE(levenshteinDistance(a, b, 128), 128.0);
}

// --------------------------------------------------------- lengthPenalty

TEST(LengthPenalty, NearPeakDifference)
{
    // Values in {0, 10}: the 99th percentile of |v1 - v2| is 10.
    std::vector<MetricSeries> series;
    for (int i = 0; i < 10; ++i)
        series.push_back(MetricSeries{0.0, 10.0});
    stats::Rng rng(17);
    const double p = lengthPenalty(series, rng, 0.99, 5000);
    EXPECT_DOUBLE_EQ(p, 10.0);
}

TEST(LengthPenalty, ZeroForConstantData)
{
    std::vector<MetricSeries> series(4, MetricSeries(8, 2.0));
    stats::Rng rng(19);
    EXPECT_DOUBLE_EQ(lengthPenalty(series, rng), 0.0);
}

TEST(LengthPenalty, EmptyInputSafe)
{
    stats::Rng rng(23);
    EXPECT_DOUBLE_EQ(lengthPenalty({}, rng), 0.0);
    EXPECT_DOUBLE_EQ(lengthPenalty({MetricSeries{}}, rng), 0.0);
}

TEST(LengthPenalty, ZeroSamplePairsRequested)
{
    std::vector<MetricSeries> series(3, MetricSeries{0.0, 10.0});
    stats::Rng rng(29);
    EXPECT_DOUBLE_EQ(lengthPenalty(series, rng, 0.9, 0), 0.0);
}
