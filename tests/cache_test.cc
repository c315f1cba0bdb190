/**
 * @file
 * Unit and property tests for the shared-cache contention model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/cache.hh"
#include "sim/memory.hh"
#include "stats/rng.hh"

using namespace rbv::sim;

namespace {
constexpr double MiB = 1024.0 * 1024.0;

/** Water-fill into local target and cap-flag arrays. */
std::vector<double>
waterFill(double capacity, const std::vector<double> &weights,
     const std::vector<double> &working_sets)
{
    std::vector<double> targets(weights.size());
    std::vector<std::uint8_t> capped(weights.size());
    waterFillTargets(capacity, weights, working_sets, targets, capped);
    return targets;
}
} // namespace

// ------------------------------------------------------------ MissCurve

TEST(MissCurve, BaseRatioWhenResident)
{
    MissCurve c{2 * MiB, 0.1, 1.0};
    EXPECT_DOUBLE_EQ(c.missRatioAt(2 * MiB), 0.1);
    EXPECT_DOUBLE_EQ(c.missRatioAt(3 * MiB), 0.1);
}

TEST(MissCurve, GrowsBelowWorkingSet)
{
    MissCurve c{2 * MiB, 0.1, 1.0};
    EXPECT_NEAR(c.missRatioAt(1 * MiB), 0.2, 1e-12);
    EXPECT_NEAR(c.missRatioAt(0.5 * MiB), 0.4, 1e-12);
}

TEST(MissCurve, ClampedToOne)
{
    MissCurve c{16 * MiB, 1.0, 1.0};
    EXPECT_DOUBLE_EQ(c.missRatioAt(1 * MiB), 1.0);
}

TEST(MissCurve, InsensitiveWhenNoWorkingSet)
{
    MissCurve c{0.0, 0.05, 1.0};
    EXPECT_DOUBLE_EQ(c.missRatioAt(0.0), 0.05);
    EXPECT_DOUBLE_EQ(c.missRatioAt(8 * MiB), 0.05);
}

TEST(MissCurve, MonotoneNonIncreasingInOccupancy)
{
    MissCurve c{4 * MiB, 0.08, 1.3};
    double prev = 2.0;
    for (double occ = 64.0; occ <= 5 * MiB; occ *= 2.0) {
        const double m = c.missRatioAt(occ);
        EXPECT_LE(m, prev + 1e-12);
        EXPECT_GE(m, c.baseMissRatio - 1e-12);
        EXPECT_LE(m, 1.0);
        prev = m;
    }
}

/** Property sweep: exponent controls sensitivity. */
class MissCurveExponent : public ::testing::TestWithParam<double>
{
};

TEST_P(MissCurveExponent, HigherExponentMeansHigherMissWhenSqueezed)
{
    const double e = GetParam();
    MissCurve weak{4 * MiB, 0.05, e};
    MissCurve strong{4 * MiB, 0.05, e + 0.5};
    const double occ = 1 * MiB;
    EXPECT_LE(weak.missRatioAt(occ), strong.missRatioAt(occ) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MissCurveExponent,
                         ::testing::Values(0.5, 0.8, 1.0, 1.2, 1.5));

// -------------------------------------------------------- SavedFootprint

TEST(SavedFootprint, NoInsertionNoDecay)
{
    SavedFootprint fp{1 * MiB, 100.0};
    EXPECT_DOUBLE_EQ(fp.decayedBytes(100.0, 4 * MiB), 1 * MiB);
}

TEST(SavedFootprint, DecaysWithInsertions)
{
    SavedFootprint fp{1 * MiB, 0.0};
    const double after_cap =
        fp.decayedBytes(4 * MiB, 4 * MiB); // one capacity inserted
    EXPECT_NEAR(after_cap, 1 * MiB * std::exp(-1.0), 1.0);
    // More insertions, more decay.
    EXPECT_LT(fp.decayedBytes(8 * MiB, 4 * MiB), after_cap);
}

TEST(SavedFootprint, NegativeIntegralDeltaTreatedAsZero)
{
    SavedFootprint fp{1 * MiB, 500.0};
    EXPECT_DOUBLE_EQ(fp.decayedBytes(100.0, 4 * MiB), 1 * MiB);
}

// ------------------------------------------------------ waterFillTargets

TEST(WaterFill, SingleRunnerGetsItsWorkingSet)
{
    const auto t = waterFill(4 * MiB, {1.0}, {1 * MiB});
    ASSERT_EQ(t.size(), 1u);
    EXPECT_DOUBLE_EQ(t[0], 1 * MiB);
}

TEST(WaterFill, SingleLargeRunnerCappedByCapacity)
{
    const auto t = waterFill(4 * MiB, {1.0}, {16 * MiB});
    EXPECT_DOUBLE_EQ(t[0], 4 * MiB);
}

TEST(WaterFill, EqualWeightsSplitEvenly)
{
    const auto t =
        waterFill(4 * MiB, {1.0, 1.0}, {8 * MiB, 8 * MiB});
    EXPECT_DOUBLE_EQ(t[0], 2 * MiB);
    EXPECT_DOUBLE_EQ(t[1], 2 * MiB);
}

TEST(WaterFill, SmallWorkingSetLeavesRoomForOther)
{
    const auto t =
        waterFill(4 * MiB, {1.0, 1.0}, {1 * MiB, 8 * MiB});
    EXPECT_DOUBLE_EQ(t[0], 1 * MiB);
    EXPECT_DOUBLE_EQ(t[1], 3 * MiB);
}

TEST(WaterFill, WeightsBiasShares)
{
    const auto t =
        waterFill(4 * MiB, {3.0, 1.0}, {8 * MiB, 8 * MiB});
    EXPECT_DOUBLE_EQ(t[0], 3 * MiB);
    EXPECT_DOUBLE_EQ(t[1], 1 * MiB);
}

TEST(WaterFill, ZeroWeightRunnersShareLeftoverEvenly)
{
    const auto t =
        waterFill(4 * MiB, {0.0, 0.0}, {8 * MiB, 8 * MiB});
    EXPECT_DOUBLE_EQ(t[0], 2 * MiB);
    EXPECT_DOUBLE_EQ(t[1], 2 * MiB);
}

TEST(WaterFill, EmptyInput)
{
    EXPECT_TRUE(waterFill(4 * MiB, {}, {}).empty());
}

TEST(WaterFill, TargetsNeverExceedCapacity)
{
    rbv::stats::Rng rng(5);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = 1 + rng.uniformInt(4);
        std::vector<double> w, ws;
        for (std::size_t i = 0; i < n; ++i) {
            w.push_back(rng.uniform(0.0, 2.0));
            ws.push_back(rng.uniform(0.0, 10.0) * MiB);
        }
        const auto t = waterFill(4 * MiB, w, ws);
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_GE(t[i], -1e-6);
            if (ws[i] > 0.0) {
                EXPECT_LE(t[i], ws[i] + 1e-6);
            }
            sum += t[i];
        }
        EXPECT_LE(sum, 4 * MiB + 1e-3);
    }
}

// ------------------------------------------------------ advanceOccupancy

TEST(AdvanceOccupancy, FillsTowardTarget)
{
    const double occ =
        advanceOccupancy(0.0, 1 * MiB, 100.0, 0.0, 4 * MiB, 1e5);
    EXPECT_GT(occ, 0.0);
    EXPECT_LT(occ, 1 * MiB);
    // Longer window gets closer.
    const double occ2 =
        advanceOccupancy(0.0, 1 * MiB, 100.0, 0.0, 4 * MiB, 1e6);
    EXPECT_GT(occ2, occ);
}

TEST(AdvanceOccupancy, ConvergesToTarget)
{
    const double occ =
        advanceOccupancy(0.0, 1 * MiB, 100.0, 0.0, 4 * MiB, 1e9);
    EXPECT_NEAR(occ, 1 * MiB, 1.0);
}

TEST(AdvanceOccupancy, NoFillWithoutBandwidth)
{
    EXPECT_DOUBLE_EQ(
        advanceOccupancy(0.0, 1 * MiB, 0.0, 0.0, 4 * MiB, 1e6), 0.0);
}

TEST(AdvanceOccupancy, ExcessDecaysUnderPressure)
{
    const double occ =
        advanceOccupancy(2 * MiB, 1 * MiB, 100.0, 50.0, 4 * MiB, 1e5);
    EXPECT_LT(occ, 2 * MiB);
    EXPECT_GE(occ, 1 * MiB);
}

TEST(AdvanceOccupancy, ExcessStableWithoutPressure)
{
    EXPECT_DOUBLE_EQ(
        advanceOccupancy(2 * MiB, 1 * MiB, 100.0, 0.0, 4 * MiB, 1e6),
        2 * MiB);
}

TEST(AdvanceOccupancy, ZeroDtIsIdentity)
{
    EXPECT_DOUBLE_EQ(
        advanceOccupancy(123.0, 1 * MiB, 10.0, 10.0, 4 * MiB, 0.0),
        123.0);
}

// ---------------------------------------------------------- MemoryModel

TEST(MemoryModel, BaseLatencyAtZeroLoad)
{
    MemoryModel mm;
    EXPECT_DOUBLE_EQ(mm.latencyAt(0.0), MemoryModel::BaseLatencyCycles);
}

TEST(MemoryModel, LatencyMonotoneInBandwidth)
{
    MemoryModel mm;
    double prev = 0.0;
    for (double bw = 0.0; bw < 5.0; bw += 0.25) {
        const double lat = mm.latencyAt(bw);
        EXPECT_GE(lat, prev);
        prev = lat;
    }
}

TEST(MemoryModel, UtilizationCapKeepsLatencyFinite)
{
    MemoryModel mm;
    const double capped = mm.latencyAt(1e9);
    EXPECT_DOUBLE_EQ(capped,
                     MemoryModel::BaseLatencyCycles / (1.0 - 0.95));
}
