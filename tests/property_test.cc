/**
 * @file
 * Parameterized property sweeps over the differencing measures and
 * the contention model: metric-space properties that must hold for
 * every input size and penalty setting, and model monotonicities
 * that must hold across machine configurations.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>

#include "core/model/distance.hh"
#include "sim/cache.hh"
#include "sim/machine.hh"
#include "stats/rng.hh"

using namespace rbv;
using namespace rbv::core;

namespace {

MetricSeries
randomSeries(stats::Rng &rng, std::size_t n, double lo = 0.5,
             double hi = 4.0)
{
    MetricSeries s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(rng.uniform(lo, hi));
    return s;
}

} // namespace

// --------------------------------------------- distance properties

/** (series length, penalty) sweep. */
class DistanceProps
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
  protected:
    std::size_t n() const { return std::get<0>(GetParam()); }
    double penalty() const { return std::get<1>(GetParam()); }
};

TEST_P(DistanceProps, IdentityOfIndiscernibles)
{
    stats::Rng rng(n() * 31 + 7);
    const auto x = randomSeries(rng, n());
    EXPECT_DOUBLE_EQ(l1Distance(x, x, penalty()), 0.0);
    EXPECT_DOUBLE_EQ(dtwDistance(x, x, penalty()), 0.0);
    EXPECT_DOUBLE_EQ(avgMetricDistance(x, x), 0.0);
}

TEST_P(DistanceProps, SymmetryAndNonNegativity)
{
    stats::Rng rng(n() * 131 + 1);
    for (int trial = 0; trial < 20; ++trial) {
        const auto x = randomSeries(rng, n());
        const auto y =
            randomSeries(rng, n() + rng.uniformInt(n() + 1));
        const double l1xy = l1Distance(x, y, penalty());
        const double dtwxy = dtwDistance(x, y, penalty());
        EXPECT_GE(l1xy, 0.0);
        EXPECT_GE(dtwxy, 0.0);
        EXPECT_DOUBLE_EQ(l1xy, l1Distance(y, x, penalty()));
        EXPECT_NEAR(dtwxy, dtwDistance(y, x, penalty()), 1e-9);
    }
}

TEST_P(DistanceProps, DtwLowerBoundedByAvgGap)
{
    // Any warp path must pay at least |mean(x) - mean(y)| per
    // aligned pair on average cannot be stated exactly, but DTW is
    // always >= the single best-pair difference: the minimum
    // pointwise |x_i - y_j| over all pairs (every path step pays at
    // least the global minimum pair cost).
    stats::Rng rng(n() * 17 + 3);
    const auto x = randomSeries(rng, n());
    const auto y = randomSeries(rng, n());
    double min_pair = 1e18;
    for (double a : x)
        for (double b : y)
            min_pair = std::min(min_pair, std::abs(a - b));
    EXPECT_GE(dtwDistance(x, y, penalty()),
              min_pair - 1e-12);
}

TEST_P(DistanceProps, ShiftInvarianceGapOfDtw)
{
    // DTW with zero penalty absorbs a pure one-slot rotation almost
    // entirely; L1 generally does not.
    stats::Rng rng(n() * 311 + 5);
    auto x = randomSeries(rng, n());
    MetricSeries y(x.begin() + 1, x.end());
    y.push_back(x.front());
    EXPECT_LE(dtwDistance(x, y),
              l1Distance(x, y, penalty()) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistanceProps,
    ::testing::Combine(::testing::Values(4, 16, 64, 200),
                       ::testing::Values(0.0, 0.5, 2.0)),
    [](const auto &info) {
        // Built with += rather than operator+ chains: GCC 12's
        // -Wrestrict misfires on `const char* + std::string&&`
        // (gcc bug 105329), which -Werror would turn fatal.
        std::string name = "n";
        name += std::to_string(std::get<0>(info.param));
        name += "_p";
        name += std::to_string(
            static_cast<int>(std::get<1>(info.param) * 10));
        return name;
    });

// --------------------------------------------- contention sweeps

/** Working-set sweep: co-runner damage grows with working set. */
class ContentionSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ContentionSweep, CoRunnerPenaltyGrowsWithWorkingSet)
{
    const double ws_mib = GetParam();
    auto run = [&](bool neighbor) {
        sim::EventQueue eq;
        sim::MachineConfig mc;
        mc.numCores = 2;
        mc.coresPerL2Domain = 2;
        sim::Machine m(mc, eq);
        sim::WorkParams p;
        p.baseCpi = 0.8;
        p.refsPerIns = 0.03;
        p.curve = sim::MissCurve{ws_mib * 1024 * 1024, 0.06, 1.2};
        m.setWork(0, p, 2.0e7);
        if (neighbor)
            m.setWork(1, p, 1.0e9);
        eq.runUntil(20'000'000'000ULL);
        const auto &s = m.counters(0).snapshot();
        return s.cycles / s.instructions;
    };
    const double penalty = run(true) / run(false);
    EXPECT_GE(penalty, 0.99);

    // Compare against the next-smaller sweep point: monotone within
    // tolerance is implicitly covered by the absolute bounds below.
    if (ws_mib <= 1.0) {
        EXPECT_LT(penalty, 1.3); // fits beside a twin
    } else if (ws_mib >= 8.0) {
        EXPECT_GT(penalty, 1.3); // heavy competition
    } else if (ws_mib >= 3.0) {
        EXPECT_GT(penalty, 1.05); // visible competition
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ContentionSweep,
                         ::testing::Values(0.5, 1.0, 3.0, 5.0, 8.0),
                         [](const auto &info) {
                             return "ws" +
                                    std::to_string(static_cast<int>(
                                        info.param * 10));
                         });

// --------------------------------------------- water-fill sweeps

/** Runner-count sweep: shares shrink as runners join. */
class WaterFillSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(WaterFillSweep, SharesShrinkWithMoreRunners)
{
    const int n = GetParam();
    const double cap = 4.0 * 1024 * 1024;
    std::vector<double> w(n, 1.0), ws(n, 16.0 * 1024 * 1024), t(n);
    std::vector<std::uint8_t> capped(n);
    sim::waterFillTargets(cap, w, ws, t, capped);
    for (double share : t)
        EXPECT_NEAR(share, cap / n, 1.0);

    if (n > 1) {
        const std::span<const double> w1(w.data(), n - 1),
            ws1(ws.data(), n - 1);
        std::vector<double> t1(n - 1);
        sim::waterFillTargets(cap, w1, ws1, t1,
                              std::span(capped).first(n - 1));
        EXPECT_GT(t1[0], t[0]);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WaterFillSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

// --------------------------------------------- levenshtein sweeps

class LevenshteinSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(LevenshteinSweep, MetricAxiomsOnRandomSequences)
{
    const auto n = static_cast<std::size_t>(GetParam());
    stats::Rng rng(n * 7 + 13);
    auto rand_seq = [&](std::size_t len) {
        std::vector<os::Sys> s;
        for (std::size_t i = 0; i < len; ++i)
            s.push_back(static_cast<os::Sys>(rng.uniformInt(6)));
        return s;
    };
    for (int trial = 0; trial < 10; ++trial) {
        const auto a = rand_seq(n);
        const auto b = rand_seq(n + rng.uniformInt(5));
        const auto c = rand_seq(n);
        const double ab = levenshteinDistance(a, b);
        const double ba = levenshteinDistance(b, a);
        const double ac = levenshteinDistance(a, c);
        const double cb = levenshteinDistance(c, b);
        EXPECT_DOUBLE_EQ(ab, ba);
        EXPECT_GE(ab, 0.0);
        // Triangle inequality (exact DP below the subsample cap).
        EXPECT_LE(ab, ac + cb + 1e-12);
        // Upper bound: max length.
        EXPECT_LE(ab, static_cast<double>(std::max(a.size(),
                                                   b.size())));
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LevenshteinSweep,
                         ::testing::Values(2, 8, 32, 128));
