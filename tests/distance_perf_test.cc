/**
 * @file
 * Golden-equivalence suite for the request-differencing fast path:
 * every optimized kernel (flat-buffer DTW, early-abandon DTW,
 * bit-parallel Levenshtein, parallel matrix build) must agree
 * with the preserved pre-optimization reference kernels in
 * rbv::core::ref to the last bit, on randomized inputs and on the
 * degenerate edges (empty, length-1, all-equal). The parallel build
 * identity test doubles as the TSan workload for the worker pool.
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/model/distance.hh"
#include "core/model/distance_ref.hh"
#include "core/model/kmedoids.hh"
#include "stats/rng.hh"

using namespace rbv;
using namespace rbv::core;

namespace {

MetricSeries
randomSeries(stats::Rng &rng, std::size_t max_len)
{
    const std::size_t n = rng.uniformInt(max_len + 1);
    MetricSeries s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(rng.uniform(0.0, 4.0));
    return s;
}

std::vector<os::Sys>
randomSyscalls(stats::Rng &rng, std::size_t max_len)
{
    const std::size_t n = rng.uniformInt(max_len + 1);
    std::vector<os::Sys> s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(static_cast<os::Sys>(
            rng.uniformInt(static_cast<std::uint64_t>(os::NumSys))));
    return s;
}

/** Edge-case series the randomized loops may not hit. */
std::vector<MetricSeries>
edgeSeries()
{
    return {
        {},
        {0.0},
        {2.5},
        {1.0, 1.0, 1.0, 1.0, 1.0},
        {3.0, 3.0, 3.0},
        {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0},
    };
}

TEST(DistanceGolden, DtwMatchesReferenceRandomized)
{
    stats::Rng rng(7);
    for (int it = 0; it < 200; ++it) {
        const auto x = randomSeries(rng, 64);
        const auto y = randomSeries(rng, 64);
        for (const double p : {0.0, 0.3, 1.7}) {
            EXPECT_EQ(dtwDistance(x, y, p), ref::dtwDistance(x, y, p))
                << "it=" << it << " p=" << p << " m=" << x.size()
                << " n=" << y.size();
        }
    }
}

TEST(DistanceGolden, DtwMatchesReferenceOnEdges)
{
    for (const auto &x : edgeSeries())
        for (const auto &y : edgeSeries())
            for (const double p : {0.0, 0.5})
                EXPECT_EQ(dtwDistance(x, y, p),
                          ref::dtwDistance(x, y, p));
}

TEST(DistanceGolden, EarlyAbandonSoundAndExactWhenFinite)
{
    stats::Rng rng(13);
    constexpr double Inf = std::numeric_limits<double>::infinity();
    int abandoned = 0, finished = 0;
    for (int it = 0; it < 300; ++it) {
        const auto x = randomSeries(rng, 48);
        const auto y = randomSeries(rng, 48);
        const double p = 0.7;
        const double exact = ref::dtwDistance(x, y, p);
        for (const double frac : {0.25, 0.9, 1.1, 4.0}) {
            const double cutoff = exact * frac + 0.01;
            const double got =
                dtwDistanceEarlyAbandon(x, y, p, cutoff);
            EXPECT_EQ(got, ref::dtwDistanceEarlyAbandon(x, y, p, cutoff));
            if (got == Inf) {
                // Abandoning promises the exact value is >= cutoff.
                EXPECT_GE(exact, cutoff);
                ++abandoned;
            } else {
                EXPECT_EQ(got, exact);
                ++finished;
            }
        }
    }
    // The suite must exercise both outcomes to mean anything.
    EXPECT_GT(abandoned, 0);
    EXPECT_GT(finished, 0);
}

TEST(DistanceGolden, EarlyAbandonBelowCutoffNeverAbandons)
{
    stats::Rng rng(17);
    for (int it = 0; it < 100; ++it) {
        const auto x = randomSeries(rng, 32);
        const auto y = randomSeries(rng, 32);
        const double exact = ref::dtwDistance(x, y, 0.5);
        EXPECT_EQ(dtwDistanceEarlyAbandon(x, y, 0.5, exact + 1.0),
                  exact);
    }
}

TEST(DistanceGolden, LevenshteinMatchesReferenceRandomized)
{
    stats::Rng rng(19);
    for (int it = 0; it < 200; ++it) {
        const auto a = randomSyscalls(rng, 200);
        const auto b = randomSyscalls(rng, 200);
        // max_len 96 < 200 also exercises the subsampling view path.
        for (const std::size_t max_len : {96u, 512u}) {
            EXPECT_EQ(levenshteinDistance(a, b, max_len),
                      ref::levenshteinDistance(a, b, max_len))
                << "it=" << it << " max_len=" << max_len
                << " m=" << a.size() << " n=" << b.size();
        }
    }
}

TEST(DistanceGolden, LevenshteinEdges)
{
    const std::vector<os::Sys> empty;
    const std::vector<os::Sys> one = {static_cast<os::Sys>(3)};
    const std::vector<os::Sys> same(40, static_cast<os::Sys>(5));
    for (const auto *a : {&empty, &one, &same})
        for (const auto *b : {&empty, &one, &same})
            EXPECT_EQ(levenshteinDistance(*a, *b),
                      ref::levenshteinDistance(*a, *b, 512));
}

TEST(DistanceGoldenDeath, LevenshteinSymbolOutsideCatalogueAborts)
{
    // Every os::Sys fits the bit-parallel alphabet (a static_assert in
    // distance.cc); a symbol cast from outside the catalogue is a
    // caller bug, caught before it indexes past the Peq table.
    const std::vector<os::Sys> bad = {static_cast<os::Sys>(5),
                                      static_cast<os::Sys>(100)};
    // The shorter sequence becomes the pattern, so `bad` is the
    // pattern against a longer clean sequence...
    const std::vector<os::Sys> longGood(3, static_cast<os::Sys>(5));
    EXPECT_DEATH((void)levenshteinDistance(bad, longGood),
                 "RBV_DCHECK failed.*outside the catalogue");
    // ...and the text against a shorter one, whose pattern rows pass.
    const std::vector<os::Sys> shortGood(1, static_cast<os::Sys>(5));
    EXPECT_DEATH((void)levenshteinDistance(shortGood, bad),
                 "RBV_DCHECK failed.*outside the catalogue");
}

TEST(DistanceGolden, LevenshteinLongBlockedPattern)
{
    // > 64 pattern rows forces the multi-block Myers carry chain.
    stats::Rng rng(29);
    std::vector<os::Sys> a, b;
    for (std::size_t i = 0; i < 300; ++i)
        a.push_back(static_cast<os::Sys>(
            rng.uniformInt(static_cast<std::uint64_t>(os::NumSys))));
    for (std::size_t i = 0; i < 290; ++i)
        b.push_back(static_cast<os::Sys>(
            rng.uniformInt(static_cast<std::uint64_t>(os::NumSys))));
    EXPECT_EQ(levenshteinDistance(a, b, 512),
              ref::levenshteinDistance(a, b, 512));
}

TEST(DistanceMatrixParallel, ByteIdenticalAtAnyJobCount)
{
    stats::Rng rng(31);
    std::vector<MetricSeries> series;
    for (int i = 0; i < 24; ++i)
        series.push_back(randomSeries(rng, 40));
    const auto cell = [&](std::size_t i, std::size_t j) {
        return dtwDistance(series[i], series[j], 0.6);
    };
    const std::size_t n = series.size();

    const auto reference = ref::distanceMatrixBuild(
        n, [&](std::size_t i, std::size_t j) {
            return ref::dtwDistance(series[i], series[j], 0.6);
        });
    // jobs = 0 (all cores) is the TSan-relevant configuration: many
    // workers race to claim rows while the main thread waits.
    for (const int jobs : {1, 2, 4, 0}) {
        const auto dm = DistanceMatrix::build(n, cell, jobs);
        ASSERT_EQ(dm.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                ASSERT_EQ(dm.at(i, j), reference.at(i, j))
                    << "jobs=" << jobs << " i=" << i << " j=" << j;
    }
}

TEST(DistanceMatrixParallel, PackedStorageIsSymmetricAndHalfSized)
{
    DistanceMatrix dm(5);
    dm.set(1, 4, 2.5);
    dm.set(4, 2, 7.0);
    EXPECT_EQ(dm.at(1, 4), 2.5);
    EXPECT_EQ(dm.at(4, 1), 2.5);
    EXPECT_EQ(dm.at(2, 4), 7.0);
    EXPECT_EQ(dm.at(3, 3), 0.0);
    EXPECT_EQ(dm.packed().size(), 10u); // 5*4/2, not 25
}

TEST(DistanceMatrixParallel, TinyAndEmptyMatrices)
{
    const auto none = DistanceMatrix::build(
        0, [](std::size_t, std::size_t) { return 1.0; }, 4);
    EXPECT_EQ(none.size(), 0u);
    const auto single = DistanceMatrix::build(
        1, [](std::size_t, std::size_t) { return 1.0; }, 4);
    EXPECT_EQ(single.at(0, 0), 0.0);
    const auto pair = DistanceMatrix::build(
        2, [](std::size_t i, std::size_t j) {
            return static_cast<double>(10 * i + j);
        },
        4);
    EXPECT_EQ(pair.at(0, 1), 1.0);
    EXPECT_EQ(pair.at(1, 0), 1.0);
}

} // namespace
