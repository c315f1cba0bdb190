/**
 * @file
 * Property suite for the lower-bound cascade and the anti-diagonal
 * DTW kernels: soundness of every bound, bit-identity of every fast
 * path against the preserved references, and pruning that provably
 * never changes a winner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/model/cascade.hh"
#include "core/model/distance.hh"
#include "core/model/distance_ref.hh"
#include "core/model/distance_scratch.hh"
#include "core/model/dtw_simd.hh"
#include "core/model/kmedoids.hh"
#include "core/model/signature.hh"
#include "obs/obs.hh"
#include "stats/rng.hh"

using namespace rbv;
using namespace rbv::core;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

MetricSeries
randomSeries(std::size_t n, stats::Rng &rng)
{
    MetricSeries s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(rng.uniform(0.2, 4.0));
    return s;
}

/** Class-structured series: what clustering inputs actually look like. */
MetricSeries
classSeries(std::size_t len, std::size_t cls, std::uint64_t seed)
{
    stats::Rng rng(seed);
    MetricSeries s;
    s.reserve(len);
    const double base = 1.0 + 0.9 * static_cast<double>(cls);
    const double freq = 0.05 + 0.01 * static_cast<double>(cls);
    for (std::size_t k = 0; k < len; ++k)
        s.push_back(base +
                    0.4 * std::sin(freq * static_cast<double>(k)) +
                    rng.uniform(-0.08, 0.08));
    return s;
}

/** Brute-force window min/max the deque sweep must reproduce. */
void
naiveEnvelope(const MetricSeries &s, std::size_t radius,
              SeriesEnvelope &out)
{
    const std::size_t n = s.size();
    out.lower.assign(n, 0.0);
    out.upper.assign(n, 0.0);
    out.radius = radius;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t lo = i >= radius ? i - radius : 0;
        const std::size_t hi = std::min(n - 1, i + radius);
        double mn = s[lo], mx = s[lo];
        for (std::size_t j = lo + 1; j <= hi; ++j) {
            mn = std::min(mn, s[j]);
            mx = std::max(mx, s[j]);
        }
        out.lower[i] = mn;
        out.upper[i] = mx;
    }
}

} // namespace

// ------------------------------------------------------------ envelope

TEST(Envelope, MatchesNaiveWindowScan)
{
    stats::Rng rng(101);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n =
            1 + static_cast<std::size_t>(rng.uniformInt(60));
        const std::size_t r =
            static_cast<std::size_t>(rng.uniformInt(20));
        const auto s = randomSeries(n, rng);
        SeriesEnvelope fast, naive;
        buildEnvelope(s, r, fast);
        naiveEnvelope(s, r, naive);
        ASSERT_EQ(fast.lower, naive.lower) << "n=" << n << " r=" << r;
        ASSERT_EQ(fast.upper, naive.upper) << "n=" << n << " r=" << r;
    }
}

TEST(Envelope, ZeroRadiusIsTheSeriesItself)
{
    stats::Rng rng(7);
    const auto s = randomSeries(17, rng);
    SeriesEnvelope e;
    buildEnvelope(s, 0, e);
    EXPECT_EQ(e.lower, s);
    EXPECT_EQ(e.upper, s);
}

// -------------------------------------------------------- bound chains

TEST(LowerBounds, KimLeqKeoghLeqExactOnRandomPairs)
{
    stats::Rng rng(202);
    const double penalties[] = {0.0, 0.3, 1.0, 5.0};
    for (int trial = 0; trial < 120; ++trial) {
        const std::size_t m =
            1 + static_cast<std::size_t>(rng.uniformInt(48));
        const std::size_t n =
            1 + static_cast<std::size_t>(rng.uniformInt(48));
        const auto x = randomSeries(m, rng);
        const auto y = randomSeries(n, rng);
        const double p = penalties[trial % 4];
        const std::size_t diff = m > n ? m - n : n - m;

        // Radius at least the length difference: the regime where the
        // Kim <= Keogh ordering holds structurally. Smaller radii are
        // exercised for soundness below.
        const std::size_t r =
            diff + static_cast<std::size_t>(rng.uniformInt(8));
        SeriesEnvelope env;
        buildEnvelope(y, r, env);

        const double exact = ref::dtwDistance(x, y, p);
        const double kim = lbKim(x, y, p);
        const double keogh = lbKeogh(x, y, env, p);
        ASSERT_LE(kim, keogh) << "m=" << m << " n=" << n << " p=" << p;
        // The bounds are sound in real arithmetic but summed in a
        // different order than the DP, so compare the way every
        // prune site does: deflated by LbPruneMargin.
        ASSERT_LE(keogh * LbPruneMargin, exact)
            << "m=" << m << " n=" << n << " p=" << p << " r=" << r;
    }
}

TEST(LowerBounds, KeoghSoundAtAnyRadius)
{
    stats::Rng rng(303);
    for (int trial = 0; trial < 120; ++trial) {
        const std::size_t m =
            1 + static_cast<std::size_t>(rng.uniformInt(40));
        const std::size_t n =
            1 + static_cast<std::size_t>(rng.uniformInt(40));
        const auto x = randomSeries(m, rng);
        const auto y = randomSeries(n, rng);
        const double p = 0.25 * static_cast<double>(trial % 5);
        const std::size_t r =
            static_cast<std::size_t>(rng.uniformInt(50));
        SeriesEnvelope env;
        buildEnvelope(y, r, env);
        ASSERT_LE(lbKeogh(x, y, env, p) * LbPruneMargin,
                  ref::dtwDistance(x, y, p))
            << "m=" << m << " n=" << n << " p=" << p << " r=" << r;
    }
}

TEST(LowerBounds, FlatSeriesAndZeroPenalty)
{
    // Degenerate corners: constant series (every E_i zero) and p = 0
    // (length mismatch free). The bounds must stay sound, not just on
    // generic inputs.
    const MetricSeries flat_a(30, 2.0);
    const MetricSeries flat_b(13, 2.0);
    SeriesEnvelope env;
    buildEnvelope(flat_b, 20, env);
    const double exact = ref::dtwDistance(flat_a, flat_b, 0.0);
    EXPECT_LE(lbKim(flat_a, flat_b, 0.0), exact);
    EXPECT_LE(lbKeogh(flat_a, flat_b, env, 0.0), exact);
    EXPECT_DOUBLE_EQ(exact, 0.0);
}

// ----------------------------------------------------- kernel dispatch

TEST(DiagKernel, ScalarBitIdenticalToReference)
{
    stats::Rng rng(404);
    DistanceScratch &scr = threadDistanceScratch();
    for (int trial = 0; trial < 80; ++trial) {
        const std::size_t m =
            1 + static_cast<std::size_t>(rng.uniformInt(90));
        const std::size_t n =
            1 + static_cast<std::size_t>(rng.uniformInt(90));
        const auto x = randomSeries(m, rng);
        const auto y = randomSeries(n, rng);
        const double p = 0.5 * static_cast<double>(trial % 4);
        const double want = ref::dtwDistance(x, y, p);
        const double got = detail::dtwDiagScalar(x.data(), m, y.data(),
                                                 n, p, Inf, scr);
        ASSERT_EQ(want, got) << "m=" << m << " n=" << n << " p=" << p;
    }
}

TEST(DiagKernel, Avx2BitIdenticalToScalarWhenAvailable)
{
    if (!detail::dtwAvx2Available())
        GTEST_SKIP() << "host has no AVX2";
    stats::Rng rng(505);
    DistanceScratch &scr = threadDistanceScratch();
    for (int trial = 0; trial < 80; ++trial) {
        const std::size_t m =
            1 + static_cast<std::size_t>(rng.uniformInt(120));
        const std::size_t n =
            1 + static_cast<std::size_t>(rng.uniformInt(120));
        const auto x = randomSeries(m, rng);
        const auto y = randomSeries(n, rng);
        const double p = 0.5 * static_cast<double>(trial % 4);
        const double s = detail::dtwDiagScalar(x.data(), m, y.data(),
                                               n, p, Inf, scr);
        const double v = detail::dtwDiagAvx2(x.data(), m, y.data(), n,
                                             p, Inf, scr);
        ASSERT_EQ(s, v) << "m=" << m << " n=" << n << " p=" << p;
        ASSERT_EQ(s, ref::dtwDistance(x, y, p));
    }
}

TEST(DiagKernel, DispatcherMatchesReferenceAcrossLengthThreshold)
{
    // dtwDistance routes short series to the rolling kernel and long
    // ones to the diagonal kernels; both sides of the threshold must
    // agree with the reference bitwise.
    stats::Rng rng(606);
    for (std::size_t m : {1u, 2u, 7u, 15u, 16u, 17u, 33u, 64u}) {
        for (std::size_t n : {1u, 9u, 16u, 31u, 64u}) {
            const auto x = randomSeries(m, rng);
            const auto y = randomSeries(n, rng);
            ASSERT_EQ(dtwDistance(x, y, 1.0),
                      ref::dtwDistance(x, y, 1.0))
                << "m=" << m << " n=" << n;
        }
    }
}

// ----------------------------------------------------------- cascade

TEST(Cascade, ExactMatchesReferenceMatrixExactly)
{
    constexpr std::size_t N = 24;
    std::vector<MetricSeries> series;
    for (std::size_t i = 0; i < N; ++i)
        series.push_back(classSeries(40 + i % 16, i % 3, i + 1));
    std::vector<const MetricSeries *> items;
    for (const auto &s : series)
        items.push_back(&s);

    DistanceCascade dc(items.data(), N, 1.0);
    for (std::size_t i = 0; i < N; ++i)
        for (std::size_t j = 0; j < N; ++j)
            ASSERT_EQ(dc.exact(i, j),
                      ref::dtwDistance(series[i], series[j], 1.0))
                << "i=" << i << " j=" << j;
}

TEST(Cascade, AtMostFalseImpliesExactAtLeastCutoff)
{
    constexpr std::size_t N = 20;
    std::vector<MetricSeries> series;
    for (std::size_t i = 0; i < N; ++i)
        series.push_back(classSeries(36 + i % 12, i % 4, i + 11));
    std::vector<const MetricSeries *> items;
    for (const auto &s : series)
        items.push_back(&s);

    stats::Rng rng(707);
    DistanceCascade dc(items.data(), N, 0.7);
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t i =
            static_cast<std::size_t>(rng.uniformInt(N));
        const std::size_t j =
            static_cast<std::size_t>(rng.uniformInt(N));
        const double exact = ref::dtwDistance(series[i], series[j], 0.7);
        const double cutoff = exact * rng.uniform(0.25, 1.75) + 1e-9;
        double d = std::numeric_limits<double>::quiet_NaN();
        if (dc.atMost(i, j, cutoff, d)) {
            // A true answer is always the exact distance, bitwise.
            ASSERT_EQ(d, exact);
        } else {
            // A false answer must be a sound rejection.
            ASSERT_GE(exact, cutoff);
            ASSERT_TRUE(std::isnan(d)) << "d must be untouched";
        }
    }
}

TEST(Cascade, PruneGateSoundWithAndWithoutFirstEnvelope)
{
    constexpr std::size_t N = 20;
    std::vector<MetricSeries> series;
    for (std::size_t i = 0; i < N; ++i)
        series.push_back(classSeries(36 + i % 12, i % 4, i + 11));
    std::vector<const MetricSeries *> items;
    for (const auto &s : series)
        items.push_back(&s);
    const std::vector<SeriesEnvelope> envs =
        buildEnvelopes(items.data(), N);

    // Two-sided (atMost and the anomaly pair search pass both
    // envelopes) and one-sided (the streaming scorer has none for the
    // series it scores).
    stats::Rng rng(717);
    std::size_t stages[2][4] = {};
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t i =
            static_cast<std::size_t>(rng.uniformInt(N));
        const std::size_t j =
            static_cast<std::size_t>(rng.uniformInt(N));
        const double exact = ref::dtwDistance(series[i], series[j], 0.7);
        const double cutoff = exact * rng.uniform(0.25, 1.75) + 1e-9;
        for (const bool two_sided : {true, false}) {
            const SeriesEnvelope *env_x = two_sided ? &envs[i] : nullptr;
            double d = std::numeric_limits<double>::quiet_NaN();
            const PruneStage stage = pruneGate(
                series[i], series[j], env_x, envs[j], 0.7, cutoff, d);
            ++stages[two_sided][static_cast<std::size_t>(stage)];
            if (stage == PruneStage::Exact) {
                // A finite answer is always the exact distance,
                // bitwise — even at or above the cutoff.
                ASSERT_EQ(d, exact);
            } else {
                // Pruned or abandoned: a sound rejection.
                ASSERT_GE(exact, cutoff);
                ASSERT_TRUE(std::isnan(d)) << "d must be untouched";
            }

            // No bound reaches an infinite cutoff: the DP runs.
            ASSERT_EQ(pruneGate(series[i], series[j], env_x, envs[j],
                                0.7, Inf, d),
                      PruneStage::Exact);
            ASSERT_EQ(d, exact);
        }
    }
    // Both forms must exercise every stage to mean anything.
    for (const auto &per_form : stages)
        for (const std::size_t count : per_form)
            EXPECT_GT(count, 0u);
}

TEST(Cascade, CheapLowerBoundNeverExceedsExact)
{
    constexpr std::size_t N = 16;
    std::vector<MetricSeries> series;
    for (std::size_t i = 0; i < N; ++i)
        series.push_back(classSeries(30 + i, i % 3, i + 5));
    std::vector<const MetricSeries *> items;
    for (const auto &s : series)
        items.push_back(&s);
    DistanceCascade dc(items.data(), N, 1.3);
    for (std::size_t i = 0; i < N; ++i)
        for (std::size_t j = 0; j < N; ++j) {
            const double lb = dc.cheapLowerBound(i, j);
            ASSERT_LE(lb, ref::dtwDistance(series[i], series[j], 1.3));
        }
}

TEST(Cascade, KMedoidsCascadeBitIdenticalToKMedoids)
{
    constexpr std::size_t N = 48;
    std::vector<MetricSeries> series;
    for (std::size_t i = 0; i < N; ++i)
        series.push_back(classSeries(40 + i % 24, i % 4, i + 21));
    std::vector<const MetricSeries *> items;
    for (const auto &s : series)
        items.push_back(&s);

    for (const double p : {0.0, 1.0}) {
        for (const std::size_t k : {std::size_t{2}, std::size_t{4},
                                    std::size_t{7}}) {
            const auto dm = DistanceMatrix::build(
                N,
                [&](std::size_t i, std::size_t j) {
                    return dtwDistance(series[i], series[j], p);
                },
                1);
            stats::Rng r1(33);
            const auto plain = kMedoids(dm, k, r1);

            DistanceCascade dc(items.data(), N, p);
            stats::Rng r2(33);
            const auto casc = kMedoidsCascade(dc, k, r2);

            ASSERT_EQ(plain.medoids, casc.medoids)
                << "p=" << p << " k=" << k;
            ASSERT_EQ(plain.assignment, casc.assignment)
                << "p=" << p << " k=" << k;
            ASSERT_EQ(plain.totalCost, casc.totalCost)
                << "p=" << p << " k=" << k;
            // The point of the cascade: it must actually prune.
            EXPECT_LT(dc.stats().dpRuns, N * (N - 1) / 2 + N)
                << "p=" << p << " k=" << k;
        }
    }
}

// ------------------------------------- k-medoids on sets above the rule

namespace {

/** DP cells of one seeding round: the sum of squared lengths. */
std::size_t
seedingCells(const std::vector<MetricSeries> &series)
{
    std::size_t cells = 0;
    for (const MetricSeries &s : series)
        cells += s.size() * s.size();
    return cells;
}

/** One kMedoidsCascade call: its result, tallies and model.* counters. */
struct CascadeRun
{
    Clustering cl;
    CascadeStats stats;
    std::map<std::string, std::uint64_t> modelCounters; ///< Nonzero only.
};

CascadeRun
runCascade(const std::vector<MetricSeries> &series, double p,
           std::size_t k)
{
    std::vector<const MetricSeries *> items;
    for (const MetricSeries &s : series)
        items.push_back(&s);
    CascadeRun run;
    const obs::Session session;
    DistanceCascade dc(items.data(), items.size(), p);
    stats::Rng rng(33);
    run.cl = kMedoidsCascade(dc, k, rng);
    run.stats = dc.stats();
    const obs::MergedMetrics m = session.mergedMetrics();
    for (std::size_t c = 0; c < obs::NumCounters; ++c) {
        const std::string name =
            obs::counterName(static_cast<obs::Counter>(c));
        if (name.rfind("model.", 0) == 0 && m.counters[c] != 0)
            run.modelCounters[name] = m.counters[c];
    }
    return run;
}

/** kMedoids over the full matrix of @p series, seeded as runCascade. */
Clustering
matrixClustering(const std::vector<MetricSeries> &series, double p,
                 std::size_t k)
{
    const auto dm = DistanceMatrix::build(
        series.size(),
        [&](std::size_t i, std::size_t j) {
            return dtwDistance(series[i], series[j], p);
        },
        1);
    stats::Rng rng(33);
    return kMedoids(dm, k, rng);
}

/**
 * The tallies one call makes in the serial k-medoids loop, which the
 * forked loop must repeat; its model.* counters equal them.
 */
struct PinnedRun
{
    double p;
    std::size_t k;
    CascadeStats stats;
};

void
expectPinned(const CascadeRun &run, const PinnedRun &want)
{
    const CascadeStats &s = run.stats;
    EXPECT_EQ(s.lookups, want.stats.lookups);
    EXPECT_EQ(s.memoHits, want.stats.memoHits);
    EXPECT_EQ(s.kimPrunes, want.stats.kimPrunes);
    EXPECT_EQ(s.keoghPrunes, want.stats.keoghPrunes);
    EXPECT_EQ(s.dpRuns, want.stats.dpRuns);
    EXPECT_EQ(s.eaAbandons, want.stats.eaAbandons);
    // The cascade counts each stage in its tallies and in the obs
    // counters; pool threads' counters fold into the caller's.
    std::map<std::string, std::uint64_t> counters;
    const auto put = [&](const char *name, std::uint64_t v) {
        if (v != 0)
            counters[name] = v;
    };
    put("model.cascade_dp_runs", want.stats.dpRuns);
    put("model.dtw_early_abandons", want.stats.eaAbandons);
    put("model.lb_kim_prunes", want.stats.kimPrunes);
    put("model.lb_keogh_prunes", want.stats.keoghPrunes);
    EXPECT_EQ(run.modelCounters, counters);
}

} // namespace

TEST(CascadeAboveForkRule, ClassSetMatchesMatrixAndPinnedTallies)
{
    std::vector<MetricSeries> series;
    for (std::size_t i = 0; i < 64; ++i)
        series.push_back(classSeries(96 + (7 * i) % 48, i % 4, 500 + i));
    ASSERT_GE(seedingCells(series), CascadeForkCells);

    const PinnedRun pinned[] = {
        {0.0, 4, {2637, 1572, 33, 0, 921, 251}},
        {0.0, 10, {3358, 1604, 162, 0, 1439, 639}},
        {1.0, 4, {2607, 1548, 29, 202, 715, 50}},
        {1.0, 10, {3242, 1494, 451, 325, 830, 52}},
    };
    for (const PinnedRun &want : pinned) {
        SCOPED_TRACE(testing::Message()
                     << "p=" << want.p << " k=" << want.k);
        const CascadeRun run = runCascade(series, want.p, want.k);
        const Clustering plain = matrixClustering(series, want.p, want.k);
        EXPECT_EQ(run.cl.medoids, plain.medoids);
        EXPECT_EQ(run.cl.assignment, plain.assignment);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(run.cl.totalCost),
                  std::bit_cast<std::uint64_t>(plain.totalCost));
        expectPinned(run, want);
    }
}

TEST(CascadeAboveForkRule, IdenticalSeriesSeedDuplicateMedoids)
{
    // Every distance is 0, so max-min seeding picks item 0 again and
    // again after its random first medoid: duplicate medoids, and
    // clusters with no member.
    const std::vector<MetricSeries> series(40, classSeries(128, 2, 77));
    ASSERT_GE(seedingCells(series), CascadeForkCells);

    const PinnedRun want = {1.0, 4, {680, 586, 0, 0, 77, 0}};
    const CascadeRun run = runCascade(series, want.p, want.k);
    const Clustering plain = matrixClustering(series, want.p, want.k);
    EXPECT_EQ(run.cl.medoids, plain.medoids);
    EXPECT_EQ(run.cl.assignment, plain.assignment);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(run.cl.totalCost),
              std::bit_cast<std::uint64_t>(plain.totalCost));
    EXPECT_NE(std::set<std::size_t>(run.cl.medoids.begin(),
                                    run.cl.medoids.end())
                  .size(),
              run.cl.medoids.size());
    expectPinned(run, want);
}

TEST(CascadeAboveForkRule, OneJobRunsOnTheCallingThreadWithTheSameResult)
{
    std::vector<MetricSeries> series;
    for (std::size_t i = 0; i < 64; ++i)
        series.push_back(classSeries(96 + (7 * i) % 48, i % 4, 500 + i));
    ASSERT_GE(seedingCells(series), CascadeForkCells);
    std::vector<const MetricSeries *> items;
    for (const MetricSeries &s : series)
        items.push_back(&s);

    DistanceCascade one(items.data(), items.size(), 1.0, 1);
    std::vector<std::thread::id> ran(items.size());
    one.forEach(items.size(), [&](DistanceCascade::Query &, std::size_t i) {
        ran[i] = std::this_thread::get_id();
    });
    for (const std::thread::id &id : ran)
        EXPECT_EQ(id, std::this_thread::get_id());

    for (const std::size_t k : {4, 10}) {
        SCOPED_TRACE(testing::Message() << "k=" << k);
        DistanceCascade serial(items.data(), items.size(), 1.0, 1);
        stats::Rng serial_rng(33);
        const Clustering got = kMedoidsCascade(serial, k, serial_rng);
        const CascadeRun want = runCascade(series, 1.0, k);
        EXPECT_EQ(got.medoids, want.cl.medoids);
        EXPECT_EQ(got.assignment, want.cl.assignment);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.totalCost),
                  std::bit_cast<std::uint64_t>(want.cl.totalCost));
        const CascadeStats &s = serial.stats();
        const CascadeStats &w = want.stats;
        EXPECT_EQ(s.lookups, w.lookups);
        EXPECT_EQ(s.memoHits, w.memoHits);
        EXPECT_EQ(s.kimPrunes, w.kimPrunes);
        EXPECT_EQ(s.keoghPrunes, w.keoghPrunes);
        EXPECT_EQ(s.dpRuns, w.dpRuns);
        EXPECT_EQ(s.eaAbandons, w.eaAbandons);
    }
}

// ---------------------------------------------------- early abandoning

TEST(EarlyAbandon, FiniteResultIsExactInfMeansAtLeastCutoff)
{
    stats::Rng rng(808);
    for (int trial = 0; trial < 150; ++trial) {
        const std::size_t m =
            1 + static_cast<std::size_t>(rng.uniformInt(40));
        const std::size_t n =
            1 + static_cast<std::size_t>(rng.uniformInt(40));
        const auto x = randomSeries(m, rng);
        const auto y = randomSeries(n, rng);
        const double exact = ref::dtwDistance(x, y, 1.0);
        const double cutoff = exact * rng.uniform(0.3, 1.7) + 1e-9;
        const double got = dtwDistanceEarlyAbandon(x, y, 1.0, cutoff);
        if (std::isinf(got))
            ASSERT_GE(exact, cutoff);
        else
            ASSERT_EQ(got, exact);
    }
}

TEST(EarlyAbandon, DecisionMatchesRollingReferenceBitwise)
{
    // The abandon decision itself, not only its soundness: the
    // dispatcher and both wavefront kernels, called directly so the
    // portable one runs on AVX2 hosts too, must return exactly what
    // the rolling-row reference returns, +inf included. Lengths span
    // the dispatch threshold with every m mod 4 (the wavefront's
    // inner loop runs whole groups of 4 lanes); integer values make
    // ties common; cutoffs sit on the exact value and one ulp either
    // side, where a row tested before it completes or a row minimum
    // polluted by overrun lanes flips the decision.
    const auto bits = [](double v) {
        return std::bit_cast<std::uint64_t>(v);
    };
    stats::Rng rng(1010);
    DistanceScratch &scr = threadDistanceScratch();
    const bool avx2 = detail::dtwAvx2Available();
    const std::size_t lens[] = {1,  2,  3,  4,  5,  14, 15, 16,
                                17, 18, 19, 20, 37, 38, 39, 40};
    int abandoned = 0, kept = 0;
    for (const std::size_t m : lens) {
        for (const std::size_t n : lens) {
            MetricSeries x(m), y(n);
            for (double &v : x)
                v = static_cast<double>(rng.uniformInt(4));
            for (double &v : y)
                v = static_cast<double>(rng.uniformInt(4));
            for (const double p : {0.0, 0.5, 1.7}) {
                const double exact = ref::dtwDistance(x, y, p);
                for (const double cutoff :
                     {exact, std::nextafter(exact, -Inf),
                      std::nextafter(exact, Inf), 0.0, Inf}) {
                    const double want =
                        ref::dtwDistanceEarlyAbandon(x, y, p, cutoff);
                    (want == Inf ? abandoned : kept) += 1;
                    const auto where = [&] {
                        return testing::Message()
                               << "m=" << m << " n=" << n << " p=" << p
                               << " cutoff=" << cutoff;
                    };
                    ASSERT_EQ(bits(want), bits(dtwDistanceEarlyAbandon(
                                              x, y, p, cutoff)))
                        << where();
                    ASSERT_EQ(bits(want),
                              bits(detail::dtwDiagScalar(
                                  x.data(), m, y.data(), n, p, cutoff,
                                  scr)))
                        << where();
                    if (avx2) {
                        ASSERT_EQ(bits(want),
                                  bits(detail::dtwDiagAvx2(
                                      x.data(), m, y.data(), n, p,
                                      cutoff, scr)))
                            << where();
                    }
                }
            }
        }
    }
    EXPECT_GT(abandoned, 0);
    EXPECT_GT(kept, 0);
}

// ------------------------------------------------- parallel byte-ident

TEST(ParallelBuild, ChunkedWorkStealingByteIdenticalAtAnyJobs)
{
    constexpr std::size_t N = 40;
    std::vector<MetricSeries> series;
    stats::Rng rng(909);
    for (std::size_t i = 0; i < N; ++i)
        series.push_back(randomSeries(24 + i % 16, rng));
    const auto cell = [&](std::size_t i, std::size_t j) {
        return dtwDistance(series[i], series[j], 1.0);
    };
    const auto dm1 = DistanceMatrix::build(N, cell, 1);
    for (const unsigned jobs : {2u, 3u, 4u, 8u}) {
        const auto dmj = DistanceMatrix::build(N, cell, jobs);
        for (std::size_t i = 0; i < N; ++i)
            for (std::size_t j = i + 1; j < N; ++j)
                ASSERT_EQ(dm1.at(i, j), dmj.at(i, j))
                    << "jobs=" << jobs << " i=" << i << " j=" << j;
    }
}

// ------------------------------------------------- signature LB prune

TEST(SignaturePrune, IdentifyUnchangedByPrefixPrune)
{
    // The bank's prefix-sum prune must be invisible: identification
    // and confidence over a pruned scan equal a naive full scan.
    stats::Rng rng(111);
    SignatureBank bank(1.0);
    constexpr std::size_t Bank = 64;
    std::vector<MetricSeries> sigs;
    for (std::size_t i = 0; i < Bank; ++i) {
        sigs.push_back(classSeries(20 + i % 10, i % 5, i + 3));
        bank.add(sigs.back(), 1000.0 + static_cast<double>(i),
                 static_cast<int>(i % 5));
    }

    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t which =
            static_cast<std::size_t>(rng.uniformInt(Bank));
        MetricSeries partial(
            sigs[which].begin(),
            sigs[which].begin() +
                static_cast<std::ptrdiff_t>(
                    1 + rng.uniformInt(sigs[which].size())));
        for (auto &v : partial)
            v += rng.uniform(-0.02, 0.02);

        // Naive scan: the exact pre-prune semantics of matchPartial.
        const double norm = static_cast<double>(partial.size());
        std::size_t best = SignatureBank::npos;
        double best_d = std::numeric_limits<double>::infinity();
        double second_d = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < bank.size(); ++i) {
            const auto &sig = bank.entry(i).series;
            const std::size_t common =
                std::min(partial.size(), sig.size());
            double d = 0.0;
            for (std::size_t k = 0; k < common; ++k)
                d += std::abs(partial[k] - sig[k]);
            for (std::size_t k = common; k < partial.size(); ++k)
                d += std::abs(partial[k]);
            d /= norm;
            if (d < best_d) {
                second_d = best_d;
                best_d = d;
                best = i;
            } else if (d < second_d) {
                second_d = d;
            }
        }

        ASSERT_EQ(bank.identify(partial), best);
        const auto id = bank.identifyWithConfidence(partial, 0.0);
        ASSERT_EQ(id.index, best);
        const double want_conf =
            second_d > 0.0 ? (second_d - best_d) / second_d : 0.0;
        ASSERT_EQ(id.confidence, want_conf);
    }
}
