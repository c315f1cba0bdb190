/**
 * @file
 * Integration tests: full scenarios through machine + kernel +
 * workload + sampler, checking cross-module invariants.
 */

#include <gtest/gtest.h>

#include "exp/analysis.hh"
#include "exp/scenario.hh"
#include "stats/summary.hh"

using namespace rbv;
using namespace rbv::exp;

namespace {

ScenarioConfig
smallConfig(wl::App app, std::size_t requests = 40)
{
    ScenarioConfig cfg;
    cfg.app = app;
    cfg.requests = requests;
    cfg.warmup = 5;
    cfg.seed = 11;
    return cfg;
}

} // namespace

class ScenarioAllApps : public ::testing::TestWithParam<wl::App>
{
};

TEST_P(ScenarioAllApps, CompletesAndRecords)
{
    const auto res = runScenario(smallConfig(GetParam()));
    EXPECT_EQ(res.records.size(), 35u); // 40 - 5 warmup
    for (const auto &rec : res.records) {
        EXPECT_GT(rec.totals.instructions, 0.0);
        EXPECT_GT(rec.totals.cycles, rec.totals.instructions * 0.2);
        EXPECT_GE(rec.completed, rec.injected);
        EXPECT_FALSE(rec.className.empty());
        EXPECT_FALSE(rec.syscalls.empty());
        // Sampled timeline exists and roughly covers the request.
        EXPECT_FALSE(rec.timeline.periods.empty());
        EXPECT_NEAR(rec.timeline.totalInstructions(),
                    rec.totals.instructions,
                    rec.totals.instructions * 0.35);
    }
}

TEST_P(ScenarioAllApps, DeterministicAcrossRuns)
{
    const auto a = runScenario(smallConfig(GetParam(), 25));
    const auto b = runScenario(smallConfig(GetParam(), 25));
    ASSERT_EQ(a.records.size(), b.records.size());
    EXPECT_EQ(a.wallCycles, b.wallCycles);
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].className, b.records[i].className);
        EXPECT_DOUBLE_EQ(a.records[i].totals.instructions,
                         b.records[i].totals.instructions);
        EXPECT_DOUBLE_EQ(a.records[i].totals.cycles,
                         b.records[i].totals.cycles);
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, ScenarioAllApps,
                         ::testing::ValuesIn(wl::allApps()),
                         [](const auto &info) {
                             return wl::makeGenerator(info.param)
                                 ->appName();
                         });

TEST(Scenario, SingleCoreRunsSerially)
{
    // TPCH is the application the paper shows most obfuscated by
    // multicore sharing: its peak request CPI roughly doubles from
    // serial to 4-core concurrent execution (Fig. 1).
    auto cfg = smallConfig(wl::App::Tpch, 25);
    cfg.numCores = 1;
    const auto res = runScenario(cfg);
    EXPECT_EQ(res.records.size(), 20u);
    const auto serial = requestCpis(res.records);
    const auto cfg4 = smallConfig(wl::App::Tpch, 25);
    const auto res4 = runScenario(cfg4);
    const auto conc = requestCpis(res4.records);
    EXPECT_LT(stats::quantile(serial, 0.9),
              stats::quantile(conc, 0.9));
}

TEST(Scenario, SyscallSamplerCheaperThanInterruptAtMatchedRate)
{
    // The headline claim of Sec. 3.2 (Fig. 5): with comparable sample
    // counts, syscall-triggered sampling costs less.
    auto base = smallConfig(wl::App::WebServer, 60);
    base.sampler = SamplerKind::Interrupt;
    const auto ir = runScenario(base);

    auto sys = base;
    sys.sampler = SamplerKind::Syscall;
    const auto sr = runScenario(sys);

    ASSERT_GT(ir.samplerStats.totalSamples(), 0u);
    ASSERT_GT(sr.samplerStats.totalSamples(), 0u);
    // In-kernel samples dominate for the syscall sampler.
    EXPECT_GT(sr.samplerStats.inKernelSamples(),
              sr.samplerStats.interruptSamples +
                  sr.samplerStats.backupSamples);
    // Per-sample overhead is lower for the syscall sampler.
    const double ir_per =
        ir.samplerStats.overheadCycles / ir.samplerStats.totalSamples();
    const double sr_per =
        sr.samplerStats.overheadCycles / sr.samplerStats.totalSamples();
    EXPECT_LT(sr_per, ir_per);
}

TEST(Scenario, SyscallGapsRecordedWhenRequested)
{
    auto cfg = smallConfig(wl::App::WebServer, 40);
    cfg.recordSyscallGaps = true;
    const auto res = runScenario(cfg);
    EXPECT_GT(res.syscallGaps.size(), 200u);
    for (std::size_t i = 0; i < 50; ++i) {
        EXPECT_GE(res.syscallGaps[i].cycles, 0.0);
        EXPECT_GE(res.syscallGaps[i].instructions, 0.0);
    }
    // CDF at huge distance is ~1.
    const auto cdf =
        syscallGapCdf(res.syscallGaps, {1.0e12}, true);
    EXPECT_NEAR(cdf[0], 1.0, 1e-9);
}

TEST(Scenario, MonitorAttachesAtThreshold)
{
    auto cfg = smallConfig(wl::App::Tpch, 25);
    cfg.monitorThreshold = 0.001;
    const auto res = runScenario(cfg);
    EXPECT_GT(res.contention.totalCycles(), 0.0);
}

TEST(Scenario, NoSamplerMeansNoTimelines)
{
    auto cfg = smallConfig(wl::App::Tpcc, 25);
    cfg.sampler = SamplerKind::None;
    const auto res = runScenario(cfg);
    EXPECT_EQ(res.samplerStats.totalSamples(), 0u);
    for (const auto &rec : res.records)
        EXPECT_TRUE(rec.timeline.periods.empty());
    // Exact kernel accounting still works.
    EXPECT_GT(res.records.front().totals.instructions, 0.0);
}

TEST(Scenario, WarmupDropsLeadingRequests)
{
    auto cfg = smallConfig(wl::App::Tpcc, 30);
    cfg.warmup = 10;
    const auto res = runScenario(cfg);
    EXPECT_EQ(res.records.size(), 20u);
}

TEST(Analysis, CovPairIntraAtLeastComparableToInter)
{
    const auto res = runScenario(smallConfig(wl::App::Tpcc, 60));
    const auto cov = covInterIntra(res.records, core::Metric::Cpi);
    EXPECT_GT(cov.inter, 0.0);
    // Sec. 2.3 / Fig. 3: considering intra-request fluctuations
    // yields stronger (or at least comparable) variations.
    EXPECT_GT(cov.withIntra, cov.inter * 0.8);
}

TEST(Analysis, SeriesExtractionShapes)
{
    const auto res = runScenario(smallConfig(wl::App::Tpcc, 40));
    const double bin = defaultBinIns(res.records);
    const auto series =
        seriesFor(res.records, core::Metric::Cpi, bin);
    ASSERT_EQ(series.size(), res.records.size());
    std::size_t nonempty = 0;
    for (const auto &s : series)
        nonempty += !s.empty();
    EXPECT_GT(nonempty, series.size() * 3 / 4);
}

TEST(Analysis, MissesQuantileMonotone)
{
    const auto res = runScenario(smallConfig(wl::App::Tpch, 25));
    const double q50 = missesPerInsQuantile(res.records, 0.5);
    const double q80 = missesPerInsQuantile(res.records, 0.8);
    const double q95 = missesPerInsQuantile(res.records, 0.95);
    EXPECT_LE(q50, q80);
    EXPECT_LE(q80, q95);
    EXPECT_GT(q80, 0.0);
}

TEST(Analysis, OverallMetricMatchesTotals)
{
    const auto res = runScenario(smallConfig(wl::App::Tpcc, 30));
    sim::CounterSnapshot total;
    for (const auto &r : res.records)
        total += r.totals;
    EXPECT_NEAR(overallMetric(res.records, core::Metric::Cpi),
                total.cycles / total.instructions, 1e-9);
}
