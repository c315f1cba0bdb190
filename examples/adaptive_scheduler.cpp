/**
 * @file
 * Adaptive scheduling (Sec. 5 end to end): calibrate a
 * high-resource-usage threshold from a baseline run, then run the
 * same workload under the default round-robin scheduler and under
 * contention-easing scheduling, and compare the contention census
 * and request CPI tails.
 *
 *   ./build/examples/adaptive_scheduler [--app tpch] [--requests 200]
 */

#include <algorithm>
#include <iostream>

#include "core/sched/contention.hh"
#include "exp/analysis.hh"
#include "exp/cli.hh"
#include "exp/obsio.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace rbv;

int
main(int argc, char **argv)
{
    const exp::Cli cli(argc, argv,
                       {"app", "requests", "seed", "jobs", "quiet"});
    const exp::ObsScope obs(cli);
    const auto app = wl::appFromName(cli.getStr("app", "tpch"));
    const auto requests = cli.getCount("requests", 200);
    const std::uint64_t seed = cli.getU64("seed", 5);

    const exp::ParallelRunner runner(exp::runnerOptions(cli));

    // --- Step 1: calibrate the 80-percentile threshold -------------
    double threshold;
    {
        exp::ScenarioConfig cal;
        cal.app = app;
        cal.seed = seed + 7;
        cal.requests = std::max(1, requests / 2);
        cal.warmup = cal.requests / 10;
        cal.concurrency = 12;
        const auto res =
            runner.run(exp::ScenarioGrid(cal).jobs()).front().result;
        threshold = exp::missesPerInsQuantile(res.records, 0.80);
        std::cout << "calibrated high-usage threshold: "
                  << stats::Table::fmt(threshold * 1e3, 3)
                  << "e-3 L2 misses/instruction\n\n";
    }

    // --- Step 2: run both schedulers concurrently -------------------
    exp::ScenarioConfig cfg;
    cfg.app = app;
    cfg.seed = seed;
    cfg.requests = requests;
    cfg.warmup = requests / 10;
    cfg.concurrency = 12;
    cfg.monitorThreshold = threshold;

    exp::ScenarioGrid grid(cfg);
    grid.variants(
        {{"round-robin", nullptr},
         {"easing", [threshold](exp::ScenarioConfig &c) {
              core::ContentionConfig cc;
              cc.highThreshold = 0.7 * threshold;
              // Fresh policy per job: the easing run owns it alone.
              auto policy =
                  std::make_shared<core::ContentionEasingPolicy>(cc);
              c.policy = policy;
              // The policy's per-thread vaEWMA predictions feed off
              // the sampler's periods.
              c.onSamplerReady = [policy](os::Kernel &k,
                                          core::Sampler &s) {
                  policy->attachSampler(k, s);
              };
          }}});
    const auto results = runner.run(grid.jobs());
    const auto &base =
        exp::resultFor(results, "var=round-robin");
    const auto &eased = exp::resultFor(results, "var=easing");

    // --- Step 3: compare -------------------------------------------
    stats::Table t({"metric", "round-robin", "contention easing"});
    auto cpi_b = exp::requestCpis(base.records);
    auto cpi_e = exp::requestCpis(eased.records);
    t.addRow({"time >=2 cores high",
              stats::Table::pct(base.contention.fractionAtLeast(2), 1),
              stats::Table::pct(eased.contention.fractionAtLeast(2),
                                1)});
    t.addRow({"time all cores high",
              stats::Table::pct(base.contention.fractionAtLeast(4), 2),
              stats::Table::pct(eased.contention.fractionAtLeast(4),
                                2)});
    t.addRow({"mean request CPI",
              stats::Table::fmt(stats::mean(cpi_b)),
              stats::Table::fmt(stats::mean(cpi_e))});
    t.addRow({"99-pct request CPI",
              stats::Table::fmt(stats::quantile(cpi_b, 0.99)),
              stats::Table::fmt(stats::quantile(cpi_e, 0.99))});
    t.addRow({"adaptive re-schedules", "-",
              std::to_string(eased.kernelStats.reschedSwitches)});
    t.print(std::cout);

    std::cout << "\nAs in the paper, expect the intense-contention "
                 "time to shrink while the\naverage request CPI "
                 "stays put: the policy targets the rare worst case\n"
                 "(service-level agreements bind on high "
                 "percentiles, not means).\n";
    return 0;
}
