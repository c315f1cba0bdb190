/**
 * @file
 * Figure 13: request CPI under contention-easing CPU scheduling for
 * TPCH and WeBWorK — average and worst-case (99 and 99.9 percentile)
 * request CPI under the original and contention-easing schedulers.
 *
 * Paper finding: contention easing reduces the worst-case request
 * CPI by around 10% but does little for the average (the policy
 * targets the rare, most intensive contention, and service-level
 * agreements care about exactly those high percentiles).
 */

#include <algorithm>
#include <iostream>
#include <map>

#include "core/sched/contention.hh"
#include "exp/analysis.hh"
#include "exp/cli.hh"
#include "exp/obsio.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace rbv;
using namespace rbv::exp;

namespace {

struct CpiSummary
{
    double avg = 0.0, p99 = 0.0, p999 = 0.0;
};

/** Pool per-request CPIs over the replicates of one campaign cell. */
CpiSummary
summarize(const std::vector<JobResult> &results, wl::App app,
          const std::string &var, int runs)
{
    std::vector<double> cpis;
    for (int r = 0; r < runs; ++r) {
        const auto &res =
            resultFor(results, "app=" + wl::appShortName(app) +
                                   "/var=" + var +
                                   "/rep=" + std::to_string(r));
        const auto c = requestCpis(res.records);
        cpis.insert(cpis.end(), c.begin(), c.end());
    }
    CpiSummary out;
    out.avg = stats::mean(cpis);
    out.p99 = stats::quantile(cpis, 0.99);
    out.p999 = stats::quantile(cpis, 0.999);
    return out;
}

/** Attach a fresh contention-easing policy tuned to @p threshold. */
void
applyEasing(ScenarioConfig &cfg, double threshold)
{
    // The policy compares smoothed (vaEWMA) predictions against the
    // threshold; since smoothing pulls spiky period values toward
    // their local mean, the comparable prediction-side threshold
    // sits below the raw 80-percentile of period values.
    auto policy = std::make_shared<core::ContentionEasingPolicy>(
        core::ContentionConfig{0.7 * threshold, sim::msToCycles(5.0),
                               0.6,
                               static_cast<double>(
                                   sim::msToCycles(1.0))});
    cfg.policy = policy;
    cfg.onSamplerReady = [policy](os::Kernel &k, core::Sampler &s) {
        policy->attachSampler(k, s);
    };
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv,
                  {"seed", "requests", "runs", "jobs", "quiet"});
    const ObsScope obs(cli);
    const std::uint64_t seed = cli.getU64("seed", 1);
    const int runs = cli.getCount("runs", 8);

    banner("Figure 13", "Request CPI under contention-easing "
           "scheduling (lower is better)",
           "~10% reduction in worst-case (99 / 99.9 percentile) "
           "request CPI; average essentially unchanged");

    const ParallelRunner runner(runnerOptions(cli));
    const std::vector<wl::App> apps = {wl::App::Tpch, wl::App::WebWork};
    const auto requestsFor = [&](wl::App app) {
        return cli.getCount("requests", app == wl::App::Tpch ? 300 : 160);
    };
    const auto concurrencyFor = [](wl::App app) {
        return app == wl::App::Tpch ? 12 : 16;
    };

    // Phase 1: per-app 80-percentile threshold calibration.
    ScenarioGrid cal;
    cal.apps(apps).finalize([&](ScenarioConfig &c) {
        c.seed = seed + 7;
        c.requests = std::max(1, requestsFor(c.app) / 2);
        c.warmup = c.requests / 10;
        c.concurrency = concurrencyFor(c.app);
    });
    const auto cal_results = runner.run(cal.jobs());

    std::map<wl::App, double> threshold;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        threshold[apps[i]] =
            missesPerInsQuantile(cal_results[i].result.records, 0.80);
    }

    // Phase 2: app x scheduler x replicate campaign.
    ScenarioConfig base;
    base.seed = seed;
    ScenarioGrid grid(base);
    grid.apps(apps)
        .variants({{"original", nullptr},
                   {"easing",
                    [&](ScenarioConfig &c) {
                        applyEasing(c, threshold.at(c.app));
                    }}})
        .replicates(runs)
        .finalize([&](ScenarioConfig &c) {
            c.requests = requestsFor(c.app);
            c.warmup = c.requests / 10;
            c.concurrency = concurrencyFor(c.app);
        });
    const auto results = runner.run(grid.jobs());

    stats::Table t({"application", "scheduler", "average",
                    "99 percentile", "99.9 percentile",
                    "worst-case change"});

    for (wl::App app : apps) {
        const auto orig = summarize(results, app, "original", runs);
        const auto eased = summarize(results, app, "easing", runs);

        t.addRow({wl::appDisplayName(app), "original",
                  stats::Table::fmt(orig.avg),
                  stats::Table::fmt(orig.p99),
                  stats::Table::fmt(orig.p999), "-"});
        t.addRow({wl::appDisplayName(app), "contention easing",
                  stats::Table::fmt(eased.avg),
                  stats::Table::fmt(eased.p99),
                  stats::Table::fmt(eased.p999),
                  // Report the 99-percentile change: with ~1000
                  // requests per run the 99.9-percentile is the top
                  // 1-2 samples and statistically degenerate.
                  stats::Table::pct(
                      eased.p99 / std::max(orig.p99, 1e-9) - 1.0,
                      1)});
    }

    t.print(std::cout);
    std::cout << "\n";
    measured("'worst-case change' (99.9-percentile) should be "
             "around -10%, while the averages stay within noise");
    return 0;
}
