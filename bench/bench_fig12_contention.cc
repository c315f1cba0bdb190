/**
 * @file
 * Figure 12: effectiveness of contention-easing request scheduling
 * for TPCH and WeBWorK — the proportion of execution time during
 * which multiple CPU cores simultaneously execute at high resource
 * usage levels (L2 misses/instruction above the workload's
 * 80-percentile), under the original scheduler and the
 * contention-easing scheduler.
 *
 * Paper finding: the most intensive contention periods (all four
 * cores simultaneously high) shrink by around 25% for both
 * applications; milder contention shrinks less.
 */

#include <algorithm>
#include <iostream>
#include <map>

#include "core/sched/contention.hh"
#include "exp/aggregate.hh"
#include "exp/analysis.hh"
#include "exp/cli.hh"
#include "exp/obsio.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "stats/table.hh"

using namespace rbv;
using namespace rbv::exp;

namespace {

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
    const int runs = cli.getCount("runs", 5);

    banner("Figure 12", "Contention-easing scheduling: simultaneous "
           "high-resource-usage execution time",
           "the all-4-cores-high proportion drops by ~25% under "
           "contention-easing scheduling for TPCH and WeBWorK");

    const ParallelRunner runner(runnerOptions(cli));
    const std::vector<wl::App> apps = {wl::App::Tpch, wl::App::WebWork};
    const auto requestsFor = [&](wl::App app) {
        return cli.getCount("requests", app == wl::App::Tpch ? 300 : 160);
    };
    const auto concurrencyFor = [](wl::App app) {
        return app == wl::App::Tpch ? 12 : 16;
    };

    // Phase 1: calibrate each application's 80-percentile threshold
    // from a baseline run (both apps concurrently).
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

    // Phase 2: the full app x scheduler x replicate campaign.
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
            c.monitorThreshold = threshold.at(c.app);
        });
    const auto results = runner.run(grid.jobs());

    stats::Table t({"application", "scheduler", ">=2 cores",
                    ">=3 cores", "4 cores", "4-core reduction"});

    for (wl::App app : apps) {
        std::map<std::string, ReplicateSummary> agg;
        for (const std::string var : {"original", "easing"}) {
            for (int r = 0; r < runs; ++r) {
                const auto &res = resultFor(
                    results, "app=" + wl::appShortName(app) +
                                 "/var=" + var +
                                 "/rep=" + std::to_string(r));
                agg[var].add("ge2", res.contention.fractionAtLeast(2));
                agg[var].add("ge3", res.contention.fractionAtLeast(3));
                agg[var].add("eq4", res.contention.fractionAtLeast(4));
            }
        }

        const auto &orig = agg.at("original");
        const auto &eased = agg.at("easing");
        t.addRow({wl::appDisplayName(app), "original",
                  stats::Table::pct(orig.mean("ge2"), 1),
                  stats::Table::pct(orig.mean("ge3"), 1),
                  stats::Table::pct(orig.mean("eq4"), 2), "-"});
        t.addRow({wl::appDisplayName(app), "contention easing",
                  stats::Table::pct(eased.mean("ge2"), 1),
                  stats::Table::pct(eased.mean("ge3"), 1),
                  stats::Table::pct(eased.mean("eq4"), 2),
                  stats::Table::pct(1.0 - eased.mean("eq4") /
                                              std::max(orig.mean("eq4"),
                                                       1e-9),
                                    0)});
        std::cout << wl::appDisplayName(app)
                  << ": 80-pct misses/ins threshold = "
                  << stats::Table::fmt(threshold.at(app) * 1e3, 3)
                  << "e-3\n";
    }

    std::cout << "\n";
    t.print(std::cout);
    std::cout << "\n";
    measured("the '4 cores' column should shrink by roughly a "
             "quarter under contention easing; complete elimination "
             "is impossible (prediction errors, sub-quantum "
             "variation)");
    return 0;
}
