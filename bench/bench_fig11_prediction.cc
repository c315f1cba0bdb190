/**
 * @file
 * Figure 11: accuracy of online prediction of L2 cache misses per
 * instruction for TPCH and WeBWorK, comparing the request-average
 * and last-value predictors with vaEWMA filters at gain
 * alpha = 0.1 .. 0.9 (unit observation length 1 ms).
 *
 * Paper finding: the vaEWMA filters with mid-range alpha beat both
 * alternatives (they adapt to behavior changes while damping
 * short-term fluctuations); the paper settles on alpha = 0.6.
 */

#include <iostream>
#include <memory>

#include "core/predict/predictor.hh"
#include "exp/analysis.hh"
#include "exp/cli.hh"
#include "exp/obsio.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "stats/online.hh"
#include "stats/table.hh"

using namespace rbv;
using namespace rbv::exp;

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv, {"seed", "requests", "jobs", "quiet"});
    const ObsScope obs(cli);
    const std::uint64_t seed = cli.getU64("seed", 1);

    banner("Figure 11", "Online prediction of L2 misses/instruction "
           "(root mean square error; lower is better)",
           "vaEWMA with mid-range alpha beats request-average and "
           "last-value; the paper uses alpha = 0.6");

    const double unit = static_cast<double>(sim::msToCycles(1.0));

    // Predictor roster in the figure's order.
    std::vector<std::unique_ptr<core::Predictor>> roster;
    roster.push_back(
        std::make_unique<core::RequestAveragePredictor>());
    roster.push_back(std::make_unique<core::LastValuePredictor>());
    for (double a = 0.1; a < 0.95; a += 0.1)
        roster.push_back(
            std::make_unique<core::VaEwmaPredictor>(a, unit));

    const std::vector<wl::App> apps = {wl::App::Tpch, wl::App::WebWork};
    ScenarioConfig base;
    base.seed = seed;
    ScenarioGrid grid(base);
    grid.apps(apps).finalize([&](ScenarioConfig &c) {
        c.requests =
            cli.getU64("requests", c.app == wl::App::Tpch ? 150 : 100);
        c.warmup = c.requests / 10;
    });
    const auto results =
        ParallelRunner(runnerOptions(cli)).run(grid.jobs());

    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        const wl::App app = apps[ai];
        const auto &res = results[ai].result;

        stats::Table t({"predictor", "RMS error (misses/ins)"});
        double best_va = 1e30, worst_base = 0.0;
        for (const auto &proto : roster) {
            stats::WeightedRmse rmse;
            for (const auto &rec : res.records) {
                auto pred = proto->clone();
                bool first = true;
                for (const auto &p : rec.timeline.periods) {
                    if (p.instructions <= 0.0)
                        continue;
                    if (!first) {
                        rmse.add(p.cycles, p.l2MissesPerIns(),
                                 pred->predict());
                    }
                    pred->observe(p.cycles, p.l2MissesPerIns());
                    first = false;
                }
            }
            t.addRow({proto->name(),
                      stats::Table::fmt(rmse.rmse() * 1.0e3, 4) +
                          "e-3"});
            if (proto->name().rfind("vaEWMA", 0) == 0)
                best_va = std::min(best_va, rmse.rmse());
            else
                worst_base = std::max(worst_base, rmse.rmse());
        }

        std::cout << wl::appDisplayName(app) << ":\n";
        t.print(std::cout);
        measured("best vaEWMA RMSE " +
                 stats::Table::fmt(best_va * 1e3, 4) +
                 "e-3 vs worst baseline " +
                 stats::Table::fmt(worst_base * 1e3, 4) + "e-3");
        std::cout << "\n";
    }
    return 0;
}
