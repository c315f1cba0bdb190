/**
 * @file
 * Figure 1: per-request CPI distributions under 1-core serial and
 * 4-core concurrent execution, for all five applications.
 *
 * The paper's findings this bench reproduces:
 *  - serial executions show tightly clustered per-request CPIs
 *    (TPCC multi-cluster, from its distinct transaction types);
 *  - 4-core concurrent executions are much less clustered and the
 *    peak (90-percentile) CPI worsens for most applications;
 *  - the obfuscation is application-dependent: TPCH's 90-percentile
 *    CPI roughly doubles while WeBWorK sees no significant impact.
 */

#include <iostream>

#include "exp/analysis.hh"
#include "exp/cli.hh"
#include "exp/obsio.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "stats/online.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace rbv;
using namespace rbv::exp;

namespace {

/** Fig. 1 bin widths per application (from the paper's axes). */
double
binWidth(wl::App app)
{
    switch (app) {
      case wl::App::WebServer: return 0.10;
      case wl::App::Tpcc: return 0.05;
      case wl::App::Tpch: return 0.10;
      case wl::App::Rubis: return 0.20;
      case wl::App::WebWork: return 0.02;
    }
    return 0.1;
}

std::size_t
defaultRequests(wl::App app)
{
    switch (app) {
      case wl::App::WebServer: return 800;
      case wl::App::Tpcc: return 600;
      case wl::App::Tpch: return 220;
      case wl::App::Rubis: return 500;
      case wl::App::WebWork: return 120;
    }
    return 300;
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv,
                  {"seed", "requests", "no-hist", "jobs", "quiet"});
    const ObsScope obs(cli);
    const std::uint64_t seed = cli.getU64("seed", 1);
    const bool show_hist = !cli.has("no-hist");

    banner("Figure 1", "Request CPI distributions, 1-core vs 4-core",
           "multicore sharing obfuscates request CPI; 90-pct CPI "
           "roughly doubles for TPCH, WeBWorK unaffected");

    ScenarioConfig base;
    base.seed = seed;
    ScenarioGrid grid(base);
    grid.apps(wl::allApps())
        .variants(
            {{"1-core",
              [](ScenarioConfig &c) { c.numCores = 1; }},
             {"4-core",
              [](ScenarioConfig &c) { c.numCores = 4; }}})
        .finalize([&](ScenarioConfig &c) {
            c.requests = cli.getCount("requests", defaultRequests(c.app));
            c.warmup = c.requests / 10;
        });
    const auto results =
        ParallelRunner(runnerOptions(cli)).run(grid.jobs());

    stats::Table table({"application", "cores", "requests",
                        "mean CPI", "90-pct CPI", "std/mean",
                        "90pct 4c/1c"});

    for (wl::App app : wl::allApps()) {
        double p90[2] = {0.0, 0.0};
        for (int cores : {1, 4}) {
            const auto &res = resultFor(
                results, "app=" + wl::appShortName(app) + "/var=" +
                             std::to_string(cores) + "-core");

            const auto cpis = requestCpis(res.records);
            const double mean = stats::mean(cpis);
            const double q90 = stats::quantile(cpis, 0.90);
            p90[cores == 4] = q90;

            stats::OnlineMeanVar mv;
            for (double c : cpis)
                mv.add(c);

            table.addRow(
                {wl::appDisplayName(app), std::to_string(cores),
                 std::to_string(cpis.size()), stats::Table::fmt(mean),
                 stats::Table::fmt(q90),
                 stats::Table::fmt(mv.stddev() / mean),
                 cores == 4 ? stats::Table::fmt(p90[1] / p90[0], 2)
                            : "-"});

            if (show_hist) {
                std::cout << wl::appDisplayName(app) << " ("
                          << cores << "-core), probability per "
                          << binWidth(app) << "-width CPI bin:\n";
                stats::Histogram h(binWidth(app) > 0.05 ? 1.0 : 1.0,
                                   binWidth(app), 40);
                for (double c : cpis)
                    h.add(c);
                std::cout << h.ascii(36);
                std::cout << "  90-pct marker: "
                          << stats::Table::fmt(q90) << "\n\n";
            }
        }
    }

    table.print(std::cout);
    std::cout << "\n";
    measured("see '90pct 4c/1c' column: TPCH should be ~2x, "
             "WeBWorK ~1x, others in between");
    return 0;
}
