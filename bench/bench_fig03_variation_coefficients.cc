/**
 * @file
 * Figure 3: captured request behavior variations (Eq. 1 coefficient
 * of variation) on three processor metrics, comparing inter-request
 * variation only against variation with intra-request fluctuations
 * included.
 *
 * Paper findings: intra-request fluctuations strengthen the captured
 * variation substantially for every application except TPCH, whose
 * requests apply one query over long uniform data.
 */

#include <iostream>

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

std::size_t
defaultRequests(wl::App app)
{
    switch (app) {
      case wl::App::WebServer: return 700;
      case wl::App::Tpcc: return 500;
      case wl::App::Tpch: return 180;
      case wl::App::Rubis: return 400;
      case wl::App::WebWork: return 110;
    }
    return 300;
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv, {"seed", "requests", "jobs", "quiet"});
    const ObsScope obs(cli);
    const std::uint64_t seed = cli.getU64("seed", 1);

    banner("Figure 3",
           "Captured variation: inter-request vs +intra-request",
           "intra-request fluctuations dominate for all applications "
           "except TPCH (uniform long scans)");

    const core::Metric metrics[] = {core::Metric::Cpi,
                                    core::Metric::L2RefsPerIns,
                                    core::Metric::L2MissRatio};

    stats::Table t({"application", "metric", "inter-request CoV",
                    "with intra CoV", "intra/inter"});

    ScenarioConfig base;
    base.seed = seed;
    ScenarioGrid grid(base);
    // App-specific sampling periods per Sec. 3.1 (the scenario
    // default already applies 10 us / 100 us / 1 ms).
    grid.apps(wl::allApps()).finalize([&](ScenarioConfig &c) {
        c.requests = cli.getCount("requests", defaultRequests(c.app));
        c.warmup = c.requests / 10;
    });
    const auto results =
        ParallelRunner(runnerOptions(cli)).run(grid.jobs());

    for (std::size_t ai = 0; ai < wl::allApps().size(); ++ai) {
        const wl::App app = wl::allApps()[ai];
        const auto &res = results[ai].result;

        for (core::Metric m : metrics) {
            const auto cov = covInterIntra(res.records, m);
            t.addRow({wl::appDisplayName(app), core::metricName(m),
                      stats::Table::fmt(cov.inter),
                      stats::Table::fmt(cov.withIntra),
                      stats::Table::fmt(cov.withIntra /
                                        std::max(cov.inter, 1e-9))});
        }
    }

    t.print(std::cout);
    std::cout << "\n";
    measured("the intra/inter ratio should be clearly above 1 for "
             "web server, TPCC, RUBiS, WeBWorK and near 1 for TPCH");
    return 0;
}
