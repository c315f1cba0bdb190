/**
 * @file
 * Figure 4: cumulative probability of the next system call distance
 * in time (A) and in instruction count (B), for all applications.
 *
 * Paper anchor points: the probability of a system call within 16 us
 * of an arbitrary instant is 97% (web server), 83% (TPCH), 72%
 * (RUBiS); within 1 ms it is 82% (TPCC) and 81% (WeBWorK).
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
      case wl::App::WebServer: return 600;
      case wl::App::Tpcc: return 500;
      case wl::App::Tpch: return 120;
      case wl::App::Rubis: return 400;
      case wl::App::WebWork: return 90;
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

    banner("Figure 4", "Next system call distance distributions",
           "P(<=16us): web 97%, TPCH 83%, RUBiS 72%; "
           "P(<=1ms): TPCC 82%, WeBWorK 81%");

    // The paper's log-scale X axes: 4 us .. 16 ms, 4K .. 16M ins.
    std::vector<double> us_points, ins_points;
    for (double v = 4.0; v <= 16384.0; v *= 4.0)
        us_points.push_back(v);
    for (double v = 4096.0; v <= 16.0e6 * 4; v *= 4.0)
        ins_points.push_back(v);

    stats::Table ta({"application", "4us", "16us", "64us", "256us",
                     "1ms", "4ms", "16ms"});
    stats::Table tb({"application", "4K", "16K", "64K", "256K", "1M",
                     "4M", "16M"});

    ScenarioConfig base;
    base.seed = seed;
    base.recordSyscallGaps = true;
    base.sampler = SamplerKind::None; // unperturbed gaps
    ScenarioGrid grid(base);
    grid.apps(wl::allApps()).finalize([&](ScenarioConfig &c) {
        c.requests = cli.getU64("requests", defaultRequests(c.app));
        c.warmup = c.requests / 10;
    });
    const auto results =
        ParallelRunner(runnerOptions(cli)).run(grid.jobs());

    for (std::size_t ai = 0; ai < wl::allApps().size(); ++ai) {
        const wl::App app = wl::allApps()[ai];
        const auto &res = results[ai].result;

        std::vector<double> us_cycles;
        for (double v : us_points)
            us_cycles.push_back(
                static_cast<double>(sim::usToCycles(v)));
        const auto cdf_t =
            syscallGapCdf(res.syscallGaps, us_cycles, true);
        const auto cdf_i =
            syscallGapCdf(res.syscallGaps, ins_points, false);

        std::vector<std::string> row_t = {wl::appDisplayName(app)};
        for (std::size_t i = 0; i < 7 && i < cdf_t.size(); ++i)
            row_t.push_back(stats::Table::pct(cdf_t[i], 0));
        ta.addRow(row_t);

        std::vector<std::string> row_i = {wl::appDisplayName(app)};
        for (std::size_t i = 0; i < 7 && i < cdf_i.size(); ++i)
            row_i.push_back(stats::Table::pct(cdf_i[i], 0));
        tb.addRow(row_i);
    }

    std::cout << "(A) distances in time (cumulative probability):\n";
    ta.print(std::cout);
    std::cout << "\n(B) distances in instruction count:\n";
    tb.print(std::cout);
    std::cout << "\n";
    measured("compare the 16us column (web/TPCH/RUBiS) and the 1ms "
             "column (TPCC/WeBWorK) to the paper's anchors");
    return 0;
}
