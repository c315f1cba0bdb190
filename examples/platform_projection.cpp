/**
 * @file
 * Offline platform projection (the Sec. 4 motivation and the paper's
 * future-work direction): use the characterized request workload to
 * project per-class performance onto hypothetical processor/memory
 * platforms — here, parts with different shared-L2 capacities.
 *
 *   ./build/examples/platform_projection [--app tpch] [--requests 120]
 */

#include <iostream>
#include <map>

#include "exp/analysis.hh"
#include "exp/cli.hh"
#include "exp/obsio.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace rbv;

namespace {

/** Per-class mean CPI of a run. */
std::map<std::string, double>
classCpis(const std::vector<exp::RequestRecord> &records)
{
    std::map<std::string, std::pair<double, double>> acc;
    for (const auto &r : records) {
        acc[r.className].first += r.totals.cycles;
        acc[r.className].second += r.totals.instructions;
    }
    std::map<std::string, double> out;
    for (const auto &[name, sums] : acc)
        out[name] = sums.first / sums.second;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const exp::Cli cli(argc, argv,
                       {"app", "requests", "seed", "jobs", "quiet"});
    const exp::ObsScope obs(cli);
    const auto app = wl::appFromName(cli.getStr("app", "tpch"));
    const auto requests = cli.getU64("requests", 120);

    // The candidate platforms: the paper's Woodcrest (4 MiB shared
    // L2 per socket), a cheap part (2 MiB), and a successor (8 MiB).
    const std::vector<double> parts = {2.0, 4.0, 8.0};

    exp::ScenarioConfig base;
    base.app = app;
    base.requests = requests;
    base.warmup = requests / 10;
    base.seed = cli.getU64("seed", 11);
    exp::ScenarioGrid grid(base);
    grid.sweep("l2", parts, [](exp::ScenarioConfig &c, double l2) {
        c.l2CapacityMiB = l2;
    });
    const auto results = exp::ParallelRunner(exp::runnerOptions(cli))
                             .run(grid.jobs());

    std::map<std::string, std::map<double, double>> projection;
    std::map<double, double> overall;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        const double l2 = parts[i];
        const auto &res = results[i].result;
        for (const auto &[name, cpi] : classCpis(res.records))
            projection[name][l2] = cpi;
        overall[l2] =
            exp::overallMetric(res.records, core::Metric::Cpi);
    }

    std::cout << "projected per-class CPI by shared-L2 capacity ("
              << wl::appDisplayName(app) << ", 4 cores):\n\n";
    stats::Table t({"request class", "2 MiB L2", "4 MiB L2",
                    "8 MiB L2", "8 MiB speedup"});
    for (const auto &[name, by_l2] : projection) {
        if (by_l2.size() < 3)
            continue;
        t.addRow({name, stats::Table::fmt(by_l2.at(2.0)),
                  stats::Table::fmt(by_l2.at(4.0)),
                  stats::Table::fmt(by_l2.at(8.0)),
                  stats::Table::fmt(by_l2.at(4.0) / by_l2.at(8.0),
                                    2) +
                      "x"});
    }
    t.addRow({"(overall)", stats::Table::fmt(overall[2.0]),
              stats::Table::fmt(overall[4.0]),
              stats::Table::fmt(overall[8.0]),
              stats::Table::fmt(overall[4.0] / overall[8.0], 2) +
                  "x"});
    t.print(std::cout);

    std::cout
        << "\nClasses with large working sets gain most from extra "
           "cache; classes\nthat already fit see nothing — which is "
           "exactly the per-class insight\naverage whole-application "
           "profiling cannot give you.\n";
    return 0;
}
