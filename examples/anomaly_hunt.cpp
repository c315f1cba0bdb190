/**
 * @file
 * Anomaly hunting (the Sec. 4.3 workflow as a downstream user would
 * run it): execute a decision-support workload on the shared-cache
 * multicore, group requests by query, flag the request least like
 * its group, and diagnose it against the group-centroid reference.
 *
 *   ./build/examples/anomaly_hunt [--requests 150] [--app tpch]
 */

#include <iostream>
#include <map>

#include "core/model/anomaly.hh"
#include "core/model/distance.hh"
#include "exp/analysis.hh"
#include "exp/cli.hh"
#include "exp/obsio.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "stats/table.hh"

using namespace rbv;

int
main(int argc, char **argv)
{
    const exp::Cli cli(argc, argv,
                       {"app", "requests", "seed", "jobs", "quiet"});
    const exp::ObsScope obs(cli);

    exp::ScenarioConfig cfg;
    cfg.app = wl::appFromName(cli.getStr("app", "tpch"));
    cfg.requests = cli.getU64("requests", 150);
    cfg.warmup = cfg.requests / 10;
    cfg.seed = cli.getU64("seed", 3);
    const auto results = exp::ParallelRunner(exp::runnerOptions(cli))
                             .run(exp::ScenarioGrid(cfg).jobs());
    const auto &res = results.front().result;

    // Group requests by class (same application-level semantics and
    // instruction stream, e.g. the same SQL query).
    std::map<std::string, std::vector<const exp::RequestRecord *>>
        groups;
    for (const auto &r : res.records)
        groups[r.className].push_back(&r);

    std::cout << "scanning " << groups.size()
              << " request classes for anomalies...\n\n";

    stats::Table t({"class", "members", "anomaly id",
                    "anomaly CPI", "reference CPI", "distance"});

    for (const auto &[name, group] : groups) {
        if (group.size() < 4)
            continue; // need a population to define "typical"

        // Build CPI variation series and find the member farthest
        // from the group centroid under DTW + asynchrony penalty.
        const double bin = std::max(
            1.0e4, group.front()->totals.instructions / 40.0);
        std::vector<core::MetricSeries> series;
        for (const auto *r : group)
            series.push_back(core::binByInstructions(
                r->timeline, bin, core::Metric::Cpi));

        stats::Rng prng(cfg.seed);
        const double penalty = core::lengthPenalty(series, prng);
        const auto det = core::detectCentroidAnomaly(series, penalty);

        const auto *anom = group[det.anomaly];
        const auto *ref = group[det.centroid];
        t.addRow({name, std::to_string(group.size()),
                  std::to_string(anom->id),
                  stats::Table::fmt(anom->cpi()),
                  stats::Table::fmt(ref->cpi()),
                  stats::Table::fmt(det.distance, 2)});
    }

    t.print(std::cout);
    std::cout
        << "\nDiagnosis hint (Sec. 4.3): when an anomaly's CPI "
           "inflation tracks its\nL2 misses/instruction inflation, "
           "the shared L2 is the culprit; when its\nL2 reference "
           "rate also rose, suspect software-level contention "
           "(extra\ninstructions under lock contention).\n";
    return 0;
}
