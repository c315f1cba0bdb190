/**
 * @file
 * Figure 6: two inherently similar TPCC requests whose executions
 * drift apart (shifted peaks) — the motivating case for dynamic time
 * warping over the plain L1 distance.
 *
 * The bench runs a TPCC workload, collects same-type ("new order")
 * requests of similar length, and reports the pair with the largest
 * L1-to-DTW distance ratio: a pair that the L1 distance considers
 * far apart purely because of time shifting, while DTW recognizes
 * the shared shape.
 */

#include <iostream>

#include "core/model/distance.hh"
#include "exp/analysis.hh"
#include "exp/cli.hh"
#include "exp/obsio.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "stats/table.hh"

using namespace rbv;
using namespace rbv::exp;

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv, {"seed", "requests", "jobs", "quiet"});
    const ObsScope obs(cli);
    const std::uint64_t seed = cli.getU64("seed", 1);
    const std::size_t requests = cli.getU64("requests", 400);

    banner("Figure 6", "Similar TPCC requests drifting apart",
           "two inherently similar requests with slightly shifted "
           "peak points: L1 over-estimates their difference, DTW "
           "aligns them");

    ScenarioConfig cfg;
    cfg.app = wl::App::Tpcc;
    cfg.seed = seed;
    cfg.requests = requests;
    cfg.warmup = requests / 10;
    const auto results = ParallelRunner(runnerOptions(cli))
                             .run(ScenarioGrid(cfg).jobs());
    const auto &res = results.front().result;

    // Candidate set: new-order requests.
    std::vector<const RequestRecord *> cand;
    for (const auto &r : res.records)
        if (r.className == "tpcc.new_order")
            cand.push_back(&r);
    if (cand.size() < 2) {
        std::cerr << "not enough new-order requests\n";
        return 1;
    }

    // Fixed 50 K-instruction bins (the figure's resolution).
    const double bin = 5.0e4;
    std::vector<core::MetricSeries> series;
    series.reserve(cand.size());
    for (const auto *r : cand)
        series.push_back(core::binByInstructions(r->timeline, bin,
                                                 core::Metric::Cpi));

    stats::Rng prng(seed);
    const double penalty = core::lengthPenalty(series, prng);

    // Find the similar-length pair with the largest L1/DTW ratio.
    std::size_t best_a = 0, best_b = 1;
    double best_ratio = 0.0;
    for (std::size_t i = 0; i < series.size(); ++i) {
        for (std::size_t j = i + 1; j < series.size(); ++j) {
            const auto &a = series[i];
            const auto &b = series[j];
            if (a.empty() || b.empty())
                continue;
            const double len_ratio =
                static_cast<double>(a.size()) /
                static_cast<double>(b.size());
            if (len_ratio < 0.9 || len_ratio > 1.1)
                continue;
            const double l1 = core::l1Distance(a, b, penalty);
            const double dtw =
                core::dtwDistance(a, b, penalty) + 1e-9;
            const double ratio = l1 / dtw;
            if (ratio > best_ratio) {
                best_ratio = ratio;
                best_a = i;
                best_b = j;
            }
        }
    }

    const auto &sa = series[best_a];
    const auto &sb = series[best_b];
    std::cout << "pair: request #" << cand[best_a]->id << " and #"
              << cand[best_b]->id << " (" << sa.size() << " / "
              << sb.size() << " bins of 50K instructions)\n\n";

    stats::Table t({"progress (Mins)", "request A CPI",
                    "request B CPI"});
    const std::size_t n = std::min(sa.size(), sb.size());
    for (std::size_t i = 0; i < n; ++i) {
        t.addRow({stats::Table::fmt((i + 0.5) * bin / 1e6, 2),
                  stats::Table::fmt(sa[i]),
                  stats::Table::fmt(sb[i])});
    }
    t.print(std::cout);

    std::cout << "\n";
    stats::Table d({"measure", "distance"});
    d.addRow({"L1 (with length penalty)",
              stats::Table::fmt(core::l1Distance(sa, sb, penalty))});
    d.addRow({"DTW (plain)",
              stats::Table::fmt(core::dtwDistance(sa, sb))});
    d.addRow({"DTW (asynchrony penalty)",
              stats::Table::fmt(
                  core::dtwDistance(sa, sb, penalty))});
    d.print(std::cout);

    std::cout << "\n";
    measured("L1/DTW+penalty ratio " +
             stats::Table::fmt(best_ratio, 2) +
             ": the larger the ratio, the stronger the pure time "
             "shift that DTW absorbs");
    return 0;
}
