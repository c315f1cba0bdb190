/**
 * @file
 * Figure 2: behavior variations within a single request execution,
 * one representative request per application.
 *
 * For each application the bench picks a representative request
 * (matching the paper's choices where they are named: a TPCC
 * "new order" transaction, TPCH Q20, RUBiS SearchItemsByCategory, a
 * WeBWorK request) and prints its CPI, L2 references/instruction,
 * and L2 miss-ratio series over the request's progress in
 * instructions.
 */

#include <algorithm>
#include <iostream>

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

namespace {

/** The class the paper shows for each application. */
std::string
representativeClass(wl::App app)
{
    switch (app) {
      case wl::App::WebServer: return "web.class2";
      case wl::App::Tpcc: return "tpcc.new_order";
      case wl::App::Tpch: return "tpch.q20";
      case wl::App::Rubis: return "rubis.SearchItemsByCategory";
      case wl::App::WebWork: return ""; // any (longest picked below)
    }
    return "";
}

std::size_t
defaultRequests(wl::App app)
{
    switch (app) {
      case wl::App::Tpch: return 120;
      case wl::App::WebWork: return 60;
      default: return 300;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv, {"seed", "requests", "rows", "csv",
                               "jobs", "quiet"});
    const ObsScope obs(cli);
    const std::uint64_t seed = cli.getU64("seed", 1);
    const auto max_rows =
        static_cast<std::size_t>(cli.getCount("rows", 24));

    banner("Figure 2", "Intra-request behavior variation examples",
           "significant metric variation over the course of request "
           "executions; request lengths range from ~10^5 (web) to "
           "~6x10^8 (WeBWorK) instructions");

    ScenarioConfig base;
    base.seed = seed;
    ScenarioGrid grid(base);
    grid.apps(wl::allApps()).finalize([&](ScenarioConfig &c) {
        c.requests = cli.getCount("requests", defaultRequests(c.app));
        c.warmup = c.requests / 10;
    });
    const auto results =
        ParallelRunner(runnerOptions(cli)).run(grid.jobs());

    for (std::size_t ai = 0; ai < wl::allApps().size(); ++ai) {
        const wl::App app = wl::allApps()[ai];
        const auto &res = results[ai].result;

        // Pick the representative request: the longest member of the
        // representative class (or the longest overall).
        const std::string want = representativeClass(app);
        const RequestRecord *pick = nullptr;
        for (const auto &r : res.records) {
            if (!want.empty() && r.className != want)
                continue;
            if (!pick || r.totals.instructions >
                             pick->totals.instructions)
                pick = &r;
        }
        if (!pick) {
            std::cout << wl::appDisplayName(app)
                      << ": no request of class " << want << "\n";
            continue;
        }

        const double total = pick->totals.instructions;
        const double bin =
            total / static_cast<double>(max_rows);
        const auto cpi = core::binByInstructions(
            pick->timeline, bin, core::Metric::Cpi);
        const auto refs = core::binByInstructions(
            pick->timeline, bin, core::Metric::L2RefsPerIns);
        const auto miss = core::binByInstructions(
            pick->timeline, bin, core::Metric::L2MissRatio);

        std::cout << wl::appDisplayName(app) << " — "
                  << pick->className << ", "
                  << stats::Table::fmt(total / 1e6, 2)
                  << "M instructions, " << pick->timeline.periods.size()
                  << " sampled periods:\n";
        stats::Table t({"progress (Mins)", "cycles/ins",
                        "L2 refs/ins", "L2 miss ratio"});
        const std::size_t n = std::min(
            {cpi.size(), refs.size(), miss.size()});
        for (std::size_t i = 0; i < n; ++i) {
            t.addRow({stats::Table::fmt((i + 0.5) * bin / 1e6, 3),
                      stats::Table::fmt(cpi[i]),
                      stats::Table::fmt(refs[i], 4),
                      stats::Table::fmt(miss[i], 4)});
        }
        if (cli.has("csv"))
            t.printCsv(std::cout);
        else
            t.print(std::cout);

        // Quantify the variation at fine granularity (the displayed
        // rows average over wide bins; the paper's plots resolve
        // roughly 1/400 of the request).
        const double fine_bin = std::max(total / 400.0, 1.0e4);
        const auto fine = core::binByInstructions(
            pick->timeline, fine_bin, core::Metric::Cpi);
        stats::OnlineMeanVar mv;
        for (double v : fine)
            mv.add(v);
        measured(wl::appDisplayName(app) + " intra-request CPI range " +
                 stats::Table::fmt(*std::min_element(fine.begin(),
                                                     fine.end())) +
                 " .. " +
                 stats::Table::fmt(*std::max_element(fine.begin(),
                                                     fine.end())) +
                 ", std/mean " +
                 stats::Table::fmt(mv.stddev() / mv.mean()) +
                 " at " + stats::Table::fmt(fine_bin / 1e6, 2) +
                 "M-instruction resolution");
        std::cout << "\n";
    }
    return 0;
}
