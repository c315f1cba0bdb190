/**
 * @file
 * Figure 10: online request signature identification and CPU usage
 * prediction from partial executions.
 *
 * A bank of representative request signatures (variation patterns of
 * L2 references/instruction — an inherent-behavior metric) is built
 * from the first part of the workload. Each later request is
 * identified online from the prefix of its variation pattern using
 * the cheap L1 distance, and its CPU usage is predicted to be above
 * or below the workload median according to the matched signature.
 *
 * Comparison bases: signatures built from average metric values
 * (Shen et al. [27]) and the conventional recent-past predictor (the
 * average CPU of the 10 most recent requests).
 *
 * Paper findings: variation signatures cut the prediction error by
 * ~10% or more vs. average-value signatures for web, TPCC, TPCH,
 * and RUBiS; both signature forms fail on WeBWorK because all its
 * requests share an identical early execution.
 */

#include <iostream>

#include "core/model/signature.hh"
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

/** Progress unit per application (Fig. 10's X axis). */
double
progressUnitIns(wl::App app)
{
    switch (app) {
      case wl::App::WebServer: return 1.0e4;
      case wl::App::Tpcc: return 3.0e5;
      case wl::App::Tpch: return 1.0e6;
      case wl::App::Rubis: return 2.0e5;
      case wl::App::WebWork: return 1.0e6;
    }
    return 1.0e5;
}

std::size_t
defaultRequests(wl::App app)
{
    switch (app) {
      case wl::App::WebServer: return 1100;
      case wl::App::Tpcc: return 900;
      case wl::App::Tpch: return 420;
      case wl::App::Rubis: return 700;
      case wl::App::WebWork: return 260;
    }
    return 600;
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv,
                  {"seed", "requests", "bank", "jobs", "quiet"});
    const ObsScope obs(cli);
    const std::uint64_t seed = cli.getU64("seed", 1);
    const std::size_t bank_target = cli.getU64("bank", 500);
    constexpr int ProgressPoints = 10;

    banner("Figure 10", "Online request signature identification",
           "variation-pattern signatures reduce prediction error by "
           ">=10% vs average-value signatures on 4 of 5 apps; both "
           "fail on WeBWorK (identical early executions)");

    ScenarioConfig base;
    base.seed = seed;
    ScenarioGrid grid(base);
    grid.apps(wl::allApps()).finalize([&](ScenarioConfig &c) {
        c.requests = cli.getU64("requests", defaultRequests(c.app));
        c.warmup = c.requests / 20;
    });
    const auto results =
        ParallelRunner(runnerOptions(cli)).run(grid.jobs());

    for (std::size_t ai = 0; ai < wl::allApps().size(); ++ai) {
        const wl::App app = wl::allApps()[ai];
        const auto &res = results[ai].result;

        const double unit = progressUnitIns(app);
        const std::size_t bank_n =
            std::min(bank_target, res.records.size() / 2);

        // The prediction threshold: the workload's median CPU usage.
        const double median_cpu = stats::quantile(
            requestCpuCycles(res.records), 0.5);

        // Build the signature bank from the leading requests.
        core::SignatureBank bank(unit);
        for (std::size_t i = 0; i < bank_n; ++i) {
            const auto &r = res.records[i];
            bank.add(core::binByInstructions(
                         r.timeline, unit,
                         core::Metric::L2RefsPerIns),
                     r.cpuCycles(), r.classId);
        }

        // Evaluate on the remaining requests.
        std::vector<int> correct_sig(ProgressPoints, 0);
        std::vector<int> correct_avg(ProgressPoints, 0);
        int correct_past = 0;
        int total = 0;

        core::RecentPastPredictor past(10);
        for (std::size_t i = 0; i < bank_n; ++i)
            past.observe(res.records[i].cpuCycles());

        for (std::size_t i = bank_n; i < res.records.size(); ++i) {
            const auto &r = res.records[i];
            const bool actual_high = r.cpuCycles() > median_cpu;
            ++total;

            // Conventional base: recent past workloads.
            const bool past_high = past.predict() > median_cpu;
            correct_past += past_high == actual_high;
            past.observe(r.cpuCycles());

            for (int p = 0; p < ProgressPoints; ++p) {
                const double max_ins = unit * (p + 1);
                const auto prefix = core::binPrefixByInstructions(
                    r.timeline, unit, max_ins,
                    core::Metric::L2RefsPerIns);
                const auto by_sig = bank.identify(prefix);
                const auto by_avg = bank.identifyByAverage(prefix);
                if (by_sig != core::SignatureBank::npos) {
                    const bool high =
                        bank.entry(by_sig).cpuCycles > median_cpu;
                    correct_sig[p] += high == actual_high;
                }
                if (by_avg != core::SignatureBank::npos) {
                    const bool high =
                        bank.entry(by_avg).cpuCycles > median_cpu;
                    correct_avg[p] += high == actual_high;
                }
            }
        }

        std::cout << wl::appDisplayName(app) << " (bank " << bank_n
                  << ", test " << total << ", progress unit "
                  << stats::Table::fmt(unit / 1e6, 2)
                  << "M instructions):\n";
        stats::Table t({"progress", "past-requests err",
                        "avg-signature err", "variation-sig err"});
        for (int p = 0; p < ProgressPoints; ++p) {
            t.addRow({std::to_string(p + 1),
                      stats::Table::pct(
                          1.0 - static_cast<double>(correct_past) /
                                    total,
                          1),
                      stats::Table::pct(
                          1.0 - static_cast<double>(correct_avg[p]) /
                                    total,
                          1),
                      stats::Table::pct(
                          1.0 - static_cast<double>(correct_sig[p]) /
                                    total,
                          1)});
        }
        t.print(std::cout);
        std::cout << "\n";
    }

    measured("variation-signature error should undercut the "
             "avg-signature error as progress grows (except "
             "WeBWorK, where both hover near 50%)");
    return 0;
}
