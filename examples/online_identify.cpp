/**
 * @file
 * Online request identification (Sec. 4.4 as a service operator
 * would deploy it): build a bank of request signatures from live
 * traffic, then identify each new request from the first slice of
 * its execution and predict whether it will be CPU-heavy — long
 * before it completes.
 *
 *   ./build/examples/online_identify [--app rubis] [--requests 500]
 */

#include <iostream>

#include "core/model/signature.hh"
#include "exp/analysis.hh"
#include "exp/cli.hh"
#include "exp/obsio.hh"
#include "exp/scenario.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace rbv;

int
main(int argc, char **argv)
{
    const exp::Cli cli(argc, argv, {"app", "requests", "seed"});
    const exp::ObsScope obs(cli);

    exp::ScenarioConfig cfg;
    cfg.app = wl::appFromName(cli.getStr("app", "rubis"));
    cfg.requests = cli.getU64("requests", 500);
    cfg.warmup = cfg.requests / 20;
    cfg.seed = cli.getU64("seed", 9);
    const auto res = exp::runScenario(cfg);

    // Signature form: the variation pattern of L2 references per
    // instruction — an inherent-behavior metric that dynamic L2
    // contention barely distorts, so signatures stay valid across
    // co-runner mixes.
    const double unit = exp::defaultBinIns(res.records, 12);
    const double median_cpu =
        stats::quantile(exp::requestCpuCycles(res.records), 0.5);

    // Train on the first half of the traffic.
    const std::size_t split = res.records.size() / 2;
    core::SignatureBank bank(unit);
    for (std::size_t i = 0; i < split; ++i) {
        const auto &r = res.records[i];
        bank.add(core::binByInstructions(r.timeline, unit,
                                         core::Metric::L2RefsPerIns),
                 r.cpuCycles(), r.classId);
    }
    std::cout << "signature bank: " << bank.size()
              << " entries, bin width "
              << stats::Table::fmt(unit / 1e3, 0)
              << "K instructions\n\n";

    // Identify the second half from 25% request prefixes.
    std::size_t class_hits = 0, cpu_hits = 0, total = 0;
    stats::Table t({"request", "class", "matched class",
                    "CPU prediction", "actual"});
    for (std::size_t i = split; i < res.records.size(); ++i) {
        const auto &r = res.records[i];
        const auto prefix = core::binPrefixByInstructions(
            r.timeline, unit, r.totals.instructions * 0.25,
            core::Metric::L2RefsPerIns);
        const auto hit = bank.identify(prefix);
        if (hit == core::SignatureBank::npos)
            continue;
        ++total;

        const auto &entry = bank.entry(hit);
        const bool pred_heavy = entry.cpuCycles > median_cpu;
        const bool is_heavy = r.cpuCycles() > median_cpu;
        class_hits += entry.classId == r.classId;
        cpu_hits += pred_heavy == is_heavy;

        if (t.numRows() < 12) {
            t.addRow({std::to_string(r.id), r.className,
                      std::to_string(entry.classId),
                      pred_heavy ? "heavy" : "light",
                      is_heavy ? "heavy" : "light"});
        }
    }

    t.print(std::cout);
    std::cout << "\nidentified " << total
              << " requests from 25% prefixes:\n  class match rate  "
              << stats::Table::pct(
                     static_cast<double>(class_hits) / total, 1)
              << "\n  CPU-weight prediction accuracy  "
              << stats::Table::pct(
                     static_cast<double>(cpu_hits) / total, 1)
              << "\n";
    std::cout << "\nUse the prediction to gate admission, pick a "
                 "queue, or pre-reserve\nresources before the "
                 "request has consumed them.\n";
    return 0;
}
