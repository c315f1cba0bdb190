/**
 * @file
 * Quickstart: run a server workload on the simulated multicore
 * machine, track per-request behavior variations online, and inspect
 * the results — the library's core loop in ~80 lines.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [--app tpcc] [--requests 200]
 */

#include <iostream>

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

    // 1. Configure a scenario: which application, how many cores,
    //    how many requests, and which sampler. Everything else
    //    (workload mix, sampling period, closed-loop concurrency)
    //    defaults to the paper's setup for that application.
    exp::ScenarioConfig cfg;
    cfg.app = wl::appFromName(cli.getStr("app", "tpcc"));
    cfg.requests = cli.getCount("requests", 200);
    cfg.warmup = cfg.requests / 10;
    cfg.seed = cli.getU64("seed", 42);
    cfg.sampler = exp::SamplerKind::Syscall; // cheap in-kernel samples

    // 2. Run it. This builds the 4-core machine (shared L2 per
    //    socket), the kernel, the server tiers, and the load driver;
    //    attaches the sampler; and runs until the target number of
    //    requests completed.
    const auto res = exp::runScenario(cfg);

    // 3. Per-request records: exact kernel-attributed counter totals
    //    plus the sampled behavior timeline of every request.
    std::cout << "completed " << res.records.size()
              << " requests on " << cfg.numCores << " cores in "
              << stats::Table::fmt(
                     sim::cyclesToMs(
                         static_cast<double>(res.wallCycles)),
                     1)
              << " ms simulated time\n";
    std::cout << "sampling overhead: "
              << stats::Table::pct(res.samplingOverheadFraction(), 2)
              << " of CPU ("
              << res.samplerStats.totalSamples() << " samples)\n\n";

    const auto cpis = exp::requestCpis(res.records);
    std::cout << "request CPI: mean "
              << stats::Table::fmt(stats::mean(cpis)) << ", 90-pct "
              << stats::Table::fmt(stats::quantile(cpis, 0.9))
              << "\n";

    // 4. The paper's Eq. 1: how much variation did we capture, and
    //    how much of it lives *inside* requests?
    const auto cov =
        exp::covInterIntra(res.records, core::Metric::Cpi);
    std::cout << "CPI variation: inter-request CoV "
              << stats::Table::fmt(cov.inter)
              << ", with intra-request fluctuations "
              << stats::Table::fmt(cov.withIntra) << "\n\n";

    // 5. Inspect one request's behavior timeline, resampled into
    //    fixed instruction bins (a Fig. 2-style view).
    const auto &rec = res.records[res.records.size() / 2];
    std::cout << "timeline of " << rec.className << " (#" << rec.id
              << ", "
              << stats::Table::fmt(rec.totals.instructions / 1e6, 2)
              << "M instructions):\n";
    const double bin = rec.totals.instructions / 8.0;
    const auto series = core::binByInstructions(rec.timeline, bin,
                                                core::Metric::Cpi);
    for (std::size_t i = 0; i < series.size(); ++i) {
        std::cout << "  [" << i << "] CPI "
                  << stats::Table::fmt(series[i]) << "\n";
    }
    return 0;
}
