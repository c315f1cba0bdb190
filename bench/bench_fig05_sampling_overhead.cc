/**
 * @file
 * Figure 5: overhead of system call-triggered sampling vs
 * interrupt-based sampling at matched overall sampling frequency.
 *
 * Paper findings: syscall-triggered sampling saves 18-38% of the
 * sampling overhead across the five applications; the base cost of
 * interrupt sampling (as a fraction of CPU) is 5.81% / 0.40% /
 * 0.02% / 0.37% / 0.07% for web / TPCC / TPCH / RUBiS / WeBWorK
 * (the spread follows the app-specific sampling periods).
 *
 * As in the paper, T_syscall_min is calibrated per application so
 * that both approaches produce a similar overall sampling frequency,
 * and the bench verifies both capture similar levels of behavior
 * variation.
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
      case wl::App::Tpcc: return 450;
      case wl::App::Tpch: return 140;
      case wl::App::Rubis: return 350;
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

    banner("Figure 5",
           "Sampling overhead: syscall-triggered vs interrupt",
           "syscall-triggered sampling saves 18-38% overhead at "
           "matched sampling frequency");

    const ParallelRunner runner(runnerOptions(cli));
    ScenarioConfig base;
    base.seed = seed;
    const auto perApp = [&](ScenarioConfig &c) {
        c.requests = cli.getU64("requests", defaultRequests(c.app));
        c.warmup = c.requests / 10;
    };

    // Phase 1: interrupt-based sampling at each app's period
    // (Sec. 3.1), all applications concurrently.
    ScenarioGrid igrid(base);
    igrid.apps(wl::allApps()).finalize([&](ScenarioConfig &c) {
        c.sampler = SamplerKind::Interrupt;
        perApp(c);
    });
    const auto int_results = runner.run(igrid.jobs());

    // Phase 2: per-app syscall-triggered calibration — find
    // T_syscall_min so the overall sampling frequency matches the
    // interrupt run, starting from the interrupt period and
    // correcting by the observed ratio. Each app's serial correction
    // chain is one job; the apps run concurrently.
    std::vector<Job> cal_jobs;
    for (std::size_t ai = 0; ai < wl::allApps().size(); ++ai) {
        const wl::App app = wl::allApps()[ai];
        const std::uint64_t int_samples =
            int_results[ai].result.samplerStats.totalSamples();

        Job job;
        job.key = "app=" + wl::appShortName(app) + "/var=syscall";
        job.config = base;
        job.config.app = app;
        perApp(job.config);
        const double period = effectivePeriodUs(job.config);
        job.config.sampler = SamplerKind::Syscall;
        job.config.minGapUs = period;
        job.config.backupUs = 8.0 * period;
        job.body = [int_samples](const ScenarioConfig &start) {
            ScenarioConfig scfg = start;
            auto sr = runScenario(scfg);
            for (int iter = 0; iter < 4; ++iter) {
                const double ratio =
                    static_cast<double>(
                        sr.samplerStats.totalSamples()) /
                    static_cast<double>(int_samples);
                if (ratio > 0.92 && ratio < 1.09)
                    break;
                scfg.minGapUs = std::max(0.25, scfg.minGapUs * ratio);
                scfg.backupUs = 8.0 * scfg.minGapUs;
                sr = runScenario(scfg);
            }
            return sr;
        };
        cal_jobs.push_back(std::move(job));
    }
    const auto sys_results = runner.run(cal_jobs);

    stats::Table t({"application", "interrupt base cost",
                    "int samples", "sys samples", "sys in-kernel %",
                    "normalized cost", "CoV int", "CoV sys"});

    for (std::size_t ai = 0; ai < wl::allApps().size(); ++ai) {
        const wl::App app = wl::allApps()[ai];
        const auto &ir = int_results[ai].result;
        const auto &sr = sys_results[ai].result;

        const double cov_i =
            periodsCov(ir.records, core::Metric::Cpi);
        const double cov_s =
            periodsCov(sr.records, core::Metric::Cpi);

        const double in_kernel_share =
            static_cast<double>(sr.samplerStats.inKernelSamples()) /
            static_cast<double>(sr.samplerStats.totalSamples());

        // Normalize overheads by samples taken, then by the matched
        // frequency (overhead per busy cycle).
        const double norm = sr.samplingOverheadFraction() /
                            ir.samplingOverheadFraction();

        t.addRow({wl::appDisplayName(app),
                  stats::Table::pct(ir.samplingOverheadFraction(), 2),
                  std::to_string(ir.samplerStats.totalSamples()),
                  std::to_string(sr.samplerStats.totalSamples()),
                  stats::Table::pct(in_kernel_share, 0),
                  stats::Table::fmt(norm, 2),
                  stats::Table::fmt(cov_i),
                  stats::Table::fmt(cov_s)});
    }

    t.print(std::cout);
    std::cout << "\n";
    measured("'normalized cost' is the syscall-triggered overhead "
             "relative to interrupt sampling; the paper reports "
             "0.62-0.82 (18-38% savings)");
    return 0;
}
