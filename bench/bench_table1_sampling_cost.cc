/**
 * @file
 * Table 1: per-sampling average cost and additional event counts,
 * for in-kernel and interrupt sampling contexts, under the two
 * calibration microbenchmarks (Mbench-Spin, Mbench-Data).
 *
 * Methodology (mirroring the paper's): run each microbenchmark for a
 * fixed wall duration with and without counter sampling at a fixed
 * rate. The per-sample time cost is measured by timing the sampling
 * routine itself (the sampler's overhead ledger — the analogue of an
 * rdtsc pair around the handler); the additional event counts per
 * sample are the counter deltas between the two runs corrected for
 * the workload events the sampling time displaced.
 */

#include <functional>
#include <iostream>

#include "core/sampling/sampler.hh"
#include "exp/cli.hh"
#include "exp/obsio.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "os/kernel.hh"
#include "stats/table.hh"
#include "wl/mbench.hh"

using namespace rbv;
using namespace rbv::core;

namespace {

/** Expose takeSample so the bench can force samples in a context. */
class ForcedSampler : public Sampler
{
  public:
    using Sampler::Sampler;

    void
    force(sim::CoreId core, SampleContext ctx)
    {
        takeSample(core,
                   ctx == SampleContext::InKernel
                       ? SampleTrigger::Syscall
                       : SampleTrigger::Interrupt,
                   ctx);
    }
};

struct RunResult
{
    sim::CounterSnapshot counters;
    double overheadCycles = 0.0;
    std::uint64_t samples = 0;
};

/** Run one microbenchmark for @p duration, optionally sampled. */
RunResult
run(wl::Mbench which, SampleContext ctx, bool sampled,
    sim::Tick duration)
{
    sim::EventQueue eq;
    sim::MachineConfig mc;
    mc.numCores = 1;
    mc.coresPerL2Domain = 1;
    sim::Machine machine(mc, eq);
    os::Kernel kernel(machine);
    machine.setClient(&kernel);

    kernel.createThread(kernel.createProcess("mbench"),
                        std::make_unique<wl::MbenchLogic>(which));

    SamplerConfig sc;
    sc.recordTimelines = false;
    ForcedSampler sampler(kernel, sc);

    kernel.start();

    RunResult result;
    const sim::Tick period = sim::usToCycles(100.0);
    std::function<void()> tick = [&] {
        sampler.force(0, ctx);
        ++result.samples;
        eq.scheduleIn(period, tick);
    };
    if (sampled)
        eq.scheduleIn(period, tick);

    eq.runUntil(duration);
    machine.resync();

    result.counters = machine.counters(0).snapshot();
    result.overheadCycles = sampler.stats().overheadCycles;
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const exp::Cli cli(argc, argv, {"ms", "jobs", "quiet"});
    const exp::ObsScope obs(cli);
    const double run_ms = cli.getTime("ms", 200.0, sim::msToCycles(1.0));
    const sim::Tick duration = sim::msToCycles(run_ms);

    exp::banner(
        "Table 1", "Per-sampling cost and additional event counts",
        "in-kernel: 0.42-0.46 us, 1270-1374 cycles, 649 ins, "
        "0-13 L2 refs; interrupt: 0.76-0.80 us, 2276-2388 cycles, "
        "724-734 ins, 0-12 L2 refs");

    // The eight microbenchmark runs (context x workload x sampled)
    // are independent simulations; fan them out through the engine's
    // index-merged map so the table rows stay in the paper's order.
    constexpr SampleContext Ctxs[] = {SampleContext::InKernel,
                                      SampleContext::Interrupt};
    constexpr wl::Mbench Mbs[] = {wl::Mbench::Spin, wl::Mbench::Data};
    const exp::ParallelRunner runner(exp::runnerOptions(cli));
    const auto runs = runner.map(8, [&](std::size_t i) {
        return run(Mbs[(i / 2) % 2], Ctxs[i / 4], i % 2 == 1,
                   duration);
    });

    stats::Table t({"context", "workload", "time cost", "cycles",
                    "ins", "L2 ref", "L2 miss"});

    for (std::size_t ci = 0; ci < 4; ++ci) {
        const SampleContext ctx = Ctxs[ci / 2];
        const wl::Mbench mb = Mbs[ci % 2];
        {
            const auto &base = runs[ci * 2];
            const auto &with = runs[ci * 2 + 1];
            const double n = static_cast<double>(with.samples);

            // Time cost per sample, from timing the handler.
            const double per_cycles = with.overheadCycles / n;

            // Additional events per sample: both runs span the same
            // wall time, so the sampled run displaced
            // per_cycles / wl_cpi workload instructions per sample
            // (and their L2 events); the injected events are the
            // run-to-run delta plus that displacement.
            const auto &b = base.counters;
            const auto &w = with.counters;
            const double wl_cpi = b.cycles / b.instructions;
            const double wl_refs_per_ins = b.l2Refs / b.instructions;
            const double wl_miss_per_ins =
                b.l2Misses / b.instructions;
            const double displaced_ins = per_cycles / wl_cpi;

            const double ins_per =
                (w.instructions - b.instructions) / n + displaced_ins;
            const double refs_per = (w.l2Refs - b.l2Refs) / n +
                                    displaced_ins * wl_refs_per_ins;
            const double miss_per = (w.l2Misses - b.l2Misses) / n +
                                    displaced_ins * wl_miss_per_ins;

            t.addRow({ctx == SampleContext::InKernel ? "in-kernel"
                                                     : "interrupt",
                      mb == wl::Mbench::Spin ? "Mbench-Spin"
                                             : "Mbench-Data",
                      stats::Table::fmt(sim::cyclesToUs(per_cycles),
                                        2) +
                          " us",
                      stats::Table::fmt(per_cycles, 0),
                      stats::Table::fmt(ins_per, 0),
                      refs_per < 0.5 ? "N/M"
                                     : stats::Table::fmt(refs_per, 0),
                      miss_per < 0.5
                          ? "N/M"
                          : stats::Table::fmt(miss_per, 0)});
        }
    }

    t.print(std::cout);
    std::cout << "\n";
    exp::measured("the pollution-dependent rise from Spin to Data and "
                  "the interrupt-context premium must both appear");
    return 0;
}
