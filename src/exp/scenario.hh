/**
 * @file
 * End-to-end experiment scenarios: build machine + kernel + workload
 * + sampler (+ policy, + monitors), run to a target request count,
 * and return per-request records plus subsystem statistics.
 *
 * Every bench binary and most integration tests go through
 * runScenario(); the configuration captures everything a paper
 * experiment varies.
 */

#ifndef RBV_EXP_SCENARIO_HH
#define RBV_EXP_SCENARIO_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sampling/sampler.hh"
#include "core/sched/contention.hh"
#include "fi/injection.hh"
#include "os/kernel.hh"
#include "wl/apps.hh"

namespace rbv::exp {

/** Which sampler to attach. */
enum class SamplerKind
{
    None,
    Interrupt,
    Syscall,
    TransitionSignal,
    BigramTransitionSignal,
};

/** One observed next-syscall gap (Fig. 4). */
struct SyscallGap
{
    double cycles = 0.0;
    double instructions = 0.0;
};

/** Full configuration of one scenario run. */
struct ScenarioConfig
{
    wl::App app = wl::App::Tpcc;
    int numCores = 4;

    /** Shared L2 capacity per domain in MiB; <= 0 keeps the
     *  platform default (4 MiB), > 0 models a hypothetical part
     *  (offline platform projection, Sec. 4). */
    double l2CapacityMiB = -1.0;

    std::uint64_t seed = 1;

    /** Completed requests to run (including warmup). */
    std::size_t requests = 300;

    /** Requests excluded from the records: the first `warmup`
     *  injected, whether or not they complete first. */
    std::size_t warmup = 20;

    /** Closed-loop users; -1 uses the generator default. */
    int concurrency = -1;

    SamplerKind sampler = SamplerKind::Interrupt;

    /** Interrupt period; -1 uses the app default (Sec. 3.1). */
    double samplingPeriodUs = -1.0;

    /** T_syscall_min; -1 derives it from the sampling period. */
    double minGapUs = -1.0;

    /** T_backup_int; -1 derives it (8x the minimum gap). */
    double backupUs = -1.0;

    /** Trigger set for SamplerKind::TransitionSignal. */
    std::vector<os::Sys> triggers;

    /** Trigger set for SamplerKind::BigramTransitionSignal. */
    std::vector<core::BigramTransitionSignalSampler::Bigram>
        bigramTriggers;

    bool compensate = true;
    bool injectObserverCost = true;

    /** Record next-syscall gaps (Fig. 4). */
    bool recordSyscallGaps = false;

    /** Scheduling policy; null = round-robin. */
    std::shared_ptr<os::SchedulerPolicy> policy;

    /** Called once the sampler exists (e.g., to attach a policy). */
    std::function<void(os::Kernel &, core::Sampler &)> onSamplerReady;

    /** Attach a ContentionMonitor at this misses/ins threshold
     *  (<= 0 disables). */
    double monitorThreshold = -1.0;

    /** Hard wall-clock cap in cycles. */
    sim::Tick maxTicks = sim::msToCycles(600.0 * 1000.0);

    /**
     * Fault-injection plan (rbv::fi); null = no faults. The plan is
     * immutable and may be shared across grid jobs; each run builds
     * a private FaultSession seeded from this scenario's seed, so
     * injections are deterministic at any --jobs level.
     */
    std::shared_ptr<const fi::FaultPlan> faults;
};

/** Everything recorded about one completed request. */
struct RequestRecord
{
    os::RequestId id = os::InvalidRequestId;
    std::string className;
    int classId = 0;

    sim::CounterSnapshot totals; ///< Exact kernel attribution.
    sim::Tick injected = 0;
    sim::Tick completed = 0;

    std::vector<os::Sys> syscalls;
    core::Timeline timeline; ///< Sampled periods.

    double
    cpi() const
    {
        return totals.instructions > 0.0
                   ? totals.cycles / totals.instructions
                   : 0.0;
    }

    double cpuCycles() const { return totals.cycles; }
};

/** Outcome of one scenario run. */
struct ScenarioResult
{
    std::vector<RequestRecord> records;

    core::SamplerStats samplerStats;
    core::ContentionStats contention;
    os::KernelStats kernelStats;

    sim::Tick wallCycles = 0;
    double busyCycles = 0.0;
    std::vector<SyscallGap> syscallGaps;

    /** Deterministic injection log (empty without a fault plan). */
    std::vector<fi::Injection> injections;

    /** Injected sampling cycles / total busy cycles. */
    double
    samplingOverheadFraction() const
    {
        return busyCycles > 0.0
                   ? samplerStats.overheadCycles / busyCycles
                   : 0.0;
    }
};

/** Build, run, and tear down one scenario. */
ScenarioResult runScenario(const ScenarioConfig &cfg);

/** Resolve the effective interrupt period of a config (us). */
double effectivePeriodUs(const ScenarioConfig &cfg);

/**
 * Build the sampler a config asks for (null for SamplerKind::None).
 * Shared between runScenario() and the serving loop so both modes
 * attach identical instrumentation.
 */
std::unique_ptr<core::Sampler> makeSampler(const ScenarioConfig &cfg,
                                           os::Kernel &kernel,
                                           double period_us);

} // namespace rbv::exp

#endif // RBV_EXP_SCENARIO_HH
