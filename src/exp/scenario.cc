/**
 * @file
 * Scenario runner implementation.
 */

#include "exp/scenario.hh"

#include <algorithm>

#include "fi/session.hh"
#include "obs/obs.hh"
#include "wl/server.hh"

namespace rbv::exp {

namespace {

/**
 * Collects next-syscall gaps per core (Fig. 4). A gap is the wall
 * time / instruction distance between two consecutive syscall entries
 * on a core with no intervening request context switch, so it
 * measures distances within request executions.
 */
class SyscallGapCollector : public os::KernelHooks
{
  public:
    explicit SyscallGapCollector(os::Kernel &kernel)
        : kernel(kernel), state(kernel.machine().numCores())
    {
        kernel.addHooks(this);
    }

    void
    onSyscallEntry(sim::CoreId core, os::ThreadId thread,
                   os::RequestId request, os::Sys sys) override
    {
        (void)thread;
        (void)sys;
        auto &cs = state[core];
        const auto &snap = kernel.machine().counters(core).snapshot();
        const double now =
            static_cast<double>(kernel.eventQueue().now());
        if (cs.valid && request != os::InvalidRequestId) {
            gaps.push_back(SyscallGap{
                now - cs.lastTick, snap.instructions - cs.lastIns});
        }
        cs.valid = request != os::InvalidRequestId;
        cs.lastTick = now;
        cs.lastIns = snap.instructions;
    }

    void
    onRequestSwitch(sim::CoreId core, os::RequestId out,
                    os::RequestId in) override
    {
        (void)out;
        (void)in;
        state[core].valid = false;
    }

    std::vector<SyscallGap> gaps;

  private:
    struct CoreState
    {
        bool valid = false;
        double lastTick = 0.0;
        double lastIns = 0.0;
    };

    os::Kernel &kernel;
    std::vector<CoreState> state;
};

} // namespace

std::unique_ptr<core::Sampler>
makeSampler(const ScenarioConfig &cfg, os::Kernel &kernel,
            double period_us)
{
    core::SamplerConfig sc;
    sc.compensate = cfg.compensate;
    sc.injectObserverCost = cfg.injectObserverCost;
    sc.periodUs = period_us;
    sc.minGapUs = cfg.minGapUs > 0.0 ? cfg.minGapUs : period_us;
    sc.backupUs = cfg.backupUs > 0.0 ? cfg.backupUs
                                     : 8.0 * sc.minGapUs;

    switch (cfg.sampler) {
      case SamplerKind::None:
        return nullptr;
      case SamplerKind::Interrupt:
        return std::make_unique<core::InterruptSampler>(kernel, sc);
      case SamplerKind::Syscall:
        return std::make_unique<core::SyscallSampler>(kernel, sc);
      case SamplerKind::TransitionSignal:
        return std::make_unique<core::TransitionSignalSampler>(
            kernel, sc, cfg.triggers);
      case SamplerKind::BigramTransitionSignal:
        return std::make_unique<core::BigramTransitionSignalSampler>(
            kernel, sc, cfg.bigramTriggers);
    }
    return nullptr;
}

double
effectivePeriodUs(const ScenarioConfig &cfg)
{
    if (cfg.samplingPeriodUs > 0.0)
        return cfg.samplingPeriodUs;
    return wl::makeGenerator(cfg.app)->defaultSamplingPeriodUs();
}

ScenarioResult
runScenario(const ScenarioConfig &cfg)
{
    RBV_PROF_SCOPE(RunScenario);
    auto gen = wl::makeGenerator(cfg.app);
    const double period_us = effectivePeriodUs(cfg);

    // --- Machine & kernel ---
    sim::EventQueue eq;
    sim::MachineConfig mc;
    mc.numCores = cfg.numCores;
    mc.coresPerL2Domain = std::min(2, cfg.numCores);
    if (cfg.l2CapacityMiB > 0.0)
        mc.l2CapacityBytes = cfg.l2CapacityMiB * 1024.0 * 1024.0;
    sim::Machine machine(mc, eq);
    os::Kernel kernel(machine, os::KernelConfig{}, cfg.policy);
    machine.setClient(&kernel);

    // --- Workload ---
    wl::ServerApp app(kernel, gen->tiers());
    wl::LoadDriver::Config dc;
    dc.concurrency = cfg.concurrency > 0
                         ? cfg.concurrency
                         : gen->defaultConcurrency();
    dc.targetRequests = cfg.requests;
    dc.thinkTimeUs = gen->thinkTimeUs();
    wl::LoadDriver driver(kernel, app, *gen,
                          stats::Rng(cfg.seed), dc);

    // --- Instrumentation ---
    std::unique_ptr<core::Sampler> sampler =
        makeSampler(cfg, kernel, period_us);
    if (sampler && cfg.onSamplerReady)
        cfg.onSamplerReady(kernel, *sampler);

    std::unique_ptr<SyscallGapCollector> gapCollector;
    if (cfg.recordSyscallGaps)
        gapCollector = std::make_unique<SyscallGapCollector>(kernel);

    std::unique_ptr<core::ContentionMonitor> monitor;
    if (cfg.monitorThreshold > 0.0) {
        monitor = std::make_unique<core::ContentionMonitor>(
            kernel, cfg.monitorThreshold);
    }

    // --- Fault injection (dormant without a plan) ---
    std::unique_ptr<fi::FaultSession> faultSession;
    if (cfg.faults && cfg.faults->hasScenarioFaults()) {
        faultSession =
            std::make_unique<fi::FaultSession>(*cfg.faults, cfg.seed);
        faultSession->attach(kernel);
        if (sampler)
            sampler->setFaults(faultSession.get());
    }

    // --- Records, built at completion while the spec is alive ---
    // Batch ids are never recycled, so an id counts injections and
    // the first `warmup` of them are skipped.
    ScenarioResult result;
    driver.setCompletionCallback([&](os::RequestId id,
                                     const wl::RequestSpec &spec) {
        if (static_cast<std::size_t>(id) < cfg.warmup)
            return;
        const os::RequestInfo &info = kernel.request(id);
        RequestRecord rec;
        rec.id = id;
        rec.className = spec.className;
        rec.classId = spec.classId;
        rec.totals = info.totals;
        rec.injected = info.injected;
        rec.completed = info.completed;
        rec.syscalls = info.syscalls;
        result.records.push_back(std::move(rec));
    });

    // --- Run ---
    kernel.start();
    if (sampler)
        sampler->start();
    if (monitor)
        monitor->start();
    if (faultSession)
        faultSession->start();
    driver.start();
    eq.runUntil(cfg.maxTicks);

    // --- Collect ---
    result.wallCycles = eq.now();
    result.kernelStats = kernel.stats();
    if (sampler)
        result.samplerStats = sampler->stats();
    if (monitor)
        result.contention = monitor->stats();
    if (gapCollector)
        result.syscallGaps = std::move(gapCollector->gaps);
    if (faultSession)
        result.injections = faultSession->takeLog();
    for (sim::CoreId c = 0; c < machine.numCores(); ++c)
        result.busyCycles += machine.counters(c).snapshot().cycles;

    // Timelines are taken at the end of the run: a worker's
    // post-reply periods still land on the request it replied for.
    std::sort(result.records.begin(), result.records.end(),
              [](const RequestRecord &a, const RequestRecord &b) {
                  return a.id < b.id;
              });
    if (sampler) {
        std::vector<core::Timeline> timelines =
            sampler->takeTimelines();
        for (RequestRecord &rec : result.records) {
            const auto idx = static_cast<std::size_t>(rec.id);
            if (idx < timelines.size())
                rec.timeline = std::move(timelines[idx]);
        }
    }

    return result;
}

} // namespace rbv::exp
