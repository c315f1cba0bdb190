/**
 * @file
 * Contention-easing scheduling implementation.
 */

#include "core/sched/contention.hh"

#include "obs/obs.hh"
#include "sim/types.hh"

namespace rbv::core {

ContentionEasingPolicy::ContentionEasingPolicy(ContentionConfig cfg)
    : cfg(cfg)
{
}

void
ContentionEasingPolicy::attachSampler(os::Kernel &kernel,
                                      Sampler &sampler)
{
    sampler.addSampleObserver([this, &kernel](sim::CoreId core,
                                              os::RequestId req,
                                              const Period &p) {
        (void)req;
        const os::ThreadId tid = kernel.runningThread(core);
        if (tid == os::InvalidThreadId || p.instructions <= 0.0)
            return;
        observePeriod(tid, p.cycles, p.l2MissesPerIns());
    });
}

void
ContentionEasingPolicy::observePeriod(os::ThreadId thread,
                                      double cycles,
                                      double misses_per_ins)
{
    if (thread == os::InvalidThreadId)
        return;
    const auto idx = static_cast<std::size_t>(thread);
    if (predictors.size() <= idx)
        predictors.resize(idx + 1);
    if (!predictors[idx]) {
        predictors[idx] = std::make_unique<VaEwmaPredictor>(
            cfg.alpha, cfg.unitTicks);
    }
    predictors[idx]->observe(cycles, misses_per_ins);
}

double
ContentionEasingPolicy::predictionOf(os::ThreadId thread) const
{
    const auto idx = static_cast<std::size_t>(thread);
    if (thread == os::InvalidThreadId || idx >= predictors.size() ||
        !predictors[idx])
        return 0.0;
    return predictors[idx]->predict();
}

std::size_t
ContentionEasingPolicy::pickNext(
    os::Kernel &kernel, sim::CoreId core,
    const std::vector<os::ThreadId> &candidates)
{
    if (candidates.empty())
        return 0;

    // Is any *other* core currently executing a high-usage period?
    bool others_high = false;
    const int n = kernel.machine().numCores();
    for (sim::CoreId c = 0; c < n; ++c) {
        if (c == core)
            continue;
        const os::ThreadId r = kernel.runningThread(c);
        if (r != os::InvalidThreadId && isHigh(r)) {
            others_high = true;
            break;
        }
    }
    if (!others_high)
        return 0; // schedule in the normal fashion

    // Pick the candidate closest to the head that is NOT in a high
    // resource-usage period; give up (index 0) if none exists.
    std::size_t choice = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (!isHigh(candidates[i])) {
            choice = i;
            break;
        }
    }

    // Starvation guard on the head candidate.
    const auto head =
        static_cast<std::size_t>(candidates.front());
    if (headDeferrals.size() <= head)
        headDeferrals.resize(head + 1, 0);
    if (choice == 0) {
        headDeferrals[head] = 0;
        return 0;
    }
    if (++headDeferrals[head] > cfg.maxHeadDeferrals) {
        headDeferrals[head] = 0;
        return 0;
    }
    RBV_COUNT(SchedContentionDeferrals, 1);
    rbv::obs::simInstant(
        "core.sched", "contention_deferral", core,
        sim::cyclesToUs(static_cast<double>(kernel.now())), "choice",
        static_cast<double>(choice));
    return choice;
}

double
ContentionStats::fractionAtLeast(std::size_t k) const
{
    const double total = totalCycles();
    if (total <= 0.0)
        return 0.0;
    double at_least = 0.0;
    for (std::size_t i = k; i < cyclesAtHighCount.size(); ++i)
        at_least += cyclesAtHighCount[i];
    return at_least / total;
}

ContentionMonitor::ContentionMonitor(os::Kernel &kernel,
                                     double threshold,
                                     sim::Tick intervalCycles)
    : kernel(kernel), threshold(threshold), intervalCycles(intervalCycles)
{
    cstats.cyclesAtHighCount.assign(
        static_cast<std::size_t>(kernel.machine().numCores()) + 1, 0.0);
}

void
ContentionMonitor::start()
{
    kernel.eventQueue().scheduleIn(intervalCycles, [this] { tick(); });
}

void
ContentionMonitor::tick()
{
    auto &machine = kernel.machine();
    machine.resync();
    std::size_t high = 0;
    for (sim::CoreId c = 0; c < machine.numCores(); ++c) {
        if (machine.busy(c) &&
            machine.currentMissesPerIns(c) > threshold)
            ++high;
    }
    cstats.cyclesAtHighCount[high] += static_cast<double>(intervalCycles);
    kernel.eventQueue().scheduleIn(intervalCycles, [this] { tick(); });
}

} // namespace rbv::core
