/**
 * @file
 * Sampler implementations.
 */

#include "core/sampling/sampler.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/obs.hh"
#include "sim/types.hh"

namespace rbv::core {

namespace {

/** Periods with fewer instructions than this are not recorded. */
constexpr double MinPeriodIns = 1.0;

const Timeline EmptyTimeline{};

/**
 * Clamp non-finite / regressed delta fields to zero. Returns whether
 * the delta was meaningfully tampered with (tiny negative rounding
 * residues are clamped but not flagged). Only reachable with a fault
 * layer attached: fault-free deltas are non-negative by the counter
 * monotonicity invariant.
 */
bool
sanitizeDelta(sim::CounterSnapshot &delta)
{
    bool tampered = false;
    for (double *f : {&delta.cycles, &delta.instructions, &delta.l2Refs,
                      &delta.l2Misses}) {
        if (!std::isfinite(*f)) {
            *f = 0.0;
            tampered = true;
        } else if (*f < 0.0) {
            tampered = tampered || *f < -1e-6;
            *f = 0.0;
        }
    }
    return tampered;
}

} // namespace

Sampler::Sampler(os::Kernel &kernel, SamplerConfig cfg)
    : kernel(kernel), machine(kernel.machine()), cfg(cfg),
      coreState(machine.numCores())
{
    kernel.addHooks(this);
}

const Timeline &
Sampler::timelineOf(os::RequestId id) const
{
    const auto idx = static_cast<std::size_t>(id);
    if (id == os::InvalidRequestId || idx >= timelines.size())
        return EmptyTimeline;
    return timelines[idx];
}

Timeline
Sampler::takeTimeline(os::RequestId id)
{
    const auto idx = static_cast<std::size_t>(id);
    if (id == os::InvalidRequestId || idx >= timelines.size())
        return Timeline{};
    Timeline out = std::move(timelines[idx]);
    timelines[idx] = Timeline{};
    return out;
}

double
Sampler::sinceLastSample(sim::CoreId core) const
{
    return static_cast<double>(kernel.now() -
                               coreState[core].lastTick);
}

void
Sampler::takeSample(sim::CoreId core, SampleTrigger trigger,
                    SampleContext ctx)
{
    CoreSampleState &cs = coreState[core];
    auto snap = machine.counters(core).snapshot();
    bool tampered = false;
    if (faults != nullptr)
        tampered = faults->transformSnapshot(core, snap);
    auto delta = snap - cs.lastSnap;

    // "Do no harm" compensation: the period contains the events the
    // previous sample injected; subtract that context's minimum row.
    if (cfg.compensate && cs.hasPrev && cfg.injectObserverCost) {
        const ObserverProfile comp = observerCompensation(cs.lastCtx);
        delta.cycles = std::max(0.0, delta.cycles - comp.cycles);
        delta.instructions =
            std::max(0.0, delta.instructions - comp.instructions);
        delta.l2Refs = std::max(0.0, delta.l2Refs - comp.l2Refs);
        delta.l2Misses =
            std::max(0.0, delta.l2Misses - comp.l2Misses);
    }

    // Degrade gracefully, never silently: corrupted or saturated
    // reads are clamped to a defined value and the period is flagged
    // suspect rather than recorded as garbage.
    if (faults != nullptr && sanitizeDelta(delta))
        tampered = true;

    const os::RequestId req = kernel.currentRequest(core);

    if (delta.instructions >= MinPeriodIns) {
        RBV_HIST(SamplingPeriodCycles, delta.cycles);
        rbv::obs::simInstant(
            "core.sampling", "sample", core,
            sim::cyclesToUs(static_cast<double>(kernel.now())),
            "misses_per_ins",
            delta.l2Misses / std::max(delta.instructions, 1.0));
        Period p;
        p.instructions = delta.instructions;
        p.cycles = delta.cycles;
        p.l2Refs = delta.l2Refs;
        p.l2Misses = delta.l2Misses;
        p.wallStart = cs.lastTick;
        p.trigger = trigger;
        p.gapBefore = cs.gapPending;
        p.suspect = tampered;
        if (cs.gapPending)
            ++sstats.gapCount;
        if (tampered)
            ++sstats.suspectCount;
        cs.gapPending = false;

        if (cfg.recordTimelines && req != os::InvalidRequestId) {
            const auto idx = static_cast<std::size_t>(req);
            if (timelines.size() <= idx)
                timelines.resize(idx + 1);
            timelines[idx].request = req;
            timelines[idx].periods.push_back(p);
        }
        for (const auto &obs : observers)
            obs(core, req, p);
    }

    // Inject this sample's observer cost; it lands in the next period.
    if (cfg.injectObserverCost) {
        const sim::FixedWork cost =
            observerCost(ctx, machine.currentMissesPerIns(core));
        machine.pushFixedWork(core, cost);
        sstats.overheadCycles += cost.cycles;
        rbv::obs::counterAdd(rbv::obs::Counter::SamplingOverheadCycles,
                             static_cast<std::uint64_t>(cost.cycles));
    }
    RBV_COUNT(SamplingSamples, 1);

    switch (trigger) {
      case SampleTrigger::ContextSwitch:
        ++sstats.contextSwitchSamples;
        break;
      case SampleTrigger::Syscall:
        ++sstats.syscallSamples;
        break;
      case SampleTrigger::Interrupt:
        ++sstats.interruptSamples;
        break;
      case SampleTrigger::BackupInterrupt:
        ++sstats.backupSamples;
        break;
    }

    // Note: the snapshot was read before the injection, so the
    // injected events appear in the next period's delta (and the
    // compensation above removes their floor).
    auto endSnap = machine.counters(core).snapshot();
    if (faults != nullptr)
        faults->transformSnapshot(core, endSnap);
    cs.lastSnap = endSnap;
    cs.lastTick = kernel.now();
    cs.lastCtx = ctx;
    cs.hasPrev = true;
}

void
Sampler::onRequestSwitch(sim::CoreId core, os::RequestId out,
                         os::RequestId in)
{
    (void)out;
    (void)in;
    takeSample(core, SampleTrigger::ContextSwitch,
               SampleContext::InKernel);
}

void
Sampler::armIrq(sim::CoreId core, SampleTrigger trigger)
{
    auto fire = [this, core, trigger] {
        switch (faults != nullptr ? faults->onCounterIrq(core)
                                  : IrqFate::Deliver) {
          case IrqFate::Drop:
            // Lost outright: no sample, the running period silently
            // spans two nominal ones; the next recorded period
            // carries the gap flag.
            ++sstats.droppedInterrupts;
            coreState[core].gapPending = true;
            armIrq(core, trigger);
            return;
          case IrqFate::Coalesce:
            // Deferred delivery: the merged interrupt fires late.
            ++sstats.coalescedInterrupts;
            machine.armCycleTimer(
                core, irqDelay(trigger) / 4, [this, core, trigger] {
                    takeSample(core, trigger, SampleContext::Interrupt);
                    armIrq(core, trigger);
                });
            return;
          case IrqFate::Deliver:
            break;
        }
        takeSample(core, trigger, SampleContext::Interrupt);
        armIrq(core, trigger);
    };
    // Re-armed every period: libstdc++'s std::function stores a
    // callable of up to 16 bytes without a heap allocation.
    static_assert(sizeof(fire) <= 16);
    machine.armCycleTimer(core, irqDelay(trigger), std::move(fire));
}

sim::Tick
Sampler::irqDelay(SampleTrigger trigger) const
{
    return sim::usToCycles(trigger == SampleTrigger::Interrupt
                               ? cfg.periodUs
                               : cfg.backupUs);
}

// ---------------------------------------------------------------------
// InterruptSampler

void
InterruptSampler::start()
{
    for (sim::CoreId c = 0; c < machine.numCores(); ++c)
        armIrq(c, SampleTrigger::Interrupt);
}

// ---------------------------------------------------------------------
// SyscallSampler

void
SyscallSampler::start()
{
    for (sim::CoreId c = 0; c < machine.numCores(); ++c)
        armIrq(c, SampleTrigger::BackupInterrupt);
}

void
SyscallSampler::onSyscallEntry(sim::CoreId core, os::ThreadId thread,
                               os::RequestId request, os::Sys sys)
{
    (void)request;
    if (!isTrigger(thread, sys))
        return;
    if (sinceLastSample(core) <
        static_cast<double>(sim::usToCycles(cfg.minGapUs)))
        return;
    takeSample(core, SampleTrigger::Syscall, SampleContext::InKernel);
    armIrq(core, SampleTrigger::BackupInterrupt);
}

void
SyscallSampler::onRequestSwitch(sim::CoreId core, os::RequestId out,
                                os::RequestId in)
{
    Sampler::onRequestSwitch(core, out, in);
    armIrq(core, SampleTrigger::BackupInterrupt);
}

} // namespace rbv::core
