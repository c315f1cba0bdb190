/**
 * @file
 * Online hardware-counter samplers (Sec. 3).
 *
 * All samplers take mandatory samples at request context switches
 * (so before/after-switch events are attributed to the right
 * requests) and differ in how they capture intra-request variation:
 *
 *  - InterruptSampler (Sec. 3.1): periodic APIC counter-overflow
 *    interrupts at a configurable period (10 us .. 1 ms);
 *  - SyscallSampler (Sec. 3.2): cheap in-kernel samples at system
 *    call entries, rate-limited by T_syscall_min, with a backup
 *    interrupt timer at T_backup_int covering syscall-free stretches.
 *    Its subclass TransitionSignalSampler (transition.hh) samples
 *    only at selected behavior-transition signals (Table 2).
 *
 * Both interrupts, the periodic one and the backup one, are armed by
 * one function, which also applies a fault layer's drop or coalesce.
 * Each sample injects its observer cost into the machine and the
 * closing of each period optionally subtracts the "do no harm"
 * compensation.
 */

#ifndef RBV_CORE_SAMPLING_SAMPLER_HH
#define RBV_CORE_SAMPLING_SAMPLER_HH

#include <functional>
#include <vector>

#include "core/sampling/faults.hh"
#include "core/sampling/observer.hh"
#include "core/timeline.hh"
#include "os/kernel.hh"

namespace rbv::core {

/** Sampler tunables. */
struct SamplerConfig
{
    /** Subtract the minimum observer effect from each period. */
    bool compensate = true;

    /** Inject the per-sample observer cost into the machine. */
    bool injectObserverCost = true;

    /** Record per-request timelines. */
    bool recordTimelines = true;

    /** Periodic interrupt period (InterruptSampler), microseconds. */
    double periodUs = 100.0;

    /** Backup interrupt delay T_backup_int (SyscallSampler), us. */
    double backupUs = 500.0;

    /** Minimum syscall sampling gap T_syscall_min, us. */
    double minGapUs = 100.0;
};

/** Aggregate sampling statistics (drives Fig. 5). */
struct SamplerStats
{
    std::uint64_t contextSwitchSamples = 0;
    std::uint64_t syscallSamples = 0;
    std::uint64_t interruptSamples = 0;
    std::uint64_t backupSamples = 0;

    /** Total injected observer cycles (the sampling overhead). */
    double overheadCycles = 0.0;

    // Degraded-telemetry accounting (all zero without fault
    // injection; see core/sampling/faults.hh).
    std::uint64_t droppedInterrupts = 0;   ///< Lost counter IRQs.
    std::uint64_t coalescedInterrupts = 0; ///< Deferred counter IRQs.
    std::uint64_t gapCount = 0;     ///< Periods following a known gap.
    std::uint64_t suspectCount = 0; ///< Periods from tampered reads.

    std::uint64_t
    totalSamples() const
    {
        return contextSwitchSamples + syscallSamples +
               interruptSamples + backupSamples;
    }

    /** Samples taken in an in-kernel context. */
    std::uint64_t
    inKernelSamples() const
    {
        return contextSwitchSamples + syscallSamples;
    }
};

/**
 * Base sampler: request-context-switch sampling, period accounting,
 * observer-cost injection, compensation, and timeline recording.
 */
class Sampler : public os::KernelHooks
{
  public:
    /** Observer invoked on every sampled period. */
    using SampleObserver = std::function<void(
        sim::CoreId, os::RequestId, const Period &)>;

    Sampler(os::Kernel &kernel, SamplerConfig cfg);

    /** Arm timers; call after Kernel::start(). */
    virtual void start() {}

    const SamplerStats &stats() const { return sstats; }

    /** Timeline of a request (empty if none recorded). */
    const Timeline &timelineOf(os::RequestId id) const;

    /**
     * Move one request's timeline out and reset its slot, so a
     * recycled request id (Kernel::releaseRequest) starts with a
     * clean timeline. Returns an empty timeline if none recorded.
     */
    Timeline takeTimeline(os::RequestId id);

    /** Register an observer of sampled periods. */
    void
    addSampleObserver(SampleObserver obs)
    {
        observers.push_back(std::move(obs));
    }

    /** Mandatory attribution sample at request context switches. */
    void onRequestSwitch(sim::CoreId core, os::RequestId out,
                         os::RequestId in) override;

    /**
     * Attach a fault-injection layer (null detaches). When null —
     * the default — the sampler never consults it and behaves
     * byte-identically to a build without the fi layer.
     */
    void setFaults(SamplingFaults *f) { faults = f; }

  protected:
    /**
     * Arm a core's counter interrupt of kind @p trigger (Interrupt
     * after periodUs, BackupInterrupt after backupUs), replacing any
     * pending one. When it fires it samples and re-arms itself; one
     * the fault layer drops only re-arms and marks a gap, and one it
     * coalesces samples a quarter delay late.
     */
    void armIrq(sim::CoreId core, SampleTrigger trigger);

    /**
     * Take one sample on a core: close the current period, attribute
     * it to the request in context, inject the observer cost.
     */
    void takeSample(sim::CoreId core, SampleTrigger trigger,
                    SampleContext ctx);

    /** Wall time since the last sample on a core (cycles). */
    double sinceLastSample(sim::CoreId core) const;

    os::Kernel &kernel;
    sim::Machine &machine;
    SamplerConfig cfg;
    SamplerStats sstats;
    SamplingFaults *faults = nullptr;

  private:
    /** Delay of a counter interrupt of kind @p trigger (cycles). */
    sim::Tick irqDelay(SampleTrigger trigger) const;

    struct CoreSampleState
    {
        sim::CounterSnapshot lastSnap;
        sim::Tick lastTick = 0;
        SampleContext lastCtx = SampleContext::InKernel;
        bool hasPrev = false; ///< A prior sample injected overhead.
        bool gapPending = false; ///< A sampling gap awaits flagging.
    };

    std::vector<CoreSampleState> coreState;
    std::vector<Timeline> timelines; ///< Indexed by request id.
    std::vector<SampleObserver> observers;
};

/** Periodic interrupt-based sampler (Sec. 3.1). */
class InterruptSampler : public Sampler
{
  public:
    using Sampler::Sampler;

    void start() override;
};

/** System call-triggered sampler with backup interrupts (Sec. 3.2). */
class SyscallSampler : public Sampler
{
  public:
    using Sampler::Sampler;

    void start() override;

    void onSyscallEntry(sim::CoreId core, os::ThreadId thread,
                        os::RequestId request, os::Sys sys) override;

    void onRequestSwitch(sim::CoreId core, os::RequestId out,
                         os::RequestId in) override;

  protected:
    /**
     * Whether this syscall may trigger a sample (all, by default).
     * Called on every syscall entry, so a subclass may track the
     * calling thread's history.
     */
    virtual bool
    isTrigger(os::ThreadId thread, os::Sys sys)
    {
        (void)thread;
        (void)sys;
        return true;
    }
};

} // namespace rbv::core

#endif // RBV_CORE_SAMPLING_SAMPLER_HH
