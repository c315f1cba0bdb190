/**
 * @file
 * The multicore machine model.
 *
 * The Machine owns the cores, their performance counters, the shared
 * L2 domains, and the memory model, and advances execution in
 * piecewise-constant-rate windows: between any two events every core
 * executes at a fixed effective CPI computed from the co-runner set;
 * any state change (work assignment, segment completion, fixed-work
 * injection) resynchronizes all cores and re-derives the rates, unless
 * nothing the rates depend on moved since they were last derived.
 *
 * Work comes in two forms:
 *  - regular work: a number of user instructions executing under a
 *    WorkParams description, fully subject to cache and bandwidth
 *    contention; and
 *  - fixed work: contention-immune event bundles (cycles,
 *    instructions, L2 references, L2 misses) used for kernel syscall
 *    handling, context-switch costs, and the observer effect of
 *    counter sampling (Table 1 of the paper).
 *
 * Fixed work drains before regular work resumes. An APIC-style cycle
 * timer per core fires a callback after a given number of non-halt
 * cycles, which is how the paper generates periodic sampling
 * interrupts from counter overflow.
 *
 * Each state change ends in a boundary pass, which keys every core's
 * completion boundary and cycle-timer event from the current state.
 * One turn of the event queue can make many such changes, and only
 * the last pass decides the keys, so a change only reserves the
 * sequence numbers its pass would draw and registers the machine for
 * the queue's flush (EventQueue::deferFlush). The flush runs the pass
 * once, before the next turn, on the state the turn left, under the
 * numbers of the last reservation: the keys, and so the event order,
 * that running the pass at every change would give.
 *
 * The model refresh tick is a periodic event. A refresh that finds
 * the machine quiescent, with no boundary or timer event pending on
 * any core, parks it: until work arrives, every later refresh would
 * change nothing, and the parked tick keeps its place in the event
 * order. A flush that leaves the machine not quiescent unparks it.
 */

#ifndef RBV_SIM_MACHINE_HH
#define RBV_SIM_MACHINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/cache.hh"
#include "sim/counters.hh"
#include "sim/event_queue.hh"
#include "sim/memory.hh"
#include "sim/types.hh"

namespace rbv::sim {

/** Static machine configuration. */
struct MachineConfig
{
    int numCores = 4;

    /** Cores per shared-L2 domain (Woodcrest: 2). */
    int coresPerL2Domain = 2;

    /** Shared L2 capacity per domain in bytes (4 MB). */
    double l2CapacityBytes = 4.0 * 1024 * 1024;

    /**
     * Interval of the model refresh tick that bounds the error of the
     * piecewise-constant-rate approximation; 0 disables it. The tick
     * runs only while the machine has work (see Machine).
     */
    Tick modelRefreshIntervalCycles = usToCycles(50.0);
};

/** Description of regular (contention-subject) work. */
struct WorkParams
{
    /** Pipeline CPI excluding all L2-access stalls (> 0). */
    double baseCpi = 1.0;

    /** L2 references per instruction. */
    double refsPerIns = 0.0;

    /** Miss-ratio curve of this execution phase. */
    MissCurve curve;
};

/** Contention-immune event bundle (kernel overheads, observer effect). */
struct FixedWork
{
    double cycles = 0.0;
    double instructions = 0.0;
    double l2Refs = 0.0;
    double l2Misses = 0.0;
};

/**
 * Client interface through which the machine reports segment
 * completion (implemented by the OS kernel).
 */
class CoreClient
{
  public:
    virtual ~CoreClient() = default;

    /** The regular work assigned to @p core has retired fully. */
    virtual void onWorkComplete(CoreId core) = 0;
};

/**
 * The multicore machine.
 */
class Machine : private EventQueue::FlushOwner
{
  public:
    Machine(const MachineConfig &cfg, EventQueue &eq,
            CoreClient *client = nullptr);

    /** Withdraws a pending flush; the queue must outlive the call. */
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Late-bind the completion client (the kernel is typically
     * constructed after the machine). Must be set before any work is
     * assigned.
     */
    void setClient(CoreClient *c) { client = c; }

    const MachineConfig &config() const { return cfg; }
    int numCores() const { return cfg.numCores; }

    /** L2 domain index of a core. */
    int
    domainOf(CoreId core) const
    {
        return core / cfg.coresPerL2Domain;
    }

    /**
     * Assign regular work to a core, replacing any current regular
     * work. Pending fixed work still drains first.
     */
    void setWork(CoreId core, const WorkParams &params,
                 double instructions);

    /** Remove regular work (core halts once fixed work drains). */
    void clearWork(CoreId core);

    /** True if the core has unfinished regular work. */
    bool busy(CoreId core) const { return cores[core].busy; }

    /** Instructions left in the current regular work (resyncs). */
    double insRemaining(CoreId core);

    /** Queue contention-immune work (drains before regular work). */
    void pushFixedWork(CoreId core, const FixedWork &work);

    /** Current cache footprint of the work on this core (bytes). */
    double occupancy(CoreId core);

    /** Replace the cache footprint (used at context switches). */
    void setOccupancy(CoreId core, double bytes);

    /** Cumulative bytes inserted into this core's L2 domain. */
    double domainInsertionIntegral(CoreId core);

    /** Counter file of a core, resynchronized to now. */
    const PerfCounters &counters(CoreId core);

    /**
     * Arm the APIC-style cycle timer: fire @p cb once after the core
     * has accumulated @p cycles additional non-halt cycles. Re-arming
     * replaces any pending timer.
     */
    void armCycleTimer(CoreId core, double cycles,
                       std::function<void()> cb);

    /** L2 misses per instruction of a core's current rate window. */
    double
    currentMissesPerIns(CoreId core) const
    {
        const auto &c = cores[core];
        return c.busy ? c.params.refsPerIns * c.missRatio : 0.0;
    }

    /** Advance all cores to the event queue's current time. */
    void resync();

    EventQueue &eventQueue() { return eq; }
    const EventQueue &eventQueue() const { return eq; }

  private:
    struct CoreState
    {
        PerfCounters counters;

        bool busy = false;
        WorkParams params;
        double insRemaining = 0.0;
        std::deque<FixedWork> fixedQueue;

        double occupancy = 0.0;

        // Derived rates, valid for the current window.
        double effCpi = 1.0;
        double insPerCycle = 0.0;
        double missRatio = 0.0;
        double missRatioOcc = 0.0; ///< Occupancy missRatio was taken at.
        bool missRatioStale = true; ///< Params changed since, or idle.
        double fillBytesPerCycle = 0.0;
        double targetOcc = 0.0;
        double coPressure = 0.0;

        EventId boundaryEv = InvalidEventId;

        bool timerArmed = false;
        double timerRemaining = 0.0;
        std::function<void()> timerCb;
        EventId timerEv = InvalidEventId;
    };

    /** Advance one core by dt cycles of wall time. */
    void advanceCore(CoreState &c, int domain, double dt);

    /**
     * Re-derive all per-core rates from the current co-runner set;
     * returns after the miss ratios when ratesCurrent holds and no
     * busy core's ratio moved.
     */
    void recomputeRates();

    /** Reserve the sequence numbers one boundary pass may draw. */
    std::uint64_t reservePass();

    /**
     * Defer the boundary pass to the queue's flush: reserve the
     * numbers it may draw, and register the machine once per turn.
     */
    void scheduleBoundaries();

    /**
     * The boundary pass: (re)schedule boundary and timer events per
     * current rates, keyed from @p seq on.
     */
    void keyBoundaries(std::uint64_t seq);

    /** Run the deferred pass and unpark the refresh if it has work. */
    void flush() override;

    /** Total fixed-work cycles pending on a core. */
    static double fixedCyclesPending(const CoreState &c);

    /** Handle a boundary event on a core. */
    void boundaryFired(CoreId core);

    /** Handle a cycle-timer event on a core. */
    void timerFired(CoreId core);

    /** Refresh tick: resync and re-derive rates. */
    void refreshFired();

    /**
     * No core has a pending boundary or timer event. Read right after
     * a pass, it also means that no core is busy, no fixed work is
     * queued and no armed timer has run down.
     */
    bool quiescent() const;

    MachineConfig cfg;
    EventQueue &eq;
    CoreClient *client;

    std::vector<CoreState> cores;
    std::vector<double> domainInsertion; ///< Bytes per L2 domain.

    // recomputeRates' water-fill scratch for one domain's runners,
    // sized to numCores once so the rate model allocates nothing.
    std::vector<CoreId> fillRunners;
    std::vector<double> fillWeights, fillWsets, fillTargets;
    std::vector<std::uint8_t> fillCapped;
    std::vector<double> solveEntryCpi; ///< effCpi entering the solve.
    MemoryModel memory;

    /**
     * The last recomputeRates left every busy core's effCpi as it
     * found it, and neither the busy set nor a busy core's params
     * changed since: the rates are what a new call would compute,
     * unless a busy core's miss ratio moved.
     */
    bool ratesCurrent = false;

    EventId refreshEv = InvalidEventId;

    /** First of the numbers the last scheduleBoundaries reserved. */
    std::uint64_t passSeq = 0;

    /** Registered for the queue's next flush. */
    bool flushPending = false;

    Tick lastSync = 0;
};

} // namespace rbv::sim

#endif // RBV_SIM_MACHINE_HH
