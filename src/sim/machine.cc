/**
 * @file
 * Multicore machine model implementation.
 */

#include "sim/machine.hh"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/check.hh"

namespace rbv::sim {

namespace {

/** Instructions below this are treated as retired. */
constexpr double InsEpsilon = 1e-6;

/** Cycles below this are treated as elapsed. */
constexpr double CycleEpsilon = 1e-6;

/** Fixed-point iterations for the CPI / memory-latency solve. */
constexpr int CpiSolveIterations = 6;

/** L2 hit latency in cycles (14 on the paper's platform). */
constexpr double L2HitLatencyCycles = 14.0;

} // namespace

Machine::Machine(const MachineConfig &cfg, EventQueue &eq,
                 CoreClient *client)
    : cfg(cfg), eq(eq), client(client), cores(cfg.numCores),
      lastSync(eq.now())
{
    RBV_CHECK(cfg.numCores > 0);
    RBV_CHECK(cfg.coresPerL2Domain > 0);
    RBV_CHECK(cfg.l2CapacityBytes > 0.0);
    const int domains =
        (cfg.numCores + cfg.coresPerL2Domain - 1) / cfg.coresPerL2Domain;
    domainInsertion.assign(domains, 0.0);
    fillRunners.resize(cfg.numCores);
    fillWeights.resize(cfg.numCores);
    fillWsets.resize(cfg.numCores);
    fillTargets.resize(cfg.numCores);
    fillCapped.resize(cfg.numCores);
    solveEntryCpi.resize(cfg.numCores);

    if (cfg.modelRefreshIntervalCycles > 0) {
        refreshEv = eq.schedulePeriodic(
            eq.now() + cfg.modelRefreshIntervalCycles,
            cfg.modelRefreshIntervalCycles, [this] { refreshFired(); });
    }
}

Machine::~Machine()
{
    if (flushPending)
        eq.withdrawFlush(*this);
}

double
Machine::fixedCyclesPending(const CoreState &c)
{
    double total = 0.0;
    for (const auto &fw : c.fixedQueue)
        total += fw.cycles;
    return total;
}

void
Machine::advanceCore(CoreState &c, int domain, double dt)
{
    double left = dt;
    double busyCycles = 0.0;

    // Drain fixed work first. Fixed work is contention-immune: its
    // events accrue linearly over its cycle budget, and the thread's
    // regular footprint decays under co-runner pressure meanwhile.
    while (left > CycleEpsilon && !c.fixedQueue.empty()) {
        FixedWork &fw = c.fixedQueue.front();
        const double take = std::min(left, fw.cycles);
        const double frac = fw.cycles > 0.0 ? take / fw.cycles : 1.0;

        const double ins = fw.instructions * frac;
        const double refs = fw.l2Refs * frac;
        const double misses = fw.l2Misses * frac;
        c.counters.accrue(take, ins, refs, misses);
        domainInsertion[domain] += misses * CacheLineBytes;

        c.occupancy = advanceOccupancy(c.occupancy, c.targetOcc, 0.0,
                                       c.coPressure, cfg.l2CapacityBytes,
                                       take);

        fw.cycles -= take;
        fw.instructions -= ins;
        fw.l2Refs -= refs;
        fw.l2Misses -= misses;
        if (fw.cycles <= CycleEpsilon)
            c.fixedQueue.pop_front();

        left -= take;
        busyCycles += take;
    }

    // Regular work for the remainder of the window.
    if (left > CycleEpsilon && c.busy) {
        double ins = c.insPerCycle * left;
        ins = std::min(ins, c.insRemaining);
        const double refs = ins * c.params.refsPerIns;
        const double misses = refs * c.missRatio;
        c.counters.accrue(left, ins, refs, misses);
        domainInsertion[domain] += misses * CacheLineBytes;

        c.occupancy = advanceOccupancy(
            c.occupancy, c.targetOcc, c.fillBytesPerCycle, c.coPressure,
            cfg.l2CapacityBytes, left);

        c.insRemaining -= ins;
        if (c.insRemaining < InsEpsilon)
            c.insRemaining = 0.0;
        busyCycles += left;
    }

    // The cache model must never report more resident bytes than the
    // domain holds, and instruction debt can never go negative.
    RBV_DCHECK(c.occupancy >= 0.0 &&
                   c.occupancy <= cfg.l2CapacityBytes * (1.0 + 1e-9),
               "occupancy " << c.occupancy << " outside [0, "
                            << cfg.l2CapacityBytes << "]");
    RBV_DCHECK(c.insRemaining >= 0.0);

    if (c.timerArmed) {
        c.timerRemaining -= busyCycles;
        if (c.timerRemaining < 0.0)
            c.timerRemaining = 0.0;
    }
}

void
Machine::resync()
{
    const Tick now = eq.now();
    if (now == lastSync)
        return;
    RBV_CHECK(now > lastSync,
              "resync would move time backwards: now="
                  << now << " lastSync=" << lastSync);
    const double dt = static_cast<double>(now - lastSync);
    for (CoreId i = 0; i < cfg.numCores; ++i)
        advanceCore(cores[i], domainOf(i), dt);
    lastSync = now;
}

void
Machine::recomputeRates()
{
    // Pass 1: miss ratios from current occupancies. A busy core's
    // ratio depends only on its curve and occupancy, so it is
    // re-evaluated only when one of them changed.
    bool miss_moved = false;
    for (CoreId i = 0; i < cfg.numCores; ++i) {
        auto &c = cores[i];
        if (!c.busy) {
            c.missRatio = 0.0;
            c.missRatioStale = true;
        } else if (c.missRatioStale || c.occupancy != c.missRatioOcc) {
            const double m = c.params.curve.missRatioAt(c.occupancy);
            miss_moved = miss_moved || m != c.missRatio;
            c.missRatio = m;
            c.missRatioOcc = c.occupancy;
            c.missRatioStale = false;
        }
    }

    // The rest is a pure function of the busy set and of each busy
    // core's params, miss ratio and effCpi. When the last call left
    // every effCpi as it found it and none of these moved since, it
    // would write back exactly what every field already holds.
    if (ratesCurrent && !miss_moved)
        return;

    const int num_domains = static_cast<int>(domainInsertion.size());

    // Pass 2: per-domain occupancy targets by demand-weighted
    // water-filling, with demand approximated by each runner's L2
    // reference pressure (references per cycle at its current CPI).
    for (int d = 0; d < num_domains; ++d) {
        const CoreId first = d * cfg.coresPerL2Domain;
        const CoreId end =
            std::min(first + cfg.coresPerL2Domain, cfg.numCores);
        std::size_t n = 0;
        for (CoreId i = first; i < end; ++i) {
            const auto &c = cores[i];
            if (!c.busy)
                continue;
            const double cpi = c.effCpi > 0.0 ? c.effCpi
                                              : c.params.baseCpi;
            fillRunners[n] = i;
            fillWeights[n] = c.params.refsPerIns / cpi;
            fillWsets[n] = c.params.curve.workingSetBytes;
            ++n;
        }
        waterFillTargets(cfg.l2CapacityBytes,
                         std::span(fillWeights).first(n),
                         std::span(fillWsets).first(n),
                         std::span(fillTargets).first(n),
                         std::span(fillCapped).first(n));
        for (std::size_t k = 0; k < n; ++k)
            cores[fillRunners[k]].targetOcc = fillTargets[k];
    }

    // Pass 3: fixed-point solve of the coupled CPI / memory-latency
    // system. More aggregate miss bandwidth raises the effective miss
    // latency, which slows every core down, which lowers bandwidth:
    // a contraction that converges in a few iterations. An iteration
    // that moves no effCpi would be repeated bit for bit by every
    // later one, so the solve stops there.
    for (CoreId i = 0; i < cfg.numCores; ++i) {
        auto &c = cores[i];
        if (c.busy && c.effCpi <= 0.0)
            c.effCpi = c.params.baseCpi;
        solveEntryCpi[i] = c.effCpi;
    }
    for (int it = 0; it < CpiSolveIterations; ++it) {
        double miss_bw = 0.0;
        for (CoreId i = 0; i < cfg.numCores; ++i) {
            const auto &c = cores[i];
            if (!c.busy)
                continue;
            const double refs_per_cycle =
                c.params.refsPerIns / std::max(c.effCpi, 1e-9);
            miss_bw += refs_per_cycle * c.missRatio * CacheLineBytes;
        }
        const double lat = memory.latencyAt(miss_bw);
        bool moved = false;
        for (CoreId i = 0; i < cfg.numCores; ++i) {
            auto &c = cores[i];
            if (!c.busy)
                continue;
            const double cpi = c.params.baseCpi +
                               c.params.refsPerIns *
                                   ((1.0 - c.missRatio) *
                                        L2HitLatencyCycles +
                                    c.missRatio * lat);
            moved = moved || cpi != c.effCpi;
            c.effCpi = cpi;
        }
        if (!moved)
            break;
    }
    ratesCurrent = true;
    for (CoreId i = 0; i < cfg.numCores; ++i)
        if (cores[i].busy && cores[i].effCpi != solveEntryCpi[i])
            ratesCurrent = false;

    // Pass 4: derived fill rates and co-runner pressure. Each core's
    // pressure sums its domain's other cores in ascending order.
    for (CoreId i = 0; i < cfg.numCores; ++i) {
        auto &c = cores[i];
        if (!c.busy) {
            c.insPerCycle = 0.0;
            c.fillBytesPerCycle = 0.0;
            continue;
        }
        c.insPerCycle = 1.0 / std::max(c.effCpi, 1e-9);
        c.fillBytesPerCycle = c.params.refsPerIns * c.insPerCycle *
                              c.missRatio * CacheLineBytes;
    }
    for (int d = 0; d < num_domains; ++d) {
        const CoreId first = d * cfg.coresPerL2Domain;
        const CoreId end =
            std::min(first + cfg.coresPerL2Domain, cfg.numCores);
        for (CoreId i = first; i < end; ++i) {
            double pressure = 0.0;
            for (CoreId j = first; j < end; ++j)
                if (j != i)
                    pressure += cores[j].fillBytesPerCycle;
            cores[i].coPressure = pressure;
        }
    }
}

std::uint64_t
Machine::reservePass()
{
    // A pass draws at most a boundary and a timer number per core.
    return eq.reserveSeq(2 * static_cast<std::uint64_t>(cfg.numCores));
}

void
Machine::scheduleBoundaries()
{
    passSeq = reservePass();
    if (!flushPending) {
        flushPending = true;
        eq.deferFlush(*this);
    }
}

void
Machine::flush()
{
    flushPending = false;
    keyBoundaries(passSeq);
    if (eq.parked(refreshEv) && !quiescent())
        eq.unpark(refreshEv);
}

void
Machine::keyBoundaries(std::uint64_t seq)
{
    // Each core's boundary, then its timer: re-key a pending event,
    // schedule one if none is pending, and cancel one no longer
    // wanted. Sequence numbers are taken in the order cancelling and
    // rescheduling every event would draw them.
    for (CoreId i = 0; i < cfg.numCores; ++i) {
        auto &c = cores[i];

        const double fixed = fixedCyclesPending(c);
        double completion = -1.0; // cycles until busy work retires
        if (c.busy) {
            completion = fixed + c.insRemaining /
                                     std::max(c.insPerCycle, 1e-12);
        } else if (fixed > 0.0) {
            completion = fixed;
        }

        if (completion >= 0.0) {
            const Tick when =
                eq.now() + static_cast<Tick>(std::ceil(completion));
            if (!eq.reschedule(c.boundaryEv, when, seq)) {
                c.boundaryEv = eq.schedule(when, seq, [this, i] {
                    boundaryFired(i);
                });
            }
            ++seq;
        } else if (c.boundaryEv != InvalidEventId) {
            eq.cancel(c.boundaryEv);
            c.boundaryEv = InvalidEventId;
        }

        // The timer counts non-halt cycles; while the core stays busy
        // they track wall time 1:1. If the timer would fire after the
        // next boundary, the boundary's rescheduling pass re-examines
        // it.
        const double busy_horizon = completion >= 0.0 ? completion : 0.0;
        if (c.timerArmed && (c.timerRemaining <= busy_horizon ||
                             (c.busy && completion < 0.0))) {
            const Tick when =
                eq.now() + static_cast<Tick>(std::ceil(c.timerRemaining));
            if (!eq.reschedule(c.timerEv, when, seq)) {
                c.timerEv = eq.schedule(when, seq, [this, i] {
                    timerFired(i);
                });
            }
            ++seq;
        } else if (c.timerEv != InvalidEventId) {
            eq.cancel(c.timerEv);
            c.timerEv = InvalidEventId;
        }
    }
}

void
Machine::boundaryFired(CoreId core)
{
    resync();
    auto &c = cores[core];
    c.boundaryEv = InvalidEventId;

    const bool completed = c.busy && c.insRemaining <= 0.0 &&
                           c.fixedQueue.empty();
    if (completed) {
        c.busy = false;
        ratesCurrent = false;
        recomputeRates();
        if (client)
            client->onWorkComplete(core);
    }

    recomputeRates();
    scheduleBoundaries();
}

void
Machine::timerFired(CoreId core)
{
    resync();
    auto &c = cores[core];
    c.timerEv = InvalidEventId;

    if (!c.timerArmed || c.timerRemaining > CycleEpsilon) {
        // Stale or rescheduled; boundary passes will re-arm.
        recomputeRates();
        scheduleBoundaries();
        return;
    }

    c.timerArmed = false;
    auto cb = std::move(c.timerCb);
    c.timerCb = nullptr;
    if (cb)
        cb();

    recomputeRates();
    scheduleBoundaries();
}

void
Machine::refreshFired()
{
    resync();
    recomputeRates();
    // quiescent() reads the pass's events, so the pass runs at once.
    // The queue flushed before this turn, so no earlier pass waits.
    RBV_DCHECK(!flushPending);
    keyBoundaries(reservePass());
    // A quiescent machine's refresh resyncs only idle cores, returns
    // from recomputeRates after the miss ratios and re-keys nothing,
    // and only a flush ends quiescence.
    if (quiescent())
        eq.park(refreshEv);
}

bool
Machine::quiescent() const
{
    for (const auto &c : cores)
        if (c.boundaryEv != InvalidEventId || c.timerEv != InvalidEventId)
            return false;
    return true;
}

void
Machine::setWork(CoreId core, const WorkParams &params,
                 double instructions)
{
    RBV_CHECK(core >= 0 && core < cfg.numCores);
    RBV_CHECK(params.baseCpi > 0.0,
              "work with non-positive base CPI " << params.baseCpi);
    resync();
    auto &c = cores[core];
    c.busy = instructions > 0.0;
    c.params = params;
    c.insRemaining = std::max(instructions, 0.0);
    c.effCpi = params.baseCpi; // seed for the fixed-point solve
    c.missRatioStale = true;
    ratesCurrent = false;
    recomputeRates();
    scheduleBoundaries();
}

void
Machine::clearWork(CoreId core)
{
    resync();
    auto &c = cores[core];
    c.busy = false;
    c.insRemaining = 0.0;
    ratesCurrent = false;
    recomputeRates();
    scheduleBoundaries();
}

double
Machine::insRemaining(CoreId core)
{
    resync();
    return cores[core].insRemaining;
}

void
Machine::pushFixedWork(CoreId core, const FixedWork &work)
{
    RBV_CHECK(core >= 0 && core < cfg.numCores);
    RBV_DCHECK(work.cycles >= 0.0 && work.instructions >= 0.0 &&
                   work.l2Refs >= 0.0 && work.l2Misses >= 0.0,
               "negative fixed-work bundle");
    resync();
    if (work.cycles > 0.0)
        cores[core].fixedQueue.push_back(work);
    else
        cores[core].counters.accrue(0.0, work.instructions, work.l2Refs,
                                    work.l2Misses);
    recomputeRates();
    scheduleBoundaries();
}

double
Machine::occupancy(CoreId core)
{
    resync();
    return cores[core].occupancy;
}

void
Machine::setOccupancy(CoreId core, double bytes)
{
    RBV_CHECK(core >= 0 && core < cfg.numCores);
    // Oversized restores are clamped to capacity (documented
    // contract); only a nonsensical footprint is a caller bug.
    RBV_CHECK(std::isfinite(bytes) && bytes >= 0.0,
              "footprint " << bytes << " is not a byte count");
    resync();
    cores[core].occupancy =
        std::clamp(bytes, 0.0, cfg.l2CapacityBytes);
    recomputeRates();
    scheduleBoundaries();
}

double
Machine::domainInsertionIntegral(CoreId core)
{
    resync();
    return domainInsertion[domainOf(core)];
}

const PerfCounters &
Machine::counters(CoreId core)
{
    resync();
    return cores[core].counters;
}

void
Machine::armCycleTimer(CoreId core, double cycles,
                       std::function<void()> cb)
{
    resync();
    auto &c = cores[core];
    c.timerArmed = true;
    c.timerRemaining = std::max(cycles, 0.0);
    c.timerCb = std::move(cb);
    scheduleBoundaries();
}

} // namespace rbv::sim
