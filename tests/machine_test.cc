/**
 * @file
 * Unit tests for the multicore machine execution model.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "obs/obs.hh"
#include "sim/machine.hh"

using namespace rbv::sim;

namespace {

constexpr double MiB = 1024.0 * 1024.0;

/** Test client recording work completions. */
struct TestClient : CoreClient
{
    std::vector<CoreId> completions;
    void
    onWorkComplete(CoreId core) override
    {
        completions.push_back(core);
    }
};

/** CPU-bound params with no cache traffic. */
WorkParams
cpuParams(double cpi = 1.0)
{
    WorkParams p;
    p.baseCpi = cpi;
    p.refsPerIns = 0.0;
    return p;
}

/** Cache-hungry params. */
WorkParams
memParams(double ws_mib, double refs = 0.03, double miss = 0.08)
{
    WorkParams p;
    p.baseCpi = 0.8;
    p.refsPerIns = refs;
    p.curve = MissCurve{ws_mib * MiB, miss, 1.0};
    return p;
}

struct Rig
{
    EventQueue eq;
    TestClient client;
    Machine machine;

    explicit Rig(int cores = 4, Tick refresh = 0)
        : machine(makeConfig(cores, refresh), eq, &client)
    {
    }

    static MachineConfig
    makeConfig(int cores, Tick refresh)
    {
        MachineConfig mc;
        mc.numCores = cores;
        mc.coresPerL2Domain = cores >= 2 ? 2 : 1;
        mc.modelRefreshIntervalCycles = refresh;
        return mc;
    }
};

/** Water fills run under @p session so far. */
std::uint64_t
waterFills(const rbv::obs::Session &session)
{
    return session.mergedMetrics().counters[static_cast<std::size_t>(
        rbv::obs::Counter::SimWaterFills)];
}

/**
 * Re-derive the rates at the current tick until a call is a no-op. A
 * zero-cycle fixed-work bundle moves no input of the rate model, so
 * once the CPI solve leaves every effective CPI as it found it, the
 * next bundle runs no water fill. False if that never happens.
 */
bool
settleRates(Rig &rig, const rbv::obs::Session &session)
{
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t before = waterFills(session);
        rig.machine.pushFixedWork(0, FixedWork{});
        if (waterFills(session) == before)
            return true;
    }
    return false;
}

} // namespace

TEST(Machine, CpuBoundWorkTakesCpiCycles)
{
    Rig rig;
    rig.machine.setWork(0, cpuParams(2.0), 1000.0);
    rig.eq.runUntil(1'000'000);
    ASSERT_EQ(rig.client.completions.size(), 1u);
    const auto &snap = rig.machine.counters(0).snapshot();
    EXPECT_NEAR(snap.instructions, 1000.0, 1.0);
    EXPECT_NEAR(snap.cycles, 2000.0, 2.0);
}

TEST(Machine, IdleCoreAccruesNothing)
{
    Rig rig;
    rig.machine.setWork(0, cpuParams(), 1000.0);
    rig.eq.runUntil(1'000'000);
    const auto &snap = rig.machine.counters(1).snapshot();
    EXPECT_EQ(snap.cycles, 0.0);
    EXPECT_EQ(snap.instructions, 0.0);
}

TEST(Machine, L2TrafficAccrues)
{
    Rig rig;
    rig.machine.setWork(0, memParams(1.0, 0.02, 0.1), 100000.0);
    rig.eq.runUntil(100'000'000);
    const auto &snap = rig.machine.counters(0).snapshot();
    EXPECT_NEAR(snap.l2Refs, 2000.0, 10.0);
    EXPECT_GT(snap.l2Misses, 0.0);
    EXPECT_LE(snap.l2Misses, snap.l2Refs);
}

TEST(Machine, EffectiveCpiIncludesMemoryStalls)
{
    Rig rig;
    rig.machine.setWork(0, memParams(2.0, 0.03, 0.1), 1000000.0);
    rig.eq.runUntil(1'000'000'000);
    const auto &snap = rig.machine.counters(0).snapshot();
    const double cpi = snap.cycles / snap.instructions;
    EXPECT_GT(cpi, 0.8); // base alone would be 0.8
}

TEST(Machine, FixedWorkAccountsExactly)
{
    Rig rig;
    rig.machine.pushFixedWork(0, FixedWork{1000.0, 500.0, 20.0, 5.0});
    rig.eq.runUntil(1'000'000);
    const auto &snap = rig.machine.counters(0).snapshot();
    EXPECT_NEAR(snap.cycles, 1000.0, 1.0);
    EXPECT_NEAR(snap.instructions, 500.0, 1.0);
    EXPECT_NEAR(snap.l2Refs, 20.0, 0.1);
    EXPECT_NEAR(snap.l2Misses, 5.0, 0.1);
    // Fixed-only work does not raise onWorkComplete.
    EXPECT_TRUE(rig.client.completions.empty());
}

TEST(Machine, FixedWorkDelaysRegularWork)
{
    Rig rig;
    rig.machine.setWork(0, cpuParams(1.0), 1000.0);
    rig.machine.pushFixedWork(0, FixedWork{5000.0, 100.0, 0.0, 0.0});
    rig.eq.runUntil(1'000'000);
    ASSERT_EQ(rig.client.completions.size(), 1u);
    // Completion requires fixed (5000) + regular (1000) cycles.
    EXPECT_GE(rig.eq.now(), 6000u);
    EXPECT_LE(rig.eq.now(), 6100u);
}

TEST(Machine, ZeroCycleFixedWorkAccruesImmediately)
{
    Rig rig;
    rig.machine.pushFixedWork(0, FixedWork{0.0, 42.0, 7.0, 1.0});
    const auto &snap = rig.machine.counters(0).snapshot();
    EXPECT_DOUBLE_EQ(snap.instructions, 42.0);
}

TEST(Machine, ClearWorkStopsExecution)
{
    Rig rig;
    rig.machine.setWork(0, cpuParams(), 1e9);
    rig.eq.runUntil(1000);
    rig.machine.clearWork(0);
    const double ins_at_clear =
        rig.machine.counters(0).snapshot().instructions;
    rig.eq.runUntil(100000);
    EXPECT_DOUBLE_EQ(rig.machine.counters(0).snapshot().instructions,
                     ins_at_clear);
    EXPECT_TRUE(rig.client.completions.empty());
}

TEST(Machine, InsRemainingTracksProgress)
{
    Rig rig;
    rig.machine.setWork(0, cpuParams(1.0), 10000.0);
    rig.eq.runUntil(4000);
    EXPECT_NEAR(rig.machine.insRemaining(0), 6000.0, 10.0);
}

TEST(Machine, CycleTimerFiresAfterBusyCycles)
{
    Rig rig;
    bool fired = false;
    Tick fire_tick = 0;
    rig.machine.setWork(0, cpuParams(), 1e9);
    rig.machine.armCycleTimer(0, 5000.0, [&] {
        fired = true;
        fire_tick = rig.eq.now();
    });
    rig.eq.runUntil(1'000'000);
    EXPECT_TRUE(fired);
    EXPECT_NEAR(static_cast<double>(fire_tick), 5000.0, 10.0);
}

TEST(Machine, CycleTimerStallsWhileIdle)
{
    Rig rig;
    bool fired = false;
    rig.machine.armCycleTimer(0, 5000.0, [&] { fired = true; });
    rig.eq.runUntil(100000);
    EXPECT_FALSE(fired); // halted core accrues no non-halt cycles

    // Give it work; the timer should now run down.
    rig.machine.setWork(0, cpuParams(), 1e9);
    rig.eq.runUntil(200000);
    EXPECT_TRUE(fired);
}

TEST(Machine, RearmTimerReplacesPending)
{
    Rig rig;
    int which = 0;
    rig.machine.setWork(0, cpuParams(), 1e9);
    rig.machine.armCycleTimer(0, 5000.0, [&] { which = 1; });
    rig.machine.armCycleTimer(0, 9000.0, [&] { which = 2; });
    rig.eq.runUntil(7000);
    EXPECT_EQ(which, 0);
    rig.eq.runUntil(20000);
    EXPECT_EQ(which, 2);
}

TEST(Machine, CoRunnerRaisesCpiOnSharedCache)
{
    // Solo run of a cache-hungry workload.
    double solo_cpi;
    {
        Rig rig(4, usToCycles(50.0));
        rig.machine.setWork(0, memParams(5.0, 0.04, 0.08), 3e6);
        rig.eq.runUntil(2'000'000'000);
        const auto &s = rig.machine.counters(0).snapshot();
        solo_cpi = s.cycles / s.instructions;
    }
    // Same workload co-running with a cache-hungry neighbor in the
    // same L2 domain (cores 0 and 1 share).
    double shared_cpi;
    {
        Rig rig(4, usToCycles(50.0));
        rig.machine.setWork(0, memParams(5.0, 0.04, 0.08), 3e6);
        rig.machine.setWork(1, memParams(5.0, 0.04, 0.08), 1e9);
        rig.eq.runUntil(2'000'000'000);
        const auto &s = rig.machine.counters(0).snapshot();
        shared_cpi = s.cycles / s.instructions;
    }
    EXPECT_GT(shared_cpi, solo_cpi * 1.1);
}

TEST(Machine, DifferentDomainNoL2Contention)
{
    // A neighbor in the OTHER domain shares only memory bandwidth;
    // with modest bandwidth the CPI penalty must be far smaller than
    // same-domain sharing.
    auto run = [&](CoreId other) {
        Rig rig(4, usToCycles(50.0));
        rig.machine.setWork(0, memParams(5.0, 0.03, 0.06), 3e6);
        if (other >= 0)
            rig.machine.setWork(other, memParams(5.0, 0.03, 0.06),
                                1e9);
        rig.eq.runUntil(2'000'000'000);
        const auto &s = rig.machine.counters(0).snapshot();
        return s.cycles / s.instructions;
    };
    const double solo = run(-1);
    const double cross_domain = run(2);
    const double same_domain = run(1);
    EXPECT_LT(cross_domain - solo, (same_domain - solo) * 0.5);
}

TEST(Machine, SmallWorkingSetImmuneToSharing)
{
    auto run = [&](bool with_neighbor) {
        Rig rig(4, usToCycles(50.0));
        rig.machine.setWork(0, memParams(0.25, 0.008, 0.03), 3e6);
        if (with_neighbor)
            rig.machine.setWork(1, memParams(5.0, 0.04, 0.1), 1e9);
        rig.eq.runUntil(2'000'000'000);
        const auto &s = rig.machine.counters(0).snapshot();
        return s.cycles / s.instructions;
    };
    const double solo = run(false);
    const double shared = run(true);
    EXPECT_LT(shared, solo * 1.25);
}

TEST(Machine, OccupancySaveRestore)
{
    Rig rig;
    rig.machine.setWork(0, memParams(1.0, 0.03, 0.1), 1e8);
    rig.eq.runUntil(50'000'000);
    const double occ = rig.machine.occupancy(0);
    EXPECT_GT(occ, 0.0);
    rig.machine.setOccupancy(0, 1234.0);
    EXPECT_DOUBLE_EQ(rig.machine.occupancy(0), 1234.0);
}

TEST(Machine, OccupancyClampedToCapacity)
{
    Rig rig;
    rig.machine.setOccupancy(0, 1e12);
    EXPECT_DOUBLE_EQ(rig.machine.occupancy(0),
                     rig.machine.config().l2CapacityBytes);
}

TEST(Machine, DomainInsertionIntegralGrowsWithMisses)
{
    Rig rig;
    const double before = rig.machine.domainInsertionIntegral(0);
    rig.machine.setWork(0, memParams(2.0, 0.03, 0.2), 1e6);
    rig.eq.runUntil(1'000'000'000);
    EXPECT_GT(rig.machine.domainInsertionIntegral(0), before);
    // Core 2's domain saw no activity.
    EXPECT_DOUBLE_EQ(rig.machine.domainInsertionIntegral(2), 0.0);
}

TEST(Machine, BackToBackSegments)
{
    Rig rig;
    rig.machine.setWork(0, cpuParams(1.0), 1000.0);
    rig.eq.runUntil(1'000'000);
    ASSERT_EQ(rig.client.completions.size(), 1u);
    rig.machine.setWork(0, cpuParams(2.0), 1000.0);
    rig.eq.runUntil(2'000'000);
    ASSERT_EQ(rig.client.completions.size(), 2u);
    const auto &snap = rig.machine.counters(0).snapshot();
    EXPECT_NEAR(snap.instructions, 2000.0, 2.0);
    EXPECT_NEAR(snap.cycles, 3000.0, 4.0);
}


TEST(Machine, EveryRateInputChangeIsSeenAtTheSameTick)
{
    // Settled rates are reused only while no input moves; each call
    // below moves one at the tick the rates settled at.
    rbv::obs::Session session;
    Rig rig;
    WorkParams mine = memParams(3.0, 0.04, 0.08);
    const WorkParams other = memParams(3.0, 0.04, 0.08);
    rig.machine.setWork(0, mine, 1e9);
    rig.machine.setWork(1, other, 1e9);
    rig.eq.runUntil(2'000'000);
    auto expect_misses_by_hand = [&] {
        EXPECT_EQ(rig.machine.currentMissesPerIns(0),
                  mine.refsPerIns *
                      mine.curve.missRatioAt(rig.machine.occupancy(0)));
        if (rig.machine.busy(1)) {
            EXPECT_EQ(rig.machine.currentMissesPerIns(1),
                      other.refsPerIns * other.curve.missRatioAt(
                                             rig.machine.occupancy(1)));
        } else {
            EXPECT_EQ(rig.machine.currentMissesPerIns(1), 0.0);
        }
    };

    // A new footprint on a busy core.
    ASSERT_TRUE(settleRates(rig, session));
    rig.machine.setOccupancy(0, 0.5 * MiB);
    expect_misses_by_hand();

    // New work with a new miss curve at an unchanged footprint.
    ASSERT_TRUE(settleRates(rig, session));
    mine.curve.baseMissRatio = 0.12;
    rig.machine.setWork(0, mine, 1e9);
    expect_misses_by_hand();

    // A co-runner leaves.
    ASSERT_TRUE(settleRates(rig, session));
    rig.machine.clearWork(1);
    expect_misses_by_hand();
}

TEST(Machine, DepartedCoRunnerEvictsNothing)
{
    // Core 0 holds twice its working set, so only co-runner insertions
    // can shrink its footprint, and its miss ratio stays at the base
    // rate while they do. Once core 1 leaves, cleared at the tick the
    // rates settled at or done with its work, none are left.
    for (const bool completes : {false, true}) {
        SCOPED_TRACE(completes ? "completes" : "cleared");
        rbv::obs::Session session;
        Rig rig;
        rig.machine.setWork(0, memParams(1.0, 0.04, 0.08), 1e9);
        rig.machine.setWork(1, memParams(1.0, 0.04, 0.08),
                            completes ? 1e6 : 1e9);
        rig.machine.setOccupancy(0, 2.0 * MiB);
        rig.machine.setOccupancy(1, 2.0 * MiB);
        ASSERT_TRUE(settleRates(rig, session));
        if (!completes)
            rig.machine.clearWork(1);
        rig.eq.runUntil(50'000'000);
        ASSERT_FALSE(rig.machine.busy(1));
        const double held = rig.machine.occupancy(0);
        rig.eq.runUntil(100'000'000);
        EXPECT_EQ(rig.machine.occupancy(0), held);
    }
}

// ------------------------------------------------ parked refresh tick

namespace {

constexpr Tick Refresh = usToCycles(50.0);

/** Events fired from now through tick @p until. */
std::uint64_t
firedUntil(Rig &rig, Tick until)
{
    const std::uint64_t before = rig.eq.firedCount();
    rig.eq.runUntil(until);
    return rig.eq.firedCount() - before;
}

} // namespace

TEST(Machine, RefreshParksOnceTheLastWorkRetires)
{
    Rig rig(4, Refresh);
    rig.machine.setWork(0, memParams(1.0), 2e6);
    rig.machine.pushFixedWork(1, FixedWork{3.0 * Refresh, 0.0, 0.0, 0.0});
    while (rig.client.completions.empty())
        ASSERT_TRUE(rig.eq.runOne());
    const Tick retired = rig.eq.now();
    // One more refresh finds the machine quiescent and parks.
    EXPECT_EQ(firedUntil(rig, retired + Refresh), 1u);
    EXPECT_EQ(firedUntil(rig, retired + 101 * Refresh), 0u);
}

TEST(Machine, WorkWakesTheRefreshAtItsNextGridTick)
{
    // Each call lands at an off-grid tick of an idle machine whose
    // refresh parked at the first grid tick. The refresh runs again at
    // the first grid tick after the call, and parks again once no
    // boundary or timer event is pending.
    struct Wake
    {
        const char *what;
        std::function<void(Machine &)> call;
        std::uint64_t beforeGrid; ///< Machine events before the tick.
        std::uint64_t later;      ///< Events over the next 100 ticks.
    };
    const Wake wakes[] = {
        {"setWork",
         [](Machine &m) { m.setWork(0, cpuParams(), 1e12); }, 0, 100},
        // The fixed work drains after 3 ticks, and the fourth parks.
        {"pushFixedWork",
         [](Machine &m) {
             m.pushFixedWork(1, FixedWork{3.0 * Refresh, 0.0, 0.0, 0.0});
         },
         0, 4},
        // The timer has run down: it fires at once.
        {"armCycleTimer",
         [](Machine &m) { m.armCycleTimer(2, 0.0, [] {}); }, 1, 0},
    };
    for (const Wake &w : wakes) {
        SCOPED_TRACE(w.what);
        Rig rig(4, Refresh);
        EXPECT_EQ(firedUntil(rig, 10 * Refresh), 1u);
        rig.eq.runUntil(10 * Refresh + Refresh / 3);
        w.call(rig.machine);
        EXPECT_EQ(firedUntil(rig, 11 * Refresh - 1), w.beforeGrid);
        EXPECT_EQ(firedUntil(rig, 11 * Refresh), 1u);
        EXPECT_EQ(firedUntil(rig, 111 * Refresh), w.later);
    }
}

TEST(Machine, CallsThatLeaveTheMachineIdleKeepTheRefreshParked)
{
    Rig rig(4, Refresh);
    EXPECT_EQ(firedUntil(rig, 10 * Refresh + Refresh / 3), 1u);
    rig.machine.pushFixedWork(0, FixedWork{0.0, 10.0, 1.0, 0.0});
    rig.machine.setOccupancy(1, MiB);
    rig.machine.clearWork(2);
    rig.machine.setWork(3, cpuParams(), 0.0);
    // A timer on an idle core stalls: no event until the core runs.
    rig.machine.armCycleTimer(3, 5000.0, [] {});
    EXPECT_EQ(firedUntil(rig, 110 * Refresh), 0u);
    EXPECT_DOUBLE_EQ(rig.machine.counters(0).snapshot().instructions,
                     10.0);
}

// ------------------------------------------- same-tick order in a turn

namespace {

using Fired = std::vector<std::pair<char, Tick>>;

/** A client that logs each completion as 'C' into a firing log. */
struct LogClient : CoreClient
{
    EventQueue &eq;
    Fired &fired;

    LogClient(EventQueue &q, Fired &log) : eq(q), fired(log) {}

    void
    onWorkComplete(CoreId) override
    {
        fired.emplace_back('C', eq.now());
    }
};

constexpr Tick T0 = 100;

} // namespace

TEST(Machine, BoundaryTakesItsSameTickPlaceFromTheTurnsLastPass)
{
    // One turn: core 0's boundary lands at T0 + 1000, A is scheduled
    // for that tick, a zero bundle on core 1 runs a pass that re-keys
    // the boundary, and B is scheduled for that tick. The boundary
    // holds the key of the last pass: after A, before B.
    EventQueue eq;
    Fired fired;
    LogClient client(eq, fired);
    Machine m(Rig::makeConfig(4, 0), eq, &client);
    auto log = [&](char name) {
        return [&, name] { fired.emplace_back(name, eq.now()); };
    };
    eq.schedule(T0, [&] {
        m.setWork(0, cpuParams(), 1000.0);
        eq.scheduleIn(1000, log('A'));
        m.pushFixedWork(1, FixedWork{});
        eq.scheduleIn(1000, log('B'));
    });
    eq.runUntil(10 * T0 + 1000);
    EXPECT_EQ(fired, (Fired{{'A', T0 + 1000},
                            {'C', T0 + 1000},
                            {'B', T0 + 1000}}));
}

TEST(Machine, TimerTakesItsSameTickPlaceFromTheTurnsLastPass)
{
    // As above, with core 0's cycle timer in place of its boundary.
    EventQueue eq;
    Fired fired;
    LogClient client(eq, fired);
    Machine m(Rig::makeConfig(4, 0), eq, &client);
    auto log = [&](char name) {
        return [&, name] { fired.emplace_back(name, eq.now()); };
    };
    m.setWork(0, cpuParams(), 1e9);
    eq.schedule(T0, [&] {
        m.armCycleTimer(0, 1000.0, log('T'));
        eq.scheduleIn(1000, log('A'));
        m.pushFixedWork(1, FixedWork{});
        eq.scheduleIn(1000, log('B'));
    });
    eq.runUntil(10 * T0 + 1000);
    EXPECT_EQ(fired, (Fired{{'A', T0 + 1000},
                            {'T', T0 + 1000},
                            {'B', T0 + 1000}}));
}

TEST(Machine, AMachineDestroyedWithAFlushPendingIsNeverFlushed)
{
    // Both machines defer their boundary pass; one is destroyed before
    // the queue flushes, and only the other's boundary is scheduled.
    EventQueue eq;
    TestClient client;
    auto kept = std::make_unique<Machine>(Rig::makeConfig(4, 0), eq,
                                          &client);
    auto dropped = std::make_unique<Machine>(Rig::makeConfig(4, 0), eq,
                                             &client);
    kept->setWork(0, cpuParams(), 1000.0);
    dropped->setWork(1, cpuParams(), 1000.0);
    dropped.reset();
    EXPECT_EQ(eq.size(), 1u);
    eq.runUntil(1'000'000);
    EXPECT_EQ(client.completions, (std::vector<CoreId>{0}));
    EXPECT_TRUE(eq.empty());
}
