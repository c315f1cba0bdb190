/**
 * @file
 * Tests for the online samplers and the observer-effect model.
 */

#include <gtest/gtest.h>

#include <deque>

#include "core/sampling/sampler.hh"
#include "core/sampling/transition.hh"
#include "os/kernel.hh"

using namespace rbv;
using namespace rbv::core;
using namespace rbv::os;

namespace {

/** Thread logic alternating exec bursts and configurable syscalls. */
struct BurstLogic : ThreadLogic
{
    double burst_ins;
    double cpi;
    Sys sys;
    bool use_syscall;

    BurstLogic(double burst_ins, double cpi = 1.0,
               Sys sys = Sys::gettimeofday, bool use_syscall = true)
        : burst_ins(burst_ins), cpi(cpi), sys(sys),
          use_syscall(use_syscall)
    {
    }

    bool exec_next = true;

    Action
    next() override
    {
        if (!use_syscall || exec_next) {
            exec_next = false;
            sim::WorkParams p;
            p.baseCpi = cpi;
            return ActExec{p, burst_ins};
        }
        exec_next = true;
        ActSyscall a;
        a.id = sys;
        return a;
    }
};

/**
 * Logic where the same syscall name means different things by
 * context: read-after-poll precedes a high-CPI burst while
 * read-after-write precedes nothing -- only a bigram signal can
 * separate them.
 */
struct ContextualReadLogic : ThreadLogic
{
    int state = 0;

    Action
    next() override
    {
        sim::WorkParams lo;
        lo.baseCpi = 1.0;
        sim::WorkParams hi;
        hi.baseCpi = 5.0;
        ActSyscall a;
        switch (state++ % 10) {
          case 0:
            return ActExec{lo, 200000.0};
          case 1:
            a.id = Sys::poll;
            return a;
          case 2: // connection bookkeeping before the request read
            return ActExec{lo, 30000.0};
          case 3: // read-after-poll: the high-CPI parse burst follows
            a.id = Sys::read;
            return a;
          case 4:
            return ActExec{hi, 200000.0};
          case 5:
            a.id = Sys::write;
            return a;
          case 6:
            return ActExec{lo, 30000.0};
          case 7: // read-after-write: just the next body chunk
            a.id = Sys::read;
            return a;
          case 8:
            return ActExec{lo, 200000.0};
          default:
            a.id = Sys::close;
            return a;
        }
    }
};

/** Logic alternating two CPI levels separated by distinct syscalls. */
struct TwoPhaseLogic : ThreadLogic
{
    int state = 0;

    Action
    next() override
    {
        sim::WorkParams p;
        switch (state++ % 4) {
          case 0: { // low-CPI phase
            p.baseCpi = 1.0;
            return ActExec{p, 300000.0};
          }
          case 1: { // writev signals a CPI increase
            ActSyscall a;
            a.id = Sys::writev;
            return a;
          }
          case 2: { // high-CPI phase
            p.baseCpi = 5.0;
            return ActExec{p, 300000.0};
          }
          default: { // stat signals a CPI decrease
            ActSyscall a;
            a.id = Sys::stat;
            return a;
          }
        }
    }
};

struct Rig
{
    sim::EventQueue eq;
    sim::Machine machine;
    Kernel kernel;
    RequestId req;

    Rig()
        : machine(makeConfig(), eq), kernel(machine),
          req(InvalidRequestId)
    {
        machine.setClient(&kernel);
    }

    static sim::MachineConfig
    makeConfig()
    {
        sim::MachineConfig mc;
        mc.numCores = 1;
        mc.coresPerL2Domain = 1;
        return mc;
    }

    /** Start one thread wrapped in an everlasting request context. */
    void
    startWithRequest(std::unique_ptr<ThreadLogic> logic)
    {
        const ChannelId in = kernel.createChannel();
        req = kernel.registerRequest();
        // A tiny shim delivers the request context, then delegates.
        struct Shim : ThreadLogic
        {
            ChannelId in;
            std::unique_ptr<ThreadLogic> inner;
            bool adopted = false;
            Action
            next() override
            {
                if (!adopted) {
                    adopted = true;
                    ActSyscall a;
                    a.id = Sys::recv;
                    a.args.behavior = SysBehavior::ChannelRecv;
                    a.args.channel = in;
                    return a;
                }
                return inner->next();
            }
        };
        auto shim = std::make_unique<Shim>();
        shim->in = in;
        shim->inner = std::move(logic);
        kernel.createThread(kernel.createProcess("p"), std::move(shim));
        kernel.start();
        Message m;
        m.request = req;
        kernel.post(in, m);
    }
};

} // namespace

// ------------------------------------------------------- Observer model

TEST(Observer, SpinFloorAtZeroPollution)
{
    const auto c = observerCost(SampleContext::InKernel, 0.0);
    EXPECT_DOUBLE_EQ(c.cycles, InKernelSpin.cycles);
    EXPECT_DOUBLE_EQ(c.l2Refs, 0.0);
}

TEST(Observer, DataCeilingAtFullPollution)
{
    const auto c = observerCost(SampleContext::InKernel,
                                FullPollutionMissesPerIns);
    EXPECT_DOUBLE_EQ(c.cycles, InKernelData.cycles);
    EXPECT_DOUBLE_EQ(c.l2Refs, InKernelData.l2Refs);
}

TEST(Observer, InterpolationMonotone)
{
    double prev = 0.0;
    for (double m = 0.0; m <= 0.03; m += 0.005) {
        const auto c = observerCost(SampleContext::Interrupt, m);
        EXPECT_GE(c.cycles, prev);
        prev = c.cycles;
    }
}

TEST(Observer, InterruptCostsMoreThanInKernel)
{
    const auto ik = observerCost(SampleContext::InKernel, 0.01);
    const auto ir = observerCost(SampleContext::Interrupt, 0.01);
    EXPECT_GT(ir.cycles, ik.cycles);
}

TEST(Observer, CompensationIsSpinRow)
{
    EXPECT_DOUBLE_EQ(observerCompensation(SampleContext::InKernel).cycles,
                     InKernelSpin.cycles);
    EXPECT_DOUBLE_EQ(
        observerCompensation(SampleContext::Interrupt).cycles,
        InterruptSpin.cycles);
}

// ---------------------------------------------------- InterruptSampler

TEST(InterruptSampler, SamplesAtConfiguredPeriod)
{
    Rig rig;
    SamplerConfig sc;
    sc.periodUs = 10.0;
    InterruptSampler sampler(rig.kernel, sc);
    rig.startWithRequest(
        std::make_unique<BurstLogic>(1e6, 1.0, Sys::gettimeofday,
                                     false));
    sampler.start();
    rig.eq.runUntil(sim::msToCycles(2.0));

    // ~2 ms of busy execution at 10 us period -> ~200 samples.
    EXPECT_NEAR(static_cast<double>(sampler.stats().interruptSamples),
                200.0, 30.0);
}

TEST(InterruptSampler, TimelinePeriodsMatchRequestExecution)
{
    Rig rig;
    SamplerConfig sc;
    sc.periodUs = 10.0;
    InterruptSampler sampler(rig.kernel, sc);
    rig.startWithRequest(
        std::make_unique<BurstLogic>(1e6, 2.0, Sys::gettimeofday,
                                     false));
    sampler.start();
    rig.eq.runUntil(sim::msToCycles(2.0));

    const Timeline &tl = sampler.timelineOf(rig.req);
    ASSERT_GT(tl.periods.size(), 50u);
    // Each interrupt period covers ~10 us of CPI-2 execution:
    // ~15000 instructions.
    double sum = 0.0;
    for (const auto &p : tl.periods)
        sum += p.instructions;
    EXPECT_NEAR(sum / static_cast<double>(tl.periods.size()), 15000.0,
                2500.0);
    // CPI of interior periods reflects the workload.
    const auto &mid = tl.periods[tl.periods.size() / 2];
    EXPECT_NEAR(mid.cpi(), 2.0, 0.25);
}

TEST(InterruptSampler, ObserverCostInflatesUncompensatedCpi)
{
    auto run = [&](bool compensate) {
        Rig rig;
        SamplerConfig sc;
        sc.periodUs = 10.0;
        sc.compensate = compensate;
        InterruptSampler sampler(rig.kernel, sc);
        rig.startWithRequest(std::make_unique<BurstLogic>(
            1e6, 1.0, Sys::gettimeofday, false));
        sampler.start();
        rig.eq.runUntil(sim::msToCycles(2.0));
        const Timeline &tl = sampler.timelineOf(rig.req);
        double cyc = 0.0, ins = 0.0;
        for (const auto &p : tl.periods) {
            cyc += p.cycles;
            ins += p.instructions;
        }
        return cyc / ins;
    };
    const double raw = run(false);
    const double comp = run(true);
    // Compensation must bring the measured CPI closer to the true 1.0
    // (plus context-switch noise) from above.
    EXPECT_GT(raw, comp);
    EXPECT_NEAR(comp, 1.0, 0.1);
}

TEST(InterruptSampler, OverheadAccounted)
{
    Rig rig;
    SamplerConfig sc;
    sc.periodUs = 10.0;
    InterruptSampler sampler(rig.kernel, sc);
    rig.startWithRequest(std::make_unique<BurstLogic>(
        1e6, 1.0, Sys::gettimeofday, false));
    sampler.start();
    rig.eq.runUntil(sim::msToCycles(2.0));
    // Each interrupt sample costs >= the Spin interrupt row.
    EXPECT_GE(sampler.stats().overheadCycles,
              static_cast<double>(sampler.stats().interruptSamples) *
                  InterruptSpin.cycles);
}

// ------------------------------------------------------ SyscallSampler

TEST(SyscallSampler, SamplesAtSyscallsHonoringMinGap)
{
    Rig rig;
    SamplerConfig sc;
    sc.minGapUs = 10.0;
    sc.backupUs = 500.0;
    SyscallSampler sampler(rig.kernel, sc);
    // Bursts of ~5 us -> syscalls every ~10 us of execution.
    rig.startWithRequest(std::make_unique<BurstLogic>(15000.0, 1.0));
    sampler.start();
    rig.eq.runUntil(sim::msToCycles(2.0));

    EXPECT_GT(sampler.stats().syscallSamples, 50u);
    // With frequent syscalls, the backup timer must (almost) never
    // fire (the paper's design goal).
    EXPECT_LE(sampler.stats().backupSamples,
              sampler.stats().syscallSamples / 10);
}

TEST(SyscallSampler, MinGapRateLimits)
{
    Rig rig;
    SamplerConfig sc;
    sc.minGapUs = 100.0;
    sc.backupUs = 10000.0;
    SyscallSampler sampler(rig.kernel, sc);
    // Syscalls every ~2 us: the 100 us gate must swallow ~98% of them.
    rig.startWithRequest(std::make_unique<BurstLogic>(6000.0, 1.0));
    sampler.start();
    rig.eq.runUntil(sim::msToCycles(4.0));

    const auto &st = sampler.stats();
    EXPECT_GT(rig.kernel.stats().syscalls, 10u * st.syscallSamples);
}

TEST(SyscallSampler, BackupCoversSyscallFreeExecution)
{
    Rig rig;
    SamplerConfig sc;
    sc.minGapUs = 10.0;
    sc.backupUs = 50.0;
    SyscallSampler sampler(rig.kernel, sc);
    // One giant burst, no syscalls: only backup interrupts sample.
    rig.startWithRequest(std::make_unique<BurstLogic>(
        1e9, 1.0, Sys::gettimeofday, false));
    sampler.start();
    rig.eq.runUntil(sim::msToCycles(2.0));

    EXPECT_NEAR(static_cast<double>(sampler.stats().backupSamples),
                2000.0 / 50.0, 10.0);
    EXPECT_EQ(sampler.stats().syscallSamples, 0u);
}

// ---------------------------------------------- TransitionSignalSampler

TEST(TransitionSampler, OnlySelectedSyscallsTrigger)
{
    Rig rig;
    SamplerConfig sc;
    sc.minGapUs = 1.0;
    sc.backupUs = 100000.0;
    TransitionSignalSampler sampler(
        rig.kernel, sc,
        {TransitionSignal::call(Sys::writev),
         TransitionSignal::call(Sys::stat)});
    rig.startWithRequest(std::make_unique<TwoPhaseLogic>());
    sampler.start();
    rig.eq.runUntil(sim::msToCycles(10.0));
    const auto selected = sampler.stats().syscallSamples;
    EXPECT_GT(selected, 10u);

    Rig rig2;
    TransitionSignalSampler none(rig2.kernel, sc,
                                 {TransitionSignal::call(Sys::open)});
    rig2.startWithRequest(std::make_unique<TwoPhaseLogic>());
    none.start();
    rig2.eq.runUntil(sim::msToCycles(10.0));
    EXPECT_EQ(none.stats().syscallSamples, 0u);
}

// ---------------------------------------------------- TransitionTrainer

TEST(TransitionTrainer, LearnsSignedCpiChanges)
{
    Rig rig;
    SamplerConfig sc;
    sc.periodUs = 10.0;
    InterruptSampler sampler(rig.kernel, sc);
    TransitionTrainer trainer(rig.kernel, sampler);
    rig.startWithRequest(std::make_unique<TwoPhaseLogic>());
    sampler.start();
    rig.eq.runUntil(sim::msToCycles(20.0));

    const auto ranked = trainer.ranked(false, 5);
    ASSERT_GE(ranked.size(), 2u);

    double writev_change = 0.0, stat_change = 0.0;
    bool saw_writev = false, saw_stat = false;
    for (const auto &s : ranked) {
        if (s.signal.sys == Sys::writev) {
            writev_change = s.meanChange;
            saw_writev = true;
        }
        if (s.signal.sys == Sys::stat) {
            stat_change = s.meanChange;
            saw_stat = true;
        }
    }
    ASSERT_TRUE(saw_writev);
    ASSERT_TRUE(saw_stat);
    // writev precedes the CPI jump 1 -> 4; stat precedes 4 -> 1.
    EXPECT_GT(writev_change, 1.0);
    EXPECT_LT(stat_change, -1.0);
}

TEST(TransitionTrainer, SelectTriggersRanksByMagnitude)
{
    Rig rig;
    SamplerConfig sc;
    sc.periodUs = 10.0;
    InterruptSampler sampler(rig.kernel, sc);
    TransitionTrainer trainer(rig.kernel, sampler);
    rig.startWithRequest(std::make_unique<TwoPhaseLogic>());
    sampler.start();
    rig.eq.runUntil(sim::msToCycles(20.0));

    const auto triggers = trainer.selectTriggers(false, 2, 5);
    ASSERT_EQ(triggers.size(), 2u);
    // The two phase-change signals must rank above recv/send noise.
    for (const TransitionSignal &s : triggers) {
        EXPECT_TRUE(s == TransitionSignal::call(Sys::writev) ||
                    s == TransitionSignal::call(Sys::stat));
    }
}

TEST(TransitionTrainer, EachKindHasItsOwnPendingCap)
{
    // About 150 calls per 200 us interrupt period: each kind's pending
    // list fills to its cap of 16 and resolves two periods later, so
    // 16 calls of each kind count per two periods (192 in 5 ms), as in
    // the separate single-call and pair trainers this one replaced. A
    // list shared by both kinds would count 96 of each.
    Rig rig;
    SamplerConfig sc;
    sc.periodUs = 200.0;
    InterruptSampler sampler(rig.kernel, sc);
    TransitionTrainer trainer(rig.kernel, sampler);
    rig.startWithRequest(std::make_unique<BurstLogic>(2000.0));
    sampler.start();
    rig.eq.runUntil(sim::msToCycles(5.0));

    const auto singles = trainer.ranked(false, 1);
    const auto pairs = trainer.ranked(true, 1);
    ASSERT_EQ(singles.size(), 1u);
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_TRUE(singles[0].signal ==
                TransitionSignal::call(Sys::gettimeofday));
    EXPECT_TRUE(pairs[0].signal == TransitionSignal::after(
                                       Sys::gettimeofday,
                                       Sys::gettimeofday));
    EXPECT_EQ(singles[0].count, 192u);
    EXPECT_EQ(pairs[0].count, 192u);
}

// ------------------------------------------------- Bigram extension

TEST(BigramTrainer, SeparatesContextDependentSyscalls)
{
    Rig rig;
    SamplerConfig sc;
    sc.minGapUs = 1.0;
    sc.backupUs = 100000.0;
    SyscallSampler sampler(rig.kernel, sc);
    TransitionTrainer trainer(rig.kernel, sampler);
    rig.startWithRequest(std::make_unique<ContextualReadLogic>());
    sampler.start();
    rig.eq.runUntil(sim::msToCycles(30.0));

    // Unigram: read's mean change blends +4 and 0 contexts.
    double uni_read = 0.0, uni_read_std = 0.0;
    for (const auto &st : trainer.ranked(false, 5)) {
        if (st.signal.sys == Sys::read) {
            uni_read = st.meanChange;
            uni_read_std = st.stddev;
        }
    }
    EXPECT_GT(uni_read, 0.8);
    EXPECT_LT(uni_read, 3.2);
    EXPECT_GT(uni_read_std, 1.0); // blended contexts -> high spread

    // Bigram: (poll, read) is a strong clean signal; (write, read)
    // is near zero.
    double poll_read = 0.0, write_read = 1e9;
    double poll_read_std = 1e9;
    const auto poll_read_signal =
        TransitionSignal::after(Sys::poll, Sys::read);
    for (const auto &st : trainer.ranked(true, 5)) {
        if (st.signal == poll_read_signal) {
            poll_read = st.meanChange;
            poll_read_std = st.stddev;
        }
        if (st.signal == TransitionSignal::after(Sys::write, Sys::read))
            write_read = st.meanChange;
    }
    EXPECT_GT(poll_read, 3.0);
    EXPECT_LT(poll_read_std, uni_read_std);
    EXPECT_LT(std::abs(write_read), 0.5);

    // And (poll, read) ranks among the strongest bigram signals
    // ((read, write), its mirror-image drop, is equally strong).
    const auto triggers = trainer.selectTriggers(true, 2, 5);
    ASSERT_EQ(triggers.size(), 2u);
    const bool found = triggers[0] == poll_read_signal ||
                       triggers[1] == poll_read_signal;
    EXPECT_TRUE(found);
}

TEST(BigramSampler, TriggersOnlyOnSelectedPairs)
{
    Rig rig;
    SamplerConfig sc;
    sc.minGapUs = 1.0;
    sc.backupUs = 100000.0;
    TransitionSignalSampler sampler(
        rig.kernel, sc, {TransitionSignal::after(Sys::poll, Sys::read)});
    rig.startWithRequest(std::make_unique<ContextualReadLogic>());
    sampler.start();
    rig.eq.runUntil(sim::msToCycles(20.0));

    // One (poll, read) occurrence per 10-step cycle. Expect roughly
    // one syscall sample per cycle and no more.
    const auto n = sampler.stats().syscallSamples;
    EXPECT_GT(n, 10u);
    // 5 syscalls per cycle: an all-syscall sampler takes several x.
    Rig rig2;
    SyscallSampler all(rig2.kernel, sc);
    rig2.startWithRequest(std::make_unique<ContextualReadLogic>());
    all.start();
    rig2.eq.runUntil(sim::msToCycles(20.0));
    EXPECT_GT(all.stats().syscallSamples, n * 3);
}

TEST(TransitionSampler, MixedTriggersFireOnSingleCallsAndPairs)
{
    // Each 10-step cycle has one poll() and one read() after poll():
    // a sampler selecting both signals samples at both, as often as
    // the two one-signal samplers together. poll() must count as the
    // previous call even on the calls where it fires by itself.
    const auto syscall_samples =
        [](const std::vector<TransitionSignal> &triggers) {
            Rig rig;
            SamplerConfig sc;
            sc.minGapUs = 1.0;
            sc.backupUs = 100000.0;
            TransitionSignalSampler sampler(rig.kernel, sc, triggers);
            rig.startWithRequest(std::make_unique<ContextualReadLogic>());
            sampler.start();
            rig.eq.runUntil(sim::msToCycles(20.0));
            return sampler.stats().syscallSamples;
        };
    const auto poll = TransitionSignal::call(Sys::poll);
    const auto poll_read = TransitionSignal::after(Sys::poll, Sys::read);
    const auto at_poll = syscall_samples({poll});
    const auto at_poll_read = syscall_samples({poll_read});
    const auto at_both = syscall_samples({poll, poll_read});
    EXPECT_GT(at_poll, 10u);
    EXPECT_GT(at_poll_read, 10u);
    EXPECT_NEAR(static_cast<double>(at_both),
                static_cast<double>(at_poll + at_poll_read), 2.0);
}
