/**
 * @file
 * Tests for contention-easing scheduling (Sec. 5.2).
 */

#include <gtest/gtest.h>

#include "core/sched/contention.hh"
#include "wl/mbench.hh"

using namespace rbv;
using namespace rbv::core;
using namespace rbv::os;

namespace {

struct Rig
{
    sim::EventQueue eq;
    sim::Machine machine;
    Kernel kernel;

    explicit Rig(std::shared_ptr<SchedulerPolicy> policy = nullptr,
                 int cores = 2)
        : machine(makeConfig(cores), eq),
          kernel(machine, KernelConfig{}, std::move(policy))
    {
        machine.setClient(&kernel);
    }

    static sim::MachineConfig
    makeConfig(int cores)
    {
        sim::MachineConfig mc;
        mc.numCores = cores;
        mc.coresPerL2Domain = cores >= 2 ? 2 : 1;
        return mc;
    }
};

/** Feed a prediction so the thread reads as high/low usage. */
void
feed(ContentionEasingPolicy &policy, ThreadId tid, bool high)
{
    const double unit = policy.config().unitTicks;
    for (int i = 0; i < 10; ++i)
        policy.observePeriod(tid, unit,
                             high ? policy.config().highThreshold * 4
                                  : policy.config().highThreshold / 4);
}

} // namespace

TEST(ContentionPolicy, PredictionsStartAtZero)
{
    ContentionEasingPolicy policy;
    EXPECT_DOUBLE_EQ(policy.predictionOf(5), 0.0);
    EXPECT_FALSE(policy.isHigh(5));
    EXPECT_DOUBLE_EQ(policy.predictionOf(InvalidThreadId), 0.0);
}

TEST(ContentionPolicy, ObservationsDrivePrediction)
{
    ContentionEasingPolicy policy;
    feed(policy, 3, true);
    EXPECT_TRUE(policy.isHigh(3));
    feed(policy, 3, false);
    EXPECT_FALSE(policy.isHigh(3));
}

TEST(ContentionPolicy, NormalPickWhenNoOtherCoreHigh)
{
    auto policy = std::make_shared<ContentionEasingPolicy>();
    Rig rig(policy);
    const ProcessId p = rig.kernel.createProcess("p");
    std::vector<ThreadId> tids;
    for (int i = 0; i < 4; ++i)
        tids.push_back(rig.kernel.createThread(
            p, std::make_unique<wl::MbenchLogic>(wl::Mbench::Spin)));

    feed(*policy, tids[2], true); // high, but nothing else runs
    EXPECT_EQ(policy->pickNext(rig.kernel, 0,
                               {tids[2], tids[0], tids[1]}),
              0u);
}

TEST(ContentionPolicy, AvoidsHighWhenOtherCoreHigh)
{
    auto policy = std::make_shared<ContentionEasingPolicy>();
    Rig rig(policy);
    const ProcessId p = rig.kernel.createProcess("p");
    std::vector<ThreadId> tids;
    for (int i = 0; i < 4; ++i)
        tids.push_back(rig.kernel.createThread(
            p, std::make_unique<wl::MbenchLogic>(wl::Mbench::Data)));
    rig.kernel.start(); // threads 0,2 on core 0; 1,3 on core 1

    // Mark the thread running on core 1 as high usage.
    const ThreadId on_core1 = rig.kernel.runningThread(1);
    ASSERT_NE(on_core1, InvalidThreadId);
    feed(*policy, on_core1, true);

    // Candidates on core 0: a high one at the head, a low one behind.
    ThreadId high_cand = InvalidThreadId, low_cand = InvalidThreadId;
    for (ThreadId t : tids) {
        if (t == on_core1 || t == rig.kernel.runningThread(0))
            continue;
        if (high_cand == InvalidThreadId)
            high_cand = t;
        else
            low_cand = t;
    }
    feed(*policy, high_cand, true);
    feed(*policy, low_cand, false);

    EXPECT_EQ(policy->pickNext(rig.kernel, 0, {high_cand, low_cand}),
              1u);
}

TEST(ContentionPolicy, GivesUpWhenAllCandidatesHigh)
{
    auto policy = std::make_shared<ContentionEasingPolicy>();
    Rig rig(policy);
    const ProcessId p = rig.kernel.createProcess("p");
    std::vector<ThreadId> tids;
    for (int i = 0; i < 3; ++i)
        tids.push_back(rig.kernel.createThread(
            p, std::make_unique<wl::MbenchLogic>(wl::Mbench::Data)));
    rig.kernel.start();

    const ThreadId other = rig.kernel.runningThread(1);
    feed(*policy, other, true);
    for (ThreadId t : tids)
        feed(*policy, t, true);

    EXPECT_EQ(policy->pickNext(rig.kernel, 0, {tids[0], tids[2]}), 0u);
}

TEST(ContentionPolicy, CrossDomainHighCoresAlsoDefer)
{
    // The paper's policy checks every other core, not only the ones
    // sharing this core's L2 domain.
    auto policy = std::make_shared<ContentionEasingPolicy>();
    Rig rig(policy, 4); // cores {0,1} and {2,3} share L2 domains
    const ProcessId p = rig.kernel.createProcess("p");
    std::vector<ThreadId> tids;
    for (int i = 0; i < 8; ++i)
        tids.push_back(rig.kernel.createThread(
            p, std::make_unique<wl::MbenchLogic>(wl::Mbench::Data)));
    rig.kernel.start();

    ThreadId high_cand = InvalidThreadId, low_cand = InvalidThreadId;
    for (ThreadId t : tids) {
        bool running = false;
        for (sim::CoreId c = 0; c < 4; ++c)
            running = running || rig.kernel.runningThread(c) == t;
        if (running)
            continue;
        if (high_cand == InvalidThreadId)
            high_cand = t;
        else if (low_cand == InvalidThreadId)
            low_cand = t;
    }
    feed(*policy, high_cand, true);
    feed(*policy, low_cand, false);
    EXPECT_EQ(policy->pickNext(rig.kernel, 0, {high_cand, low_cand}),
              0u);

    // A high thread on the OTHER domain (core 2) is enough to defer.
    feed(*policy, rig.kernel.runningThread(2), true);
    EXPECT_EQ(policy->pickNext(rig.kernel, 0, {high_cand, low_cand}),
              1u);
}

TEST(ContentionPolicy, StarvationGuardBoundsDeferrals)
{
    core::ContentionConfig cc;
    cc.maxHeadDeferrals = 2;
    auto policy = std::make_shared<ContentionEasingPolicy>(cc);
    Rig rig(policy, 2);
    const ProcessId p = rig.kernel.createProcess("p");
    std::vector<ThreadId> tids;
    for (int i = 0; i < 4; ++i)
        tids.push_back(rig.kernel.createThread(
            p, std::make_unique<wl::MbenchLogic>(wl::Mbench::Data)));
    rig.kernel.start();
    feed(*policy, rig.kernel.runningThread(1), true);

    ThreadId high_cand = InvalidThreadId, low_cand = InvalidThreadId;
    for (ThreadId t : tids) {
        if (t == rig.kernel.runningThread(0) ||
            t == rig.kernel.runningThread(1))
            continue;
        if (high_cand == InvalidThreadId)
            high_cand = t;
        else
            low_cand = t;
    }
    feed(*policy, high_cand, true);
    feed(*policy, low_cand, false);

    // Two deferrals pass, the third forces the head to run.
    EXPECT_EQ(policy->pickNext(rig.kernel, 0, {high_cand, low_cand}),
              1u);
    EXPECT_EQ(policy->pickNext(rig.kernel, 0, {high_cand, low_cand}),
              1u);
    EXPECT_EQ(policy->pickNext(rig.kernel, 0, {high_cand, low_cand}),
              0u);
}

TEST(ContentionPolicy, ReschedIntervalIs5ms)
{
    ContentionEasingPolicy policy;
    EXPECT_EQ(policy.reschedInterval(), sim::msToCycles(5.0));
}

TEST(ContentionPolicy, ReschedTimerAttemptsRescheduling)
{
    auto policy = std::make_shared<ContentionEasingPolicy>();
    Rig rig(policy, 2);
    const ProcessId p = rig.kernel.createProcess("p");
    for (int i = 0; i < 6; ++i)
        rig.kernel.createThread(
            p, std::make_unique<wl::MbenchLogic>(wl::Mbench::Spin));
    rig.kernel.start();
    rig.eq.runUntil(sim::msToCycles(100.0));
    EXPECT_GT(rig.kernel.stats().reschedAttempts, 10u);
}

// ---------------------------------------------------- ContentionStats

TEST(ContentionStats, FractionAtLeast)
{
    ContentionStats st;
    st.cyclesAtHighCount = {50.0, 30.0, 20.0}; // 0,1,2 cores high
    EXPECT_DOUBLE_EQ(st.fractionAtLeast(0), 1.0);
    EXPECT_DOUBLE_EQ(st.fractionAtLeast(1), 0.5);
    EXPECT_DOUBLE_EQ(st.fractionAtLeast(2), 0.2);
    EXPECT_DOUBLE_EQ(st.fractionAtLeast(3), 0.0);
}

TEST(ContentionStats, EmptySafe)
{
    ContentionStats st;
    EXPECT_DOUBLE_EQ(st.fractionAtLeast(1), 0.0);
}

TEST(ContentionMonitor, CountsHighUsageCores)
{
    Rig rig(nullptr, 2);
    const ProcessId p = rig.kernel.createProcess("p");
    // Mbench-Data misses a lot (0.02 misses/ins); Spin misses nothing.
    rig.kernel.createThread(
        p, std::make_unique<wl::MbenchLogic>(wl::Mbench::Data));
    rig.kernel.createThread(
        p, std::make_unique<wl::MbenchLogic>(wl::Mbench::Spin));
    ContentionMonitor monitor(rig.kernel, 0.005,
                              sim::usToCycles(50.0));
    rig.kernel.start();
    monitor.start();
    rig.eq.runUntil(sim::msToCycles(20.0));

    const auto &st = monitor.stats();
    // Exactly one core (the Data one) is above threshold throughout.
    EXPECT_GT(st.fractionAtLeast(1), 0.9);
    EXPECT_LT(st.fractionAtLeast(2), 0.05);
}

TEST(ContentionMonitor, IdleMachineIsAllZero)
{
    Rig rig(nullptr, 2);
    ContentionMonitor monitor(rig.kernel, 0.001,
                              sim::usToCycles(50.0));
    rig.kernel.start();
    monitor.start();
    rig.eq.runUntil(sim::msToCycles(5.0));
    EXPECT_DOUBLE_EQ(monitor.stats().fractionAtLeast(1), 0.0);
    EXPECT_GT(monitor.stats().totalCycles(), 0.0);
}
