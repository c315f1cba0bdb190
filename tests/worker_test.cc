/**
 * @file
 * Tests for the server worker logic, server builder, and closed-loop
 * load driver.
 */

#include <gtest/gtest.h>

#include "os/kernel.hh"
#include "wl/builder.hh"
#include "wl/server.hh"
#include "wl/worker.hh"

using namespace rbv;
using namespace rbv::wl;

namespace {

/** Minimal two-tier generator with fixed, known requests. */
class TwoTierGen : public Generator
{
  public:
    std::string appName() const override { return "twotier"; }

    std::vector<TierSpec>
    tiers() const override
    {
        return {TierSpec{"front", 2}, TierSpec{"back", 2}};
    }

    std::unique_ptr<RequestSpec>
    generate(stats::Rng &rng) override
    {
        (void)rng;
        auto req = std::make_unique<RequestSpec>();
        req->className = "twotier.req";
        req->classId = 0;

        StageSpec front;
        front.tier = 0;
        front.segments.push_back(seg(10000, 1.0, 0.0, 0.0, 0.0));
        req->stages.push_back(std::move(front));

        StageSpec back;
        back.tier = 1;
        back.segments.push_back(withSys(
            seg(20000, 2.0, 0.0, 0.0, 0.0), os::Sys::stat));
        req->stages.push_back(std::move(back));

        StageSpec reply;
        reply.tier = 0;
        reply.segments.push_back(seg(5000, 1.0, 0.0, 0.0, 0.0));
        req->stages.push_back(std::move(reply));
        return req;
    }

    double defaultSamplingPeriodUs() const override { return 100.0; }
    int defaultConcurrency() const override { return 2; }
    double thinkTimeUs() const override { return 100.0; }
};

struct Rig
{
    sim::EventQueue eq;
    sim::Machine machine;
    os::Kernel kernel;

    explicit Rig(int cores = 2)
        : machine(makeConfig(cores), eq), kernel(machine)
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

} // namespace

TEST(ServerApp, BuildsTiersAndChannels)
{
    Rig rig;
    TwoTierGen gen;
    ServerApp app(rig.kernel, gen.tiers());
    EXPECT_EQ(app.numTiers(), 2);
    EXPECT_NE(app.tierChannel(0), app.tierChannel(1));
    EXPECT_NE(app.replyChannel(), app.tierChannel(0));
}

TEST(LoadDriver, CompletesTargetRequests)
{
    Rig rig;
    TwoTierGen gen;
    ServerApp app(rig.kernel, gen.tiers());
    LoadDriver::Config dc;
    dc.concurrency = 2;
    dc.targetRequests = 10;
    dc.thinkTimeUs = 100.0;
    LoadDriver driver(rig.kernel, app, gen, stats::Rng(1), dc);

    rig.kernel.start();
    driver.start();
    rig.eq.runUntil(sim::msToCycles(500.0));

    EXPECT_EQ(driver.completed(), 10u);
    EXPECT_EQ(driver.injected(), 10u);
    EXPECT_EQ(rig.kernel.completedRequests(), 10u);
}

TEST(LoadDriver, AllStagesExecuteAndAttribute)
{
    Rig rig;
    TwoTierGen gen;
    ServerApp app(rig.kernel, gen.tiers());
    LoadDriver::Config dc;
    dc.concurrency = 1; // serial: exact per-request expectations
    dc.targetRequests = 5;
    LoadDriver driver(rig.kernel, app, gen, stats::Rng(2), dc);

    rig.kernel.start();
    driver.start();
    rig.eq.runUntil(sim::msToCycles(500.0));

    ASSERT_EQ(rig.kernel.numRequests(), 5u);
    for (std::size_t id = 0; id < rig.kernel.numRequests(); ++id) {
        const auto &info =
            rig.kernel.request(static_cast<os::RequestId>(id));
        ASSERT_TRUE(info.done);
        // 10000 + 20000 + 5000 user instructions plus kernel costs.
        EXPECT_GT(info.totals.instructions, 35000.0);
        EXPECT_LT(info.totals.instructions, 70000.0);
        // The back-tier stat syscall and the channel hops appear in
        // the request's syscall sequence.
        bool has_stat = false;
        int sends = 0;
        for (os::Sys s : info.syscalls) {
            has_stat = has_stat || s == os::Sys::stat;
            sends += s == os::Sys::send;
        }
        EXPECT_TRUE(has_stat);
        EXPECT_GE(sends, 3); // front->back, back->front, front->reply
    }
}

TEST(LoadDriver, CompletionCallbackSeesEachRequestOnce)
{
    Rig rig;
    TwoTierGen gen;
    ServerApp app(rig.kernel, gen.tiers());
    LoadDriver::Config dc;
    dc.concurrency = 2;
    dc.targetRequests = 6;
    LoadDriver driver(rig.kernel, app, gen, stats::Rng(3), dc);
    std::vector<int> seen(6, 0);
    driver.setCompletionCallback(
        [&](os::RequestId id, const RequestSpec &spec) {
            ASSERT_GE(id, 0);
            ASSERT_LT(id, 6);
            ++seen[static_cast<std::size_t>(id)];
            // The kernel froze the record before the callback, and
            // the spec is still alive until it returns.
            EXPECT_TRUE(rig.kernel.request(id).done);
            EXPECT_EQ(spec.className, "twotier.req");
        });
    rig.kernel.start();
    driver.start();
    rig.eq.runUntil(sim::msToCycles(500.0));

    EXPECT_EQ(driver.completed(), 6u);
    for (int n : seen)
        EXPECT_EQ(n, 1);
}

TEST(LoadDriver, ConcurrencyBoundsInFlightRequests)
{
    // With think time 0 and concurrency 1, no two requests overlap:
    // completion times are ordered and injections serialize.
    Rig rig;
    TwoTierGen gen;
    ServerApp app(rig.kernel, gen.tiers());
    LoadDriver::Config dc;
    dc.concurrency = 1;
    dc.targetRequests = 4;
    dc.thinkTimeUs = 1.0;
    LoadDriver driver(rig.kernel, app, gen, stats::Rng(4), dc);
    rig.kernel.start();
    driver.start();
    rig.eq.runUntil(sim::msToCycles(500.0));

    ASSERT_EQ(rig.kernel.numRequests(), 4u);
    for (std::size_t id = 1; id < rig.kernel.numRequests(); ++id) {
        const auto cur = static_cast<os::RequestId>(id);
        EXPECT_GE(rig.kernel.request(cur).injected,
                  rig.kernel.request(cur - 1).completed);
    }
}

TEST(WorkerLogic, IdleWorkerWaitsOnItsChannel)
{
    WorkerLogic w(7, {7, 8}, 9);
    const auto a = w.next();
    const auto *sys = std::get_if<os::ActSyscall>(&a);
    ASSERT_NE(sys, nullptr);
    EXPECT_EQ(sys->id, os::Sys::recv);
    EXPECT_EQ(sys->args.channel, 7);
}

TEST(WorkerLogic, ExecutesStageThenForwards)
{
    // Build a one-stage spec by hand and walk the worker through it.
    RequestSpec spec;
    StageSpec st;
    st.tier = 0;
    st.segments.push_back(seg(1000, 1.0, 0.0, 0.0, 0.0));
    st.segments.push_back(withSys(seg(2000, 1.0, 0.0, 0.0, 0.0),
                                  os::Sys::stat));
    spec.stages.push_back(st);

    WorkerLogic w(7, {7, 8}, 9);
    os::Message msg;
    msg.tag = 0;
    msg.payload = &spec;
    w.onMessage(msg);

    // Segment 1: plain exec.
    auto a1 = w.next();
    ASSERT_TRUE(std::holds_alternative<os::ActExec>(a1));
    EXPECT_DOUBLE_EQ(std::get<os::ActExec>(a1).instructions, 1000.0);

    // Segment 2: entry syscall, then exec.
    auto a2 = w.next();
    ASSERT_TRUE(std::holds_alternative<os::ActSyscall>(a2));
    EXPECT_EQ(std::get<os::ActSyscall>(a2).id, os::Sys::stat);
    auto a3 = w.next();
    ASSERT_TRUE(std::holds_alternative<os::ActExec>(a3));
    EXPECT_DOUBLE_EQ(std::get<os::ActExec>(a3).instructions, 2000.0);

    // Last stage: send to the reply channel.
    auto a4 = w.next();
    ASSERT_TRUE(std::holds_alternative<os::ActSyscall>(a4));
    const auto &send = std::get<os::ActSyscall>(a4);
    EXPECT_EQ(send.id, os::Sys::send);
    EXPECT_EQ(send.args.channel, 9);
    EXPECT_EQ(send.args.msg.tag, 1u);

    // After the send completes, the worker goes idle again.
    auto a5 = w.next();
    ASSERT_TRUE(std::holds_alternative<os::ActSyscall>(a5));
    EXPECT_EQ(std::get<os::ActSyscall>(a5).id, os::Sys::recv);
}

TEST(WorkerLogic, LetsGoOfTheSpecAtTheSend)
{
    // Past its send a worker never reads the spec again, so the load
    // driver may free the spec as soon as the reply arrives. A
    // segment appended after the send must not be executed.
    RequestSpec spec;
    StageSpec st;
    st.tier = 0;
    st.segments.push_back(seg(1000, 1.0, 0.0, 0.0, 0.0));
    spec.stages.push_back(st);

    WorkerLogic w(7, {7, 8}, 9);
    os::Message msg;
    msg.tag = 0;
    msg.payload = &spec;
    w.onMessage(msg);

    ASSERT_TRUE(std::holds_alternative<os::ActExec>(w.next()));
    const auto send = w.next();
    ASSERT_TRUE(std::holds_alternative<os::ActSyscall>(send));
    EXPECT_EQ(std::get<os::ActSyscall>(send).id, os::Sys::send);

    spec.stages[0].segments.push_back(seg(5000, 1.0, 0.0, 0.0, 0.0));
    const auto after = w.next();
    ASSERT_TRUE(std::holds_alternative<os::ActSyscall>(after));
    EXPECT_EQ(std::get<os::ActSyscall>(after).id, os::Sys::recv);
}

TEST(WorkerLogic, MiddleStageForwardsToNextTier)
{
    RequestSpec spec;
    for (int tier : {0, 1, 0}) {
        StageSpec st;
        st.tier = tier;
        st.segments.push_back(seg(1000, 1.0, 0.0, 0.0, 0.0));
        spec.stages.push_back(st);
    }

    WorkerLogic w(7, {7, 8}, 9);
    os::Message msg;
    msg.tag = 0;
    msg.payload = &spec;
    w.onMessage(msg);

    (void)w.next(); // exec stage 0
    auto fwd = w.next();
    ASSERT_TRUE(std::holds_alternative<os::ActSyscall>(fwd));
    const auto &send = std::get<os::ActSyscall>(fwd);
    // Stage 1 runs on tier 1 -> channel 8.
    EXPECT_EQ(send.args.channel, 8);
    EXPECT_EQ(send.args.msg.tag, 1u);
}

TEST(Builder, SegAndWithSysCompose)
{
    const auto s = seg(5000, 1.5, 0.02, 1024.0, 0.1, 1.3);
    EXPECT_DOUBLE_EQ(s.instructions, 5000.0);
    EXPECT_DOUBLE_EQ(s.params.baseCpi, 1.5);
    EXPECT_DOUBLE_EQ(s.params.curve.workingSetBytes, 1024.0);
    EXPECT_FALSE(s.hasSyscall);

    const auto w = withSys(s, os::Sys::open, 900, 1.4);
    EXPECT_TRUE(w.hasSyscall);
    EXPECT_EQ(w.sysId, os::Sys::open);
    EXPECT_DOUBLE_EQ(w.sysArgs.kernelInstructions, 900.0);

    const auto b = withBlockingSys(s, os::Sys::fsync, 200.0);
    EXPECT_EQ(b.sysArgs.behavior, os::SysBehavior::BlockTimed);
    EXPECT_DOUBLE_EQ(b.sysArgs.blockCycles,
                     static_cast<double>(sim::usToCycles(200.0)));
}

TEST(RequestSpecT, TotalsAcrossStages)
{
    RequestSpec spec;
    for (int i = 0; i < 3; ++i) {
        StageSpec st;
        st.tier = 0;
        st.segments.push_back(seg(1000.0 * (i + 1), 1.0, 0, 0, 0));
        spec.stages.push_back(st);
    }
    EXPECT_DOUBLE_EQ(spec.totalInstructions(), 6000.0);
    EXPECT_EQ(spec.totalSegments(), 3u);
}
