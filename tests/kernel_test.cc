/**
 * @file
 * Unit and integration tests for the simulated kernel: scheduling,
 * system calls, channels, request-context tracking, and attribution.
 */

#include <gtest/gtest.h>

#include <deque>

#include "os/kernel.hh"

using namespace rbv;
using namespace rbv::os;

namespace {

/** Thread logic driven by a fixed action script. */
struct ScriptLogic : ThreadLogic
{
    std::deque<Action> script;
    std::vector<Message> received;
    int exhausted_calls = 0;

    Action
    next() override
    {
        if (script.empty()) {
            ++exhausted_calls;
            return ActExit{};
        }
        Action a = script.front();
        script.pop_front();
        return a;
    }

    void
    onMessage(const Message &m) override
    {
        received.push_back(m);
    }
};

/** Logic that executes CPU chunks forever. */
struct SpinLogic : ThreadLogic
{
    double chunk;
    explicit SpinLogic(double chunk = 1e5) : chunk(chunk) {}

    Action
    next() override
    {
        sim::WorkParams p;
        p.baseCpi = 1.0;
        return ActExec{p, chunk};
    }
};

ActExec
execAction(double ins, double cpi = 1.0)
{
    sim::WorkParams p;
    p.baseCpi = cpi;
    return ActExec{p, ins};
}

ActSyscall
plainSyscall(Sys id = Sys::gettimeofday)
{
    ActSyscall a;
    a.id = id;
    return a;
}

ActSyscall
recvAction(ChannelId ch)
{
    ActSyscall a;
    a.id = Sys::recv;
    a.args.behavior = SysBehavior::ChannelRecv;
    a.args.channel = ch;
    return a;
}

ActSyscall
sendAction(ChannelId ch, Message msg = Message{})
{
    ActSyscall a;
    a.id = Sys::send;
    a.args.behavior = SysBehavior::ChannelSend;
    a.args.channel = ch;
    a.args.msg = msg;
    return a;
}

ActSyscall
sleepAction(double cycles)
{
    ActSyscall a;
    a.id = Sys::nanosleep;
    a.args.behavior = SysBehavior::BlockTimed;
    a.args.blockCycles = cycles;
    return a;
}

struct Rig
{
    sim::EventQueue eq;
    sim::Machine machine;
    Kernel kernel;

    explicit Rig(int cores = 2,
                 std::shared_ptr<SchedulerPolicy> policy = nullptr)
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

} // namespace

TEST(Kernel, ThreadExecutesScript)
{
    Rig rig(1);
    auto logic = std::make_unique<ScriptLogic>();
    auto *raw = logic.get();
    raw->script.push_back(execAction(1000.0));
    raw->script.push_back(execAction(2000.0, 2.0));
    const ProcessId proc = rig.kernel.createProcess("p");
    rig.kernel.createThread(proc, std::move(logic));
    rig.kernel.start();
    rig.eq.runUntil(10'000'000);
    EXPECT_EQ(raw->exhausted_calls, 1);
    const auto &snap = rig.machine.counters(0).snapshot();
    EXPECT_NEAR(snap.instructions, 3000.0 + ContextSwitchCost.instructions,
                5.0);
}

TEST(Kernel, PlainSyscallCostCharged)
{
    Rig rig(1);
    auto logic = std::make_unique<ScriptLogic>();
    auto sc = plainSyscall();
    sc.args.kernelInstructions = 5000.0;
    sc.args.kernelCpi = 2.0;
    logic->script.push_back(sc);
    rig.kernel.createThread(rig.kernel.createProcess("p"),
                            std::move(logic));
    rig.kernel.start();
    rig.eq.runUntil(10'000'000);
    const auto &snap = rig.machine.counters(0).snapshot();
    // Context switch + syscall kernel instructions.
    const double expect = 5000.0 + ContextSwitchCost.instructions;
    EXPECT_NEAR(snap.instructions, expect, 5.0);
    EXPECT_EQ(rig.kernel.stats().syscalls, 1u);
}

TEST(Kernel, BlockTimedSleepsAndResumes)
{
    Rig rig(1);
    auto logic = std::make_unique<ScriptLogic>();
    auto *raw = logic.get();
    raw->script.push_back(sleepAction(100000.0));
    raw->script.push_back(execAction(1000.0));
    rig.kernel.createThread(rig.kernel.createProcess("p"),
                            std::move(logic));
    rig.kernel.start();
    rig.eq.runUntil(50'000'000);
    EXPECT_EQ(raw->exhausted_calls, 1);
    EXPECT_GE(rig.kernel.stats().wakeups, 1u);
}

TEST(Kernel, ChannelSendRecvDeliversPayload)
{
    Rig rig(2);
    const ChannelId ch = rig.kernel.createChannel();
    int payload = 7;

    auto receiver = std::make_unique<ScriptLogic>();
    auto *recv_raw = receiver.get();
    recv_raw->script.push_back(recvAction(ch));
    recv_raw->script.push_back(execAction(500.0));

    auto sender = std::make_unique<ScriptLogic>();
    Message msg;
    msg.tag = 42;
    msg.payload = &payload;
    sender->script.push_back(execAction(2000.0));
    sender->script.push_back(sendAction(ch, msg));

    const ProcessId proc = rig.kernel.createProcess("p");
    rig.kernel.createThread(proc, std::move(receiver));
    rig.kernel.createThread(proc, std::move(sender));
    rig.kernel.start();
    rig.eq.runUntil(50'000'000);

    ASSERT_EQ(recv_raw->received.size(), 1u);
    EXPECT_EQ(recv_raw->received[0].tag, 42u);
    EXPECT_EQ(recv_raw->received[0].payload, &payload);
}

TEST(Kernel, RecvBlocksUntilMessage)
{
    Rig rig(1);
    const ChannelId ch = rig.kernel.createChannel();
    auto receiver = std::make_unique<ScriptLogic>();
    auto *raw = receiver.get();
    raw->script.push_back(recvAction(ch));
    raw->script.push_back(execAction(100.0));
    rig.kernel.createThread(rig.kernel.createProcess("p"),
                            std::move(receiver));
    rig.kernel.start();
    rig.eq.runUntil(1'000'000);
    EXPECT_TRUE(raw->received.empty());

    rig.kernel.post(ch, Message{});
    rig.eq.runUntil(2'000'000);
    EXPECT_EQ(raw->received.size(), 1u);
    EXPECT_EQ(raw->exhausted_calls, 1);
}

TEST(Kernel, QueuedMessageSatisfiesRecvImmediately)
{
    Rig rig(1);
    const ChannelId ch = rig.kernel.createChannel();
    auto receiver = std::make_unique<ScriptLogic>();
    auto *raw = receiver.get();
    raw->script.push_back(recvAction(ch));
    rig.kernel.createThread(rig.kernel.createProcess("p"),
                            std::move(receiver));
    rig.kernel.post(ch, Message{}); // queued before start
    rig.kernel.start();
    rig.eq.runUntil(1'000'000);
    EXPECT_EQ(raw->received.size(), 1u);
}

TEST(Kernel, ChannelSinkReceivesSynchronously)
{
    Rig rig(1);
    const ChannelId ch = rig.kernel.createChannel();
    std::vector<std::uint64_t> tags;
    rig.kernel.setChannelSink(ch, [&](const Message &m) {
        tags.push_back(m.tag);
    });
    auto sender = std::make_unique<ScriptLogic>();
    Message m;
    m.tag = 9;
    sender->script.push_back(sendAction(ch, m));
    rig.kernel.createThread(rig.kernel.createProcess("p"),
                            std::move(sender));
    rig.kernel.start();
    rig.eq.runUntil(1'000'000);
    EXPECT_EQ(tags, (std::vector<std::uint64_t>{9}));
}

TEST(Kernel, RequestContextPropagatesOverChannel)
{
    // Sender holds request R (via an injected message); its send must
    // stamp R onto the forwarded message, and the receiving thread
    // must adopt R.
    Rig rig(2);
    const ChannelId in = rig.kernel.createChannel();
    const ChannelId hop = rig.kernel.createChannel();
    const ChannelId reply = rig.kernel.createChannel();

    RequestId completed = InvalidRequestId;
    rig.kernel.setChannelSink(reply, [&](const Message &m) {
        completed = m.request;
        rig.kernel.completeRequest(m.request);
    });

    auto stage1 = std::make_unique<ScriptLogic>();
    stage1->script.push_back(recvAction(in));
    stage1->script.push_back(execAction(10000.0));
    stage1->script.push_back(sendAction(hop)); // no explicit request
    auto stage2 = std::make_unique<ScriptLogic>();
    stage2->script.push_back(recvAction(hop));
    stage2->script.push_back(execAction(20000.0));
    stage2->script.push_back(sendAction(reply));

    const ProcessId proc = rig.kernel.createProcess("p");
    rig.kernel.createThread(proc, std::move(stage1));
    rig.kernel.createThread(proc, std::move(stage2));

    const RequestId req = rig.kernel.registerRequest();
    rig.kernel.start();
    Message m;
    m.request = req;
    rig.kernel.post(in, m);
    rig.eq.runUntil(100'000'000);

    EXPECT_EQ(completed, req);
    const RequestInfo &info = rig.kernel.request(req);
    EXPECT_TRUE(info.done);
    // Both stages' user instructions must be attributed to R.
    EXPECT_GT(info.totals.instructions, 29000.0);
}

TEST(Kernel, RequestTotalsFreezeAtCompletion)
{
    Rig rig(1);
    const ChannelId in = rig.kernel.createChannel();
    const ChannelId reply = rig.kernel.createChannel();
    rig.kernel.setChannelSink(reply, [&](const Message &m) {
        rig.kernel.completeRequest(m.request);
    });

    auto logic = std::make_unique<ScriptLogic>();
    logic->script.push_back(recvAction(in));
    logic->script.push_back(execAction(5000.0));
    logic->script.push_back(sendAction(reply));
    logic->script.push_back(execAction(500000.0)); // postamble
    rig.kernel.createThread(rig.kernel.createProcess("p"),
                            std::move(logic));

    const RequestId req = rig.kernel.registerRequest();
    rig.kernel.start();
    Message m;
    m.request = req;
    rig.kernel.post(in, m);
    rig.eq.runUntil(100'000'000);

    const RequestInfo &info = rig.kernel.request(req);
    EXPECT_TRUE(info.done);
    EXPECT_GT(info.totals.instructions, 5000.0);
    EXPECT_LT(info.totals.instructions, 100000.0); // postamble excluded
}

TEST(Kernel, SyscallSequenceRecordedPerRequest)
{
    Rig rig(1);
    const ChannelId in = rig.kernel.createChannel();
    const ChannelId reply = rig.kernel.createChannel();
    rig.kernel.setChannelSink(reply, [&](const Message &m) {
        rig.kernel.completeRequest(m.request);
    });
    auto logic = std::make_unique<ScriptLogic>();
    logic->script.push_back(recvAction(in));
    logic->script.push_back(plainSyscall(Sys::stat));
    logic->script.push_back(plainSyscall(Sys::open));
    logic->script.push_back(sendAction(reply));
    rig.kernel.createThread(rig.kernel.createProcess("p"),
                            std::move(logic));
    const RequestId req = rig.kernel.registerRequest();
    rig.kernel.start();
    Message m;
    m.request = req;
    rig.kernel.post(in, m);
    rig.eq.runUntil(100'000'000);

    const auto &seq = rig.kernel.request(req).syscalls;
    ASSERT_EQ(seq.size(), 3u);
    EXPECT_EQ(seq[0], Sys::stat);
    EXPECT_EQ(seq[1], Sys::open);
    EXPECT_EQ(seq[2], Sys::send);
}

TEST(Kernel, QuantumPreemptionSharesCore)
{
    // Two spinners on one core must alternate via quantum expiry.
    struct ShortQuantum : SchedulerPolicy
    {
        sim::Tick
        quantum() const override
        {
            return sim::usToCycles(100.0);
        }
    };
    Rig rig(1, std::make_shared<ShortQuantum>());
    const ProcessId proc = rig.kernel.createProcess("p");
    rig.kernel.createThread(proc, std::make_unique<SpinLogic>(1e4));
    rig.kernel.createThread(proc, std::make_unique<SpinLogic>(1e4));
    rig.kernel.start();
    rig.eq.runUntil(sim::msToCycles(10.0));
    EXPECT_GT(rig.kernel.stats().preemptions, 10u);
}

TEST(Kernel, NoPreemptionWithoutCompetition)
{
    Rig rig(2);
    rig.kernel.createThread(rig.kernel.createProcess("p"),
                            std::make_unique<SpinLogic>(1e5));
    rig.kernel.start();
    rig.eq.runUntil(sim::msToCycles(300.0));
    EXPECT_EQ(rig.kernel.stats().preemptions, 0u);
}

TEST(Kernel, WakePrefersIdleCore)
{
    Rig rig(2);
    const ProcessId proc = rig.kernel.createProcess("p");
    // One spinner (lands on core 0) and one sleeper.
    rig.kernel.createThread(proc, std::make_unique<SpinLogic>(1e5));
    auto sleeper = std::make_unique<ScriptLogic>();
    sleeper->script.push_back(sleepAction(50000.0));
    sleeper->script.push_back(execAction(1000.0));
    rig.kernel.createThread(proc, std::move(sleeper));
    rig.kernel.start();
    rig.eq.runUntil(sim::msToCycles(10.0));
    // The sleeper must have run on the idle core: core 1 accrued
    // instructions.
    EXPECT_GT(rig.machine.counters(1).snapshot().instructions, 0.0);
}

TEST(Kernel, RunqueueLengthReflectsLoad)
{
    Rig rig(1);
    const ProcessId proc = rig.kernel.createProcess("p");
    for (int i = 0; i < 3; ++i)
        rig.kernel.createThread(proc, std::make_unique<SpinLogic>());
    rig.kernel.start();
    rig.eq.runUntil(1000);
    // One running, two queued.
    EXPECT_EQ(rig.kernel.runqueueLength(0), 2u);
    EXPECT_NE(rig.kernel.runningThread(0), InvalidThreadId);
}

TEST(Kernel, HooksObserveSyscallsAndSwitches)
{
    struct CountingHooks : KernelHooks
    {
        int syscalls = 0;
        int switches = 0;
        void
        onSyscallEntry(sim::CoreId, ThreadId, RequestId, Sys) override
        {
            ++syscalls;
        }
        void
        onRequestSwitch(sim::CoreId, RequestId, RequestId) override
        {
            ++switches;
        }
    };
    Rig rig(1);
    CountingHooks hooks;
    rig.kernel.addHooks(&hooks);

    const ChannelId in = rig.kernel.createChannel();
    const ChannelId reply = rig.kernel.createChannel();
    rig.kernel.setChannelSink(reply, [&](const Message &m) {
        rig.kernel.completeRequest(m.request);
    });
    auto logic = std::make_unique<ScriptLogic>();
    logic->script.push_back(recvAction(in));
    logic->script.push_back(plainSyscall(Sys::stat));
    logic->script.push_back(sendAction(reply));
    rig.kernel.createThread(rig.kernel.createProcess("p"),
                            std::move(logic));
    const RequestId req = rig.kernel.registerRequest();
    rig.kernel.start();
    Message m;
    m.request = req;
    rig.kernel.post(in, m);
    rig.eq.runUntil(100'000'000);

    EXPECT_GE(hooks.syscalls, 3); // recv + stat + send
    EXPECT_GE(hooks.switches, 1); // request adoption
}

TEST(Kernel, DoubleCompletionIsANoOp)
{
    Rig rig(1);
    const RequestId req = rig.kernel.registerRequest();
    rig.kernel.completeRequest(req);
    EXPECT_TRUE(rig.kernel.request(req).done);
    EXPECT_EQ(rig.kernel.completedRequests(), 1u);
    rig.kernel.completeRequest(req);
    EXPECT_EQ(rig.kernel.completedRequests(), 1u);
}

TEST(Kernel, ExitedThreadFreesCore)
{
    Rig rig(1);
    const ProcessId proc = rig.kernel.createProcess("p");
    auto logic = std::make_unique<ScriptLogic>(); // exits immediately
    rig.kernel.createThread(proc, std::move(logic));
    rig.kernel.createThread(proc, std::make_unique<SpinLogic>(1e4));
    rig.kernel.start();
    rig.eq.runUntil(sim::msToCycles(5.0));
    // The spinner must be running after the first thread exited.
    EXPECT_NE(rig.kernel.runningThread(0), InvalidThreadId);
    EXPECT_GT(rig.machine.counters(0).snapshot().instructions, 1e5);
}

// ------------------------------------------------- deferred release

namespace {

/**
 * One worker on one core that serves two requests: recv from `in`,
 * execute, reply through a sink that records nothing, then recv
 * again. Each case posts request `a`, completed before any worker
 * took it, and request `b` behind it.
 */
struct ReleaseRig
{
    Rig rig{1};
    ChannelId in = InvalidChannelId;
    ThreadId worker = InvalidThreadId;

    ReleaseRig()
    {
        in = rig.kernel.createChannel();
        const ChannelId out = rig.kernel.createChannel();
        rig.kernel.setChannelSink(out, [](const Message &) {});
        auto logic = std::make_unique<ScriptLogic>();
        for (int i = 0; i < 2; ++i) {
            logic->script.push_back(recvAction(in));
            logic->script.push_back(execAction(5000.0));
            logic->script.push_back(sendAction(out));
        }
        logic->script.push_back(recvAction(in)); // blocks for good
        worker = rig.kernel.createThread(rig.kernel.createProcess("w"),
                                         std::move(logic));
    }

    void
    post(RequestId id)
    {
        Message m;
        m.request = id;
        rig.kernel.post(in, m);
    }

    /**
     * Let the worker take `a`, then `b`, then complete `b` and hand
     * it over: the retry must release `a`, which nothing reaches any
     * more, while the worker still holds `b`.
     */
    void
    expectReleasedOnceTheWorkerMovedOn(RequestId a, RequestId b)
    {
        rig.eq.runUntil(sim::msToCycles(20.0));
        EXPECT_EQ(rig.kernel.pendingReleases(), 1u);
        rig.kernel.completeRequest(b);
        rig.kernel.deferRelease(b);
        EXPECT_EQ(rig.kernel.pendingReleases(), 1u); // b, held
        EXPECT_EQ(rig.kernel.liveRequests(), 1u);
        EXPECT_EQ(rig.kernel.request(a).id, InvalidRequestId);
        EXPECT_EQ(rig.kernel.registerRequest(), a); // the slot is reused
    }
};

/** Hold back every delivery on one channel by a fixed delay. */
struct DelayChannel final : KernelFaults
{
    ChannelId channel = InvalidChannelId;

    DeliveryFault
    messageDelivery(ChannelId ch, const Message &) override
    {
        return DeliveryFault{false, ch == channel ? 200000.0 : 0.0};
    }
};

} // namespace

TEST(KernelRelease, RefusesAnIdAQueuedMessageCarries)
{
    ReleaseRig r;
    const RequestId a = r.rig.kernel.registerRequest();
    r.rig.kernel.completeRequest(a);
    r.post(a); // before start: it waits in the channel queue
    r.rig.kernel.deferRelease(a);
    // Done, in no core's context and held by no thread, but a worker
    // would still adopt it from the queue.
    EXPECT_EQ(r.rig.kernel.request(a).messages, 1u);
    EXPECT_EQ(r.rig.kernel.pendingReleases(), 1u);
    EXPECT_FALSE(r.rig.kernel.releaseRequest(a));

    r.rig.kernel.start();
    const RequestId b = r.rig.kernel.registerRequest();
    r.post(b); // the worker is busy with a: b queues too
    r.expectReleasedOnceTheWorkerMovedOn(a, b);
}

TEST(KernelRelease, RefusesAnIdAWokenThreadsPendingMessageCarries)
{
    ReleaseRig r;
    // A busy thread keeps the one core, so the woken worker waits on
    // the runqueue with a's message pending until it exits.
    auto busy = std::make_unique<ScriptLogic>();
    busy->script.push_back(execAction(1e6));
    r.rig.kernel.createThread(r.rig.kernel.createProcess("s"),
                              std::move(busy));
    r.rig.kernel.start();
    r.rig.eq.runUntil(100'000);
    ASSERT_NE(r.rig.kernel.runningThread(0), r.worker);

    const RequestId a = r.rig.kernel.registerRequest();
    r.rig.kernel.completeRequest(a);
    r.post(a);
    ASSERT_NE(r.rig.kernel.runningThread(0), r.worker);
    r.rig.kernel.deferRelease(a);
    EXPECT_EQ(r.rig.kernel.request(a).messages, 1u);
    EXPECT_EQ(r.rig.kernel.pendingReleases(), 1u);
    EXPECT_FALSE(r.rig.kernel.releaseRequest(a));

    const RequestId b = r.rig.kernel.registerRequest();
    r.post(b);
    r.expectReleasedOnceTheWorkerMovedOn(a, b);
}

TEST(KernelRelease, RefusesAnIdADelayedDeliveryCarries)
{
    ReleaseRig r;
    DelayChannel faults;
    faults.channel = r.in;
    r.rig.kernel.setFaults(&faults);
    r.rig.kernel.start();
    r.rig.eq.runUntil(100'000); // the worker blocks in recv

    const RequestId a = r.rig.kernel.registerRequest();
    r.rig.kernel.completeRequest(a);
    r.post(a); // held back in the network
    EXPECT_EQ(r.rig.kernel.stats().delayedDeliveries, 1u);
    r.rig.kernel.deferRelease(a);
    EXPECT_EQ(r.rig.kernel.request(a).messages, 1u);
    EXPECT_EQ(r.rig.kernel.pendingReleases(), 1u);
    EXPECT_FALSE(r.rig.kernel.releaseRequest(a));

    const RequestId b = r.rig.kernel.registerRequest();
    r.post(b);
    r.expectReleasedOnceTheWorkerMovedOn(a, b);
}

TEST(KernelRelease, RecycledSlotKeepsItsSyscallBuffer)
{
    // A release resets the slot in place and the next registration
    // fills it in place, so a recycled slot allocates nothing.
    Rig rig(1);
    const ChannelId in = rig.kernel.createChannel();
    const ChannelId out = rig.kernel.createChannel();
    rig.kernel.setChannelSink(out, [](const Message &) {});
    auto logic = std::make_unique<ScriptLogic>();
    logic->script.push_back(recvAction(in));
    for (int i = 0; i < 8; ++i)
        logic->script.push_back(plainSyscall());
    logic->script.push_back(sendAction(out));
    logic->script.push_back(recvAction(in)); // takes b, then exits
    rig.kernel.createThread(rig.kernel.createProcess("p"),
                            std::move(logic));
    rig.kernel.start();

    const RequestId a = rig.kernel.registerRequest();
    Message m;
    m.request = a;
    rig.kernel.post(in, m);
    rig.eq.runUntil(sim::msToCycles(5.0));
    rig.kernel.completeRequest(a);
    ASSERT_GE(rig.kernel.request(a).syscalls.size(), 8u);
    const std::size_t capacity = rig.kernel.request(a).syscalls.capacity();

    const RequestId b = rig.kernel.registerRequest();
    m.request = b;
    rig.kernel.post(in, m); // the worker moves on from a
    rig.eq.runUntil(sim::msToCycles(10.0));
    rig.kernel.deferRelease(a);
    EXPECT_EQ(rig.kernel.pendingReleases(), 0u);
    EXPECT_FALSE(rig.kernel.releaseRequest(a)); // already free

    EXPECT_EQ(rig.kernel.registerRequest(), a);
    const RequestInfo &info = rig.kernel.request(a);
    EXPECT_EQ(info.seq, 2u); // a fresh registration sequence number
    EXPECT_FALSE(info.done);
    EXPECT_TRUE(info.syscalls.empty());
    EXPECT_EQ(info.syscalls.capacity(), capacity);
    EXPECT_EQ(rig.kernel.registeredRequests(), 3u);
    EXPECT_EQ(rig.kernel.liveRequests(), 2u);
}
