/**
 * @file
 * Kernel edge cases: channel waiter ordering, exit semantics,
 * preemption resume fidelity, footprint save/restore across
 * domains, and request-context corner cases.
 */

#include <gtest/gtest.h>

#include <deque>

#include "os/kernel.hh"

using namespace rbv;
using namespace rbv::os;

namespace {

struct ScriptLogic : ThreadLogic
{
    std::deque<Action> script;
    std::vector<Message> received;
    int done_calls = 0;

    Action
    next() override
    {
        if (script.empty()) {
            ++done_calls;
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

ActExec
execAction(double ins, double cpi = 1.0, double refs = 0.0,
           double ws = 0.0, double miss = 0.0)
{
    sim::WorkParams p;
    p.baseCpi = cpi;
    p.refsPerIns = refs;
    p.curve = sim::MissCurve{ws, miss, 1.0};
    return ActExec{p, ins};
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
sendAction(ChannelId ch, std::uint64_t tag = 0)
{
    ActSyscall a;
    a.id = Sys::send;
    a.args.behavior = SysBehavior::ChannelSend;
    a.args.channel = ch;
    a.args.msg.tag = tag;
    return a;
}

struct Rig
{
    sim::EventQueue eq;
    sim::Machine machine;
    Kernel kernel;

    explicit Rig(int cores = 1)
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

TEST(OsEdge, WaitersServedInArrivalOrder)
{
    // Three workers blocked on one channel; three posted messages
    // must reach them in FIFO waiter order.
    Rig rig(1);
    const ChannelId ch = rig.kernel.createChannel();
    std::vector<ScriptLogic *> logics;
    const ProcessId proc = rig.kernel.createProcess("p");
    for (int i = 0; i < 3; ++i) {
        auto l = std::make_unique<ScriptLogic>();
        l->script.push_back(recvAction(ch));
        l->script.push_back(execAction(1000.0));
        logics.push_back(l.get());
        rig.kernel.createThread(proc, std::move(l));
    }
    rig.kernel.start();
    rig.eq.runUntil(sim::msToCycles(1.0)); // all blocked

    for (std::uint64_t t = 1; t <= 3; ++t) {
        Message m;
        m.tag = t;
        rig.kernel.post(ch, m);
    }
    rig.eq.runUntil(sim::msToCycles(10.0));

    // Thread 0 blocked first (it ran first on the single core).
    ASSERT_EQ(logics[0]->received.size(), 1u);
    ASSERT_EQ(logics[1]->received.size(), 1u);
    ASSERT_EQ(logics[2]->received.size(), 1u);
    EXPECT_EQ(logics[0]->received[0].tag, 1u);
    EXPECT_EQ(logics[1]->received[0].tag, 2u);
    EXPECT_EQ(logics[2]->received[0].tag, 3u);
}

TEST(OsEdge, QueuedMessagesDrainInOrderToOneWorker)
{
    Rig rig(1);
    const ChannelId ch = rig.kernel.createChannel();
    auto l = std::make_unique<ScriptLogic>();
    for (int i = 0; i < 3; ++i) {
        l->script.push_back(recvAction(ch));
        l->script.push_back(execAction(500.0));
    }
    auto *raw = l.get();
    rig.kernel.createThread(rig.kernel.createProcess("p"),
                            std::move(l));
    for (std::uint64_t t = 1; t <= 3; ++t) {
        Message m;
        m.tag = t;
        rig.kernel.post(ch, m);
    }
    rig.kernel.start();
    rig.eq.runUntil(sim::msToCycles(10.0));
    ASSERT_EQ(raw->received.size(), 3u);
    EXPECT_EQ(raw->received[0].tag, 1u);
    EXPECT_EQ(raw->received[2].tag, 3u);
}

TEST(OsEdge, PreemptionPreservesSegmentProgress)
{
    // A long segment preempted by quantum expiry must resume and
    // retire exactly its instruction budget.
    struct TinyQuantum : SchedulerPolicy
    {
        sim::Tick
        quantum() const override
        {
            return sim::usToCycles(50.0);
        }
    };
    sim::EventQueue eq;
    sim::Machine machine(Rig::makeConfig(1), eq);
    Kernel kernel(machine, KernelConfig{},
                  std::make_shared<TinyQuantum>());
    machine.setClient(&kernel);

    const ChannelId done = kernel.createChannel();
    int completions = 0;
    kernel.setChannelSink(done,
                          [&](const Message &) { ++completions; });

    const ProcessId proc = kernel.createProcess("p");
    for (int i = 0; i < 2; ++i) {
        auto l = std::make_unique<ScriptLogic>();
        l->script.push_back(execAction(1.0e6)); // ~333 us at CPI 1
        l->script.push_back(sendAction(done));
        kernel.createThread(proc, std::move(l));
    }
    kernel.start();
    eq.runUntil(sim::msToCycles(50.0));

    EXPECT_EQ(completions, 2);
    EXPECT_GT(kernel.stats().preemptions, 5u);
    // Total retired user instructions = 2M plus kernel costs.
    const double ins = machine.counters(0).snapshot().instructions;
    EXPECT_GT(ins, 2.0e6);
    EXPECT_LT(ins, 2.4e6);
}

TEST(OsEdge, FootprintLostAcrossDomains)
{
    // A thread building cache state on core 0 (domain 0) that
    // resumes on core 2 (domain 1) must restart cold. Exercise the
    // machine primitives the kernel's switch path uses, on a bare
    // machine (no kernel client).
    sim::EventQueue eq;
    sim::Machine m(Rig::makeConfig(4), eq);
    sim::WorkParams p;
    p.baseCpi = 1.0;
    p.refsPerIns = 0.03;
    p.curve = sim::MissCurve{2.0 * 1024 * 1024, 0.05, 1.0};
    m.setWork(0, p, 5.0e6);
    eq.runUntil(sim::msToCycles(5.0));
    const double occ = m.occupancy(0);
    EXPECT_GT(occ, 1.0e5);

    // Same-domain restore keeps the (decayed) footprint; the other
    // domain gets nothing.
    const sim::SavedFootprint fp{occ, m.domainInsertionIntegral(0)};
    const double same = fp.decayedBytes(m.domainInsertionIntegral(0),
                                        m.config().l2CapacityBytes);
    EXPECT_NEAR(same, occ, 1.0);
    EXPECT_EQ(m.domainOf(0), m.domainOf(1));
    EXPECT_NE(m.domainOf(0), m.domainOf(2));
}

TEST(OsEdge, ExitedThreadsLeaveRunqueueConsistent)
{
    Rig rig(1);
    const ProcessId proc = rig.kernel.createProcess("p");
    for (int i = 0; i < 5; ++i) {
        auto l = std::make_unique<ScriptLogic>();
        l->script.push_back(execAction(10000.0));
        rig.kernel.createThread(proc, std::move(l)); // then exits
    }
    rig.kernel.start();
    rig.eq.runUntil(sim::msToCycles(10.0));
    EXPECT_EQ(rig.kernel.runningThread(0), InvalidThreadId);
    EXPECT_EQ(rig.kernel.runqueueLength(0), 0u);
    // All five segments retired.
    EXPECT_GT(rig.machine.counters(0).snapshot().instructions,
              5.0e4);
}

TEST(OsEdge, RequestContextClearsWhenCoreIdles)
{
    Rig rig(1);
    const ChannelId in = rig.kernel.createChannel();
    const ChannelId reply = rig.kernel.createChannel();
    rig.kernel.setChannelSink(reply, [&](const Message &m) {
        rig.kernel.completeRequest(m.request);
    });
    auto l = std::make_unique<ScriptLogic>();
    l->script.push_back(recvAction(in));
    l->script.push_back(execAction(5000.0));
    l->script.push_back(sendAction(reply));
    l->script.push_back(recvAction(in)); // blocks forever
    rig.kernel.createThread(rig.kernel.createProcess("p"),
                            std::move(l));
    const RequestId req = rig.kernel.registerRequest();
    rig.kernel.start();
    Message m;
    m.request = req;
    rig.kernel.post(in, m);
    rig.eq.runUntil(sim::msToCycles(10.0));

    // The worker blocked with no successor: the core idles and its
    // request context is gone.
    EXPECT_EQ(rig.kernel.currentRequest(0), InvalidRequestId);
    EXPECT_TRUE(rig.kernel.request(req).done);
}

TEST(OsEdge, ZeroInstructionExecIsSkipped)
{
    Rig rig(1);
    auto l = std::make_unique<ScriptLogic>();
    l->script.push_back(execAction(0.0));
    l->script.push_back(execAction(1000.0));
    auto *raw = l.get();
    rig.kernel.createThread(rig.kernel.createProcess("p"),
                            std::move(l));
    rig.kernel.start();
    rig.eq.runUntil(sim::msToCycles(5.0));
    EXPECT_EQ(raw->done_calls, 1);
}

TEST(OsEdge, SyscallSequenceCapRespected)
{
    sim::EventQueue eq;
    sim::Machine machine(Rig::makeConfig(1), eq);
    KernelConfig kc;
    kc.maxSyscallSeq = 5;
    Kernel kernel(machine, kc);
    machine.setClient(&kernel);

    const ChannelId in = kernel.createChannel();
    auto l = std::make_unique<ScriptLogic>();
    l->script.push_back(recvAction(in));
    for (int i = 0; i < 20; ++i) {
        ActSyscall a;
        a.id = Sys::stat;
        l->script.push_back(a);
        l->script.push_back(execAction(1000.0));
    }
    kernel.createThread(kernel.createProcess("p"), std::move(l));
    const RequestId req = kernel.registerRequest();
    kernel.start();
    Message m;
    m.request = req;
    kernel.post(in, m);
    eq.runUntil(sim::msToCycles(20.0));

    EXPECT_EQ(kernel.request(req).syscalls.size(), 5u);
}

TEST(OsEdge, BlockedWakeTargetsLeastLoadedCore)
{
    // With both cores busy, a woken thread lands on the shorter
    // runqueue.
    Rig rig(2);
    const ProcessId proc = rig.kernel.createProcess("p");
    // Two long spinners occupy both cores.
    for (int i = 0; i < 2; ++i) {
        auto l = std::make_unique<ScriptLogic>();
        for (int k = 0; k < 100; ++k)
            l->script.push_back(execAction(1.0e6));
        rig.kernel.createThread(proc, std::move(l));
    }
    // A sleeper that wakes while both cores are busy.
    auto sleeper = std::make_unique<ScriptLogic>();
    {
        ActSyscall a;
        a.id = Sys::nanosleep;
        a.args.behavior = SysBehavior::BlockTimed;
        a.args.blockCycles =
            static_cast<double>(sim::usToCycles(100.0));
        sleeper->script.push_back(a);
        sleeper->script.push_back(execAction(1000.0));
    }
    rig.kernel.createThread(proc, std::move(sleeper));
    rig.kernel.start();
    rig.eq.runUntil(sim::usToCycles(200.0));
    // The woken sleeper waits behind exactly one of the spinners.
    EXPECT_EQ(rig.kernel.runqueueLength(0) +
                  rig.kernel.runqueueLength(1),
              1u);
}
