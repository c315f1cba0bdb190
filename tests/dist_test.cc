/**
 * @file
 * Tests for distributed cross-machine request tracking.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <functional>
#include <optional>
#include <sstream>

#include "dist/faults.hh"
#include "dist/health.hh"
#include "dist/rpc.hh"
#include "dist/topology.hh"
#include "fi/plan.hh"

using namespace rbv;
using namespace rbv::dist;
using namespace rbv::os;

namespace {

/**
 * A two-tier topology, front:1:50 -> back:1:100, one node per tier
 * (node 0 = front/0, node 1 = back/0). Every tier hop crosses the
 * network link twice, out and back.
 */
TopologySpec
twoTierSpec(sim::Tick latency)
{
    TopologySpec spec;
    std::string err;
    EXPECT_TRUE(TopologySpec::parse("front:1:50,back:1:100", spec, err))
        << err;
    spec.linkLatencyTicks = latency;
    return spec;
}

struct TwoTierRig
{
    static constexpr NodeId front = 0;
    static constexpr NodeId back = 1;

    Topology topo;
    sim::EventQueue &eq;
    std::vector<GlobalRequestId> completed;

    explicit TwoTierRig(sim::Tick latency = sim::usToCycles(100.0))
        : topo(twoTierSpec(latency), RpcPolicy{}, BreakerConfig{}, 1),
          eq(topo.eventQueue())
    {
        topo.setResolvedCallback([this](GlobalRequestId gid, bool ok) {
            if (ok)
                completed.push_back(gid);
        });
        topo.start();
    }
};

} // namespace

TEST(Cluster, RequestCrossesMachinesAndCompletes)
{
    TwoTierRig rig;
    const auto gid = rig.topo.inject();
    rig.eq.runUntil(sim::msToCycles(50.0));

    ASSERT_EQ(rig.completed.size(), 1u);
    EXPECT_EQ(rig.completed[0], gid);
    EXPECT_EQ(rig.topo.request(gid).state, RequestState::Completed);
    EXPECT_EQ(rig.topo.rpcStats().attempts, 2u); // one per tier
}

TEST(Cluster, PerNodeAccountingSplitsWork)
{
    TwoTierRig rig;
    const auto gid = rig.topo.inject();
    // Mid-request the front has run its stage, but a node's share
    // reads zero until the request resolves.
    rig.eq.runUntil(sim::usToCycles(150.0));
    const os::RequestId local = rig.topo.localIdOf(rig.front, gid);
    EXPECT_GT(rig.topo.kernel(rig.front).request(local).totals.instructions,
              0.0);
    EXPECT_EQ(rig.topo.nodeTotals(gid, rig.front).instructions, 0.0);
    rig.eq.runUntil(sim::msToCycles(50.0));

    ASSERT_EQ(rig.topo.numNodes(), 2);
    const double front = rig.topo.nodeTotals(gid, rig.front).instructions;
    const double back = rig.topo.nodeTotals(gid, rig.back).instructions;
    // Front executed 50K +- 30% instructions, back 100K +- 30% (plus
    // kernel work on both).
    EXPECT_GT(front, 35000.0);
    EXPECT_LT(front, 90000.0);
    EXPECT_GT(back, 70000.0);
    EXPECT_LT(back, 150000.0);
}

TEST(Cluster, NetworkLatencyDelaysCompletion)
{
    TwoTierRig fast(sim::usToCycles(10.0));
    TwoTierRig slow(sim::usToCycles(500.0));
    const auto g1 = fast.topo.inject();
    const auto g2 = slow.topo.inject();
    fast.eq.runUntil(sim::msToCycles(100.0));
    slow.eq.runUntil(sim::msToCycles(100.0));

    const auto lat_fast = fast.topo.request(g1).resolved -
                          fast.topo.request(g1).injected;
    const auto lat_slow = slow.topo.request(g2).resolved -
                          slow.topo.request(g2).injected;
    // Four link crossings, each 490 us longer.
    EXPECT_GT(lat_slow, lat_fast + sim::usToCycles(1900.0));
}

TEST(Cluster, GlobalLocalIdTranslationRoundTrips)
{
    TwoTierRig rig;
    const auto gid = rig.topo.inject();
    rig.eq.runUntil(sim::msToCycles(50.0));

    const os::RequestId lf = rig.topo.localIdOf(rig.front, gid);
    const os::RequestId lb = rig.topo.localIdOf(rig.back, gid);
    EXPECT_EQ(rig.topo.globalIdOf(rig.front, lf), gid);
    EXPECT_EQ(rig.topo.globalIdOf(rig.back, lb), gid);
    // Unknown local ids map to the invalid global id.
    EXPECT_EQ(rig.topo.globalIdOf(rig.front, 424242),
              InvalidGlobalRequestId);
}

TEST(Cluster, ManyRequestsAllTracked)
{
    TwoTierRig rig;
    std::vector<GlobalRequestId> gids;
    for (int i = 0; i < 20; ++i)
        gids.push_back(rig.topo.inject());
    rig.eq.runUntil(sim::msToCycles(500.0));

    EXPECT_EQ(rig.topo.completedCount(), 20u);
    for (const auto gid : gids) {
        EXPECT_EQ(rig.topo.request(gid).state, RequestState::Completed);
        EXPECT_GT(rig.topo.nodeTotals(gid, rig.front).instructions +
                      rig.topo.nodeTotals(gid, rig.back).instructions,
                  105000.0);
    }
}

TEST(Cluster, MergedTimelineSerializesCrossMachineExecution)
{
    TwoTierRig rig;

    // Attach a sampler on each node.
    core::SamplerConfig sc;
    sc.periodUs = 5.0;
    core::InterruptSampler sf(rig.topo.kernel(rig.front), sc);
    core::InterruptSampler sb(rig.topo.kernel(rig.back), sc);
    sf.start();
    sb.start();

    const auto gid = rig.topo.inject();
    rig.eq.runUntil(sim::msToCycles(50.0));

    const auto merged = rig.topo.mergedTimeline(gid, {&sf, &sb});
    ASSERT_GT(merged.periods.size(), 5u);
    // Wall-clock ordered.
    for (std::size_t i = 1; i < merged.periods.size(); ++i) {
        EXPECT_GE(merged.periods[i].wallStart,
                  merged.periods[i - 1].wallStart);
    }
    // The merged timeline covers roughly the whole request.
    const double total =
        rig.topo.nodeTotals(gid, rig.front).instructions +
        rig.topo.nodeTotals(gid, rig.back).instructions;
    EXPECT_NEAR(merged.totalInstructions(), total, total * 0.4);
    // The front's stage precedes the back's: the first sampled period
    // lies before any period of the back node's stage ends.
    const core::Timeline &back =
        sb.timelineOf(rig.topo.localIdOf(rig.back, gid));
    ASSERT_FALSE(back.periods.empty());
    EXPECT_LT(merged.periods.front().wallStart,
              back.periods.front().wallStart);
}

TEST(Cluster, NodesShareOneClock)
{
    TwoTierRig rig;
    rig.topo.inject();
    rig.eq.runUntil(sim::msToCycles(10.0));
    // Both kernels report the same simulated time.
    EXPECT_EQ(rig.topo.kernel(rig.front).now(),
              rig.topo.kernel(rig.back).now());
}

TEST(ClusterDeath, UnknownGlobalRequestIdAborts)
{
    TwoTierRig rig;
    const auto gid = rig.topo.inject();
    rig.eq.runUntil(sim::msToCycles(50.0));
    // Out-of-range ids abort instead of returning a dangling
    // reference (the old vector-reallocation hazard).
    EXPECT_DEATH((void)rig.topo.request(424242), "RBV_CHECK failed");
    EXPECT_DEATH((void)rig.topo.request(-1), "RBV_CHECK failed");
    EXPECT_DEATH((void)rig.topo.localIdOf(rig.front, 424242),
                 "RBV_CHECK failed");
    EXPECT_DEATH((void)rig.topo.localIdOf(99, gid), "RBV_CHECK failed");
}

// ------------------------------------------------- circuit breaker

TEST(Breaker, StateMachineMatchesGoldenTransitionLog)
{
    BreakerConfig cfg;
    cfg.failThreshold = 2;
    cfg.cooldownTicks = 100;
    ReplicaHealth h(cfg);

    EXPECT_TRUE(h.admit(0));
    h.onFailure(10);
    EXPECT_TRUE(h.admit(11)); // one failure: still closed
    h.onFailure(20);          // threshold reached -> open
    EXPECT_EQ(h.state(), BreakerState::Open);
    EXPECT_FALSE(h.admit(30));  // cooling down
    EXPECT_TRUE(h.admit(125));  // cooldown elapsed -> half-open probe
    EXPECT_EQ(h.state(), BreakerState::HalfOpen);
    EXPECT_FALSE(h.admit(126)); // probe outstanding
    h.onFailure(130);           // probe failed -> open again
    EXPECT_FALSE(h.admit(200)); // cooldown restarted at 130
    EXPECT_TRUE(h.admit(240));  // second probe
    h.onSuccess(250);           // probe succeeded -> closed
    EXPECT_EQ(h.state(), BreakerState::Closed);
    EXPECT_TRUE(h.admit(260));
    EXPECT_EQ(h.consecutiveFailures(), 0);

    EXPECT_EQ(formatTransitions(h.transitions()),
              "20 closed->open\n"
              "125 open->half-open\n"
              "130 half-open->open\n"
              "240 open->half-open\n"
              "250 half-open->closed\n");
}

// ------------------------------------------------------- RPC policy

TEST(RpcPolicy, BackoffIsDeterministicExponentialAndBounded)
{
    const RpcPolicy p;
    for (int attempt = 1; attempt <= 3; ++attempt) {
        const sim::Tick d = p.backoffTicks(7, 42, attempt);
        EXPECT_EQ(d, p.backoffTicks(7, 42, attempt)); // stateless
        // base * 2^(k-1), jittered by +-25%.
        const double nominal =
            static_cast<double>(RpcBackoffBaseTicks) *
            std::pow(2.0, attempt - 1);
        EXPECT_GE(static_cast<double>(d), nominal * 0.75 - 1.0);
        EXPECT_LE(static_cast<double>(d), nominal * 1.25 + 1.0);
    }
    // The jitter lottery keys on seed and request id.
    EXPECT_NE(p.backoffTicks(7, 42, 1), p.backoffTicks(8, 42, 1));
    EXPECT_NE(p.backoffTicks(7, 42, 1), p.backoffTicks(7, 43, 1));
}

// ---------------------------------------------------- tier topology

TEST(TopologySpec, ParsesSummarizesAndRejectsTypos)
{
    TopologySpec s;
    std::string err;
    ASSERT_TRUE(
        TopologySpec::parse("lb:1:20,app:2:80,db:2:140", s, err))
        << err;
    ASSERT_EQ(s.tiers.size(), 3u);
    EXPECT_EQ(s.tiers[0].name, "lb");
    EXPECT_EQ(s.tiers[1].replicas, 2);
    EXPECT_DOUBLE_EQ(s.tiers[2].serviceKiloIns, 140.0);
    EXPECT_EQ(s.totalNodes(), 5);
    EXPECT_EQ(s.summary(), "lb:1:20,app:2:80,db:2:140");

    // A typo must never silently build a different cluster.
    EXPECT_FALSE(TopologySpec::parse("", s, err));
    EXPECT_FALSE(TopologySpec::parse("lb", s, err));
    EXPECT_FALSE(TopologySpec::parse("lb:0", s, err));
    EXPECT_FALSE(TopologySpec::parse("lb:1:x", s, err));
    EXPECT_FALSE(TopologySpec::parse("lb:1,lb:1", s, err));
    EXPECT_FALSE(TopologySpec::parse("lb:1:20:9", s, err));
    EXPECT_FALSE(TopologySpec::parse("lb:1,,db:1", s, err));
    // Empty fields, a trailing comma, and a service demand that is
    // not finite or that one attempt's cycles cannot hold.
    for (const char *bad : {"lb:1:", "lb:1:20,", "lb:1:20:", ":1",
                            "lb:1:nan", "lb:1:inf", "lb:1:1e300",
                            "lb:1:-5"}) {
        EXPECT_FALSE(TopologySpec::parse(bad, s, err)) << bad;
        EXPECT_NE(err.find(bad), std::string::npos) << err;
    }
    EXPECT_TRUE(TopologySpec::parse("lb:1:1e9", s, err)) << err;
}

namespace {

/** Deterministic artifacts of one topology run, for comparisons. */
struct RunArtifacts
{
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t failovers = 0;
    std::string injectionLog;
    std::string breakerLog;
};

/**
 * Build a topology (optionally with a fault plan), drive @p requests
 * evenly spaced arrivals through it, and harvest the deterministic
 * artifacts. The run must always resolve every request (the
 * never-hang contract); @p inspect sees the finished topology.
 */
RunArtifacts
runTopology(const char *topoText, const char *faults,
            std::size_t requests, std::uint64_t seed,
            const std::function<void(Topology &)> &inspect = {})
{
    TopologySpec spec;
    std::string err;
    EXPECT_TRUE(TopologySpec::parse(topoText, spec, err)) << err;

    Topology topo(spec, RpcPolicy{}, BreakerConfig{}, seed);
    std::optional<ClusterFaultSession> session;
    fi::FaultPlan plan;
    if (faults != nullptr && faults[0] != '\0') {
        EXPECT_TRUE(fi::FaultPlan::parse(faults, plan, err)) << err;
        session.emplace(plan, seed);
        session->attach(topo);
    }
    topo.start();

    sim::EventQueue &eq = topo.eventQueue();
    for (std::size_t i = 0; i < requests; ++i)
        eq.scheduleIn(sim::usToCycles(200.0) * (i + 1),
                      [&topo] { topo.inject(); });
    std::size_t resolved = 0;
    topo.setResolvedCallback([&](GlobalRequestId, bool) {
        if (++resolved == requests)
            eq.requestStop();
    });
    eq.runUntil(sim::msToCycles(5000.0));

    EXPECT_TRUE(topo.allResolved()); // degraded maybe, hung never

    RunArtifacts a;
    a.completed = topo.completedCount();
    a.failed = topo.failedCount();
    a.attempts = topo.rpcStats().attempts;
    a.retries = topo.rpcStats().retries;
    a.failovers = topo.rpcStats().failovers;
    if (session)
        a.injectionLog = session->formatLog();
    std::ostringstream b;
    for (const auto &e : topo.breakerHistory())
        b << e.tick << ' ' << e.tier << '/' << e.replica << ' '
          << breakerStateName(e.from) << "->"
          << breakerStateName(e.to) << '\n';
    a.breakerLog = b.str();
    if (inspect)
        inspect(topo);
    return a;
}

} // namespace

TEST(Topology, CleanRunCompletesEveryRequestWithoutRetries)
{
    const auto a = runTopology("lb:1:20,app:2:80", "", 20, 1);
    EXPECT_EQ(a.completed, 20u);
    EXPECT_EQ(a.failed, 0u);
    EXPECT_EQ(a.attempts, 40u); // one per hop, no adversity
    EXPECT_EQ(a.retries, 0u);
    EXPECT_TRUE(a.breakerLog.empty());
}

TEST(Topology, NodeCrashFailsOverWithoutLosingRequests)
{
    runTopology(
        "lb:1:20,app:2:80", "node-crash(node=1,at-ms=2)", 40, 1,
        [](Topology &topo) {
            // The PR 4 contract: a dead replica degrades requests,
            // never loses them.
            EXPECT_EQ(topo.completedCount(), 40u);
            EXPECT_EQ(topo.failedCount(), 0u);
            EXPECT_GT(topo.rpcStats().failovers, 0u);

            double onSurvivor = 0.0;
            for (GlobalRequestId g = 0; g < 40; ++g) {
                EXPECT_EQ(topo.request(g).state,
                          RequestState::Completed);
                // Every request's work is accounted on some node.
                double sum = 0.0;
                for (NodeId n = 0; n < topo.numNodes(); ++n)
                    sum += topo.nodeTotals(g, n).instructions;
                EXPECT_GT(sum, 0.0);
                onSurvivor += topo.nodeTotals(g, 2).instructions; // app/1
            }
            EXPECT_GT(onSurvivor, 0.0);
        });
}

TEST(Topology, ArtifactsAreByteIdenticalAcrossReruns)
{
    const char *plan =
        "node-crash(node=1,at-ms=2); link-drop(node=0,p=0.1)";
    const auto a = runTopology("lb:1:20,app:2:80", plan, 30, 7);
    const auto b = runTopology("lb:1:20,app:2:80", plan, 30, 7);
    EXPECT_FALSE(a.injectionLog.empty());
    EXPECT_EQ(a.injectionLog, b.injectionLog);
    EXPECT_EQ(a.breakerLog, b.breakerLog);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.failovers, b.failovers);

    // A different seed reshuffles the lotteries.
    const auto c = runTopology("lb:1:20,app:2:80", plan, 30, 8);
    EXPECT_NE(a.injectionLog, c.injectionLog);
}

TEST(Topology, FullPartitionDegradesButNeverHangsOrLoses)
{
    runTopology(
        "lb:1:20,app:1:80",
        "link-partition(a=0,b=1,from-ms=0,for-ms=4000)", 10, 1,
        [](Topology &topo) {
            // No path to the single app replica: every request
            // exhausts its retries and fails -- but each one is
            // resolved and its accounting frozen, never leaked.
            EXPECT_EQ(topo.completedCount(), 0u);
            EXPECT_EQ(topo.failedCount(), 10u);
            EXPECT_TRUE(topo.allResolved());
            for (GlobalRequestId g = 0; g < 10; ++g)
                EXPECT_EQ(topo.request(g).state, RequestState::Failed);
        });
}

TEST(Topology, LateHedgesRegisterNodeRequestsThatNoReportCounts)
{
    // With hedging on, a hedge can reach its replica after the
    // request resolved. localIdOf then registers a node-local request
    // that nothing completes: the replica executes the work, but no
    // report counts it (docs/CLUSTER.md). This pins that blind spot.
    TopologySpec spec;
    std::string err;
    ASSERT_TRUE(
        TopologySpec::parse("lb:1:20,app:2:80,db:2:140", spec, err))
        << err;
    RpcPolicy policy;
    policy.hedgeQuantile = 0.5;
    Topology topo(spec, policy, BreakerConfig{}, 1);
    topo.start();
    sim::EventQueue &eq = topo.eventQueue();
    for (int i = 0; i < 200; ++i)
        eq.scheduleIn(sim::usToCycles(500.0) * (i + 1),
                      [&topo] { topo.inject(); });
    // Run well past the last resolution, so that every late hedge
    // has been delivered and executed.
    eq.runUntil(sim::msToCycles(300.0));
    ASSERT_TRUE(topo.allResolved());
    EXPECT_EQ(topo.rpcStats().hedges, 176u);

    std::size_t neverCompleted = 0;
    NodeId node = -1;
    os::RequestId local = os::InvalidRequestId;
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        const os::Kernel &k = topo.kernel(n);
        neverCompleted += k.numRequests() - k.completedRequests();
        for (os::RequestId l = 0;
             node < 0 && static_cast<std::size_t>(l) < k.numRequests();
             ++l) {
            if (!k.request(l).done) {
                node = n;
                local = l;
            }
        }
    }
    // Node-local requests registered after their request resolved.
    EXPECT_EQ(neverCompleted, 91u);
    ASSERT_GE(node, 0);
    const GlobalRequestId gid = topo.globalIdOf(node, local);
    EXPECT_NE(topo.request(gid).state, RequestState::InFlight);
    EXPECT_GT(topo.kernel(node).request(local).totals.instructions, 0.0);
    EXPECT_EQ(topo.nodeTotals(gid, node).instructions, 0.0);
}
