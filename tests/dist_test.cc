/**
 * @file
 * Tests for distributed cross-machine request tracking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <sstream>

#include "dist/faults.hh"
#include "dist/health.hh"
#include "dist/rpc.hh"
#include "dist/topology.hh"
#include "fi/plan.hh"
#include "obs/obs.hh"
#include "stats/rng.hh"

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

/**
 * A request as its resolved callback saw it. The record and the
 * node-local records retire when the callback returns, so a test
 * reads what it needs here.
 */
struct Resolved
{
    GlobalRequestInfo info;
    std::vector<sim::CounterSnapshot> totals; ///< By node.
};

Resolved
snapshot(const Topology &topo, GlobalRequestId gid)
{
    Resolved r;
    r.info = topo.request(gid);
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        r.totals.push_back(topo.nodeTotals(gid, n));
    return r;
}

struct TwoTierRig
{
    static constexpr NodeId front = 0;
    static constexpr NodeId back = 1;

    Topology topo;
    sim::EventQueue &eq;
    std::vector<GlobalRequestId> completed;
    std::map<GlobalRequestId, Resolved> resolved;
    /** Runs inside the resolved callback, while the record lives. */
    std::function<void(GlobalRequestId)> onResolved;

    explicit TwoTierRig(sim::Tick latency = sim::usToCycles(100.0))
        : topo(twoTierSpec(latency), RpcPolicy{}, BreakerConfig{}, 1),
          eq(topo.eventQueue())
    {
        topo.setResolvedCallback([this](GlobalRequestId gid, bool ok) {
            if (ok)
                completed.push_back(gid);
            resolved[gid] = snapshot(topo, gid);
            if (onResolved)
                onResolved(gid);
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
    EXPECT_EQ(rig.resolved.at(gid).info.state, RequestState::Completed);
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
    const Resolved &r = rig.resolved.at(gid);
    const double front = r.totals[rig.front].instructions;
    const double back = r.totals[rig.back].instructions;
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

    const GlobalRequestInfo &f = fast.resolved.at(g1).info;
    const GlobalRequestInfo &s = slow.resolved.at(g2).info;
    const auto lat_fast = f.resolved - f.injected;
    const auto lat_slow = s.resolved - s.injected;
    // Four link crossings, each 490 us longer.
    EXPECT_GT(lat_slow, lat_fast + sim::usToCycles(1900.0));
}

TEST(Cluster, GlobalLocalIdTranslationRoundTrips)
{
    TwoTierRig rig;
    int checked = 0;
    rig.onResolved = [&](GlobalRequestId gid) {
        const os::RequestId lf = rig.topo.localIdOf(rig.front, gid);
        const os::RequestId lb = rig.topo.localIdOf(rig.back, gid);
        EXPECT_EQ(rig.topo.globalIdOf(rig.front, lf), gid);
        EXPECT_EQ(rig.topo.globalIdOf(rig.back, lb), gid);
        ++checked;
    };
    rig.topo.inject();
    rig.eq.runUntil(sim::msToCycles(50.0));
    EXPECT_EQ(checked, 1);
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
        const Resolved &r = rig.resolved.at(gid);
        EXPECT_EQ(r.info.state, RequestState::Completed);
        EXPECT_GT(r.totals[rig.front].instructions +
                      r.totals[rig.back].instructions,
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

    // The take empties the samplers' slots, so the back node's own
    // timeline is copied first.
    core::Timeline merged;
    core::Timeline back;
    rig.onResolved = [&](GlobalRequestId gid) {
        back = sb.timelineOf(rig.topo.localIdOf(rig.back, gid));
        merged = rig.topo.takeMergedTimeline(gid, {&sf, &sb});
    };
    const auto gid = rig.topo.inject();
    rig.eq.runUntil(sim::msToCycles(50.0));

    ASSERT_GT(merged.periods.size(), 5u);
    // Wall-clock ordered.
    for (std::size_t i = 1; i < merged.periods.size(); ++i) {
        EXPECT_GE(merged.periods[i].wallStart,
                  merged.periods[i - 1].wallStart);
    }
    // The merged timeline covers roughly the whole request.
    const Resolved &r = rig.resolved.at(gid);
    const double total =
        r.totals[rig.front].instructions + r.totals[rig.back].instructions;
    EXPECT_NEAR(merged.totalInstructions(), total, total * 0.4);
    // The front's stage precedes the back's: the first sampled period
    // lies before any period of the back node's stage ends.
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
    rig.eq.runUntil(sim::usToCycles(150.0)); // still in flight
    // Out-of-range ids abort instead of returning a dangling
    // reference (the old vector-reallocation hazard).
    EXPECT_DEATH((void)rig.topo.request(424242), "RBV_CHECK failed");
    EXPECT_DEATH((void)rig.topo.request(-1), "RBV_CHECK failed");
    EXPECT_DEATH((void)rig.topo.localIdOf(rig.front, 424242),
                 "RBV_CHECK failed");
    EXPECT_DEATH((void)rig.topo.localIdOf(99, gid), "RBV_CHECK failed");
}

TEST(ClusterDeath, RetiredRequestIdAborts)
{
    TwoTierRig rig;
    GlobalRequestId seen = InvalidGlobalRequestId;
    rig.onResolved = [&](GlobalRequestId gid) {
        // Inside the callback the record is still live.
        EXPECT_EQ(rig.topo.request(gid).state, RequestState::Completed);
        seen = gid;
    };
    const auto gid = rig.topo.inject();
    rig.eq.runUntil(sim::msToCycles(50.0));
    ASSERT_EQ(seen, gid);
    EXPECT_EQ(rig.topo.injectedCount(), 1u);
    EXPECT_EQ(rig.topo.heldRecords(), 0u);
    // Once the callback returned, the id is unknown to the topology.
    EXPECT_DEATH((void)rig.topo.request(gid), "RBV_CHECK failed");
    EXPECT_DEATH((void)rig.topo.nodeTotals(gid, rig.front),
                 "RBV_CHECK failed");
    EXPECT_DEATH((void)rig.topo.localIdOf(rig.front, gid),
                 "RBV_CHECK failed");
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

/** Every request of a run, as its resolved callback saw it. */
using ResolvedMap = std::map<GlobalRequestId, Resolved>;

/**
 * Build a topology (optionally with a fault plan), drive @p requests
 * evenly spaced arrivals through it, and harvest the deterministic
 * artifacts. The run must always resolve every request (the
 * never-hang contract); @p inspect sees the finished topology and
 * the snapshot of every request taken in its resolved callback.
 */
RunArtifacts
runTopology(
    const char *topoText, const char *faults, std::size_t requests,
    std::uint64_t seed,
    const std::function<void(Topology &, const ResolvedMap &)> &inspect =
        {})
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
    ResolvedMap resolved;
    topo.setResolvedCallback([&](GlobalRequestId gid, bool) {
        resolved[gid] = snapshot(topo, gid);
        if (resolved.size() == requests)
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
        inspect(topo, resolved);
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
        [](Topology &topo, const ResolvedMap &resolved) {
            // The PR 4 contract: a dead replica degrades requests,
            // never loses them.
            EXPECT_EQ(topo.completedCount(), 40u);
            EXPECT_EQ(topo.failedCount(), 0u);
            EXPECT_GT(topo.rpcStats().failovers, 0u);

            double onSurvivor = 0.0;
            for (GlobalRequestId g = 0; g < 40; ++g) {
                const Resolved &r = resolved.at(g);
                EXPECT_EQ(r.info.state, RequestState::Completed);
                // Every request's work is accounted on some node.
                double sum = 0.0;
                for (const sim::CounterSnapshot &c : r.totals)
                    sum += c.instructions;
                EXPECT_GT(sum, 0.0);
                onSurvivor += r.totals[2].instructions; // app/1
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
        [](Topology &topo, const ResolvedMap &resolved) {
            // No path to the single app replica: every request
            // exhausts its retries and fails -- but each one is
            // resolved and its accounting frozen, never leaked.
            EXPECT_EQ(topo.completedCount(), 0u);
            EXPECT_EQ(topo.failedCount(), 10u);
            EXPECT_TRUE(topo.allResolved());
            for (GlobalRequestId g = 0; g < 10; ++g)
                EXPECT_EQ(resolved.at(g).info.state,
                          RequestState::Failed);
        });
}

TEST(Topology, LateHedgesAreCompletedAtOnceAndReleased)
{
    // With hedging on, a hedge can reach its replica after the
    // request resolved. The replica still registers a node-local
    // request for it and runs the work, but the topology completes
    // that id at once, so it is charged nothing, and hands it to the
    // kernel's deferred release like any other id. Before late hedges
    // were retired, these 200 requests left 91 node-local records
    // that nothing completed and no report counted.
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
    std::size_t heldAtResolution = 0;
    topo.setResolvedCallback([&](GlobalRequestId gid, bool) {
        for (const os::RequestId l : topo.request(gid).local)
            heldAtResolution += l != os::InvalidRequestId ? 1 : 0;
    });
    // Run well past the last resolution, so that every late hedge
    // has been delivered and executed.
    eq.runUntil(sim::msToCycles(300.0));
    ASSERT_TRUE(topo.allResolved());
    EXPECT_EQ(topo.rpcStats().hedges, 176u);

    std::size_t registered = 0;
    std::size_t uncompleted = 0;
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        const os::Kernel &k = topo.kernel(n);
        registered += k.registeredRequests();
        for (os::RequestId l = 0;
             static_cast<std::size_t>(l) < k.numRequests(); ++l) {
            const os::RequestInfo &info = k.request(l);
            uncompleted += info.id == l && !info.done ? 1 : 0;
        }
        // Every id, late hedges included, is released or still queued:
        // once every hedge ran, only the ids the node's two workers
        // took last can still be reached.
        EXPECT_EQ(k.liveRequests(), k.pendingReleases()) << n;
        EXPECT_LE(k.pendingReleases(), 2u) << n;
    }
    EXPECT_EQ(uncompleted, 0u);
    // The late hedges still registered: the ids no record held when
    // its request resolved.
    EXPECT_EQ(registered - heldAtResolution, 91u);
}

TEST(Topology, LongRunKeepsPerRequestStateBounded)
{
    // perfbench cluster-3tier's settings: 20,000 Poisson arrivals at
    // 2000 qps through lb -> app x2 -> db x2, with 2% of deliveries
    // on node 3 lost. The records and the node-local request tables
    // must stay bounded by the requests in flight, not grow with the
    // run.
    constexpr std::size_t Requests = 20000;
    constexpr double Qps = 2000.0;
    obs::Session session(obs::SessionConfig{0});
    TopologySpec spec;
    fi::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(
        TopologySpec::parse("lb:1:20,app:2:80,db:2:140", spec, err))
        << err;
    ASSERT_TRUE(fi::FaultPlan::parse("link-drop(node=3,p=0.02)", plan,
                                     err))
        << err;
    Topology topo(spec, RpcPolicy{}, BreakerConfig{}, 7);
    ClusterFaultSession faults(plan, 7);
    faults.attach(topo);
    topo.start();

    sim::EventQueue &eq = topo.eventQueue();
    stats::Rng gaps(7);
    const auto nextGap = [&] {
        return std::max<sim::Tick>(
            sim::usToCycles(gaps.exponential(1.0e6 / Qps)), 1);
    };
    std::size_t issued = 0;
    std::function<void()> arrive = [&] {
        topo.inject();
        if (++issued < Requests)
            eq.scheduleIn(nextGap(), arrive);
    };
    eq.scheduleIn(nextGap(), arrive);

    std::size_t resolved = 0;
    std::size_t maxRecords = 0;
    std::size_t maxSlots = 0;
    topo.setResolvedCallback([&](GlobalRequestId, bool) {
        maxRecords = std::max(maxRecords, topo.heldRecords());
        for (NodeId n = 0; n < topo.numNodes(); ++n)
            maxSlots = std::max(maxSlots, topo.kernel(n).numRequests());
        if (++resolved == Requests)
            eq.requestStop();
    });
    eq.runUntil(sim::msToCycles(60000.0));

    ASSERT_TRUE(topo.allResolved());
    EXPECT_EQ(topo.injectedCount(), Requests);
    EXPECT_GT(topo.rpcStats().retries, 0u);
    EXPECT_LE(maxRecords, 64u);
    EXPECT_LE(maxSlots, 16u);
    EXPECT_EQ(topo.heldRecords(), 0u);

    // Every release is counted once: the counter equals the ids the
    // kernels registered and no longer hold.
    std::size_t released = 0;
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        const os::Kernel &k = topo.kernel(n);
        released += k.registeredRequests() - k.liveRequests();
    }
    EXPECT_GT(released, 3 * Requests - 16);
    EXPECT_EQ(session.mergedMetrics().counters[static_cast<std::size_t>(
                  obs::Counter::OsRequestSlotsRecycled)],
              released);
}
