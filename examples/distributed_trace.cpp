/**
 * @file
 * Fault-tolerant distributed request tracking: a replicated
 * two-tier deployment (frontend x2 -> db) built on the declarative
 * tier/RPC API (dist/topology.hh). Mid-run, one frontend replica is
 * crashed by the cluster fault injector; the RPC layer's deadline +
 * retry machinery fails the affected requests over to the surviving
 * replica, the circuit breaker ejects the dead node, and — the PR 4
 * graceful-degradation contract — every request still completes
 * under its original global identity with per-node counter
 * accounting conserved.
 *
 * The report reads everything from the Topology, inside the resolved
 * callback, since a request's records retire when the callback
 * returns: the one record of the request (`request`), each node's
 * share of it (`nodeTotals`: the node kernel's record, frozen when
 * the request resolved) and its cross-machine timeline, taken from
 * one sampler per node (`takeMergedTimeline`).
 *
 * All output is simulation-deterministic: rerunning prints
 * byte-identical text.
 *
 *   ./build/examples/distributed_trace [--requests 40]
 */

#include <iostream>
#include <optional>
#include <utility>

#include "core/sampling/sampler.hh"
#include "dist/faults.hh"
#include "dist/topology.hh"
#include "exp/cli.hh"
#include "exp/obsio.hh"
#include "fi/plan.hh"
#include "stats/rng.hh"
#include "stats/table.hh"

using namespace rbv;
using namespace rbv::dist;

int
main(int argc, char **argv)
{
    const exp::Cli cli(argc, argv, {"requests", "seed"});
    const exp::ObsScope obs(cli);
    const int requests = cli.getCount("requests", 40);
    const std::uint64_t seed = cli.getU64("seed", 1);

    // Two frontend replicas, one db node: nodes 0,1 = frontend/0,1
    // and node 2 = db/0.
    TopologySpec spec;
    std::string error;
    if (!TopologySpec::parse("frontend:2:150,db:1:250", spec,
                             error)) {
        std::cerr << "bad topology: " << error << "\n";
        return 1;
    }
    Topology topo(spec, RpcPolicy{}, BreakerConfig{}, seed);

    // Kill frontend/0 (node 0) three milliseconds in. Everything the
    // injector does lands in a deterministic, victim-labeled log.
    fi::FaultPlan plan;
    if (!fi::FaultPlan::parse("node-crash(node=0,at-ms=3)", plan,
                              error)) {
        std::cerr << "bad plan: " << error << "\n";
        return 1;
    }
    ClusterFaultSession session(plan, seed);
    session.attach(topo);

    // One sampler per machine (the paper's OS-level tracking runs
    // independently on every node).
    core::SamplerConfig sc;
    sc.periodUs = 20.0;
    std::vector<std::optional<core::InterruptSampler>> samplers(
        static_cast<std::size_t>(topo.numNodes()));
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        samplers[static_cast<std::size_t>(n)].emplace(topo.kernel(n),
                                                      sc);

    topo.start();
    for (auto &s : samplers)
        s->start();

    std::vector<core::Sampler *> views;
    for (auto &smp : samplers)
        views.push_back(&*smp);

    // Per-node accounting of a request that failed over: an even id
    // arriving after the crash first targets dead frontend/0
    // (replica = id % 2), times out, and retries on frontend/1 —
    // same global id, counters conserved across the failover. The
    // report keeps the largest such id, or id requests/2 if no
    // failover happened. Every request's merged timeline is taken
    // here, so no node-local id is reused with periods left behind.
    struct Snapshot
    {
        GlobalRequestId gid = -1;
        sim::Tick latency = 0;
        std::vector<sim::CounterSnapshot> totals;
        core::Timeline merged;
    };
    std::optional<Snapshot> failedOver;
    std::optional<Snapshot> fallback;
    sim::EventQueue &eq = topo.eventQueue();
    std::size_t resolved = 0;
    topo.setResolvedCallback([&](GlobalRequestId gid, bool) {
        Snapshot snap;
        snap.gid = gid;
        const GlobalRequestInfo &info = topo.request(gid);
        snap.latency = info.resolved - info.injected;
        for (NodeId n = 0; n < topo.numNodes(); ++n)
            snap.totals.push_back(topo.nodeTotals(gid, n));
        snap.merged = topo.takeMergedTimeline(gid, views);
        if (gid % 2 == 0 && snap.totals[0].instructions < 1.0 &&
            snap.totals[1].instructions > 1.0) {
            if (!failedOver || gid > failedOver->gid)
                failedOver = std::move(snap);
        } else if (gid == requests / 2) {
            fallback = std::move(snap);
        }
        if (++resolved == static_cast<std::size_t>(requests))
            eq.requestStop();
    });
    stats::Rng arrivals(seed + 999);
    sim::Tick t = 0;
    for (int r = 0; r < requests; ++r) {
        t += 1 + sim::usToCycles(arrivals.exponential(400.0));
        eq.scheduleIn(t, [&topo] { topo.inject(); });
    }
    eq.runUntil(sim::msToCycles(10000.0));

    const RpcStats &s = topo.rpcStats();
    std::cout << "topology " << spec.summary() << ", plan "
              << plan.summary() << "\n";
    std::cout << "completed " << topo.completedCount() << "/"
              << requests << " requests, failed "
              << topo.failedCount() << " (retries " << s.retries
              << ", failovers " << s.failovers << ", timeouts "
              << s.timeouts << ")\n\n";

    // The breaker's view of the crash: frontend/0 is ejected, then
    // periodically probed (and re-ejected) for the rest of the run.
    const auto breaker = topo.breakerHistory();
    std::cout << "breaker transitions: " << breaker.size()
              << " (first: "
              << (breaker.empty()
                      ? "none"
                      : spec.tiers[static_cast<std::size_t>(
                                       breaker[0].tier)]
                                .name +
                            "/" +
                            std::to_string(breaker[0].replica) +
                            " " +
                            breakerStateName(breaker[0].from) +
                            "->" + breakerStateName(breaker[0].to))
              << "), injections dropped " << session.log().size()
              << " deliveries on the dead node\n\n";

    if (!failedOver && !fallback) {
        std::cout << "request " << requests / 2 << " did not resolve\n";
        return 0;
    }
    const Snapshot &pick = failedOver ? *failedOver : *fallback;
    std::cout << "request " << pick.gid
              << " (failed over to the surviving replica):\n";
    stats::Table tacc({"node", "instructions", "cycles", "CPI"});
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        const sim::CounterSnapshot &c =
            pick.totals[static_cast<std::size_t>(n)];
        tacc.addRow({topo.nodeName(n),
                     stats::Table::fmt(c.instructions, 0),
                     stats::Table::fmt(c.cycles, 0),
                     stats::Table::fmt(
                         c.cycles / std::max(c.instructions, 1.0))});
    }
    tacc.print(std::cout);
    std::cout << "end-to-end latency "
              << stats::Table::fmt(
                     sim::cyclesToUs(static_cast<double>(pick.latency)),
                     0)
              << " us\n\n";

    // The merged cross-machine timeline still works under failover:
    // the per-node samples of whichever replicas served the request
    // interleave into one wall-clock-ordered behavior record.
    const core::Timeline &merged = pick.merged;
    std::cout << "merged timeline (" << merged.periods.size()
              << " periods across the serving nodes):\n";
    stats::Table tl({"wall (us)", "instructions", "CPI"});
    for (const auto &p : merged.periods) {
        if (p.instructions < 1000.0)
            continue;
        tl.addRow({stats::Table::fmt(
                       sim::cyclesToUs(
                           static_cast<double>(p.wallStart)),
                       0),
                   stats::Table::fmt(p.instructions, 0),
                   stats::Table::fmt(p.cpi())});
    }
    tl.print(std::cout);
    std::cout
        << "\nThe dead replica contributes nothing after the crash "
           "tick; the retry's\nwork appears on the survivor under "
           "the same request id — degradation\nwithout loss, "
           "visible end to end in one merged timeline.\n";
    return 0;
}
