/**
 * @file
 * Cluster run loop implementation.
 */

#include "exp/cluster.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dist/faults.hh"
#include "fi/injection.hh"
#include "stats/rng.hh"

namespace rbv::exp {

namespace {

/** Lower nearest-rank quantile of @p v (0 when empty). */
double
quantileOf(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1));
    return v[idx];
}

} // namespace

ClusterResult
runCluster(const ClusterConfig &cfg, std::ostream &out)
{
    dist::Topology topo(cfg.topo, cfg.policy, dist::BreakerConfig{},
                        cfg.seed);
    std::optional<dist::ClusterFaultSession> session;
    if (cfg.faults) {
        session.emplace(*cfg.faults, cfg.seed);
        session->attach(topo);
    }
    topo.start();

    out << "[cluster] topology " << cfg.topo.summary() << " nodes "
        << cfg.topo.totalNodes() << " seed " << cfg.seed << "\n";
    out << "[cluster] requests " << cfg.requests << " qps "
        << cfg.qps << " link-us "
        << sim::cyclesToUs(
               static_cast<double>(cfg.topo.linkLatencyTicks))
        << " deadline-us "
        << sim::cyclesToUs(
               static_cast<double>(cfg.policy.deadlineTicks))
        << " attempts-per-hop " << cfg.policy.maxAttempts
        << " hedge " << cfg.policy.hedgeQuantile << "\n";

    // Open-loop Poisson arrivals from a dedicated seeded stream, one
    // pending at a time. A second stream with the same seed finds the
    // last arrival tick for the horizon below.
    sim::EventQueue &eq = topo.eventQueue();
    const std::uint64_t arrivalSeed = cfg.seed ^ 0xa22e1a1ull;
    const double meanGapUs = 1.0e6 / cfg.qps;
    const auto toTicks = [](double gapUs) {
        return std::max<sim::Tick>(sim::usToCycles(gapUs), 1);
    };
    stats::Rng ahead(arrivalSeed);
    sim::Tick lastArrival = 0;
    for (std::size_t i = 0; i < cfg.requests; ++i)
        lastArrival += toTicks(ahead.exponential(meanGapUs));
    stats::Rng gaps(arrivalSeed);
    std::size_t issued = 0;
    std::function<void()> arrive = [&] {
        topo.inject();
        if (++issued < cfg.requests)
            eq.scheduleIn(toTicks(gaps.exponential(meanGapUs)), arrive);
    };
    eq.scheduleIn(toTicks(gaps.exponential(meanGapUs)), arrive);

    std::size_t resolved = 0;
    std::vector<dist::GlobalRequestId> failedGids;
    topo.setResolvedCallback([&](dist::GlobalRequestId gid, bool ok) {
        ++resolved;
        if (!ok)
            failedGids.push_back(gid);
        if (cfg.checkpointEvery > 0 &&
            resolved % cfg.checkpointEvery == 0) {
            const dist::RpcStats &s = topo.rpcStats();
            out << "[ckpt] resolved " << resolved << "/"
                << cfg.requests << " completed "
                << topo.completedCount() << " failed "
                << topo.failedCount() << " retries " << s.retries
                << " hedges " << s.hedges << " failovers "
                << s.failovers << " sim-ms "
                << sim::cyclesToMs(static_cast<double>(eq.now()))
                << "\n";
        }
        if (resolved == cfg.requests)
            eq.requestStop();
    });

    // Horizon: every attempt carries a deadline event, so the worst
    // case per hop is bounded by attempts * (deadline + max backoff);
    // double it for slack.
    const sim::Tick perHop =
        static_cast<sim::Tick>(cfg.policy.maxAttempts) *
        (cfg.policy.deadlineTicks +
         4 * dist::RpcBackoffBaseTicks *
             static_cast<sim::Tick>(cfg.policy.maxAttempts));
    const sim::Tick horizon =
        lastArrival +
        2 * static_cast<sim::Tick>(cfg.topo.tiers.size()) * perHop +
        sim::msToCycles(10.0);
    eq.runUntil(horizon);

    ClusterResult res;
    res.injected = topo.injectedCount();
    res.completed = topo.completedCount();
    res.failed = topo.failedCount();
    res.unresolved = cfg.requests - res.completed - res.failed;
    const auto &lat = topo.completedLatenciesUs();
    res.p50LatencyUs = quantileOf(lat, 0.50);
    res.p99LatencyUs = quantileOf(lat, 0.99);
    res.rpc = topo.rpcStats();
    res.injections = session ? session->log().size() : 0;

    const double goodput =
        cfg.requests > 0 ? static_cast<double>(res.completed) /
                               static_cast<double>(cfg.requests)
                         : 1.0;
    out << "[result] injected " << res.injected << " completed "
        << res.completed << " failed " << res.failed << " lost "
        << res.unresolved << "\n";
    std::ostringstream fix;
    fix.setf(std::ios::fixed);
    fix.precision(4);
    fix << "[result] goodput " << goodput;
    fix.precision(1);
    fix << " p50-us " << res.p50LatencyUs << " p99-us "
        << res.p99LatencyUs << "\n";
    out << fix.str();
    const dist::RpcStats &s = res.rpc;
    out << "[result] rpc attempts " << s.attempts << " timeouts "
        << s.timeouts << " retries " << s.retries << " hedges "
        << s.hedges << " failovers " << s.failovers
        << " late-replies " << s.lateReplies << " no-replica "
        << s.noReplica << "\n";

    const auto breaker = topo.breakerHistory();
    out << "[breaker] transitions " << breaker.size() << "\n";
    for (const auto &e : breaker)
        out << "[breaker] " << e.tick << ' '
            << cfg.topo.tiers[static_cast<std::size_t>(e.tier)].name
            << '/' << e.replica << ' ' << dist::breakerStateName(e.from)
            << "->" << dist::breakerStateName(e.to) << "\n";

    if (session) {
        out << "[faults] plan " << cfg.faults->summary() << "\n";
        out << "[faults] injections " << session->log().size()
            << "\n";
        out << session->formatLog();
    }

    if (cfg.diagnose) {
        // Lightweight root-cause attribution: join the failed
        // requests against the injection log's victim ids per kind.
        std::map<std::string, std::set<std::int64_t>> victims;
        if (session)
            for (const auto &inj : session->log())
                if (inj.victim >= 0)
                    victims[fi::faultName(inj.kind)].insert(
                        inj.victim);
        for (const auto &[kind, vs] : victims)
            out << "[diag] " << kind << " victim-requests "
                << vs.size() << "\n";
        std::size_t explained = 0;
        for (const dist::GlobalRequestId gid : failedGids)
            for (const auto &[kind, vs] : victims)
                if (vs.count(gid)) {
                    ++explained;
                    break;
                }
        out << "[diag] failed " << failedGids.size()
            << " explained-by-injections " << explained << "\n";
    }
    return res;
}

} // namespace rbv::exp
