/**
 * @file
 * Fault-tolerant multi-tier cluster driver (docs/CLUSTER.md).
 *
 * Builds the `--topology` tier chain (replicated backends on one
 * simulated clock), drives `--requests` open-loop arrivals at
 * `--qps` through every tier under the RPC policy (deadlines,
 * bounded retries with deterministic backoff, optional `--hedge`
 * hedging, per-replica circuit breakers), optionally injecting
 * cluster faults from the shared `--faults` grammar.
 *
 * All result-bearing stdout — checkpoint lines, the summary, the
 * breaker history, the injection log — is simulation-deterministic:
 * byte-identical across reruns and at any `--jobs` level (`--runs`
 * replicates execute in parallel and print in run order). Without
 * `--faults` the output is prefix-identical to a faulted run whose
 * plan injects nothing: the fault layer appends, never perturbs.
 *
 * Exit codes: 0 clean, 2 usage error, 3 degraded (a request
 * exhausted its retries or the run horizon expired with requests
 * unresolved).
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dist/faults.hh"
#include "dist/topology.hh"
#include "exp/cli.hh"
#include "exp/obsio.hh"
#include "exp/runner.hh"
#include "fi/injection.hh"
#include "fi/plan.hh"
#include "stats/online.hh"
#include "stats/rng.hh"

using namespace rbv;
using namespace rbv::dist;

namespace {

struct ClusterRunConfig
{
    TopologySpec topo;
    RpcPolicy policy;
    BreakerConfig breaker;
    std::uint64_t seed = 1;
    double qps = 2000.0;
    std::size_t requests = 2000;
    std::size_t checkpointEvery = 0;
    fi::FaultPlan plan;
    bool haveFaults = false;
    bool diagnose = false;
};

struct ClusterRunResult
{
    std::string text; ///< Deterministic per-run stdout block.
    std::size_t injected = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t unresolved = 0;
};

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

ClusterRunResult
runCluster(const ClusterRunConfig &cfg)
{
    Topology topo(cfg.topo, cfg.policy, cfg.breaker, cfg.seed);
    std::optional<ClusterFaultSession> session;
    if (cfg.haveFaults) {
        session.emplace(cfg.plan, cfg.seed);
        session->attach(topo);
    }
    topo.start();

    std::ostringstream out;
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

    // Open-loop Poisson arrivals, all scheduled upfront from a
    // dedicated seeded stream.
    sim::EventQueue &eq = topo.eventQueue();
    stats::Rng arrivals(cfg.seed ^ 0xa22e1a1ull);
    const double meanGapUs = 1.0e6 / cfg.qps;
    sim::Tick t = 0;
    sim::Tick lastArrival = 0;
    for (std::size_t i = 0; i < cfg.requests; ++i) {
        t += std::max<sim::Tick>(
            sim::usToCycles(arrivals.exponential(meanGapUs)), 1);
        lastArrival = t;
        eq.scheduleIn(t, [&topo] { topo.inject(); });
    }

    std::size_t resolved = 0;
    std::vector<GlobalRequestId> failedGids;
    topo.setResolvedCallback([&](GlobalRequestId gid, bool ok) {
        ++resolved;
        if (!ok)
            failedGids.push_back(gid);
        if (cfg.checkpointEvery > 0 &&
            resolved % cfg.checkpointEvery == 0) {
            const RpcStats &s = topo.rpcStats();
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
    // double it for slack. Hitting the horizon with unresolved
    // requests is itself reported as degradation, never a hang.
    sim::Tick perHop =
        static_cast<sim::Tick>(cfg.policy.maxAttempts) *
        (cfg.policy.deadlineTicks +
         4 * dist::RpcBackoffBaseTicks *
             static_cast<sim::Tick>(cfg.policy.maxAttempts));
    const sim::Tick horizon =
        lastArrival +
        2 * static_cast<sim::Tick>(cfg.topo.tiers.size()) * perHop +
        sim::msToCycles(10.0);
    eq.runUntil(horizon);

    ClusterRunResult res;
    res.injected = topo.injectedCount();
    res.completed = topo.completedCount();
    res.failed = topo.failedCount();
    res.unresolved = res.injected - res.completed - res.failed +
                     (cfg.requests - res.injected);

    const RpcStats &s = topo.rpcStats();
    const auto &lat = topo.completedLatenciesUs();
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
    fix << " p50-us " << quantileOf(lat, 0.50) << " p99-us "
        << quantileOf(lat, 0.99) << "\n";
    out << fix.str();
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
            << '/' << e.replica << ' ' << breakerStateName(e.from)
            << "->" << breakerStateName(e.to) << "\n";

    if (session) {
        out << "[faults] plan " << cfg.plan.summary() << "\n";
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
        for (const GlobalRequestId gid : failedGids)
            for (const auto &[kind, vs] : victims)
                if (vs.count(gid)) {
                    ++explained;
                    break;
                }
        out << "[diag] failed " << failedGids.size()
            << " explained-by-injections " << explained << "\n";
    }

    res.text = out.str();
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    const exp::Cli cli(argc, argv,
                       {"topology", "qps", "requests", "seed",
                        "faults", "checkpoint-every", "link-us",
                        "deadline-us", "rpc-retries", "hedge",
                        "runs", "jobs", "quiet", "diagnose"});
    const exp::ObsScope obs(cli);

    ClusterRunConfig cfg;
    const std::string topoText =
        cli.getStr("topology", "lb:1:20,app:2:80,db:2:140");
    std::string error;
    if (!TopologySpec::parse(topoText, cfg.topo, error)) {
        std::cerr << argv[0] << ": bad --topology: " << error
                  << "\n";
        return 2;
    }
    cfg.topo.linkLatencyTicks =
        sim::usToCycles(cli.getDouble("link-us", 80.0));
    cfg.policy.deadlineTicks =
        sim::usToCycles(cli.getDouble("deadline-us", 2000.0));
    cfg.policy.maxAttempts =
        static_cast<int>(cli.getInt("rpc-retries", 3));
    cfg.policy.hedgeQuantile = cli.getDouble("hedge", 0.0);
    cfg.seed = cli.getU64("seed", 1);
    cfg.qps = cli.getDouble("qps", 2000.0);
    cfg.requests =
        static_cast<std::size_t>(cli.getInt("requests", 2000));
    cfg.checkpointEvery = static_cast<std::size_t>(
        cli.getInt("checkpoint-every", 500));
    cfg.diagnose = cli.getBool("diagnose", false);
    if (cfg.qps <= 0.0 || cfg.requests == 0 ||
        cfg.policy.maxAttempts < 1 ||
        cfg.policy.hedgeQuantile < 0.0 ||
        cfg.policy.hedgeQuantile > 1.0) {
        std::cerr << argv[0]
                  << ": --qps/--requests must be positive, "
                     "--rpc-retries >= 1, --hedge in [0, 1]\n";
        return 2;
    }

    if (cli.has("faults")) {
        fi::FaultPlan plan;
        if (!fi::FaultPlan::parse(cli.getStr("faults", ""), plan,
                                  error)) {
            std::cerr << argv[0] << ": bad --faults plan: " << error
                      << "\n";
            return 2;
        }
        if (plan.hasScenarioFaults() || plan.hasJobFaults()) {
            std::cerr << argv[0] << ": bad --faults plan: "
                      << plan.summary()
                      << ": a cluster run injects node-* and link-* "
                         "faults only\n";
            return 2;
        }
        cfg.plan = plan;
        cfg.haveFaults = true;
    }

    const auto runs =
        static_cast<std::size_t>(cli.getInt("runs", 1));
    if (runs == 0) {
        std::cerr << argv[0] << ": --runs must be >= 1\n";
        return 2;
    }

    // Replicates run in parallel and print in run order: the
    // determinism contract (`--jobs` never changes stdout) is
    // exercised, not just asserted.
    exp::ParallelRunner runner(exp::runnerOptions(cli));
    const std::vector<ClusterRunResult> results =
        runner.map(runs, [&](std::size_t r) {
            ClusterRunConfig one = cfg;
            one.seed = cfg.seed + 1000 * r;
            return runCluster(one);
        });

    bool degraded = false;
    for (std::size_t r = 0; r < results.size(); ++r) {
        if (runs > 1)
            std::cout << "[run " << r << " seed "
                      << cfg.seed + 1000 * r << "]\n";
        std::cout << results[r].text;
        if (results[r].failed > 0 || results[r].unresolved > 0)
            degraded = true;
    }
    if (degraded) {
        std::cerr << argv[0]
                  << ": degraded: requests failed or unresolved\n";
        return 3;
    }
    return 0;
}
