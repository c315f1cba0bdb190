/**
 * @file
 * Cluster resilience baseline: goodput, latency percentiles, and
 * retry amplification of the multi-tier topology under canned fault
 * plans (docs/CLUSTER.md).
 *
 * Invoked as `bench_cluster_resilience --json-out FILE` it writes
 * the BENCH_cluster.json perf-trajectory baseline; without the flag
 * it prints the same numbers as text. The simulation metrics
 * (goodput, percentiles, retry counts) are fully deterministic; only
 * the host wall-clock column varies between machines.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/faults.hh"
#include "dist/topology.hh"
#include "exp/cli.hh"
#include "fi/plan.hh"
#include "stats/rng.hh"

using namespace rbv;
using namespace rbv::dist;

namespace {

constexpr const char *kTopology = "lb:1:20,app:2:80,db:2:140";
constexpr std::uint64_t kSeed = 1;

struct PlanCase
{
    const char *name;
    const char *faults;
    double hedge; ///< Hedge quantile for this case (0 = off).
};

/** The canned adversity ladder. Node ids for the topology above:
 * 0=lb/0, 1=app/0, 2=app/1, 3=db/0, 4=db/1. */
const PlanCase kCases[] = {
    {"baseline", "", 0.0},
    {"app-crash", "node-crash(node=1,at-ms=20)", 0.0},
    {"db-degrade", "node-degrade(node=3,from-ms=10,for-ms=100,mult=6)",
     0.95},
    {"link-flaky", "link-drop(node=3,p=0.05)", 0.0},
};

struct Measurement
{
    std::string name;
    std::string faults;
    std::size_t requests = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    double goodput = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double retryAmplification = 0.0;
    std::uint64_t retries = 0;
    std::uint64_t hedges = 0;
    std::uint64_t failovers = 0;
    std::size_t injections = 0;
    double wallSec = 0.0;
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

Measurement
measure(const PlanCase &pc, std::size_t requests, double qps)
{
    TopologySpec topoSpec;
    std::string error;
    const bool ok = TopologySpec::parse(kTopology, topoSpec, error);
    if (!ok) {
        std::cerr << "bad canned topology: " << error << "\n";
        std::exit(1);
    }
    RpcPolicy policy;
    policy.hedgeQuantile = pc.hedge;

    const auto t0 = std::chrono::steady_clock::now();
    Topology topo(topoSpec, policy, BreakerConfig{}, kSeed);
    std::optional<ClusterFaultSession> session;
    fi::FaultPlan plan;
    if (pc.faults[0] != '\0') {
        if (!fi::FaultPlan::parse(pc.faults, plan, error)) {
            std::cerr << "bad canned plan: " << error << "\n";
            std::exit(1);
        }
        session.emplace(plan, kSeed);
        session->attach(topo);
    }
    topo.start();

    sim::EventQueue &eq = topo.eventQueue();
    stats::Rng arrivals(kSeed ^ 0xa22e1a1ull);
    const double meanGapUs = 1.0e6 / qps;
    sim::Tick t = 0;
    for (std::size_t i = 0; i < requests; ++i) {
        t += std::max<sim::Tick>(
            sim::usToCycles(arrivals.exponential(meanGapUs)), 1);
        eq.scheduleIn(t, [&topo] { topo.inject(); });
    }
    std::size_t resolved = 0;
    topo.setResolvedCallback([&](GlobalRequestId, bool) {
        if (++resolved == requests)
            eq.requestStop();
    });
    eq.runUntil(t + sim::msToCycles(200.0));
    const auto t1 = std::chrono::steady_clock::now();

    Measurement m;
    m.name = pc.name;
    m.faults = pc.faults;
    m.requests = requests;
    m.completed = topo.completedCount();
    m.failed = topo.failedCount();
    m.goodput = static_cast<double>(m.completed) /
                static_cast<double>(requests);
    m.p50Us = quantileOf(topo.completedLatenciesUs(), 0.50);
    m.p99Us = quantileOf(topo.completedLatenciesUs(), 0.99);
    const double idealAttempts =
        static_cast<double>(requests) *
        static_cast<double>(topoSpec.tiers.size());
    m.retryAmplification =
        idealAttempts > 0.0
            ? static_cast<double>(topo.rpcStats().attempts) /
                  idealAttempts
            : 0.0;
    m.retries = topo.rpcStats().retries;
    m.hedges = topo.rpcStats().hedges;
    m.failovers = topo.rpcStats().failovers;
    m.injections = session ? session->log().size() : 0;
    m.wallSec = std::chrono::duration<double>(t1 - t0).count();
    return m;
}

int
emitJson(const std::string &path,
         const std::vector<Measurement> &ms, std::size_t requests)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "bench_cluster_resilience: cannot write "
                  << path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"cluster\",\n"
        << "  \"host_cpus\": "
        << std::thread::hardware_concurrency() << ",\n"
        << "  \"topology\": \"" << kTopology << "\",\n"
        << "  \"requests\": " << requests << ",\n"
        << "  \"plans\": [\n";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        const Measurement &m = ms[i];
        out << std::fixed << std::setprecision(4);
        out << "    {\"name\": \"" << m.name << "\", \"faults\": \""
            << m.faults << "\", \"goodput\": " << m.goodput
            << ", \"retry_amplification\": " << m.retryAmplification;
        out << std::setprecision(1);
        out << ", \"p50_us\": " << m.p50Us
            << ", \"p99_us\": " << m.p99Us
            << ", \"retries\": " << m.retries
            << ", \"hedges\": " << m.hedges
            << ", \"failovers\": " << m.failovers
            << ", \"failed\": " << m.failed
            << ", \"injections\": " << m.injections;
        out << std::setprecision(3);
        out << ", \"wall_s\": " << m.wallSec << "}"
            << (i + 1 < ms.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const exp::Cli cli(argc, argv);
    if (!cli.unknown({"requests", "json-out"}).empty()) {
        std::cerr << "usage: " << argv[0]
                  << " [--requests N] [--json-out FILE]\n";
        return 2;
    }
    const long requests = cli.getInt("requests", 4000);
    const std::string jsonOut = cli.getStr("json-out", "");
    if (requests <= 0) {
        std::cerr << argv[0] << ": --requests must be positive\n";
        return 2;
    }

    std::vector<Measurement> ms;
    for (const PlanCase &pc : kCases)
        ms.push_back(
            measure(pc, static_cast<std::size_t>(requests), 4000.0));

    if (!jsonOut.empty())
        return emitJson(jsonOut, ms, static_cast<std::size_t>(requests));

    for (const Measurement &m : ms) {
        std::cout << std::fixed << std::setprecision(4) << m.name
                  << ": goodput " << m.goodput << " amp "
                  << m.retryAmplification << std::setprecision(1)
                  << " p50 " << m.p50Us << " us p99 " << m.p99Us
                  << " us retries " << m.retries << " hedges "
                  << m.hedges << " failovers " << m.failovers
                  << " failed " << m.failed << " injections "
                  << m.injections << "\n";
    }
    return 0;
}
