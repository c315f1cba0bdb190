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

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/cli.hh"
#include "exp/cluster.hh"
#include "fi/plan.hh"

using namespace rbv;

namespace {

constexpr const char *kTopology = "lb:1:20,app:2:80,db:2:140";
constexpr std::uint64_t kSeed = 1;
constexpr double kQps = 4000.0;

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

/** One canned case's outcome. */
struct CaseRun
{
    exp::ClusterResult res;
    double goodput = 0.0;
    double amplification = 0.0; ///< RPC attempts per tier hop.
    double wallSec = 0.0;       ///< Host time of the run.
};

/** The cluster run of one canned case; its report is not printed. */
CaseRun
runCase(const PlanCase &pc, std::size_t requests)
{
    exp::ClusterConfig cfg;
    fi::FaultPlan plan;
    std::string error;
    const bool faulted = pc.faults[0] != '\0';
    if (!dist::TopologySpec::parse(kTopology, cfg.topo, error) ||
        (faulted && !fi::FaultPlan::parse(pc.faults, plan, error))) {
        std::cerr << "bad canned case " << pc.name << ": " << error
                  << "\n";
        std::exit(1);
    }
    if (faulted)
        cfg.faults = plan;
    cfg.policy.hedgeQuantile = pc.hedge;
    cfg.seed = kSeed;
    cfg.qps = kQps;
    cfg.requests = requests;

    std::ostringstream report;
    const auto t0 = std::chrono::steady_clock::now();
    CaseRun run;
    run.res = exp::runCluster(cfg, report);
    run.wallSec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    const auto n = static_cast<double>(requests);
    run.goodput = static_cast<double>(run.res.completed) / n;
    run.amplification =
        static_cast<double>(run.res.rpc.attempts) /
        (n * static_cast<double>(cfg.topo.tiers.size()));
    return run;
}

int
emitJson(const std::string &path, const std::vector<CaseRun> &runs,
         std::size_t requests)
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
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const exp::ClusterResult &r = runs[i].res;
        out << std::fixed << std::setprecision(4);
        out << "    {\"name\": \"" << kCases[i].name
            << "\", \"faults\": \"" << kCases[i].faults
            << "\", \"goodput\": " << runs[i].goodput
            << ", \"retry_amplification\": " << runs[i].amplification;
        out << std::setprecision(1);
        out << ", \"p50_us\": " << r.p50LatencyUs
            << ", \"p99_us\": " << r.p99LatencyUs
            << ", \"retries\": " << r.rpc.retries
            << ", \"hedges\": " << r.rpc.hedges
            << ", \"failovers\": " << r.rpc.failovers
            << ", \"failed\": " << r.failed
            << ", \"injections\": " << r.injections;
        out << std::setprecision(3);
        out << ", \"wall_s\": " << runs[i].wallSec << "}"
            << (i + 1 < runs.size() ? "," : "") << "\n";
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
    const std::size_t requests = cli.getU64("requests", 4000);
    const std::string jsonOut = cli.getStr("json-out", "");
    if (requests == 0) {
        std::cerr << argv[0] << ": --requests must be positive\n";
        return 2;
    }

    std::vector<CaseRun> runs;
    for (const PlanCase &pc : kCases)
        runs.push_back(runCase(pc, requests));

    if (!jsonOut.empty())
        return emitJson(jsonOut, runs, requests);

    for (std::size_t i = 0; i < runs.size(); ++i) {
        const exp::ClusterResult &r = runs[i].res;
        std::cout << std::fixed << std::setprecision(4)
                  << kCases[i].name << ": goodput "
                  << runs[i].goodput << " amp " << runs[i].amplification
                  << std::setprecision(1) << " p50 " << r.p50LatencyUs
                  << " us p99 " << r.p99LatencyUs << " us retries "
                  << r.rpc.retries << " hedges " << r.rpc.hedges
                  << " failovers " << r.rpc.failovers << " failed "
                  << r.failed << " injections " << r.injections
                  << "\n";
    }
    return 0;
}
