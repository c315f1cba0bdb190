/**
 * @file
 * Fault-tolerant multi-tier cluster driver (docs/CLUSTER.md): the
 * flag front-end of exp::runCluster.
 *
 * Each `--runs` replicate drives `--requests` open-loop arrivals at
 * `--qps` through the `--topology` tier chain under the RPC policy
 * (deadlines, bounded retries, optional `--hedge` hedging,
 * per-replica circuit breakers), optionally injecting cluster faults
 * from the shared `--faults` grammar. Replicates run in parallel and
 * print in run order, so stdout is byte-identical at any `--jobs`.
 *
 * Exit codes: 0 clean, 2 usage error, 3 degraded (a request
 * exhausted its retries or the run horizon expired with requests
 * unresolved).
 */

#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/cli.hh"
#include "exp/cluster.hh"
#include "exp/obsio.hh"
#include "exp/runner.hh"
#include "fi/plan.hh"

using namespace rbv;
using namespace rbv::dist;

namespace {

/** Largest --rpc-retries: attempts per hop, the first try included. */
constexpr std::uint64_t MaxRpcAttempts = 100;

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

    exp::ClusterConfig cfg;
    const std::string topoText =
        cli.getStr("topology", "lb:1:20,app:2:80,db:2:140");
    std::string error;
    if (!TopologySpec::parse(topoText, cfg.topo, error)) {
        std::cerr << argv[0] << ": bad --topology: " << error
                  << "\n";
        return 2;
    }
    cfg.topo.linkLatencyTicks = sim::usToCycles(
        cli.getTime("link-us", 80.0, sim::cyclesPerUs(), true));
    cfg.policy.deadlineTicks = sim::usToCycles(
        cli.getTime("deadline-us", 2000.0, sim::cyclesPerUs()));
    cfg.policy.maxAttempts = static_cast<int>(
        cli.getU64("rpc-retries", 3, 1, MaxRpcAttempts));
    cfg.policy.hedgeQuantile = cli.getDouble("hedge", 0.0);
    cfg.seed = cli.getU64("seed", 1);
    cfg.qps = cli.getRate("qps", 2000.0, sim::usToCycles(1.0e6));
    cfg.requests = cli.getCount("requests", 2000);
    cfg.checkpointEvery = cli.getU64("checkpoint-every", 500);
    cfg.diagnose = cli.getBool("diagnose", false);
    if (cfg.policy.hedgeQuantile < 0.0 || cfg.policy.hedgeQuantile > 1.0) {
        std::cerr << argv[0] << ": --hedge must be in [0, 1]\n";
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
        // A node outside the topology would log an injection that
        // never happens. node=-1 means every link of a link fault.
        const int nodes = cfg.topo.totalNodes();
        for (const fi::FaultSpec &fs : plan.specs()) {
            const bool link = fs.kind == fi::FaultKind::LinkDrop ||
                              fs.kind == fi::FaultKind::LinkDelay;
            for (const auto &[key, value] : fs.params) {
                if (key != "node" && key != "a" && key != "b")
                    continue;
                const double n = fs.param(key, 0.0);
                if ((link && n == -1.0) ||
                    (n >= 0.0 && n < nodes && n == std::floor(n)))
                    continue;
                std::cerr << argv[0] << ": bad --faults plan: "
                          << fi::faultName(fs.kind) << " " << key << "="
                          << value << " is not a node of the " << nodes
                          << "-node topology\n";
                return 2;
            }
        }
        cfg.faults = plan;
    }

    const int runs = cli.getCount("runs", 1);

    // Replicates run in parallel and print in run order: the
    // determinism contract (`--jobs` never changes stdout) is
    // exercised, not just asserted.
    struct Replicate
    {
        std::string text;
        bool degraded = false;
    };
    exp::ParallelRunner runner(exp::runnerOptions(cli));
    const std::vector<Replicate> results =
        runner.map(runs, [&](std::size_t r) {
            exp::ClusterConfig one = cfg;
            one.seed = cfg.seed + 1000 * r;
            std::ostringstream out;
            const bool degraded = exp::runCluster(one, out).degraded();
            return Replicate{out.str(), degraded};
        });

    bool degraded = false;
    for (std::size_t r = 0; r < results.size(); ++r) {
        if (runs > 1)
            std::cout << "[run " << r << " seed "
                      << cfg.seed + 1000 * r << "]\n";
        std::cout << results[r].text;
        degraded = degraded || results[r].degraded;
    }
    if (degraded) {
        std::cerr << argv[0]
                  << ": degraded: requests failed or unresolved\n";
        return 3;
    }
    return 0;
}
