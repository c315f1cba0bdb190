/**
 * @file
 * Online serving mode: open-loop arrivals against the simulated
 * server with streaming identification, clustering, and anomaly
 * detection (docs/SERVING.md).
 *
 * Unlike the fig benches, which run a batch scenario and analyze the
 * records afterwards, rbv_serve consumes each request as it
 * completes and reports progress as per-epoch checkpoint lines. All
 * stdout is simulation-deterministic: two runs at the same seed are
 * byte-identical (host-side views such as RSS go to --rss-log).
 *
 * Exit codes: 0 on a clean run, 2 on a usage error, 3 when the run
 * is degraded (stalled requests detected, e.g. under a req-stuck
 * fault plan).
 */

#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "exp/cli.hh"
#include "exp/obsio.hh"
#include "exp/serve.hh"
#include "fi/injection.hh"
#include "sim/types.hh"

using namespace rbv;
using namespace rbv::exp;

namespace {

/**
 * Largest --window, in series. The cluster model reserves a slot per
 * series up front, and each series is one request's binned timeline.
 */
constexpr std::uint64_t MaxWindow = 65536;

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv,
                  {"app", "qps", "arrival", "duration", "requests",
                   "checkpoint-every", "window", "max-outstanding",
                   "seed", "faults", "quiet", "rss-log", "diagnose",
                   "diag-out"});
    const ObsScope obs(cli);

    ServeConfig cfg;
    cfg.appName = cli.getStr("app", "micromix");
    cfg.base.seed = cli.getU64("seed", 1);
    cfg.arrival.qps =
        cli.getRate("qps", 20000.0, sim::usToCycles(1.0e6));
    try {
        cfg.arrival.mode =
            wl::arrivalModeFromName(cli.getStr("arrival", "poisson"));
        makeServeGenerator(cfg.appName); // Validate the name early.
    } catch (const std::invalid_argument &e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        return 2;
    }
    cfg.targetRequests = cli.getU64("requests", 0);
    cfg.durationSec =
        cli.getTime("duration", 1.0, sim::usToCycles(1.0e6));
    cfg.checkpointEvery = cli.getU64("checkpoint-every", 10000);
    // A window smaller than k never reclusters, so nothing is flagged;
    // a cap of 0 sheds every arrival.
    cfg.window = cli.getU64("window", 512, cfg.k, MaxWindow);
    cfg.maxOutstanding = cli.getU64(
        "max-outstanding", 4096, 1,
        std::numeric_limits<std::uint64_t>::max());
    cfg.rssLog = cli.getStr("rss-log", "");
    cfg.quiet = cli.getBool("quiet", false);
    cfg.diagnose = cli.getBool("diagnose", false);
    cfg.diagOut = cli.getStr("diag-out", "");

    if (cli.has("faults")) {
        fi::FaultPlan plan;
        std::string error;
        if (!fi::FaultPlan::parse(cli.getStr("faults", ""), plan,
                                  error)) {
            std::cerr << argv[0] << ": bad --faults plan: " << error
                      << "\n";
            return 2;
        }
        if (plan.hasJobFaults() || plan.hasClusterFaults()) {
            std::cerr << argv[0] << ": bad --faults plan: "
                      << plan.summary()
                      << ": the serve loop injects neither job-* nor "
                         "node-*/link-* faults\n";
            return 2;
        }
        if (!plan.empty())
            cfg.base.faults =
                std::make_shared<const fi::FaultPlan>(plan);
    }

    // Live metrics: re-dump the obs session at every checkpoint so a
    // watcher sees fresh counters mid-run (ObsScope rewrites the
    // same file once more at exit).
    cfg.session = obs.session();
    cfg.metricsOut = cli.getStr("metrics-out", "");

    const ServeResult res = runServe(cfg, std::cout);
    if (res.degraded()) {
        std::cerr << argv[0] << ": degraded: " << res.stalled
                  << " stalled request(s) detected\n";
        return 3;
    }
    return 0;
}
