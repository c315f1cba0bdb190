/**
 * @file
 * Serving-mode throughput baseline: sustained simulated requests per
 * host second, peak RSS, and checkpoint latency of `rbv_serve` on
 * the micromix workload.
 *
 * Invoked as `bench_serve_throughput --json-out FILE` it writes the
 * BENCH_serve.json perf-trajectory baseline (docs/PERFORMANCE.md);
 * without the flag it prints the same numbers as text. Host timing
 * and RSS are inherently non-deterministic, so nothing here is
 * byte-compared — the JSON tracks the trajectory across PRs. The
 * measurement runs Repeats times back to back and records the
 * median run's host timings; the bench exits 1 if two runs'
 * simulated fields differ.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/cli.hh"
#include "exp/serve.hh"
#include "obs/obs.hh"

using namespace rbv;

namespace {

/** Back-to-back runs; one run of 200000 requests takes ~9 s. */
constexpr int Repeats = 5;

/** Peak RSS (VmHWM) in KiB from /proc/self/status (0 if absent). */
long
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            long kb = 0;
            std::istringstream ls(line.substr(6));
            ls >> kb;
            return kb;
        }
    }
    return 0;
}

struct Measurement
{
    std::size_t requests = 0;
    double wallSec = 0.0;
    double reqPerSec = 0.0;
    double simMs = 0.0;
    long peakRssKb = 0;
    std::uint64_t checkpoints = 0;
    double checkpointUs = 0.0; ///< Mean host latency per checkpoint.
};

Measurement
measure(std::size_t requests)
{
    obs::SessionConfig sc;
    obs::Session session(sc);

    exp::ServeConfig cfg;
    cfg.appName = "micromix";
    cfg.arrival.qps = 20000.0;
    cfg.targetRequests = requests;
    cfg.checkpointEvery = requests / 20 ? requests / 20 : 1;
    cfg.quiet = true;

    std::ostringstream sink;
    const auto t0 = std::chrono::steady_clock::now();
    const exp::ServeResult res = exp::runServe(cfg, sink);
    const auto t1 = std::chrono::steady_clock::now();

    Measurement m;
    m.requests = res.completed;
    m.wallSec = std::chrono::duration<double>(t1 - t0).count();
    m.reqPerSec = m.wallSec > 0.0
                      ? static_cast<double>(res.completed) / m.wallSec
                      : 0.0;
    m.simMs = sim::cyclesToMs(static_cast<double>(res.wallCycles));
    m.peakRssKb = peakRssKb();
    for (const auto &row : session.mergedProfile()) {
        if (row.key == obs::Prof::ServeCheckpoint) {
            m.checkpoints = row.count;
            m.checkpointUs =
                row.count > 0
                    ? static_cast<double>(row.ns) / 1.0e3 /
                          static_cast<double>(row.count)
                    : 0.0;
        }
    }
    return m;
}

/** The simulated fields of two runs are equal. */
bool
sameSimulation(const Measurement &a, const Measurement &b)
{
    return a.requests == b.requests && a.simMs == b.simMs &&
           a.checkpoints == b.checkpoints;
}

int
emitJson(const std::string &path, const Measurement &m)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "bench_serve_throughput: cannot write " << path
                  << "\n";
        return 1;
    }
    out << std::fixed << std::setprecision(1);
    out << "{\n"
        << "  \"bench\": \"serve\",\n"
        << "  \"host_cpus\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"app\": \"micromix\",\n"
        << "  \"requests\": " << m.requests << ",\n"
        << "  \"wall_s\": " << m.wallSec << ",\n"
        << "  \"req_per_host_sec\": " << m.reqPerSec << ",\n"
        << "  \"sim_ms\": " << m.simMs << ",\n"
        << "  \"peak_rss_kb\": " << m.peakRssKb << ",\n"
        << "  \"checkpoints\": " << m.checkpoints << ",\n"
        << "  \"checkpoint_latency_us\": " << m.checkpointUs << "\n"
        << "}\n";
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
    const std::size_t requests = cli.getU64("requests", 200000);
    const std::string jsonOut = cli.getStr("json-out", "");
    if (requests == 0) {
        std::cerr << argv[0] << ": --requests must be positive\n";
        return 2;
    }

    std::vector<Measurement> runs;
    for (int k = 0; k < Repeats; ++k) {
        runs.push_back(measure(requests));
        if (!sameSimulation(runs.back(), runs.front())) {
            std::cerr << argv[0] << ": run " << k + 1
                      << " differs from its first run\n";
            return 1;
        }
    }
    // The median run by wall time; every run completed the same
    // requests, so it is also the median req/host-s. The peak RSS is
    // the process's, over every run.
    std::sort(runs.begin(), runs.end(),
              [](const Measurement &a, const Measurement &b) {
                  return a.wallSec < b.wallSec;
              });
    Measurement m = runs[Repeats / 2];
    m.peakRssKb = peakRssKb();
    if (!jsonOut.empty())
        return emitJson(jsonOut, m);

    std::cout << std::fixed << std::setprecision(1) << "serve "
              << m.requests << " requests in " << m.wallSec
              << " s host (" << m.reqPerSec << " req/s), sim "
              << m.simMs << " ms, peak RSS " << m.peakRssKb
              << " KiB, " << m.checkpoints << " checkpoints at "
              << m.checkpointUs << " us\n";
    return 0;
}
