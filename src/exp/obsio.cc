/**
 * @file
 * ObsScope implementation.
 */

#include "exp/obsio.hh"

#include <fstream>
#include <iostream>

#include "exp/cli.hh"

namespace rbv::exp {

ObsScope::ObsScope(const Cli &cli)
    : traceOut(cli.getStr("trace-out", "")),
      metricsOut(cli.getStr("metrics-out", "")),
      profOut(cli.getBool("prof", false))
{
    obs::SessionConfig cfg;
    cfg.traceCapacityPerThread = static_cast<std::size_t>(cli.getU64(
        "trace-buf", cfg.traceCapacityPerThread, 0, MaxTraceBuf));
    if (traceOut.empty() && metricsOut.empty() && !profOut)
        return;
    if (traceOut.empty())
        cfg.traceCapacityPerThread = 0; // metrics/profiling only
    sess = std::make_unique<obs::Session>(cfg);
    if (!sess->active()) {
        std::cerr << "obs: another session is already live; "
                     "observability flags ignored\n";
        sess.reset();
    }
}

ObsScope::~ObsScope()
{
    if (!sess)
        return;
    if (!traceOut.empty()) {
        std::ofstream out(traceOut);
        if (out) {
            sess->writeChromeTrace(out);
            std::cerr << "obs: trace written to " << traceOut;
            if (const auto dropped = sess->droppedEvents())
                std::cerr << " (" << dropped
                          << " oldest events dropped; raise "
                             "--trace-buf)";
            std::cerr << "\n";
        } else {
            std::cerr << "obs: cannot open " << traceOut << "\n";
        }
    }
    if (!metricsOut.empty()) {
        std::ofstream out(metricsOut);
        if (out) {
            sess->writeMetrics(out);
            std::cerr << "obs: metrics written to " << metricsOut
                      << "\n";
        } else {
            std::cerr << "obs: cannot open " << metricsOut << "\n";
        }
    }
    if (profOut)
        sess->writeProfile(std::cerr);
}

} // namespace rbv::exp
