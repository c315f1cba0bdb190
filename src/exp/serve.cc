/**
 * @file
 * Serving loop implementation.
 */

#include "exp/serve.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "core/model/streaming.hh"
#include "diag/eval.hh"
#include "diag/report.hh"
#include "fi/session.hh"
#include "wl/micromix.hh"
#include "wl/server.hh"

namespace rbv::exp {

namespace {

/** Anomaly reports retained by online diagnosis (the latest ones). */
constexpr std::size_t DiagKeep = 256;

/** Two flags within this window of simulated time count as
 *  overlapping (the scheduler-interference witness). */
constexpr double DiagOverlapMs = 50.0;

/** Host VmRSS/VmHWM in KiB from /proc/self/status (0 if absent). */
struct HostRss
{
    long rssKb = 0;
    long hwmKb = 0;
};

HostRss
readHostRss()
{
    HostRss r;
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        long *dst = nullptr;
        if (line.rfind("VmRSS:", 0) == 0)
            dst = &r.rssKb;
        else if (line.rfind("VmHWM:", 0) == 0)
            dst = &r.hwmKb;
        if (!dst)
            continue;
        std::istringstream ls(line.substr(6));
        ls >> *dst;
    }
    return r;
}

/** Fixed-precision formatting so checkpoint lines are stable. */
std::string
fmt(double v, int prec = 3)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(prec) << v;
    return os.str();
}

void
writeCheckpointLine(std::ostream &out, const ServeCheckpoint &cp)
{
    const double acc =
        cp.idAttempts > 0 ? static_cast<double>(cp.idCorrect) /
                                static_cast<double>(cp.idAttempts)
                          : 0.0;
    out << "[serve] epoch " << cp.epoch << " t_ms " << fmt(cp.simMs)
        << " arrivals " << cp.arrivals << " completed "
        << cp.completed << " inflight " << cp.outstanding << " shed "
        << cp.shed << " p50_us " << fmt(cp.p50LatencyUs, 1)
        << " p99_us " << fmt(cp.p99LatencyUs, 1) << " cpi "
        << fmt(cp.cpiMean) << " cov " << fmt(cp.cpiCov) << " id_acc "
        << fmt(acc) << " bank " << cp.bankSize << " reclusters "
        << cp.reclusters << " flagged " << cp.flagged << " stalled "
        << cp.stalled << " slots " << cp.requestSlots << "\n";
}

} // namespace

std::unique_ptr<wl::Generator>
makeServeGenerator(const std::string &name)
{
    if (name == "micromix")
        return std::make_unique<wl::MicroMixGen>();
    return wl::makeGenerator(wl::appFromName(name));
}

ServeResult
runServe(const ServeConfig &cfg, std::ostream &out)
{
    RBV_PROF_SCOPE(RunScenario);
    auto gen = cfg.appName.empty()
                   ? wl::makeGenerator(cfg.base.app)
                   : makeServeGenerator(cfg.appName);
    const double period_us = cfg.base.samplingPeriodUs > 0.0
                                 ? cfg.base.samplingPeriodUs
                                 : gen->defaultSamplingPeriodUs();

    // --- Machine & kernel (identical to the batch runner) ---
    sim::EventQueue eq;
    sim::MachineConfig mc;
    mc.numCores = cfg.base.numCores;
    mc.coresPerL2Domain = std::min(2, cfg.base.numCores);
    if (cfg.base.l2CapacityMiB > 0.0)
        mc.l2CapacityBytes = cfg.base.l2CapacityMiB * 1024.0 * 1024.0;
    sim::Machine machine(mc, eq);
    os::Kernel kernel(machine, os::KernelConfig{}, cfg.base.policy);
    machine.setClient(&kernel);

    // --- Open-loop workload ---
    wl::ServerApp app(kernel, gen->tiers());
    wl::OpenLoopDriver::Config dc;
    dc.arrival = cfg.arrival;
    dc.targetRequests = cfg.targetRequests;
    dc.maxOutstanding = cfg.maxOutstanding;
    wl::OpenLoopDriver driver(kernel, app, *gen,
                              stats::Rng(cfg.base.seed), dc);

    // --- Instrumentation ---
    std::unique_ptr<core::Sampler> sampler =
        makeSampler(cfg.base, kernel, period_us);
    if (sampler && cfg.base.onSamplerReady)
        cfg.base.onSamplerReady(kernel, *sampler);

    // --- Fault injection (dormant without a plan) ---
    std::unique_ptr<fi::FaultSession> faultSession;
    if (cfg.base.faults && cfg.base.faults->hasScenarioFaults()) {
        faultSession = std::make_unique<fi::FaultSession>(
            *cfg.base.faults, cfg.base.seed);
        faultSession->attach(kernel);
        if (sampler)
            sampler->setFaults(faultSession.get());
    }

    // --- Streaming models (seeded independently of the workload) ---
    stats::Rng modelRng(cfg.base.seed + 7777);
    core::StreamingSignatureBank bank(cfg.binIns, cfg.bankCapacity,
                                      modelRng.split());
    core::StreamingClusterModel::Config cc;
    cc.window = cfg.window;
    cc.sample = cfg.sample;
    cc.k = cfg.k;
    cc.reclusterEvery = cfg.reclusterEvery;
    core::StreamingClusterModel cluster(cc, modelRng.split());
    core::RollingAnomalyScorer::Config rc;
    rc.window = cfg.scoreWindow;
    rc.quantile = cfg.scoreQuantile;
    core::RollingAnomalyScorer scorer(rc);

    // --- Windowed serving statistics ---
    stats::SlidingQuantile latencies(8192);
    stats::EwmaMeanVar cpi(0.02);

    // --- Online diagnosis state (untouched unless cfg.diagnose) ---
    // Rolling baselines stand in for the batch mode's group
    // centroid: inflations are the request's rates over the decayed
    // fleet-wide means.
    stats::EwmaMeanVar missRate(0.02);
    stats::EwmaMeanVar refsRate(0.02);
    stats::EwmaMeanVar cyclesPerMiss(0.02);
    std::vector<sim::Tick> recentFlagTicks; // Bounded ring below.
    std::size_t recentFlagHead = 0;
    constexpr std::size_t RecentFlagCap = 64;
    const sim::Tick overlapTicks = sim::msToCycles(DiagOverlapMs);

    ServeResult result;
    std::ofstream rssOut;
    if (!cfg.rssLog.empty())
        rssOut.open(cfg.rssLog);

    auto checkpoint = [&](std::size_t completed_now) {
        RBV_PROF_SCOPE(ServeCheckpoint);
        RBV_COUNT(ServeCheckpoints, 1);
        ServeCheckpoint cp;
        cp.epoch = result.checkpoints.size() + 1;
        cp.simMs = sim::cyclesToMs(static_cast<double>(eq.now()));
        cp.arrivals = driver.arrivals();
        cp.completed = completed_now;
        cp.outstanding = driver.outstanding();
        cp.shed = driver.shed();
        cp.p50LatencyUs = latencies.median();
        cp.p99LatencyUs = latencies.quantile(0.99);
        cp.cpiMean = cpi.mean();
        cp.cpiCov = cpi.cov();
        cp.idAttempts = result.idAttempts;
        cp.idCorrect = result.idCorrect;
        cp.idUnknown = result.idUnknown;
        cp.bankSize = bank.bank().size();
        cp.reclusters = cluster.reclusterCount();
        cp.flagged = scorer.flaggedCount();
        cp.stalled = result.stalled;
        cp.requestSlots = kernel.numRequests();
        result.checkpoints.push_back(cp);
        if (!cfg.quiet)
            writeCheckpointLine(out, cp);

        // Host-side views: never on stdout, so fixed-seed runs stay
        // byte-identical while RSS flatness remains checkable.
        if (rssOut.is_open()) {
            const HostRss rss = readHostRss();
            rssOut << cp.epoch << " " << cp.completed << " "
                   << rss.rssKb << " " << rss.hwmKb << "\n";
            rssOut.flush();
        }
        if (cfg.session && !cfg.metricsOut.empty()) {
            std::ofstream ms(cfg.metricsOut);
            cfg.session->writeMetrics(ms);
        }
    };

    // One flagged completion -> evidence fingerprint vs the rolling
    // baselines -> classified cause. Bounded state: a latest-N
    // report ring and a fixed-size recent-flag tick ring.
    auto diagnoseFlag = [&](double score, os::RequestId id,
                            const os::RequestInfo &info,
                            const wl::RequestSpec &spec,
                            const core::Timeline &tl) {
        diag::Evidence ev;
        ev.requestId = static_cast<std::int64_t>(id);
        ev.group = spec.className;
        ev.score = score;
        ev.injected = info.injected;
        ev.completed = info.completed;

        const double ins = info.totals.instructions;
        const double curMiss = ins > 0.0 ? info.totals.l2Misses / ins
                                         : 0.0;
        const double curRefs = ins > 0.0 ? info.totals.l2Refs / ins
                                         : 0.0;
        const double curCpm =
            info.totals.l2Misses > 0.0
                ? info.totals.cycles / info.totals.l2Misses
                : 0.0;
        const auto infl = [](double cur, double base) {
            return base > 0.0 && cur > 0.0 ? cur / base : 1.0;
        };
        ev.cpiInflation = infl(info.cpi(), cpi.mean());
        ev.missInflation = infl(curMiss, missRate.mean());
        ev.refsInflation = infl(curRefs, refsRate.mean());
        ev.cyclesPerMissInflation = infl(curCpm, cyclesPerMiss.mean());
        ev.missesPerIns = curMiss;
        const double specified = spec.totalInstructions();
        ev.workInflation = specified > 0.0 ? ins / specified : 1.0;

        const auto cpiBins = core::binByInstructions(
            tl, cfg.binIns, core::Metric::Cpi);
        const auto missBins = core::binByInstructions(
            tl, cfg.binIns, core::Metric::L2MissesPerIns);
        ev.inflationCorr = diag::pearson(cpiBins, missBins);
        core::MetricSeries dCpi(cpiBins.size());
        for (std::size_t i = 0; i < cpiBins.size(); ++i)
            dCpi[i] = cpiBins[i] - cpi.mean();
        ev.inflationConcentration = diag::concentration(dCpi);

        if (!tl.periods.empty()) {
            std::size_t gaps = 0, suspects = 0;
            for (const auto &p : tl.periods) {
                gaps += p.gapBefore ? 1 : 0;
                suspects += p.suspect ? 1 : 0;
            }
            const double n = static_cast<double>(tl.periods.size());
            ev.gapFrac = static_cast<double>(gaps) / n;
            ev.suspectFrac = static_cast<double>(suspects) / n;
        }

        const sim::Tick now = eq.now();
        std::size_t overlap = 0;
        for (const sim::Tick t : recentFlagTicks)
            if (now - t <= overlapTicks)
                ++overlap;
        ev.coAnomalyOverlap = static_cast<double>(overlap);
        if (recentFlagTicks.size() < RecentFlagCap) {
            recentFlagTicks.push_back(now);
        } else {
            recentFlagTicks[recentFlagHead] = now;
            recentFlagHead = (recentFlagHead + 1) % RecentFlagCap;
        }
        ev.queuePressure =
            cfg.maxOutstanding > 0
                ? static_cast<double>(driver.outstanding()) /
                      static_cast<double>(cfg.maxOutstanding)
                : 0.0;

        diag::AnomalyReport rep;
        rep.evidence = std::move(ev);
        rep.diagnosis = diag::classify(rep.evidence);
        ++result.diagAnomalies;
        ++result.diagCauseCounts[static_cast<std::size_t>(
            rep.diagnosis.cause)];
        RBV_COUNT(DiagAnomalies, 1);
        if (rep.diagnosis.cause == diag::Cause::Unknown)
            RBV_COUNT(DiagUnknownCauses, 1);
        if (result.diagReports.size() >= DiagKeep) {
            result.diagReports.erase(result.diagReports.begin());
            ++result.diagDropped;
        }
        result.diagReports.push_back(std::move(rep));
    };

    driver.setCompletionCallback([&](os::RequestId id,
                                     const wl::RequestSpec &spec) {
        // Always reclaim the timeline slot: recycled ids must never
        // inherit stale periods.
        core::Timeline tl = sampler ? sampler->takeTimeline(id)
                                    : core::Timeline{};
        const os::RequestInfo &info = kernel.request(id);

        latencies.add(sim::cyclesToUs(
            static_cast<double>(info.completed - info.injected)));
        cpi.add(info.cpi());
        if (cfg.diagnose && info.totals.instructions > 0.0) {
            // Feed the diagnosis baselines from every completion so
            // inflations compare against the whole fleet, not only
            // the requests the models score.
            missRate.add(info.totals.l2Misses /
                         info.totals.instructions);
            refsRate.add(info.totals.l2Refs /
                         info.totals.instructions);
            if (info.totals.l2Misses > 0.0)
                cyclesPerMiss.add(info.totals.cycles /
                                  info.totals.l2Misses);
        }

        // Stuck-request detection (fi req-stuck): attributed work
        // far beyond the spec marks the run degraded.
        const double specified = spec.totalInstructions();
        if (specified > 0.0 &&
            info.totals.instructions > cfg.stuckFactor * specified) {
            ++result.stalled;
            RBV_COUNT(ServeStalledRequests, 1);
        }

        core::MetricSeries series = core::binByInstructions(
            tl, cfg.binIns, core::Metric::L2RefsPerIns);
        if (series.size() >= 2) {
            // Online identification accuracy: once the reservoir is
            // warm, match the request's first-half prefix before
            // admitting its full signature.
            if (bank.offered() >= bank.capacity()) {
                core::MetricSeries prefix =
                    core::binPrefixByInstructions(
                        tl, cfg.binIns, 0.5 * specified,
                        core::Metric::L2RefsPerIns);
                if (!prefix.empty()) {
                    const auto ident =
                        bank.identify(prefix, cfg.idFloor);
                    if (ident.index == core::SignatureBank::npos) {
                        ++result.idUnknown;
                    } else {
                        ++result.idAttempts;
                        if (bank.bank().entry(ident.index).classId ==
                            spec.classId)
                            ++result.idCorrect;
                    }
                }
            }
            bank.offer(series, info.totals.cycles, spec.classId);
            cluster.observe(series);
            if (!cluster.medoids().empty()) {
                const double score = cluster.scoreOf(series);
                if (scorer.observe(score) && cfg.diagnose)
                    diagnoseFlag(score, id, info, spec, tl);
            }
        }

        const std::size_t n = driver.completed();
        if (cfg.checkpointEvery > 0 && n % cfg.checkpointEvery == 0)
            checkpoint(n);
    });

    // --- Run ---
    kernel.start();
    if (sampler)
        sampler->start();
    if (faultSession)
        faultSession->start();
    driver.start();
    const sim::Tick limit =
        cfg.targetRequests > 0
            ? cfg.base.maxTicks
            : static_cast<sim::Tick>(
                  sim::usToCycles(cfg.durationSec * 1.0e6));
    eq.runUntil(limit);

    // --- Summary ---
    result.arrivals = driver.arrivals();
    result.injected = driver.injected();
    result.completed = driver.completed();
    result.shed = driver.shed();
    result.flagged = scorer.flaggedCount();
    result.reclusters = cluster.reclusterCount();
    result.bankSize = bank.bank().size();
    result.p50LatencyUs = latencies.median();
    result.p99LatencyUs = latencies.quantile(0.99);
    result.wallCycles = eq.now();
    result.requestSlots = kernel.numRequests();
    if (faultSession)
        result.injections = faultSession->takeLog();

    out << "[serve] done app " << gen->appName() << " arrivals "
        << result.arrivals << " completed " << result.completed
        << " shed " << result.shed << " t_ms "
        << fmt(sim::cyclesToMs(static_cast<double>(result.wallCycles)))
        << " p50_us " << fmt(result.p50LatencyUs, 1) << " p99_us "
        << fmt(result.p99LatencyUs, 1) << " id_acc "
        << fmt(result.idAccuracy()) << " bank " << result.bankSize
        << " reclusters " << result.reclusters << " flagged "
        << result.flagged << " stalled " << result.stalled
        << " slots " << result.requestSlots << "\n";

    // Diagnosis summary: appended after the classic summary line so
    // the dormant path's stdout stays byte-identical.
    if (cfg.diagnose) {
        out << "[diag] anomalies " << result.diagAnomalies
            << " retained " << result.diagReports.size()
            << " dropped " << result.diagDropped << "\n[diag] causes";
        for (std::size_t i = 0; i < diag::NumCauses; ++i)
            out << " " << diag::causeName(static_cast<diag::Cause>(i))
                << " " << result.diagCauseCounts[i];
        out << "\n";

        // Ground-truth join over the retained reports: with ids
        // recycled, the lifetime window disambiguates which
        // incarnation an injection hit.
        if (cfg.base.faults && !result.injections.empty()) {
            std::size_t labeled = 0, correct = 0;
            for (const auto &rep : result.diagReports) {
                diag::Cause truth = diag::Cause::Unknown;
                if (!diag::labelOf(rep.evidence.requestId,
                                   rep.evidence.injected,
                                   rep.evidence.completed,
                                   result.injections, truth))
                    continue;
                ++labeled;
                if (truth == rep.diagnosis.cause)
                    ++correct;
            }
            out << "[diag] truth-join labeled " << labeled
                << " correct " << correct << "\n";
        }

        if (!cfg.diagOut.empty()) {
            diag::RunDiagnosis run;
            run.anomalies = result.diagReports;
            run.requestsScored = result.completed;
            std::ofstream js(cfg.diagOut);
            const std::vector<diag::NamedRun> named{
                {"serve", &run}};
            diag::writeJsonReport(js, {"rbv_serve", cfg.base.seed},
                                  named, nullptr);
        }
    }

    return result;
}

} // namespace rbv::exp
