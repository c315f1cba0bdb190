/**
 * @file
 * rbv_perfbench: the repository benchmark driver (see README.md).
 *
 *     rbv_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs one workload repeatedly for S host seconds. Each iteration
 * rebuilds its inputs from the seed (set-up, timed on its own), runs
 * the timed phase through the program's public entry points, and
 * renders the simulated outputs into a digest text. Every repetition
 * of an input must produce the same digest; a mismatch marks the run
 * wrong. Times come from each input's fastest repetition.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 alternates
 * untraced iterations with traced ones: a traced iteration times the
 * benchmark's own calls into each layer (exclusive, span-stack self
 * time) and reads deterministic work counts from an obs session, and
 * the untraced ones give the tracing overhead.
 *
 * The last stdout line is one JSON object; run.py turns it into the
 * benchmark result.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/model/cascade.hh"
#include "core/model/distance.hh"
#include "core/model/dtw_simd.hh"
#include "core/model/kmedoids.hh"
#include "core/model/streaming.hh"
#include "core/sched/contention.hh"
#include "dist/faults.hh"
#include "dist/topology.hh"
#include "exp/scenario.hh"
#include "exp/serve.hh"
#include "fi/plan.hh"
#include "obs/obs.hh"
#include "sim/event_queue.hh"
#include "sim/machine.hh"
#include "stats/online.hh"
#include "stats/rng.hh"
#include "wl/server.hh"

using namespace rbv;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Time @p build, the set-up of one iteration: one cold build whose
 * result is returned, then nine rounds of warm back-to-back builds,
 * each round long enough (>= 20 us) for the clock to resolve. Stores
 * the fastest round's per-build time in @p seconds: a set-up this
 * short is inflated by any interrupt or neighbour that lands in its
 * round, never deflated, so the minimum is its steady cost.
 */
template <typename Build>
auto
timedSetup(double &seconds, Build &&build)
{
    Clock::time_point t0 = Clock::now();
    auto out = build();
    const double cold = secondsSince(t0);
    const int batch = static_cast<int>(
        std::clamp(std::ceil(20e-6 / std::max(cold, 1e-9)), 1.0, 1000.0));
    seconds = cold;
    for (int round = 0; round < 9; ++round) {
        t0 = Clock::now();
        for (int b = 0; b < batch; ++b)
            (void)build();
        seconds = std::min(seconds, secondsSince(t0) / batch);
    }
    return out;
}

// ------------------------------------------------------------- sizes

/** serve-micromix: open-loop Poisson arrivals in simulated time. */
constexpr std::size_t ServeRequests = 10000;
constexpr std::size_t ServeCheckpointEvery = 2000;
constexpr double ServeQps = 20000.0;

/** contention-tpch: fig12's TPCH closed loop under contention easing. */
constexpr std::size_t ContentionRequests = 150;
constexpr int ContentionUsers = 12;
/** fig12's 80-percentile misses/ins threshold at its seed 1. */
constexpr double ContentionThreshold = 33.379e-3;

/** cluster-3tier: lazy Poisson arrivals into a replicated chain. */
constexpr std::size_t ClusterRequests = 20000;
constexpr double ClusterQps = 2000.0;
constexpr const char *ClusterTopology = "lb:1:20,app:2:80,db:2:140";
constexpr const char *ClusterFaults = "link-drop(node=3,p=0.02)";

/** classify-cascade: class-structured synthetic series. */
constexpr std::size_t ClassifySeries = 192;
constexpr std::size_t ClassifyInputs = 3;
constexpr std::size_t ClassifyLength = 128;
constexpr std::size_t ClassifyK = 4;

// ------------------------------------------------------------ tracer

/**
 * The layers the traced run splits host time into. Each is a span the
 * benchmark opens around one of its own calls into the program.
 */
enum class Layer : std::size_t
{
    SimPump,
    OsWorkComplete,
    SamplingTakeTimeline,
    TimelineBin,
    SigIdentify,
    SigOffer,
    ClusterObserve,
    ClusterScore,
    AnomalyObserve,
    ExpCheckpoint,
    SchedPickNext,
    DistInject,
    ModelEnvelope,
    ModelKmedoidsCascade,
    ModelMatrixBuild,
    ModelKmedoidsMatrix,
    Count_,
};

constexpr std::size_t NumLayers = static_cast<std::size_t>(Layer::Count_);

/** Per-layer metric name, in Layer order. */
constexpr std::array<const char *, NumLayers> LayerMetric = {
    "sim.pump_self_ms",        "os.work_complete_ms",
    "sampling.take_timeline_ms", "timeline.bin_ms",
    "model.sig_identify_ms",   "model.sig_offer_ms",
    "model.cluster_observe_ms", "model.cluster_score_ms",
    "model.anomaly_observe_ms", "exp.checkpoint_ms",
    "sched.pick_next_ms",      "dist.inject_ms",
    "model.envelope_ms",       "model.kmedoids_cascade_ms",
    "model.matrix_build_ms",   "model.kmedoids_matrix_ms",
};

/**
 * Span stack: a span's self time is its duration minus the time of
 * the spans nested in it, so the layer times partition the traced
 * wall time up to what no span covers (reported as unattributed).
 */
class Tracer
{
  public:
    void
    begin(Layer layer)
    {
        stack.push_back(Frame{layer, Clock::now(), 0.0});
    }

    void
    end()
    {
        const Frame f = stack.back();
        stack.pop_back();
        const double s = secondsSince(f.start);
        selfS[static_cast<std::size_t>(f.layer)] += s - f.childS;
        if (!stack.empty())
            stack.back().childS += s;
    }

    /** Self seconds per layer. */
    std::array<double, NumLayers> selfS{};

  private:
    struct Frame
    {
        Layer layer;
        Clock::time_point start;
        double childS;
    };
    std::vector<Frame> stack;
};

/** Scoped span; does nothing without a tracer (untraced runs). */
class Span
{
  public:
    Span(Tracer *tracer, Layer layer) : tracer(tracer)
    {
        if (tracer)
            tracer->begin(layer);
    }
    ~Span()
    {
        if (tracer)
            tracer->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer;
};

// ------------------------------------------------------- host views

/** VmRSS and VmHWM of this process in KiB (0 when unreadable). */
struct HostRss
{
    double rssKb = 0.0;
    double hwmKb = 0.0;
};

HostRss
readHostRss()
{
    HostRss r;
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        double *dst = nullptr;
        if (line.rfind("VmRSS:", 0) == 0)
            dst = &r.rssKb;
        else if (line.rfind("VmHWM:", 0) == 0)
            dst = &r.hwmKb;
        if (dst)
            std::istringstream(line.substr(6)) >> *dst;
    }
    return r;
}

std::string
fixed(double v, int prec)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(prec) << v;
    return os.str();
}

std::string
exact(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

// --------------------------------------------------------- iteration

/** What one iteration of a workload produced. */
struct Iteration
{
    double setupS = 0.0;  ///< Building inputs and structures.
    double wallS = 0.0;   ///< The timed phase.
    double ops = 0.0;     ///< Requests (or series) completed in it.
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::string digest;   ///< Deterministic output text.
    bool ok = true;       ///< In-iteration output checks passed.
    std::size_t input = 0; ///< Which of the workload's inputs ran.

    /** Host-side values that are not span times. */
    std::map<std::string, double> host;

    /** @name Traced iterations only. */
    /// @{
    std::array<double, NumLayers> layerS{};
    /** Deterministic work counts (must repeat exactly). */
    std::map<std::string, double> work;
    /// @}
};

/**
 * Opens an obs session for a traced iteration and turns the registry
 * totals into per-request work counts. Only single-threaded phases
 * read it: counters bumped on worker threads are not merged.
 */
class Registry
{
  public:
    Registry() : session(config()) {}

    /**
     * Once the traced phase is over: store the raw totals of the counts
     * every simulated workload reports, keyed by the per-layer metric
     * they become (see deriveWork()), and the water-fill profile time.
     */
    void
    record(Iteration &it) const
    {
        const obs::MergedMetrics merged = session.mergedMetrics();
        const std::pair<const char *, obs::Counter> keys[] = {
            {"sim.events_scheduled_per_req",
             obs::Counter::SimEventsScheduled},
            {"sim.events_fired_per_req", obs::Counter::SimEventsFired},
            {"sim.events_cancelled", obs::Counter::SimEventsCancelled},
            {"sim.water_fills_per_req", obs::Counter::SimWaterFills},
            {"os.syscalls_per_req", obs::Counter::OsSyscalls},
            {"os.context_switches_per_req",
             obs::Counter::OsContextSwitches},
            {"os.slots_recycled_per_req",
             obs::Counter::OsRequestSlotsRecycled},
            {"sampling.samples_per_req", obs::Counter::SamplingSamples},
            {"model.sig_prefix_prunes_per_req",
             obs::Counter::ModelSigPrefixPrunes},
            {"model.cascade_dp_runs_per_req",
             obs::Counter::ModelCascadeDpRuns},
            {"sched.contention_deferrals_per_req",
             obs::Counter::SchedContentionDeferrals},
        };
        for (const auto &[name, c] : keys)
            it.work[name] = static_cast<double>(
                merged.counters[static_cast<std::size_t>(c)]);
        for (const obs::ProfRow &row : session.mergedProfile())
            if (row.key == obs::Prof::WaterFill)
                it.host["sim.water_fill_ms"] =
                    static_cast<double>(row.ns) * 1e-6;
    }

  private:
    static obs::SessionConfig
    config()
    {
        obs::SessionConfig c;
        c.traceCapacityPerThread = 0; // Counters and profile only.
        return c;
    }

    obs::Session session;
};

// ------------------------------------------------------------- serve

exp::ServeConfig
serveConfig(std::uint64_t seed)
{
    exp::ServeConfig cfg;
    cfg.appName = "micromix";
    cfg.base.seed = seed;
    cfg.arrival.qps = ServeQps;
    cfg.targetRequests = ServeRequests;
    cfg.checkpointEvery = ServeCheckpointEvery;
    cfg.quiet = true;
    return cfg;
}

/** The summary line runServe prints last. */
std::string
serveDoneLine(const std::string &out)
{
    const std::size_t at = out.rfind("[serve] done");
    if (at == std::string::npos)
        return "";
    const std::size_t nl = out.find('\n', at);
    return out.substr(at, nl == std::string::npos ? std::string::npos
                                                  : nl - at);
}

Iteration
serveUntraced(std::uint64_t seed)
{
    Iteration it;
    const exp::ServeConfig cfg = timedSetup(it.setupS, [seed] {
        exp::ServeConfig c = serveConfig(seed);
        exp::makeServeGenerator(c.appName); // Validates the name.
        return c;
    });

    std::ostringstream out;
    const Clock::time_point t1 = Clock::now();
    const exp::ServeResult res = exp::runServe(cfg, out);
    it.wallS = secondsSince(t1);

    it.ops = static_cast<double>(res.completed);
    it.attempted = res.arrivals;
    it.failed = res.shed + res.stalled;
    it.digest = serveDoneLine(out.str());
    it.ok = !it.digest.empty() && res.completed == res.injected;
    return it;
}

/** Forwards the machine's completions to the kernel, timed. */
class TimedCoreClient : public sim::CoreClient
{
  public:
    TimedCoreClient(os::Kernel &kernel, Tracer &tracer)
        : kernel(kernel), tracer(tracer)
    {
    }

    void
    onWorkComplete(sim::CoreId core) override
    {
        const Span span(&tracer, Layer::OsWorkComplete);
        kernel.onWorkComplete(core);
    }

  private:
    os::Kernel &kernel;
    Tracer &tracer;
};

/**
 * The stack exp::runServe wires (no faults, no diagnosis), rebuilt
 * here from public APIs so the benchmark owns the completion callback
 * and can time each layer it calls. Its summary line must equal
 * runServe's byte for byte at the same seed.
 */
Iteration
serveTraced(std::uint64_t seed, Tracer &tracer)
{
    Iteration it;
    const Clock::time_point t0 = Clock::now();
    const exp::ServeConfig cfg = serveConfig(seed);
    auto gen = exp::makeServeGenerator(cfg.appName);
    const double periodUs = cfg.base.samplingPeriodUs > 0.0
                                ? cfg.base.samplingPeriodUs
                                : gen->defaultSamplingPeriodUs();

    sim::EventQueue eq;
    sim::MachineConfig mc;
    mc.numCores = cfg.base.numCores;
    mc.coresPerL2Domain = std::min(2, cfg.base.numCores);
    sim::Machine machine(mc, eq);
    os::Kernel kernel(machine, os::KernelConfig{}, cfg.base.policy);
    TimedCoreClient client(kernel, tracer);
    machine.setClient(&client);

    wl::ServerApp app(kernel, gen->tiers());
    wl::OpenLoopDriver::Config dc;
    dc.arrival = cfg.arrival;
    dc.targetRequests = cfg.targetRequests;
    dc.maxOutstanding = cfg.maxOutstanding;
    wl::OpenLoopDriver driver(kernel, app, *gen, stats::Rng(cfg.base.seed),
                              dc);
    std::unique_ptr<core::Sampler> sampler =
        exp::makeSampler(cfg.base, kernel, periodUs);

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
    stats::SlidingQuantile latencies(8192);
    stats::EwmaMeanVar cpi(0.02);
    it.setupS = secondsSince(t0);

    const Clock::time_point t1 = Clock::now();
    Registry registry;
    exp::ServeResult result;

    auto checkpoint = [&](std::size_t completedNow) {
        exp::ServeCheckpoint cp;
        cp.epoch = result.checkpoints.size() + 1;
        cp.simMs = sim::cyclesToMs(static_cast<double>(eq.now()));
        cp.arrivals = driver.arrivals();
        cp.completed = completedNow;
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
    };

    driver.setCompletionCallback([&](os::RequestId id,
                                     const wl::RequestSpec &spec) {
        core::Timeline tl;
        if (sampler) {
            const Span span(&tracer, Layer::SamplingTakeTimeline);
            tl = sampler->takeTimeline(id);
        }
        const os::RequestInfo &info = kernel.request(id);
        latencies.add(sim::cyclesToUs(
            static_cast<double>(info.completed - info.injected)));
        cpi.add(info.cpi());
        const double specified = spec.totalInstructions();
        if (specified > 0.0 &&
            info.totals.instructions > cfg.stuckFactor * specified)
            ++result.stalled;

        const std::size_t n = driver.completed();
        core::MetricSeries series;
        {
            const Span span(&tracer, Layer::TimelineBin);
            series = core::binByInstructions(tl, cfg.binIns,
                                             core::Metric::L2RefsPerIns);
        }
        if (series.size() >= 2) {
            if (bank.offered() >= bank.capacity()) {
                core::MetricSeries prefix;
                {
                    const Span span(&tracer, Layer::TimelineBin);
                    prefix = core::binPrefixByInstructions(
                        tl, cfg.binIns, 0.5 * specified,
                        core::Metric::L2RefsPerIns);
                }
                if (!prefix.empty()) {
                    core::SignatureBank::Identification ident;
                    {
                        const Span span(&tracer, Layer::SigIdentify);
                        ident = bank.identify(prefix, cfg.idFloor);
                    }
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
            {
                const Span span(&tracer, Layer::SigOffer);
                bank.offer(series, info.totals.cycles, spec.classId);
            }
            {
                const Span span(&tracer, Layer::ClusterObserve);
                cluster.observe(series);
            }
            if (!cluster.medoids().empty()) {
                double score = 0.0;
                {
                    const Span span(&tracer, Layer::ClusterScore);
                    score = cluster.scoreOf(series);
                }
                const Span span(&tracer, Layer::AnomalyObserve);
                scorer.observe(score);
            }
        }
        if (cfg.checkpointEvery > 0 && n % cfg.checkpointEvery == 0) {
            const Span span(&tracer, Layer::ExpCheckpoint);
            checkpoint(n);
        }
    });

    kernel.start();
    if (sampler)
        sampler->start();
    driver.start();
    {
        const Span span(&tracer, Layer::SimPump);
        eq.runUntil(cfg.base.maxTicks);
    }

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

    std::ostringstream out;
    out << "[serve] done app " << gen->appName() << " arrivals "
        << result.arrivals << " completed " << result.completed
        << " shed " << result.shed << " t_ms "
        << fixed(sim::cyclesToMs(static_cast<double>(result.wallCycles)),
                 3)
        << " p50_us " << fixed(result.p50LatencyUs, 1) << " p99_us "
        << fixed(result.p99LatencyUs, 1) << " id_acc "
        << fixed(result.idAccuracy(), 3) << " bank " << result.bankSize
        << " reclusters " << result.reclusters << " flagged "
        << result.flagged << " stalled " << result.stalled << " slots "
        << result.requestSlots;
    it.wallS = secondsSince(t1);

    it.ops = static_cast<double>(result.completed);
    it.attempted = result.arrivals;
    it.failed = result.shed + result.stalled;
    it.digest = out.str();
    it.ok = result.completed == result.injected;
    registry.record(it);
    return it;
}

// -------------------------------------------------------- contention

/** Times every pickNext of the wrapped policy. */
class TimedPolicy : public os::SchedulerPolicy
{
  public:
    TimedPolicy(std::shared_ptr<os::SchedulerPolicy> inner,
                Tracer &tracer)
        : inner(std::move(inner)), tracer(tracer)
    {
    }

    sim::Tick quantum() const override { return inner->quantum(); }

    sim::Tick
    reschedInterval() const override
    {
        return inner->reschedInterval();
    }

    std::size_t
    pickNext(os::Kernel &kernel, sim::CoreId core,
             const std::vector<os::ThreadId> &candidates) override
    {
        const Span span(&tracer, Layer::SchedPickNext);
        return inner->pickNext(kernel, core, candidates);
    }

  private:
    std::shared_ptr<os::SchedulerPolicy> inner;
    Tracer &tracer;
};

/** fig12's TPCH scenario with the easing policy and the monitor. */
exp::ScenarioConfig
contentionConfig(std::uint64_t seed, Tracer *tracer)
{
    exp::ScenarioConfig cfg;
    cfg.app = wl::App::Tpch;
    cfg.seed = seed;
    cfg.requests = ContentionRequests;
    cfg.warmup = cfg.requests / 10;
    cfg.concurrency = ContentionUsers;
    cfg.monitorThreshold = ContentionThreshold;
    auto policy = std::make_shared<core::ContentionEasingPolicy>(
        core::ContentionConfig{
            0.7 * ContentionThreshold, sim::msToCycles(5.0), 0.6,
            static_cast<double>(sim::msToCycles(1.0))});
    cfg.onSamplerReady = [policy](os::Kernel &k, core::Sampler &s) {
        policy->attachSampler(k, s);
    };
    if (tracer)
        cfg.policy = std::make_shared<TimedPolicy>(policy, *tracer);
    else
        cfg.policy = policy;
    return cfg;
}

Iteration
contention(std::uint64_t seed, Tracer *tracer)
{
    Iteration it;
    const exp::ScenarioConfig cfg = timedSetup(
        it.setupS, [&] { return contentionConfig(seed, tracer); });

    std::unique_ptr<Registry> registry;
    if (tracer)
        registry = std::make_unique<Registry>();
    const Clock::time_point t1 = Clock::now();
    exp::ScenarioResult res;
    {
        const Span span(tracer, Layer::SimPump);
        res = exp::runScenario(cfg);
    }
    it.wallS = secondsSince(t1);

    const std::size_t expected = cfg.requests - cfg.warmup;
    it.ops = static_cast<double>(cfg.requests);
    it.attempted = cfg.requests;
    it.failed = expected - std::min(expected, res.records.size());
    std::ostringstream d;
    d << "records " << res.records.size() << " ge2 "
      << exact(res.contention.fractionAtLeast(2)) << " ge3 "
      << exact(res.contention.fractionAtLeast(3)) << " eq4 "
      << exact(res.contention.fractionAtLeast(4));
    it.digest = d.str();
    if (registry) {
        registry->record(it);
    }
    return it;
}

// ----------------------------------------------------------- cluster

/** One built, started topology with its fault session. */
struct ClusterRig
{
    std::unique_ptr<dist::Topology> topo; ///< Null on a config error.
    std::unique_ptr<dist::ClusterFaultSession> faults;
};

ClusterRig
buildCluster(std::uint64_t seed)
{
    ClusterRig rig;
    dist::TopologySpec spec;
    fi::FaultPlan plan;
    std::string error;
    if (!dist::TopologySpec::parse(ClusterTopology, spec, error) ||
        !fi::FaultPlan::parse(ClusterFaults, plan, error)) {
        std::cerr << "perfbench: cluster config: " << error << "\n";
        return rig;
    }
    spec.linkLatencyTicks = sim::usToCycles(80.0);
    dist::RpcPolicy policy;
    policy.deadlineTicks = sim::usToCycles(2000.0);
    policy.maxAttempts = 3;
    rig.topo = std::make_unique<dist::Topology>(
        spec, policy, dist::BreakerConfig{}, seed);
    rig.faults = std::make_unique<dist::ClusterFaultSession>(plan, seed);
    rig.faults->attach(*rig.topo);
    rig.topo->start();
    return rig;
}

double
quantileOf(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(q *
                                      static_cast<double>(v.size() - 1))];
}

Iteration
cluster(std::uint64_t seed, Tracer *tracer, bool measureRss)
{
    Iteration it;
    const ClusterRig rig =
        timedSetup(it.setupS, [seed] { return buildCluster(seed); });
    if (!rig.topo) {
        it.ok = false;
        return it;
    }

    dist::Topology &topo = *rig.topo;
    sim::EventQueue &eq = topo.eventQueue();
    const HostRss before = readHostRss();
    std::unique_ptr<Registry> registry;
    if (tracer)
        registry = std::make_unique<Registry>();
    const Clock::time_point t1 = Clock::now();

    // Lazy open-loop arrivals: one pending at a time, so the
    // benchmark's own state stays constant in the request count.
    stats::Rng gaps(seed ^ 0xa22e1a1ull);
    const double meanGapUs = 1.0e6 / ClusterQps;
    const auto nextGap = [&] {
        return std::max<sim::Tick>(
            sim::usToCycles(gaps.exponential(meanGapUs)), 1);
    };
    std::size_t issued = 0;
    std::function<void()> arrive = [&] {
        {
            const Span span(tracer, Layer::DistInject);
            topo.inject();
        }
        if (++issued < ClusterRequests)
            eq.scheduleIn(nextGap(), arrive);
    };
    eq.scheduleIn(nextGap(), arrive);

    std::size_t resolved = 0;
    topo.setResolvedCallback([&](dist::GlobalRequestId, bool) {
        if (++resolved == ClusterRequests)
            eq.requestStop();
    });
    // Generous horizon: four times the expected arrival span plus
    // slack. Requests still open there are reported as lost.
    const sim::Tick horizon = sim::msToCycles(
        4.0e3 * static_cast<double>(ClusterRequests) / ClusterQps +
        1000.0);
    {
        const Span span(tracer, Layer::SimPump);
        eq.runUntil(horizon);
    }
    it.wallS = secondsSince(t1);
    if (measureRss)
        it.host["dist.rss_kb_per_req"] =
            std::max(0.0, readHostRss().hwmKb - before.rssKb) /
            static_cast<double>(ClusterRequests);

    const std::size_t injected = topo.injectedCount();
    const std::size_t completed = topo.completedCount();
    const std::size_t failed = topo.failedCount();
    const std::size_t lost = ClusterRequests - completed - failed;
    const dist::RpcStats &s = topo.rpcStats();
    const auto &lat = topo.completedLatenciesUs();
    std::ostringstream d;
    d << "[result] injected " << injected << " completed " << completed
      << " failed " << failed << " lost " << lost << "\n";
    d << "[result] goodput "
      << fixed(static_cast<double>(completed) /
                   static_cast<double>(ClusterRequests),
               4)
      << " p50-us " << fixed(quantileOf(lat, 0.50), 1) << " p99-us "
      << fixed(quantileOf(lat, 0.99), 1) << "\n";
    d << "[result] rpc attempts " << s.attempts << " timeouts "
      << s.timeouts << " retries " << s.retries << " hedges "
      << s.hedges << " failovers " << s.failovers << " late-replies "
      << s.lateReplies << " no-replica " << s.noReplica;
    it.digest = d.str();
    it.ops = static_cast<double>(completed);
    it.attempted = ClusterRequests;
    it.failed = failed + lost;

    if (registry) {
        registry->record(it);
        it.work["dist.rpc_attempts_per_req"] =
            static_cast<double>(s.attempts);
        it.work["dist.retries_per_req"] = static_cast<double>(s.retries);
    }
    return it;
}

// ---------------------------------------------------------- classify

/**
 * n noisy series from four behaviour classes (flat with a late burst,
 * ramp, two-period wave, early plateau then drop), lengths 112..144,
 * each time-warped, rescaled and jittered, all drawn from @p rng.
 */
std::vector<core::MetricSeries>
classSeries(stats::Rng &rng)
{
    std::vector<core::MetricSeries> out(ClassifySeries);
    for (core::MetricSeries &s : out) {
        const auto cls = rng.uniformInt(4);
        const std::size_t len =
            ClassifyLength - 16 + static_cast<std::size_t>(rng.uniformInt(33));
        const double warp = rng.uniform(-0.1, 0.1);
        const double scale = rng.uniform(0.9, 1.1);
        s.resize(len);
        for (std::size_t i = 0; i < len; ++i) {
            const double u = static_cast<double>(i) /
                             static_cast<double>(len - 1);
            const double t = u + warp * std::sin(M_PI * u);
            double v = 0.0;
            switch (cls) {
              case 0:
                v = t > 0.8 ? 3.0 : 1.0;
                break;
              case 1:
                v = 0.5 + 2.5 * t;
                break;
              case 2:
                v = 2.0 + std::sin(4.0 * M_PI * t);
                break;
              default:
                v = t < 0.4 ? 2.8 : 0.8;
                break;
            }
            s[i] = std::max(0.0, scale * v + rng.normal(0.0, 0.15));
        }
    }
    return out;
}

Iteration
classify(std::uint64_t seed, Tracer *tracer, int jobs)
{
    Iteration it;
    struct Input
    {
        std::vector<core::MetricSeries> series;
        double penalty = 0.0;
    };
    const Input in = timedSetup(it.setupS, [seed] {
        stats::Rng rng(seed);
        Input i;
        i.series = classSeries(rng);
        i.penalty = core::lengthPenalty(i.series, rng);
        return i;
    });
    const std::vector<core::MetricSeries> &series = in.series;
    const double penalty = in.penalty;
    std::vector<const core::MetricSeries *> items;
    items.reserve(series.size());
    for (const core::MetricSeries &s : series)
        items.push_back(&s);

    const std::uint64_t kmSeed = seed + 99;
    const Clock::time_point t1 = Clock::now();
    std::unique_ptr<core::DistanceCascade> dc;
    {
        const Span span(tracer, Layer::ModelEnvelope);
        dc = std::make_unique<core::DistanceCascade>(
            items.data(), items.size(), penalty);
    }
    core::Clustering viaCascade;
    {
        const Span span(tracer, Layer::ModelKmedoidsCascade);
        stats::Rng r(kmSeed);
        viaCascade = core::kMedoidsCascade(*dc, ClassifyK, r);
    }
    const double clusterS = secondsSince(t1);

    const Clock::time_point t2 = Clock::now();
    core::DistanceMatrix dm(0);
    {
        const Span span(tracer, Layer::ModelMatrixBuild);
        dm = core::DistanceMatrix::build(
            series.size(),
            [&](std::size_t i, std::size_t j) {
                return core::dtwDistance(series[i], series[j], penalty);
            },
            jobs);
    }
    core::Clustering viaMatrix;
    {
        const Span span(tracer, Layer::ModelKmedoidsMatrix);
        stats::Rng r(kmSeed);
        viaMatrix = core::kMedoids(dm, ClassifyK, r);
    }
    const double matrixS = secondsSince(t2);
    it.wallS = clusterS + matrixS;
    it.host["cluster_s"] = clusterS;
    it.host["matrix_s"] = matrixS;

    // The cascade must reproduce the full-matrix clustering bit for
    // bit: same medoids, same assignment, same cost bits.
    it.ok = viaCascade.medoids == viaMatrix.medoids &&
            viaCascade.assignment == viaMatrix.assignment &&
            std::memcmp(&viaCascade.totalCost, &viaMatrix.totalCost,
                        sizeof(double)) == 0;
    std::ostringstream d;
    d << "medoids";
    for (const std::size_t m : viaCascade.medoids)
        d << " " << m;
    d << " cost " << exact(viaCascade.totalCost) << " sizes";
    for (std::size_t c = 0; c < viaCascade.medoids.size(); ++c)
        d << " " << viaCascade.membersOf(c).size();
    it.digest = d.str();
    it.ops = static_cast<double>(series.size());
    it.attempted = series.size();
    it.failed = it.ok ? 0 : series.size();

    if (tracer) {
        const core::CascadeStats &cs = dc->stats();
        it.work["model.dp_runs"] = static_cast<double>(cs.dpRuns);
        it.work["model.lookups"] = static_cast<double>(cs.lookups);
    }
    return it;
}

// -------------------------------------------------------------- main

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

bool
parseOptions(int argc, char **argv, Options &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        try {
            if (key == "--workload")
                opt.workload = val;
            else if (key == "--seed")
                opt.seed = std::stoull(val);
            else if (key == "--seconds")
                opt.seconds = std::stod(val);
            else if (key == "--trace")
                opt.trace = std::stoi(val) != 0;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out + "\"";
}

/** Every per-layer metric name; layers a workload lacks read 0. */
std::vector<std::string>
perLayerNames()
{
    std::vector<std::string> names(LayerMetric.begin(),
                                   LayerMetric.end());
    for (const char *n :
         {"sim.events_scheduled_per_req", "sim.events_cancelled_frac",
          "sim.events_fired_per_req", "sim.water_fills_per_req",
          "sim.water_fill_ms", "os.syscalls_per_req",
          "os.context_switches_per_req", "os.slots_recycled_per_req",
          "sampling.samples_per_req", "model.sig_prefix_prunes_per_req",
          "model.cascade_dp_runs_per_req", "model.dp_runs",
          "model.dp_free_frac", "sched.contention_deferrals_per_req",
          "dist.rpc_attempts_per_req", "dist.retries_per_req",
          "dist.rss_kb_per_req", "unattributed_ms",
          "tracing_overhead_frac", "traced_wall_ms"})
        names.emplace_back(n);
    return names;
}

/**
 * The fastest repetition of each input. Host noise on a shared machine
 * only ever adds time, so the fastest repetition is the least
 * disturbed measurement of the same deterministic work.
 */
std::vector<const Iteration *>
fastestPerInput(const std::vector<Iteration> &its, std::size_t inputs)
{
    std::vector<const Iteration *> best(inputs, nullptr);
    for (const Iteration &it : its)
        if (!best[it.input] || it.wallS < best[it.input]->wallS)
            best[it.input] = &it;
    return best;
}

double
sumOver(const std::vector<const Iteration *> &its,
        const std::function<double(const Iteration &)> &f)
{
    double total = 0.0;
    for (const Iteration *it : its)
        total += f(*it);
    return total;
}

/**
 * Turn raw work totals (summed over the inputs) into the per-layer
 * work metrics: "_per_req" counts over @p requests, plus ratios.
 */
std::map<std::string, double>
deriveWork(std::map<std::string, double> raw, double requests)
{
    std::map<std::string, double> out;
    const auto take = [&raw](const char *key) {
        const auto f = raw.find(key);
        if (f == raw.end())
            return 0.0;
        const double v = f->second;
        raw.erase(f);
        return v;
    };
    const double cancelled = take("sim.events_cancelled");
    const double lookups = take("model.lookups");
    if (raw.count("sim.events_scheduled_per_req") &&
        raw["sim.events_scheduled_per_req"] > 0.0)
        out["sim.events_cancelled_frac"] =
            cancelled / raw["sim.events_scheduled_per_req"];
    if (lookups > 0.0)
        out["model.dp_free_frac"] = 1.0 - raw["model.dp_runs"] / lookups;
    for (const auto &[name, value] : raw) {
        const bool perReq = name.size() > 8 &&
                            name.compare(name.size() - 8, 8, "_per_req") == 0;
        out[name] = perReq ? value / requests : value;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        std::cerr << "usage: " << argv[0]
                  << " --workload NAME --seed N --seconds S --trace 0|1\n";
        return 2;
    }
    const int jobs = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

    // A workload is a list of inputs, derived from the seed (the first
    // is the seed itself); iteration i runs input i % inputs.
    std::size_t inputs = 1;
    std::function<Iteration(std::uint64_t, Tracer *, bool)> step;
    if (opt.workload == "serve-micromix") {
        step = [](std::uint64_t seed, Tracer *t, bool) {
            return t ? serveTraced(seed, *t) : serveUntraced(seed);
        };
    } else if (opt.workload == "contention-tpch") {
        step = [](std::uint64_t seed, Tracer *t, bool) {
            return contention(seed, t);
        };
    } else if (opt.workload == "cluster-3tier") {
        step = [](std::uint64_t seed, Tracer *t, bool first) {
            return cluster(seed, t, first);
        };
    } else if (opt.workload == "classify-cascade") {
        inputs = ClassifyInputs;
        step = [jobs](std::uint64_t seed, Tracer *t, bool) {
            return classify(seed, t, jobs);
        };
    } else {
        std::cerr << argv[0] << ": unknown workload '" << opt.workload
                  << "'\n";
        return 2;
    }

    // Untraced runs repeat untraced cycles over the inputs; traced runs
    // alternate traced and untraced cycles, traced first (so the first
    // cluster iteration, the only one whose RSS growth is meaningful,
    // carries the trace). Stop once the time is up and every input has
    // enough repetitions of each kind.
    constexpr std::size_t MinRepetitions = 3;
    const Clock::time_point start = Clock::now();
    std::vector<Iteration> untraced, traced;
    for (std::size_t i = 0;; ++i) {
        const std::size_t input = i % inputs;
        const std::uint64_t seed = opt.seed + 1000 * input;
        const bool traceThis = opt.trace && (i / inputs) % 2 == 0;
        Iteration it;
        if (traceThis) {
            Tracer tracer;
            it = step(seed, &tracer, i == 0);
            it.layerS = tracer.selfS;
        } else {
            it = step(seed, nullptr, i == 0);
        }
        it.input = input;
        std::cerr << "[iter] " << i << " input " << input
                  << (traceThis ? " traced" : "") << " setup_s "
                  << it.setupS << " wall_s " << it.wallS << " ops "
                  << it.ops << "\n";
        (traceThis ? traced : untraced).push_back(std::move(it));
        const std::size_t cycles = (i + 1) / inputs;
        const bool enough =
            (i + 1) % inputs == 0 &&
            cycles >= (opt.trace ? 2 : 1) * MinRepetitions;
        if (enough && secondsSince(start) >= opt.seconds)
            break;
    }

    // Output checks: every iteration passed its own checks, and all
    // repetitions of an input (traced or not) rendered the same digest
    // text and, when traced, the same work counts.
    std::vector<const Iteration *> firstOf(inputs, nullptr);
    std::vector<const Iteration *> firstTraced(inputs, nullptr);
    bool correct = true;
    std::size_t attempted = 0, failed = 0;
    for (const auto *its : {&untraced, &traced}) {
        for (const Iteration &it : *its) {
            attempted += it.attempted;
            failed += it.failed;
            const Iteration *&ref = firstOf[it.input];
            if (!ref)
                ref = &it;
            if (!it.ok || it.digest != ref->digest) {
                correct = false;
                std::cerr << "perfbench: output check failed on input "
                          << it.input << ":\n  " << ref->digest << "\n  "
                          << it.digest << "\n";
            }
        }
    }
    for (const Iteration &it : traced) {
        const Iteration *&ref = firstTraced[it.input];
        if (!ref)
            ref = &it;
        if (it.work != ref->work) {
            correct = false;
            std::cerr << "perfbench: work counts did not repeat\n";
        }
    }
    if (!correct)
        failed = attempted;

    std::string digest;
    double opsPerCycle = 0.0;
    for (const Iteration *it : firstOf) {
        digest += (digest.empty() ? "" : "\n") + it->digest;
        opsPerCycle += it->ops;
    }

    const std::vector<const Iteration *> plain =
        fastestPerInput(untraced, inputs);
    const auto wall = [](const Iteration &it) { return it.wallS; };
    std::map<std::string, double> metrics;
    std::map<std::string, double> host;
    if (!opt.trace) {
        metrics["req_per_host_s"] = opsPerCycle / sumOver(plain, wall);
        // Fastest set-up of each input, averaged over the inputs.
        std::vector<double> setup(inputs, HUGE_VAL);
        for (const Iteration &it : untraced)
            setup[it.input] = std::min(setup[it.input], it.setupS);
        double setupSum = 0.0;
        for (const double v : setup)
            setupSum += v;
        metrics["setup_s"] = setupSum / static_cast<double>(inputs);
        metrics["peak_rss_mb"] = readHostRss().hwmKb / 1024.0;
    } else {
        // The split of each input's fastest traced repetition, so the
        // layer times and unattributed_ms add up to traced_wall_ms.
        const std::vector<const Iteration *> tr =
            fastestPerInput(traced, inputs);
        for (const std::string &n : perLayerNames())
            metrics[n] = 0.0;
        for (std::size_t l = 0; l < NumLayers; ++l)
            metrics[LayerMetric[l]] =
                1e3 * sumOver(tr, [l](const Iteration &it) {
                    return it.layerS[l];
                });
        std::map<std::string, double> raw;
        for (const Iteration *it : firstTraced)
            for (const auto &[name, value] : it->work)
                raw[name] += value;
        for (const auto &[name, value] : deriveWork(raw, opsPerCycle))
            metrics[name] = value;
        if (traced.front().host.count("sim.water_fill_ms"))
            metrics["sim.water_fill_ms"] =
                sumOver(tr, [](const Iteration &it) {
                    return it.host.at("sim.water_fill_ms");
                });
        if (const auto f = traced.front().host.find("dist.rss_kb_per_req");
            f != traced.front().host.end())
            metrics[f->first] = f->second; // First iteration only.
        const double tracedMs = 1e3 * sumOver(tr, wall);
        metrics["traced_wall_ms"] = tracedMs;
        metrics["unattributed_ms"] =
            1e3 * sumOver(tr, [](const Iteration &it) {
                double covered = 0.0;
                for (const double s : it.layerS)
                    covered += s;
                return it.wallS - covered;
            });
        metrics["tracing_overhead_frac"] =
            tracedMs / (1e3 * sumOver(plain, wall)) - 1.0;
    }
    // Classify's two phases, for the reader (not benchmark metrics).
    for (const char *n : {"cluster_s", "matrix_s"})
        if (untraced.front().host.count(n))
            host[n] = sumOver(plain, [n](const Iteration &it) {
                return it.host.at(n);
            });

    std::ostringstream js;
    js << std::setprecision(17);
    js << "{\"workload\": " << jsonString(opt.workload)
       << ", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
       << ", \"iterations\": " << untraced.size() + traced.size()
       << ", \"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"digest_text\": " << jsonString(digest)
       << ", \"env\": {\"host_cpus\": "
       << std::thread::hardware_concurrency()
       << ", \"build_type\": " << jsonString(RBV_PERFBENCH_BUILD_TYPE)
       << ", \"dtw_kernel\": "
       << jsonString(core::detail::dtwKernelId())
       << ", \"compiler\": " << jsonString(RBV_PERFBENCH_COMPILER)
       << ", \"matrix_jobs\": " << jobs << "}, \"host\": {";
    const char *sep = "";
    for (const auto &[name, value] : host) {
        js << sep << jsonString(name) << ": " << value;
        sep = ", ";
    }
    js << "}, \"metrics\": {";
    sep = "";
    for (const auto &[name, value] : metrics) {
        js << sep << jsonString(name) << ": " << value;
        sep = ", ";
    }
    js << "}}";
    std::cout << js.str() << "\n";
    return 0;
}
