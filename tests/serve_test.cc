/**
 * @file
 * Serving-mode tests: streaming-vs-batch model equivalence, the
 * windowed/decaying statistics, kernel request-slot recycling, and
 * the end-to-end serve loop (determinism, shedding, degraded exit).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/model/distance.hh"
#include "core/model/kmedoids.hh"
#include "core/model/streaming.hh"
#include "exp/serve.hh"
#include "fi/plan.hh"
#include "obs/obs.hh"
#include "stats/online.hh"
#include "stats/rng.hh"
#include "wl/server.hh"

using namespace rbv;

namespace {

/** Deterministic synthetic series set (random-walk shapes). */
std::vector<core::MetricSeries>
makeSeries(std::size_t n, std::uint64_t seed)
{
    stats::Rng rng(seed);
    std::vector<core::MetricSeries> out;
    for (std::size_t i = 0; i < n; ++i) {
        core::MetricSeries s;
        double v = rng.uniform(0.5, 2.0);
        const std::size_t len = 8 + rng.uniformInt(9);
        for (std::size_t t = 0; t < len; ++t) {
            v += rng.uniform(-0.2, 0.2);
            s.push_back(v);
        }
        out.push_back(std::move(s));
    }
    return out;
}

// ---------------------------------------------------------- stats

TEST(EwmaMeanVar, BiasCorrectedMeanTracksConstantInput)
{
    stats::EwmaMeanVar e(0.1);
    for (int i = 0; i < 5; ++i)
        e.add(3.5);
    EXPECT_DOUBLE_EQ(e.mean(), 3.5);
}

TEST(EwmaMeanVar, CovIsZeroForConstantAndPositiveForSpread)
{
    stats::EwmaMeanVar flat(0.05);
    for (int i = 0; i < 100; ++i)
        flat.add(2.0);
    EXPECT_DOUBLE_EQ(flat.mean(), 2.0);
    EXPECT_NEAR(flat.cov(), 0.0, 1e-9);

    stats::EwmaMeanVar spread(0.05);
    for (int i = 0; i < 100; ++i)
        spread.add(i % 2 == 0 ? 1.0 : 3.0);
    EXPECT_GT(spread.cov(), 0.1);
}

TEST(SlidingQuantile, ExactOverTheWindowAndEvictsOldest)
{
    stats::SlidingQuantile q(4);
    for (double v : {1.0, 2.0, 3.0, 4.0})
        q.add(v);
    EXPECT_DOUBLE_EQ(q.median(), 2.0); // lower nearest-rank
    EXPECT_DOUBLE_EQ(q.quantile(1.0), 4.0);

    q.add(100.0); // evicts 1.0 -> window {2,3,4,100}
    EXPECT_DOUBLE_EQ(q.quantile(0.0), 2.0);
    EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(q.count(), 5u);
}

TEST(SlidingQuantile, MatchesNthElementOverTheWindow)
{
    // Integer values in [-8, 8] give many ties and zeros; one value in
    // four is drawn from a continuous range instead. Each stream wraps
    // its window five times.
    const double qs[] = {-1.0, 0.0, 0.01, 0.5, 0.99, 1.0, 2.0};
    for (const std::size_t cap : {1, 2, 3, 128, 1024, 8192}) {
        SCOPED_TRACE(cap);
        stats::SlidingQuantile q(cap);
        stats::Rng rng(cap);
        std::vector<double> stream;
        // A reference selection costs O(cap), so large windows are
        // checked every few adds.
        const std::size_t stride = std::max<std::size_t>(1, cap / 64);
        for (std::size_t n = 1; n <= 5 * cap + 7; ++n) {
            const double x =
                rng.uniformInt(4) == 0
                    ? rng.uniform(-8.0, 8.0)
                    : static_cast<double>(rng.uniformInt(17)) - 8.0;
            q.add(x);
            stream.push_back(x);
            if (n % stride != 0 && n != cap)
                continue;
            const std::size_t size = std::min(n, cap);
            ASSERT_EQ(q.size(), size);
            ASSERT_EQ(q.count(), n);
            ASSERT_EQ(q.capacity(), cap);
            for (const double p : qs) {
                std::vector<double> window(stream.end() - size,
                                           stream.end());
                const auto idx = static_cast<std::size_t>(
                    std::clamp(p, 0.0, 1.0) *
                    static_cast<double>(size - 1));
                std::nth_element(window.begin(),
                                 window.begin() +
                                     static_cast<std::ptrdiff_t>(idx),
                                 window.end());
                ASSERT_EQ(q.quantile(p), window[idx])
                    << "q=" << p << " after " << n << " adds";
            }
        }
    }
}

// ------------------------------------------- streaming signatures

TEST(StreamingSignatureBank, FillsToCapacityThenStaysBounded)
{
    const auto series = makeSeries(64, 11);
    core::StreamingSignatureBank bank(1.0, 16, stats::Rng(5));
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < series.size(); ++i)
        admitted += bank.offer(series[i], 1000.0 + i,
                               static_cast<int>(i % 3));
    EXPECT_EQ(bank.bank().size(), 16u);
    EXPECT_EQ(bank.offered(), 64u);
    EXPECT_GE(admitted, 16u); // the fill plus some replacements
    EXPECT_LT(admitted, 64u); // but far from everything
}

TEST(StreamingSignatureBank, ReservoirIsDeterministicAtFixedSeed)
{
    const auto series = makeSeries(40, 3);
    auto run = [&] {
        core::StreamingSignatureBank bank(1.0, 8, stats::Rng(9));
        for (std::size_t i = 0; i < series.size(); ++i)
            bank.offer(series[i], 1.0, static_cast<int>(i));
        std::vector<int> classes;
        for (std::size_t i = 0; i < bank.bank().size(); ++i)
            classes.push_back(bank.bank().entry(i).classId);
        return classes;
    };
    EXPECT_EQ(run(), run());
}

// ---------------------------------------- streaming-vs-batch equiv

TEST(StreamingClusterModel, FullWindowReclusterMatchesBatchKMedoids)
{
    const auto series = makeSeries(24, 21);
    const double penalty = 0.1;
    const std::size_t k = 3;

    core::StreamingClusterModel::Config cc;
    cc.window = series.size();
    cc.sample = 0; // whole window, in arrival order: no rng draws
    cc.k = k;
    cc.asyncPenalty = penalty;
    cc.reclusterEvery = 0; // manual
    core::StreamingClusterModel model(cc, stats::Rng(77));
    for (const auto &s : series)
        model.observe(s);
    model.recluster();

    const auto dm = core::DistanceMatrix::build(
        series.size(), [&](std::size_t i, std::size_t j) {
            return core::dtwDistance(series[i], series[j], penalty);
        });
    stats::Rng batchRng(77);
    const auto batch = core::kMedoids(dm, k, batchRng);

    EXPECT_EQ(model.clustering().medoids, batch.medoids);
    EXPECT_EQ(model.clustering().assignment, batch.assignment);
    ASSERT_EQ(model.medoids().size(), batch.medoids.size());
    for (std::size_t c = 0; c < batch.medoids.size(); ++c)
        EXPECT_EQ(model.medoids()[c], series[batch.medoids[c]]);
}

TEST(RollingAnomalyScorer, WarmsUpThenFlagsOutliers)
{
    core::RollingAnomalyScorer::Config rc;
    rc.window = 32;
    rc.quantile = 0.9;
    rc.margin = 1.5;
    core::RollingAnomalyScorer scorer(rc);

    EXPECT_DOUBLE_EQ(scorer.threshold(), 0.0);
    bool flagged_during_warmup = false;
    for (int i = 0; i < 32; ++i)
        flagged_during_warmup |= scorer.observe(1.0);
    EXPECT_FALSE(flagged_during_warmup);
    EXPECT_GT(scorer.threshold(), 0.0);

    EXPECT_TRUE(scorer.observe(100.0));
    EXPECT_FALSE(scorer.observe(1.0));
    EXPECT_EQ(scorer.flaggedCount(), 1u);
}

// --------------------------------------------------- serve loop

exp::ServeConfig
smallServe(std::size_t requests)
{
    exp::ServeConfig cfg;
    cfg.appName = "micromix";
    cfg.base.seed = 42;
    cfg.arrival.qps = 20000.0;
    cfg.targetRequests = requests;
    cfg.checkpointEvery = requests / 2;
    cfg.window = 64;
    cfg.sample = 16;
    cfg.reclusterEvery = 32;
    cfg.bankCapacity = 32;
    cfg.quiet = false;
    return cfg;
}

TEST(ServeLoop, RecyclesRequestSlotsAndStaysBounded)
{
    std::ostringstream out;
    const auto res = exp::runServe(smallServe(2000), out);
    EXPECT_EQ(res.completed, 2000u);
    EXPECT_EQ(res.shed, 0u);
    // The kernel slot table must be bounded by peak concurrency,
    // not the stream length: 2000 requests, a few dozen slots.
    EXPECT_LT(res.requestSlots, 64u);
    EXPECT_FALSE(res.degraded());
    EXPECT_EQ(res.checkpoints.size(), 2u);
    for (const auto &cp : res.checkpoints)
        EXPECT_LT(cp.requestSlots, 64u);
}

TEST(ServeLoop, FixedSeedRunsAreByteIdentical)
{
    std::ostringstream a, b;
    exp::runServe(smallServe(1500), a);
    exp::runServe(smallServe(1500), b);
    EXPECT_FALSE(a.str().empty());
    EXPECT_EQ(a.str(), b.str());
}

TEST(ServeLoop, OverloadShedsInsteadOfQueueingWithoutBound)
{
    exp::ServeConfig cfg = smallServe(3000);
    cfg.arrival.qps = 2.0e6; // far beyond service capacity
    cfg.maxOutstanding = 32;
    std::ostringstream out;
    const auto res = exp::runServe(cfg, out);
    EXPECT_EQ(res.arrivals, 3000u);
    EXPECT_GT(res.shed, 0u);
    EXPECT_EQ(res.injected + res.shed, res.arrivals);
    EXPECT_LT(res.requestSlots, 64u);
}

TEST(ServeLoop, ReqStuckFaultMarksTheRunDegraded)
{
    exp::ServeConfig cfg = smallServe(2000);
    fi::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(fi::FaultPlan::parse("req-stuck(p=0.05,mult=12)",
                                     plan, error))
        << error;
    cfg.base.faults = std::make_shared<const fi::FaultPlan>(plan);
    std::ostringstream out;
    const auto res = exp::runServe(cfg, out);
    EXPECT_TRUE(res.degraded());
    EXPECT_GT(res.stalled, 0u);
    // Roughly p of the stream, not everything and not one slot's
    // worth: the fault hash must key the registration sequence.
    EXPECT_GT(res.stalled, 20u);
    EXPECT_LT(res.stalled, 400u);
    EXPECT_FALSE(res.injections.empty());
}

TEST(ServeLoop, DurationModeRunsWithoutARequestTarget)
{
    exp::ServeConfig cfg = smallServe(0);
    cfg.targetRequests = 0;
    cfg.durationSec = 0.02;
    cfg.checkpointEvery = 100;
    std::ostringstream out;
    const auto res = exp::runServe(cfg, out);
    EXPECT_GT(res.completed, 100u);
    EXPECT_LT(res.requestSlots, 64u);
}

TEST(ServeLoop, ACheckpointAtEveryCompletionPrintsTheSameSummary)
{
    // Every completion drains the stage hand-off, so the two stages
    // run in lockstep; a free-running run never drains. Both must
    // print the same bytes.
    exp::ServeConfig drained = smallServe(1000);
    drained.checkpointEvery = 1;
    drained.quiet = true;
    exp::ServeConfig free = drained;
    free.checkpointEvery = 0;
    std::ostringstream a, b;
    const auto res = exp::runServe(drained, a);
    exp::runServe(free, b);
    EXPECT_EQ(res.checkpoints.size(), 1000u);
    EXPECT_EQ(res.checkpoints.back().completed, 1000u);
    EXPECT_FALSE(a.str().empty());
    EXPECT_EQ(a.str(), b.str());
}

TEST(ServeLoop, TheLastLiveMetricsDumpHoldsTheFinalModelCounters)
{
    const std::string path =
        ::testing::TempDir() + "serve_test_live_metrics.txt";
    obs::SessionConfig sc;
    sc.traceCapacityPerThread = 0;
    obs::Session session(sc);
    ASSERT_TRUE(session.active());
    exp::ServeConfig cfg = smallServe(2000);
    cfg.checkpointEvery = 500;
    cfg.quiet = true;
    cfg.session = &session;
    cfg.metricsOut = path;
    std::ostringstream out;
    const auto res = exp::runServe(cfg, out);
    ASSERT_EQ(res.completed, 2000u);

    // The dump at the 2000th completion: written by the simulation
    // stage after the drain, while the model stage waits.
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::map<std::string, std::uint64_t> dumped;
    std::string kind, name;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::uint64_t value = 0;
        if (ls >> kind >> name >> value && kind == "counter")
            dumped[name] = value;
    }
    EXPECT_EQ(dumped["serve.checkpoints"], 4u);

    const obs::MergedMetrics final = session.mergedMetrics();
    std::size_t modelCounters = 0;
    for (std::size_t c = 0; c < obs::NumCounters; ++c) {
        const std::string cname =
            obs::counterName(static_cast<obs::Counter>(c));
        if (cname.rfind("model.", 0) != 0)
            continue;
        ++modelCounters;
        ASSERT_TRUE(dumped.count(cname)) << cname;
        EXPECT_EQ(dumped[cname], final.counters[c]) << cname;
    }
    EXPECT_GT(modelCounters, 0u);
    EXPECT_GT(final.counters[static_cast<std::size_t>(
                  obs::Counter::ModelCascadeDpRuns)],
              0u);
    std::remove(path.c_str());
}

TEST(ServeLoop, RecycledSlotsInheritOnePostReplyPeriod)
{
    // Pins a known defect (docs/SERVING.md, "Known defect: the
    // inherited period"). The serving loop takes a request's
    // timeline at completion, but the replying worker's post-reply
    // context-switch period still lands on that id afterwards, and
    // the next request to reuse the slot starts its timeline with
    // it: a leading period that began before the request was
    // injected. When the defect is fixed, no completion carries such
    // a period and this count drops to zero.
    // Default seed and arrival process (1000 QPS Poisson).
    exp::ServeConfig cfg;
    cfg.appName = "micromix";
    auto gen = exp::makeServeGenerator(cfg.appName);

    sim::EventQueue eq;
    sim::MachineConfig mc;
    mc.numCores = cfg.base.numCores;
    mc.coresPerL2Domain = std::min(2, cfg.base.numCores);
    sim::Machine machine(mc, eq);
    os::Kernel kernel(machine);
    machine.setClient(&kernel);

    wl::ServerApp app(kernel, gen->tiers());
    wl::OpenLoopDriver::Config dc;
    dc.arrival = cfg.arrival;
    dc.targetRequests = 1000;
    wl::OpenLoopDriver driver(kernel, app, *gen,
                              stats::Rng(cfg.base.seed), dc);
    const auto sampler = exp::makeSampler(
        cfg.base, kernel, gen->defaultSamplingPeriodUs());
    ASSERT_NE(sampler, nullptr);

    std::size_t inherited = 0; // completions with one such period
    std::size_t more = 0;      // completions with several
    driver.setCompletionCallback([&](os::RequestId id,
                                     const wl::RequestSpec &) {
        const core::Timeline tl = sampler->takeTimeline(id);
        const sim::Tick injected = kernel.request(id).injected;
        std::size_t early = 0;
        for (const auto &p : tl.periods)
            early += p.wallStart < injected ? 1 : 0;
        inherited += early == 1 ? 1 : 0;
        more += early > 1 ? 1 : 0;
        if (early > 0) {
            EXPECT_LT(tl.periods.front().wallStart, injected);
        }
    });

    kernel.start();
    sampler->start();
    driver.start();
    eq.runUntil(cfg.base.maxTicks);

    EXPECT_EQ(driver.completed(), 1000u);
    EXPECT_EQ(inherited, 989u);
    EXPECT_EQ(more, 0u);
}

TEST(ServeGenerator, ResolvesCatalogueAppsAndMicromix)
{
    EXPECT_EQ(exp::makeServeGenerator("micromix")->appName(),
              "micromix");
    EXPECT_EQ(exp::makeServeGenerator("tpcc")->appName(), "tpcc");
    EXPECT_THROW(exp::makeServeGenerator("nonesuch"),
                 std::invalid_argument);
}

} // namespace
