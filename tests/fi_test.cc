/**
 * @file
 * Fault-injection layer tests: plan parsing, the zero-cost-dormant
 * guarantee (a zero-probability plan is result-identical to no plan),
 * injection-log determinism across --jobs levels, per-injector effect
 * plus graceful degradation, the runner's job-fault contract, and the
 * ground-truth ranking evaluator.
 */

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "fi/eval.hh"
#include "fi/injection.hh"
#include "fi/plan.hh"

using namespace rbv;
using namespace rbv::exp;

namespace {

/** A tiny but representative scenario (TPCC, 2 cores). */
ScenarioConfig
smallCfg()
{
    ScenarioConfig c;
    c.app = wl::App::Tpcc;
    c.requests = 30;
    c.warmup = 3;
    c.numCores = 2;
    c.seed = 11;
    return c;
}

ScenarioConfig
withPlan(const fi::FaultPlan &plan)
{
    ScenarioConfig c = smallCfg();
    c.faults = std::make_shared<const fi::FaultPlan>(plan);
    return c;
}

/** Field-wise equality of two scenario runs. */
void
expectSameRun(const ScenarioResult &a, const ScenarioResult &b)
{
    EXPECT_EQ(a.wallCycles, b.wallCycles);
    EXPECT_EQ(a.busyCycles, b.busyCycles);
    EXPECT_EQ(a.samplerStats.totalSamples(),
              b.samplerStats.totalSamples());
    EXPECT_EQ(a.samplerStats.overheadCycles,
              b.samplerStats.overheadCycles);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const RequestRecord &x = a.records[i];
        const RequestRecord &y = b.records[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.totals.cycles, y.totals.cycles);
        EXPECT_EQ(x.totals.instructions, y.totals.instructions);
        EXPECT_EQ(x.totals.l2Refs, y.totals.l2Refs);
        EXPECT_EQ(x.totals.l2Misses, y.totals.l2Misses);
        EXPECT_EQ(x.timeline.periods.size(),
                  y.timeline.periods.size());
    }
}

} // namespace

// ------------------------------------------------------ plan parsing

TEST(FaultPlan, ParsesAndRoundTrips)
{
    fi::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(fi::FaultPlan::parse(
        "irq-drop(p=0.2); req-stuck(p=0.05, mult=4)", plan, err))
        << err;
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan.specs()[0].kind, fi::FaultKind::IrqDrop);
    EXPECT_DOUBLE_EQ(plan.specs()[0].param("p", 0.0), 0.2);
    EXPECT_EQ(plan.specs()[1].kind, fi::FaultKind::ReqStuck);
    EXPECT_DOUBLE_EQ(plan.specs()[1].param("mult", 0.0), 4.0);

    // summary() is re-parseable and stable under a round trip.
    fi::FaultPlan again;
    ASSERT_TRUE(fi::FaultPlan::parse(plan.summary(), again, err))
        << err;
    EXPECT_EQ(again.summary(), plan.summary());
}

TEST(FaultPlan, RejectsTyposInsteadOfInjectingNothing)
{
    fi::FaultPlan plan;
    std::string err;
    EXPECT_FALSE(fi::FaultPlan::parse("irq-dorp(p=0.2)", plan, err));
    EXPECT_NE(err.find("unknown fault"), std::string::npos);
    EXPECT_FALSE(fi::FaultPlan::parse("irq-drop(q=0.2)", plan, err));
    EXPECT_NE(err.find("no parameter"), std::string::npos);
    EXPECT_FALSE(fi::FaultPlan::parse("irq-drop(p=0.2", plan, err));
    EXPECT_NE(err.find("missing ')'"), std::string::npos);
    EXPECT_FALSE(fi::FaultPlan::parse("", plan, err));
    EXPECT_FALSE(fi::FaultPlan::parse("irq-drop(p)", plan, err));
    // A value must be a complete, finite number.
    for (const char *bad : {"req-stuck(p=0.o8,mult=5)", "irq-drop(p=)",
                            "irq-drop(p=nan)", "irq-drop(p=inf)",
                            "irq-drop(p=1e400)", "irq-drop(p=0.2x)"}) {
        EXPECT_FALSE(fi::FaultPlan::parse(bad, plan, err)) << bad;
        EXPECT_NE(err.find("not a finite number"), std::string::npos)
            << bad;
    }
}

TEST(FaultPlan, LayerPredicates)
{
    fi::FaultPlan sim_only;
    sim_only.add(fi::FaultKind::IrqDrop, {{"p", 0.1}});
    EXPECT_TRUE(sim_only.hasScenarioFaults());
    EXPECT_FALSE(sim_only.hasJobFaults());

    fi::FaultPlan job_only;
    job_only.add(fi::FaultKind::JobCrash, {{"p", 1.0}});
    EXPECT_FALSE(job_only.hasScenarioFaults());
    EXPECT_TRUE(job_only.hasJobFaults());

    fi::FaultPlan cluster_only;
    cluster_only.add(fi::FaultKind::NodeCrash, {{"node", 1.0}});
    EXPECT_FALSE(cluster_only.hasScenarioFaults());
    EXPECT_FALSE(cluster_only.hasJobFaults());
    EXPECT_TRUE(cluster_only.hasClusterFaults());
    EXPECT_FALSE(sim_only.hasClusterFaults());
    EXPECT_TRUE(fi::isClusterFault(fi::FaultKind::LinkPartition));
    EXPECT_FALSE(fi::isClusterFault(fi::FaultKind::IrqDrop));
}

TEST(FaultPlan, ClusterKindsParseAndRejectTypos)
{
    fi::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(fi::FaultPlan::parse(
        "node-crash(node=1,at-ms=20); "
        "node-degrade(node=3,from-ms=10,for-ms=100,mult=6); "
        "link-drop(node=3,p=0.05); "
        "link-delay(node=-1,p=0.5,add-us=200); "
        "link-partition(a=0,b=1,from-ms=5,for-ms=30)",
        plan, err))
        << err;
    ASSERT_EQ(plan.size(), 5u);
    EXPECT_EQ(plan.specs()[0].kind, fi::FaultKind::NodeCrash);
    EXPECT_DOUBLE_EQ(plan.specs()[0].param("at-ms", 0.0), 20.0);
    EXPECT_EQ(plan.specs()[4].kind, fi::FaultKind::LinkPartition);
    EXPECT_DOUBLE_EQ(plan.specs()[4].param("b", -1.0), 1.0);

    fi::FaultPlan again;
    ASSERT_TRUE(fi::FaultPlan::parse(plan.summary(), again, err))
        << err;
    EXPECT_EQ(again.summary(), plan.summary());

    EXPECT_FALSE(
        fi::FaultPlan::parse("node-crsh(node=1)", plan, err));
    EXPECT_NE(err.find("unknown fault"), std::string::npos);
    EXPECT_FALSE(
        fi::FaultPlan::parse("link-drop(prob=0.1)", plan, err));
    EXPECT_NE(err.find("no parameter"), std::string::npos);
}

TEST(UnitIntervalHash, DeterministicAndBounded)
{
    for (std::uint64_t id = 0; id < 64; ++id) {
        const double u = fi::unitIntervalHash(7, 0x51, id);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_EQ(u, fi::unitIntervalHash(7, 0x51, id));
    }
    // Different salts give different lotteries.
    EXPECT_NE(fi::unitIntervalHash(7, 0x51, 3),
              fi::unitIntervalHash(7, 0x52, 3));
}

// ------------------------------------------------ dormancy guarantee

TEST(Dormancy, ZeroProbabilityPlanIsIdenticalToNoPlan)
{
    // The wiring is active (the session attaches, the sampler calls
    // into it) but every injector short-circuits before consuming
    // randomness: results must match the no-plan run field-wise.
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::IrqDrop, {{"p", 0.0}})
        .add(fi::FaultKind::CtrCorrupt, {{"p", 0.0}})
        .add(fi::FaultKind::ReqStuck, {{"p", 0.0}})
        .add(fi::FaultKind::SysStall, {{"p", 0.0}})
        .add(fi::FaultKind::CtxLoss, {{"p", 0.0}});

    const ScenarioResult clean = runScenario(smallCfg());
    const ScenarioResult dormant = runScenario(withPlan(plan));
    expectSameRun(clean, dormant);
    EXPECT_TRUE(dormant.injections.empty());
    EXPECT_TRUE(clean.injections.empty());
}

// ----------------------------------------- injection-log determinism

TEST(Determinism, InjectionLogIdenticalAcrossJobsLevels)
{
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::IrqDrop, {{"p", 0.3}})
        .add(fi::FaultKind::ReqStuck, {{"p", 0.3}, {"mult", 3.0}})
        .add(fi::FaultKind::SysStall,
             {{"p", 0.1}, {"cycles", 50000.0}})
        .add(fi::FaultKind::CtxLoss, {{"p", 0.2}});

    ScenarioGrid grid(withPlan(plan));
    grid.replicates(2);
    const auto jobs = grid.jobs();

    RunnerOptions serial;
    serial.jobs = 1;
    serial.progress = false;
    RunnerOptions parallel;
    parallel.jobs = 8;
    parallel.progress = false;

    const auto a = ParallelRunner(serial).run(jobs);
    const auto b = ParallelRunner(parallel).run(jobs);
    ASSERT_EQ(a.size(), b.size());
    bool any = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("job " + a[i].key);
        EXPECT_EQ(fi::formatLog(a[i].result.injections),
                  fi::formatLog(b[i].result.injections));
        any = any || !a[i].result.injections.empty();
    }
    EXPECT_TRUE(any) << "the plan injected nothing at all";

    // Replicates run different seeds, hence different logs.
    EXPECT_NE(fi::formatLog(a[0].result.injections),
              fi::formatLog(a[1].result.injections));
}

// ----------------------------- injectors and graceful degradation

TEST(Injectors, DroppedInterruptsFlagGaps)
{
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::IrqDrop, {{"p", 0.5}});
    const ScenarioResult res = runScenario(withPlan(plan));

    EXPECT_GT(res.samplerStats.droppedInterrupts, 0u);
    EXPECT_GT(res.samplerStats.gapCount, 0u);
    bool flagged = false;
    for (const auto &r : res.records)
        for (const auto &p : r.timeline.periods)
            flagged = flagged || p.gapBefore;
    EXPECT_TRUE(flagged)
        << "no period carries the gapBefore degradation flag";
}

TEST(Injectors, LostAndLateInterruptsPinBothSamplers)
{
    // Dropped and coalesced counter interrupts re-arm the periodic
    // timer (InterruptSampler) and the backup timer (SyscallSampler);
    // the exact counts pin both paths.
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::IrqDrop, {{"p", 0.3}})
        .add(fi::FaultKind::IrqCoalesce, {{"p", 0.3}});
    struct Want
    {
        const char *name;
        SamplerKind kind;
        std::uint64_t contextSwitch, syscall, interrupt, backup,
            dropped, coalesced, gaps, injections;
    };
    for (const Want &w :
         {Want{"interrupt", SamplerKind::Interrupt, 72, 0, 202, 0, 87,
               86, 65, 173},
          Want{"syscall", SamplerKind::Syscall, 84, 50, 0, 8, 5, 9, 5,
               14}}) {
        SCOPED_TRACE(w.name);
        ScenarioConfig cfg = withPlan(plan);
        cfg.sampler = w.kind;
        const ScenarioResult res = runScenario(cfg);
        const core::SamplerStats &s = res.samplerStats;
        EXPECT_EQ(s.contextSwitchSamples, w.contextSwitch);
        EXPECT_EQ(s.syscallSamples, w.syscall);
        EXPECT_EQ(s.interruptSamples, w.interrupt);
        EXPECT_EQ(s.backupSamples, w.backup);
        EXPECT_EQ(s.droppedInterrupts, w.dropped);
        EXPECT_EQ(s.coalescedInterrupts, w.coalesced);
        EXPECT_EQ(s.gapCount, w.gaps);
        EXPECT_EQ(s.suspectCount, 0u);
        EXPECT_EQ(res.injections.size(), w.injections);
    }
}

TEST(Injectors, CounterCorruptionFlagsSuspectsAndStaysFinite)
{
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::CtrCorrupt, {{"p", 0.9}});
    const ScenarioResult res = runScenario(withPlan(plan));

    EXPECT_GT(res.samplerStats.suspectCount, 0u);
    // Graceful degradation: tampered reads never leak NaN/Inf or
    // negative deltas into the recorded timelines.
    for (const auto &r : res.records) {
        for (const auto &p : r.timeline.periods) {
            EXPECT_TRUE(std::isfinite(p.cycles));
            EXPECT_TRUE(std::isfinite(p.instructions));
            EXPECT_TRUE(std::isfinite(p.l2Refs));
            EXPECT_TRUE(std::isfinite(p.l2Misses));
            EXPECT_GE(p.cycles, 0.0);
            EXPECT_GE(p.instructions, 0.0);
        }
    }
    // Exact kernel attribution is ground truth: untouched by
    // counter-read corruption.
    const ScenarioResult clean = runScenario(smallCfg());
    ASSERT_EQ(res.records.size(), clean.records.size());
    for (std::size_t i = 0; i < res.records.size(); ++i) {
        EXPECT_EQ(res.records[i].totals.cycles,
                  clean.records[i].totals.cycles);
    }
}

TEST(Injectors, StuckRequestsInflateBusyCycles)
{
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::ReqStuck, {{"p", 1.0}, {"mult", 4.0}});
    const ScenarioResult base = runScenario(smallCfg());
    const ScenarioResult res = runScenario(withPlan(plan));

    EXPECT_GT(res.busyCycles, base.busyCycles);
    const auto truth = fi::faultedRequests(res.injections);
    EXPECT_FALSE(truth.empty());
}

TEST(Injectors, SyscallStallsAccrueInTheKernel)
{
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::SysStall,
             {{"p", 1.0}, {"cycles", 100000.0}});
    const ScenarioResult base = runScenario(smallCfg());
    const ScenarioResult res = runScenario(withPlan(plan));

    EXPECT_GT(res.kernelStats.faultStallCycles, 0.0);
    EXPECT_GT(res.wallCycles, base.wallCycles);
}

TEST(Injectors, ContextLossIsCountedNotFatal)
{
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::CtxLoss, {{"p", 1.0}});
    const ScenarioResult res = runScenario(withPlan(plan));

    EXPECT_GT(res.kernelStats.lostSwitchContexts, 0u);
    // The run still completes its request quota.
    EXPECT_FALSE(res.records.empty());
}

TEST(Injectors, CoreSlowIsLoggedAndSlowsTheRun)
{
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::CoreSlow,
             {{"core", 0.0},
              {"from-ms", 0.1},
              {"for-ms", 5.0},
              {"frac", 0.5}});
    const ScenarioResult base = runScenario(smallCfg());
    const ScenarioResult res = runScenario(withPlan(plan));

    bool logged = false;
    for (const auto &inj : res.injections)
        logged = logged || inj.kind == fi::FaultKind::CoreSlow;
    EXPECT_TRUE(logged);
    EXPECT_GT(res.wallCycles, base.wallCycles);
}

// ------------------------------------------- runner job faults

TEST(JobFaults, CrashedJobsFail)
{
    ScenarioGrid grid(smallCfg());
    grid.replicates(3);
    auto jobs = grid.jobs();

    fi::FaultPlan plan;
    plan.add(fi::FaultKind::JobCrash, {{"p", 1.0}});
    applyJobFaults(jobs, plan, 5);

    RunnerOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    const auto results = ParallelRunner(opts).run(jobs);

    ASSERT_EQ(results.size(), 3u);
    for (const auto &r : results) {
        EXPECT_TRUE(r.failed);
        EXPECT_NE(r.error.find("injected job crash"),
                  std::string::npos);
        EXPECT_EQ(tryResultFor(results, r.key), nullptr);
    }
    EXPECT_EQ(exitCodeFor(results), 3);
}

TEST(JobFaults, TimeoutJobsReportTimeout)
{
    ScenarioConfig cfg = smallCfg();
    cfg.requests = 12;
    ScenarioGrid grid(cfg);
    auto jobs = grid.jobs();

    fi::FaultPlan plan;
    plan.add(fi::FaultKind::JobTimeout, {{"p", 1.0}});
    applyJobFaults(jobs, plan, 5);

    RunnerOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    const auto results = ParallelRunner(opts).run(jobs);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].failed);
    EXPECT_NE(results[0].error.find("timeout"), std::string::npos);
    EXPECT_EQ(exitCodeFor(results), 3);
}

TEST(JobFaults, SurvivingJobsStillAggregate)
{
    // A crash probability below 1 must leave the healthy jobs'
    // results intact and reachable (partial-result aggregation).
    ScenarioGrid grid(smallCfg());
    grid.replicates(4);
    auto jobs = grid.jobs();
    // Deterministically poison exactly one job instead of rolling
    // dice: pick jobs[1] by hand like a crash lottery would.
    jobs[1].body = [](const ScenarioConfig &) -> ScenarioResult {
        throw fi::InjectedFault("injected job crash (rep=1)");
    };

    RunnerOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    const auto results = ParallelRunner(opts).run(jobs);

    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(results[1].failed);
    for (std::size_t i : {std::size_t{0}, std::size_t{2},
                          std::size_t{3}}) {
        EXPECT_FALSE(results[i].failed);
        const ScenarioResult *r = tryResultFor(results,
                                               results[i].key);
        ASSERT_NE(r, nullptr);
        EXPECT_FALSE(r->records.empty());
    }
    EXPECT_EQ(exitCodeFor(results), 3);
}

// ------------------------------------------------ ranking evaluator

TEST(Eval, RankingScoresMatchHandComputation)
{
    // Positives at ranks 0 and 2 of 5; K = 2, top-2 holds one.
    const auto det =
        fi::evaluateRanking({true, false, true, false, false});
    EXPECT_EQ(det.scored, 5u);
    EXPECT_EQ(det.truthCount, 2u);
    EXPECT_EQ(det.hits, 1u);
    EXPECT_DOUBLE_EQ(det.precision, 0.5);
    EXPECT_DOUBLE_EQ(det.recall, 0.5);
    EXPECT_NEAR(det.rocAuc, 5.0 / 6.0, 1e-12);

    const auto perfect =
        fi::evaluateRanking({true, true, false, false});
    EXPECT_DOUBLE_EQ(perfect.precision, 1.0);
    EXPECT_DOUBLE_EQ(perfect.recall, 1.0);
    EXPECT_DOUBLE_EQ(perfect.rocAuc, 1.0);

    const auto inverted =
        fi::evaluateRanking({false, false, true, true});
    EXPECT_DOUBLE_EQ(inverted.precision, 0.0);
    EXPECT_DOUBLE_EQ(inverted.rocAuc, 0.0);
}

TEST(Eval, DegenerateRankingsAreDefined)
{
    const auto none = fi::evaluateRanking({false, false, false});
    EXPECT_EQ(none.truthCount, 0u);
    EXPECT_DOUBLE_EQ(none.precision, 0.0);
    EXPECT_DOUBLE_EQ(none.recall, 0.0);
    EXPECT_DOUBLE_EQ(none.rocAuc, 0.5);

    const auto all = fi::evaluateRanking({true, true});
    EXPECT_DOUBLE_EQ(all.precision, 1.0);
    EXPECT_DOUBLE_EQ(all.rocAuc, 0.5); // no negatives: undefined

    const auto empty = fi::evaluateRanking({});
    EXPECT_EQ(empty.scored, 0u);
    EXPECT_DOUBLE_EQ(empty.rocAuc, 0.5);
}

TEST(Eval, FaultedRequestsAreSortedAndDeduped)
{
    std::vector<fi::Injection> log;
    log.push_back({10, fi::FaultKind::ReqStuck, 7, 4.0});
    log.push_back({20, fi::FaultKind::IrqDrop, 0, 1.0});
    log.push_back({30, fi::FaultKind::ReqStuck, 3, 4.0});
    log.push_back({40, fi::FaultKind::ReqStuck, 7, 4.0});
    const auto ids = fi::faultedRequests(log);
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], 3);
    EXPECT_EQ(ids[1], 7);
}
