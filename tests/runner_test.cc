/**
 * @file
 * Tests of the parallel experiment engine: deterministic grid
 * expansion, bit-identical parallel/serial merges, and the replicate
 * aggregator's statistics.
 */

#include <cmath>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "exp/aggregate.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"

using namespace rbv;
using namespace rbv::exp;

namespace {

/** A fast scenario grid: 2 variants x 2 replicates of a tiny TPCC. */
ScenarioGrid
smallGrid()
{
    ScenarioConfig base;
    base.app = wl::App::Tpcc;
    base.seed = 17;
    base.requests = 40;
    base.warmup = 4;
    base.numCores = 2;
    ScenarioGrid grid(base);
    grid.variants(
            {{"interrupt", nullptr},
             {"syscall",
              [](ScenarioConfig &c) {
                  c.sampler = SamplerKind::Syscall;
                  c.minGapUs = 20.0;
              }}})
        .replicates(2);
    return grid;
}

void
expectIdentical(const std::vector<JobResult> &a,
                const std::vector<JobResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("job " + a[i].key);
        EXPECT_EQ(a[i].key, b[i].key);
        const ScenarioResult &ra = a[i].result;
        const ScenarioResult &rb = b[i].result;

        EXPECT_EQ(ra.wallCycles, rb.wallCycles);
        EXPECT_EQ(ra.busyCycles, rb.busyCycles);
        EXPECT_EQ(ra.samplerStats.overheadCycles,
                  rb.samplerStats.overheadCycles);
        EXPECT_EQ(ra.samplerStats.totalSamples(),
                  rb.samplerStats.totalSamples());

        ASSERT_EQ(ra.records.size(), rb.records.size());
        for (std::size_t r = 0; r < ra.records.size(); ++r) {
            const RequestRecord &x = ra.records[r];
            const RequestRecord &y = rb.records[r];
            EXPECT_EQ(x.id, y.id);
            EXPECT_EQ(x.className, y.className);
            EXPECT_EQ(x.classId, y.classId);
            EXPECT_EQ(x.injected, y.injected);
            EXPECT_EQ(x.completed, y.completed);
            EXPECT_EQ(x.totals.cycles, y.totals.cycles);
            EXPECT_EQ(x.totals.instructions, y.totals.instructions);
            EXPECT_EQ(x.totals.l2Refs, y.totals.l2Refs);
            EXPECT_EQ(x.totals.l2Misses, y.totals.l2Misses);
            EXPECT_EQ(x.syscalls, y.syscalls);
            ASSERT_EQ(x.timeline.periods.size(),
                      y.timeline.periods.size());
            for (std::size_t p = 0; p < x.timeline.periods.size();
                 ++p) {
                const auto &pa = x.timeline.periods[p];
                const auto &pb = y.timeline.periods[p];
                EXPECT_EQ(pa.instructions, pb.instructions);
                EXPECT_EQ(pa.cycles, pb.cycles);
                EXPECT_EQ(pa.l2Refs, pb.l2Refs);
                EXPECT_EQ(pa.l2Misses, pb.l2Misses);
                EXPECT_EQ(pa.wallStart, pb.wallStart);
                EXPECT_EQ(pa.trigger, pb.trigger);
            }
        }
    }
}

} // namespace

TEST(ScenarioGrid, ExpandsAxesInDeclarationOrder)
{
    ScenarioConfig base;
    base.seed = 100;
    ScenarioGrid grid(base);
    grid.apps({wl::App::Tpcc, wl::App::Tpch})
        .variants({{"a", nullptr}, {"b", nullptr}})
        .replicates(2, 10);
    const auto jobs = grid.jobs();

    ASSERT_EQ(jobs.size(), 8u);
    // First axis outermost, later axes cycle faster.
    EXPECT_EQ(jobs[0].key, "app=tpcc/var=a/rep=0");
    EXPECT_EQ(jobs[1].key, "app=tpcc/var=a/rep=1");
    EXPECT_EQ(jobs[2].key, "app=tpcc/var=b/rep=0");
    EXPECT_EQ(jobs[3].key, "app=tpcc/var=b/rep=1");
    EXPECT_EQ(jobs[4].key, "app=tpch/var=a/rep=0");
    EXPECT_EQ(jobs[7].key, "app=tpch/var=b/rep=1");

    // Axis mutations land on the configs: app set, seed strided.
    EXPECT_EQ(jobs[0].config.app, wl::App::Tpcc);
    EXPECT_EQ(jobs[4].config.app, wl::App::Tpch);
    EXPECT_EQ(jobs[0].config.seed, 100u);
    EXPECT_EQ(jobs[1].config.seed, 110u);
    EXPECT_EQ(jobs[3].config.seed, 110u);
}

TEST(ScenarioGrid, SweepAndFinalize)
{
    ScenarioGrid grid;
    grid.sweep("period", {5.0, 12.5},
               [](ScenarioConfig &c, double p) {
                   c.samplingPeriodUs = p;
               })
        .finalize([](ScenarioConfig &c) { c.requests = 99; });
    const auto jobs = grid.jobs();

    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].key, "period=5");
    EXPECT_EQ(jobs[1].key, "period=12.5");
    EXPECT_EQ(jobs[0].config.samplingPeriodUs, 5.0);
    EXPECT_EQ(jobs[1].config.samplingPeriodUs, 12.5);
    // Finalizers run after every axis mutation, on every job.
    EXPECT_EQ(jobs[0].config.requests, 99u);
    EXPECT_EQ(jobs[1].config.requests, 99u);
}

TEST(ScenarioGrid, MutatorAllocationsArePrivatePerJob)
{
    // A variant mutator that allocates a resource (e.g. a scheduler
    // policy) must produce a distinct instance for every leaf job,
    // even when later axes (replicates) multiply that variant —
    // sharing would race once the runner goes parallel.
    ScenarioGrid grid;
    grid.variants({{"eased",
                    [](ScenarioConfig &c) {
                        c.policy = std::make_shared<
                            core::ContentionEasingPolicy>(
                            core::ContentionConfig{});
                    }}})
        .replicates(3);
    const auto jobs = grid.jobs();

    ASSERT_EQ(jobs.size(), 3u);
    for (const auto &job : jobs)
        ASSERT_NE(job.config.policy, nullptr);
    EXPECT_NE(jobs[0].config.policy, jobs[1].config.policy);
    EXPECT_NE(jobs[1].config.policy, jobs[2].config.policy);
    EXPECT_NE(jobs[0].config.policy, jobs[2].config.policy);
}

TEST(ScenarioGrid, EmptyGridIsOneBaseJob)
{
    ScenarioConfig base;
    base.requests = 7;
    const auto jobs = ScenarioGrid(base).jobs();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].key, "run");
    EXPECT_EQ(jobs[0].config.requests, 7u);
}

TEST(ParallelRunner, ParallelMergeIsBitIdenticalToSerial)
{
    const auto jobs = smallGrid().jobs();
    ASSERT_EQ(jobs.size(), 4u);

    RunnerOptions serial;
    serial.jobs = 1;
    serial.progress = false;
    RunnerOptions parallel;
    parallel.jobs = 4;
    parallel.progress = false;

    const auto serial_results = ParallelRunner(serial).run(jobs);
    const auto parallel_results = ParallelRunner(parallel).run(jobs);
    expectIdentical(serial_results, parallel_results);

    // And so are two parallel runs (no run-to-run nondeterminism).
    const auto again = ParallelRunner(parallel).run(jobs);
    expectIdentical(parallel_results, again);
}

TEST(ParallelRunner, MapMergesByIndex)
{
    RunnerOptions opts;
    opts.jobs = 4;
    opts.progress = false;
    const auto out = ParallelRunner(opts).map(
        17, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 17u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelRunner, ProgressGoesToTheLogStreamOnly)
{
    std::ostringstream log;
    RunnerOptions opts;
    opts.jobs = 2;
    opts.log = &log;

    ScenarioConfig base;
    base.app = wl::App::Tpcc;
    base.requests = 12;
    base.warmup = 2;
    base.numCores = 1;
    const auto results =
        ParallelRunner(opts).run(ScenarioGrid(base).jobs());

    ASSERT_EQ(results.size(), 1u);
    EXPECT_NE(log.str().find("[1/1] run"), std::string::npos);
    EXPECT_GE(results[0].seconds, 0.0);
}

TEST(ParallelRunner, PoisonedJobDoesNotKillTheSweep)
{
    // Job-boundary failure contract: a throwing body is recorded as a
    // failed slot, and the other jobs complete untouched.
    ScenarioConfig base;
    base.app = wl::App::Tpcc;
    base.seed = 17;
    base.requests = 20;
    base.warmup = 2;
    base.numCores = 1;
    ScenarioGrid grid(base);
    grid.replicates(4);
    auto jobs = grid.jobs();
    ASSERT_EQ(jobs.size(), 4u);
    jobs[1].body = [](const ScenarioConfig &) -> ScenarioResult {
        throw std::runtime_error("poisoned job body");
    };

    std::ostringstream log;
    RunnerOptions opts;
    opts.jobs = 2;
    opts.log = &log;
    const auto results = ParallelRunner(opts).run(jobs);

    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(results[1].failed);
    EXPECT_NE(results[1].error.find("poisoned job body"),
              std::string::npos);
    EXPECT_EQ(tryResultFor(results, jobs[1].key), nullptr);

    for (std::size_t i : {std::size_t{0}, std::size_t{2},
                          std::size_t{3}}) {
        SCOPED_TRACE("job " + results[i].key);
        EXPECT_FALSE(results[i].failed);
        const ScenarioResult *r =
            tryResultFor(results, results[i].key);
        ASSERT_NE(r, nullptr);
        EXPECT_FALSE(r->records.empty());
    }

    // Degraded exit code and a degraded-report note on the log.
    EXPECT_EQ(exitCodeFor(results), 3);
    EXPECT_NE(log.str().find("FAILED: poisoned job body"),
              std::string::npos);
    EXPECT_NE(log.str().find("report is degraded"),
              std::string::npos);
}

TEST(ParallelRunner, ResultForFindsKeysAndThrowsOnMiss)
{
    std::vector<JobResult> results(2);
    results[0].key = "app=tpcc";
    results[1].key = "app=tpch";
    results[1].result.wallCycles = 42;

    EXPECT_EQ(resultFor(results, "app=tpch").wallCycles, 42);
    EXPECT_THROW(resultFor(results, "app=rubis"), std::out_of_range);
}

TEST(ReplicateSummary, MatchesHandComputedStatistics)
{
    ReplicateSummary agg;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        agg.add("metric", v);

    const MetricSummary s = agg.get("metric");
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.mean, 2.5);
    // Sample variance of {1,2,3,4}: (2.25+0.25+0.25+2.25)/3 = 5/3.
    EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
    EXPECT_NEAR(s.stderrOfMean, std::sqrt(5.0 / 3.0) / 2.0, 1e-12);
    EXPECT_EQ(s.min, 1.0);
    EXPECT_EQ(s.max, 4.0);
    EXPECT_DOUBLE_EQ(agg.mean("metric"), 2.5);
}

TEST(ReplicateSummary, KeepsMetricsApartAndHandlesMisses)
{
    ReplicateSummary agg;
    agg.add("b", 1.0);
    agg.add("a", 2.0);
    agg.add("b", 3.0);

    EXPECT_EQ(agg.get("b").count, 2u);
    EXPECT_DOUBLE_EQ(agg.get("b").mean, 2.0);

    const MetricSummary miss = agg.get("c");
    EXPECT_EQ(miss.count, 0u);
    EXPECT_EQ(miss.mean, 0.0);

    // A single replicate has no spread.
    const MetricSummary one = agg.get("a");
    EXPECT_EQ(one.count, 1u);
    EXPECT_EQ(one.stddev, 0.0);
    EXPECT_EQ(one.stderrOfMean, 0.0);
}
