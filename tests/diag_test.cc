/**
 * @file
 * rbv::diag unit tests: rule-scored classification on canned
 * evidence, the unknown fallback, the ground-truth label join and
 * its confusion arithmetic, evidence feature helpers, and the
 * byte-identity of the batch diagnosis report across `--jobs`.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/timeline.hh"
#include "diag/cause.hh"
#include "diag/classify.hh"
#include "diag/eval.hh"
#include "diag/evidence.hh"
#include "diag/report.hh"
#include "fi/injection.hh"

using namespace rbv;

// ------------------------------------------------ rule classifier

TEST(Classify, StepRampIsClampedAndLinear)
{
    EXPECT_DOUBLE_EQ(diag::step(0.0, 1.0, 2.0), 0.0);
    EXPECT_DOUBLE_EQ(diag::step(1.0, 1.0, 2.0), 0.0);
    EXPECT_DOUBLE_EQ(diag::step(1.5, 1.0, 2.0), 0.5);
    EXPECT_DOUBLE_EQ(diag::step(2.0, 1.0, 2.0), 1.0);
    EXPECT_DOUBLE_EQ(diag::step(9.0, 1.0, 2.0), 1.0);
}

TEST(Classify, CacheContentionNeedsMissCorrelatedCpi)
{
    diag::Evidence ev;
    ev.cpiInflation = 1.25;
    ev.missInflation = 1.6;
    ev.inflationCorr = 0.8;
    const auto d = diag::classify(ev);
    EXPECT_EQ(d.cause, diag::Cause::CacheContention);
    EXPECT_DOUBLE_EQ(d.ranked.front().score, 1.0);

    // Same CPI inflation without the miss signature is not cache.
    ev.missInflation = 1.0;
    ev.inflationCorr = 0.0;
    EXPECT_NE(diag::classify(ev).cause, diag::Cause::CacheContention);
}

TEST(Classify, BandwidthSaturationMakesMissesDearerNotMoreFrequent)
{
    diag::Evidence ev;
    ev.cpiInflation = 1.3;
    ev.cyclesPerMissInflation = 1.6;
    ev.missInflation = 1.0; // flat miss rate
    ev.missesPerIns = 3.0e-3;
    const auto d = diag::classify(ev);
    EXPECT_EQ(d.cause, diag::Cause::BandwidthSaturation);
    EXPECT_DOUBLE_EQ(d.ranked.front().score, 1.0);
}

TEST(Classify, WorkInflationMeansInjectedStall)
{
    diag::Evidence ev;
    ev.workInflation = 4.0; // re-executed work (req-stuck)
    const auto d = diag::classify(ev);
    EXPECT_EQ(d.cause, diag::Cause::InjectedStall);
    EXPECT_DOUBLE_EQ(d.ranked.front().score, 1.0);
}

TEST(Classify, ConcentratedPureCycleSpikeMeansInjectedStall)
{
    diag::Evidence ev;
    ev.cpiInflation = 1.5;
    ev.missInflation = 1.0;
    ev.inflationConcentration = 6.0; // one localized spike
    EXPECT_EQ(diag::classify(ev).cause, diag::Cause::InjectedStall);
}

TEST(Classify, AnySuspectPeriodIsStrongCounterEvidence)
{
    diag::Evidence ev;
    ev.suspectFrac = 0.004; // a couple of periods in a long timeline
    const auto d = diag::classify(ev);
    EXPECT_EQ(d.cause, diag::Cause::CounterArtifact);
    EXPECT_GE(d.ranked.front().score, 0.5);

    ev.suspectFrac = 0.02; // saturates the ramp
    EXPECT_DOUBLE_EQ(
        diag::classify(ev).ranked.front().score, 1.0);
}

TEST(Classify, UniformInflationWithCoDetectionsMeansScheduler)
{
    diag::Evidence ev;
    ev.cpiInflation = 1.4;
    ev.missInflation = 1.0;
    ev.inflationConcentration = 1.0; // uniform, not spiky
    ev.coAnomalyOverlap = 3.0;
    const auto d = diag::classify(ev);
    EXPECT_EQ(d.cause, diag::Cause::SchedInterference);
    EXPECT_DOUBLE_EQ(d.ranked.front().score, 1.0);
}

TEST(Classify, QueuePressureIsTheServingSchedulerWitness)
{
    diag::Evidence ev;
    ev.cpiInflation = 1.4;
    ev.queuePressure = 1.0;
    EXPECT_EQ(diag::classify(ev).cause,
              diag::Cause::SchedInterference);
}

TEST(Classify, AmbiguousEvidenceFallsBackToUnknown)
{
    const auto d = diag::classify(diag::Evidence{});
    EXPECT_EQ(d.cause, diag::Cause::Unknown);
    ASSERT_EQ(d.ranked.size(), 5u);
    EXPECT_LT(d.ranked.front().score, 0.25);
    // All-zero scores keep the deterministic enum-order tie-break.
    EXPECT_EQ(d.ranked.front().cause, diag::Cause::CacheContention);
    EXPECT_EQ(d.ranked.back().cause, diag::Cause::SchedInterference);
}

TEST(Cause, NamesAreStable)
{
    EXPECT_STREQ(diag::causeName(diag::Cause::CacheContention),
                 "cache-contention");
    EXPECT_STREQ(diag::causeName(diag::Cause::Unknown), "unknown");
}

// ------------------------------------------- evidence feature math

TEST(Evidence, PearsonTracksCorrelationAndDegenerates)
{
    const core::MetricSeries up{1.0, 2.0, 3.0, 4.0};
    const core::MetricSeries up2{2.0, 4.0, 6.0, 8.0};
    const core::MetricSeries down{4.0, 3.0, 2.0, 1.0};
    EXPECT_NEAR(diag::pearson(up, up2), 1.0, 1e-12);
    EXPECT_NEAR(diag::pearson(up, down), -1.0, 1e-12);
    EXPECT_DOUBLE_EQ(diag::pearson(up, {5.0, 5.0, 5.0, 5.0}), 0.0);
    EXPECT_DOUBLE_EQ(diag::pearson({1.0}, {2.0}), 0.0);
}

TEST(Evidence, ConcentrationSeparatesSpikesFromUniformShifts)
{
    EXPECT_DOUBLE_EQ(
        diag::concentration({1.0, 1.0, 1.0, 1.0}), 1.0);
    // One 8x bin among 1x bins: max / mean-of-positives.
    EXPECT_NEAR(diag::concentration({1.0, 1.0, 8.0, 1.0, 1.0}),
                8.0 / (12.0 / 5.0), 1e-12);
    EXPECT_DOUBLE_EQ(diag::concentration({-1.0, 0.0, -2.0}), 0.0);
    EXPECT_DOUBLE_EQ(diag::concentration({}), 0.0);
}

// ------------------------------------------- ground-truth labeling

namespace {

fi::Injection
inj(sim::Tick tick, fi::FaultKind kind, std::int64_t subject,
    std::int64_t victim = -1)
{
    fi::Injection i;
    i.tick = tick;
    i.kind = kind;
    i.subject = subject;
    i.victim = victim;
    return i;
}

} // namespace

TEST(LabelOf, SubjectVictimAndLatchSemantics)
{
    const std::vector<fi::Injection> log{
        inj(100, fi::FaultKind::ReqStuck, 7),
        inj(100, fi::FaultKind::CtrCorrupt, 0, 8),
        inj(50, fi::FaultKind::CoreSlow, 1, 9),
        inj(1000, fi::FaultKind::CtrSaturate, 0),
    };
    diag::Cause c = diag::Cause::Unknown;

    // Request-subject faults label their subject outright.
    ASSERT_TRUE(diag::labelOf(7, 0, 200, log, c));
    EXPECT_EQ(c, diag::Cause::InjectedStall);

    // Victim records label the witnessed request...
    ASSERT_TRUE(diag::labelOf(8, 50, 150, log, c));
    EXPECT_EQ(c, diag::Cause::CounterArtifact);
    ASSERT_TRUE(diag::labelOf(9, 0, 100, log, c));
    EXPECT_EQ(c, diag::Cause::SchedInterference);

    // ...but only the incarnation whose lifetime contains the tick
    // (serving recycles ids), and never unrelated requests.
    EXPECT_FALSE(diag::labelOf(8, 200, 300, log, c));
    EXPECT_FALSE(diag::labelOf(10, 0, 500, log, c));

    // The saturation latch poisons everything completing after it.
    ASSERT_TRUE(diag::labelOf(10, 900, 2000, log, c));
    EXPECT_EQ(c, diag::Cause::CounterArtifact);
}

TEST(LabelOf, ExactSubjectBeatsVictimBeatsLatch)
{
    const std::vector<fi::Injection> log{
        inj(60, fi::FaultKind::CtrCorrupt, 0, 7),
        inj(70, fi::FaultKind::CoreSlow, 1, 7),
        inj(80, fi::FaultKind::ReqStuck, 7),
    };
    diag::Cause c = diag::Cause::Unknown;
    ASSERT_TRUE(diag::labelOf(7, 50, 150, log, c));
    EXPECT_EQ(c, diag::Cause::InjectedStall);

    const std::vector<fi::Injection> noStuck{
        inj(60, fi::FaultKind::CtrCorrupt, 0, 7),
        inj(70, fi::FaultKind::CoreSlow, 1, 7),
    };
    ASSERT_TRUE(diag::labelOf(7, 50, 150, noStuck, c));
    EXPECT_EQ(c, diag::Cause::CounterArtifact);
}

// ------------------------------------------- confusion arithmetic

TEST(Eval, ConfusionAndPerCauseTalliesAddUp)
{
    // Population: requests 1..5; 1, 2, 3 are stuck (labeled), 4 and
    // 5 are clean.
    std::vector<diag::RequestView> requests(5);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].id = static_cast<std::int64_t>(i + 1);
        requests[i].injected = 0;
        requests[i].completed = 1000;
    }
    const std::vector<fi::Injection> log{
        inj(10, fi::FaultKind::ReqStuck, 1),
        inj(20, fi::FaultKind::ReqStuck, 2),
        inj(30, fi::FaultKind::ReqStuck, 3),
    };

    // Detections: 1 diagnosed correctly, 2 misdiagnosed as cache,
    // 4 detected but unlabeled (organic).
    diag::RunDiagnosis run;
    const auto detect = [&run](std::int64_t id, diag::Cause verdict) {
        diag::AnomalyReport rep;
        rep.evidence.requestId = id;
        rep.evidence.injected = 0;
        rep.evidence.completed = 1000;
        rep.diagnosis.cause = verdict;
        run.anomalies.push_back(rep);
    };
    detect(1, diag::Cause::InjectedStall);
    detect(2, diag::Cause::CacheContention);
    detect(4, diag::Cause::Unknown);

    const diag::DiagEval eval =
        diag::evaluateDiagnosis(requests, run, log);

    const auto &stall = eval.perCause[static_cast<std::size_t>(
        diag::Cause::InjectedStall)];
    EXPECT_EQ(stall.labeled, 3u);
    EXPECT_EQ(stall.detected, 2u);
    EXPECT_EQ(stall.diagnosed, 1u);
    EXPECT_EQ(stall.correct, 1u);
    EXPECT_DOUBLE_EQ(stall.precision(), 1.0);
    EXPECT_DOUBLE_EQ(stall.recall(), 0.5);
    EXPECT_NEAR(stall.detectionRecall(), 2.0 / 3.0, 1e-12);

    const auto &cache = eval.perCause[static_cast<std::size_t>(
        diag::Cause::CacheContention)];
    EXPECT_EQ(cache.labeled, 0u);
    EXPECT_EQ(cache.diagnosed, 1u); // the misdiagnosis
    EXPECT_DOUBLE_EQ(cache.precision(), 0.0);

    EXPECT_EQ(eval.labeledRequests, 3u);
    EXPECT_EQ(eval.labeledDetected, 2u);
    EXPECT_EQ(eval.unlabeledDetections, 1u);

    const auto stallIdx =
        static_cast<std::size_t>(diag::Cause::InjectedStall);
    const auto cacheIdx =
        static_cast<std::size_t>(diag::Cause::CacheContention);
    EXPECT_EQ(eval.confusion[stallIdx][stallIdx], 1u);
    EXPECT_EQ(eval.confusion[stallIdx][cacheIdx], 1u);

    // Merging the eval with itself doubles every tally.
    diag::DiagEval twice = eval;
    diag::merge(twice, eval);
    EXPECT_EQ(twice.perCause[stallIdx].labeled, 6u);
    EXPECT_EQ(twice.confusion[stallIdx][cacheIdx], 2u);
    EXPECT_EQ(twice.unlabeledDetections, 2u);
}

// --------------------------------- batch pass + report determinism

namespace {

/**
 * A flat synthetic timeline: @p n periods of fixed shape at CPI
 * @p cpi. Two flat timelines at the same CPI are DTW-identical no
 * matter their lengths (the zero-cost diagonal absorbs the length
 * difference), so an anomalous member must deviate in CPI, not just
 * period count, for the centroid detector to see it.
 */
core::Timeline
flatTimeline(std::size_t n, double cpi = 1.0)
{
    core::Timeline tl;
    for (std::size_t i = 0; i < n; ++i) {
        core::Period p;
        p.instructions = 2.0e6;
        p.cycles = 2.0e6 * cpi;
        p.l2Refs = 4.0e4;
        p.l2Misses = 2.0e3;
        p.wallStart = static_cast<sim::Tick>(i) * 1000;
        tl.periods.push_back(p);
    }
    return tl;
}

/** One same-group cohort where member @p fat re-executed its work. */
struct Cohort
{
    std::vector<core::Timeline> timelines;
    std::vector<diag::RequestView> views;

    explicit Cohort(std::size_t fatPeriods, double fatCpi = 1.0)
    {
        for (std::size_t i = 0; i < 8; ++i) {
            timelines.push_back(i == 0
                                    ? flatTimeline(fatPeriods, fatCpi)
                                    : flatTimeline(50));
        }
        for (std::size_t i = 0; i < timelines.size(); ++i) {
            diag::RequestView v;
            v.id = static_cast<std::int64_t>(i);
            v.group = "synthetic.g1";
            v.instructions = timelines[i].totalInstructions();
            v.cycles = timelines[i].totalCycles();
            v.l2Refs = 4.0e4 * timelines[i].periods.size();
            v.l2Misses = 2.0e3 * timelines[i].periods.size();
            v.injected = static_cast<sim::Tick>(i) * 100;
            v.completed = v.injected + 5000;
            v.timeline = &timelines[i];
            views.push_back(std::move(v));
        }
    }
};

std::string
reportOf(const diag::RunDiagnosis &run)
{
    std::ostringstream os;
    const diag::NamedRun named{"synthetic", &run};
    diag::writeJsonReport(os, {"diag_test", 42}, {named}, nullptr);
    return os.str();
}

} // namespace

TEST(DiagnoseRun, FindsTheWorkInflatedMemberAndNamesTheCause)
{
    const Cohort cohort(200, 1.3); // 4x the work, and it shows
    diag::DiagConfig cfg;
    const auto run = diag::diagnoseRun(cohort.views, cfg);

    EXPECT_EQ(run.groupsAnalyzed, 1u);
    EXPECT_EQ(run.requestsScored, 8u);
    ASSERT_EQ(run.anomalies.size(), 1u);
    const auto &rep = run.anomalies.front();
    EXPECT_EQ(rep.evidence.requestId, 0);
    EXPECT_NEAR(rep.evidence.workInflation, 4.0, 1e-9);
    EXPECT_EQ(rep.diagnosis.cause, diag::Cause::InjectedStall);
}

TEST(DiagnoseRun, QuietCohortReportsNothing)
{
    const Cohort cohort(50); // all members identical
    const auto run = diag::diagnoseRun(cohort.views, diag::DiagConfig{});
    EXPECT_EQ(run.anomalies.size(), 0u);
    EXPECT_EQ(run.groupsAnalyzed, 1u);
}

TEST(DiagnoseRun, ReportBytesAreIdenticalAcrossJobsAndReruns)
{
    const Cohort cohort(200, 1.3);
    diag::DiagConfig serial;
    serial.jobs = 1;
    diag::DiagConfig parallel;
    parallel.jobs = 4;

    const std::string a =
        reportOf(diag::diagnoseRun(cohort.views, serial));
    const std::string b =
        reportOf(diag::diagnoseRun(cohort.views, parallel));
    const std::string c =
        reportOf(diag::diagnoseRun(cohort.views, serial));

    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
    EXPECT_NE(a.find("\"schema\": \"rbv-diag-v1\""), std::string::npos);
    EXPECT_NE(a.find("injected-stall"), std::string::npos);
}

TEST(Report, DormantReportOmitsTheEvalBlock)
{
    diag::RunDiagnosis run;
    std::ostringstream os;
    const diag::NamedRun named{"empty", &run};
    diag::writeJsonReport(os, {"diag_test", 1}, {named}, nullptr);
    EXPECT_EQ(os.str().find("\"eval\""), std::string::npos);

    diag::DiagEval eval;
    std::ostringstream os2;
    diag::writeJsonReport(os2, {"diag_test", 1}, {named}, &eval);
    EXPECT_NE(os2.str().find("\"eval\""), std::string::npos);
    EXPECT_NE(os2.str().find("\"confusion\""), std::string::npos);
}
