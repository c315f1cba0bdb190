/**
 * @file
 * Batch evidence extraction: same-group centroid detection (the
 * Fig. 8 detector, at the ground-truth evaluation's normalization)
 * followed by per-anomaly feature extraction and classification.
 */

#include "diag/evidence.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/model/anomaly.hh"
#include "core/model/distance.hh"
#include "obs/obs.hh"
#include "stats/rng.hh"

namespace rbv::diag {

double
pearson(const core::MetricSeries &a, const core::MetricSeries &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    if (n < 2)
        return 0.0;
    double meanA = 0.0, meanB = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        meanA += a[i];
        meanB += b[i];
    }
    meanA /= static_cast<double>(n);
    meanB /= static_cast<double>(n);
    double num = 0.0, da = 0.0, db = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        num += (a[i] - meanA) * (b[i] - meanB);
        da += (a[i] - meanA) * (a[i] - meanA);
        db += (b[i] - meanB) * (b[i] - meanB);
    }
    return da > 0.0 && db > 0.0 ? num / std::sqrt(da * db) : 0.0;
}

double
concentration(const core::MetricSeries &deltas)
{
    double maxPos = 0.0, sumPos = 0.0;
    std::size_t nPos = 0;
    for (const double d : deltas) {
        if (d <= 0.0)
            continue;
        maxPos = std::max(maxPos, d);
        sumPos += d;
        ++nPos;
    }
    if (nPos == 0 || sumPos <= 0.0)
        return 0.0;
    return maxPos / (sumPos / static_cast<double>(nPos));
}

namespace {

/** Signature bin width in instructions (matches Fig. 8/9). */
constexpr double BinIns = 2.0e6;

/**
 * Detection cut: a request whose DTW distance from the group centroid
 * exceeds this multiple of the group's mean distance is a diagnosable
 * anomaly (same normalization as the ranked ground-truth evaluation).
 */
constexpr double ScoreThreshold = 1.5;

/** Groups smaller than this have no meaningful centroid. */
constexpr std::size_t MinGroup = 3;

/** a/b with the no-information fallback of 1.0 (no deviation). */
double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 1.0;
}

double
flagFraction(const core::Timeline &tl, bool core::Period::*flag)
{
    if (tl.periods.empty())
        return 0.0;
    std::size_t n = 0;
    for (const auto &p : tl.periods)
        if (p.*flag)
            ++n;
    return static_cast<double>(n) /
           static_cast<double>(tl.periods.size());
}

Evidence
extractEvidence(const RequestView &req, const RequestView &ref,
                const core::MetricSeries &reqCpi,
                const core::MetricSeries &refCpi, double binIns,
                double medianIns, double score)
{
    Evidence ev;
    ev.requestId = req.id;
    ev.group = req.group;
    ev.score = score;
    ev.injected = req.injected;
    ev.completed = req.completed;

    ev.cpiInflation = ratio(ratio(req.cycles, req.instructions),
                            ratio(ref.cycles, ref.instructions));
    ev.missInflation = ratio(ratio(req.l2Misses, req.instructions),
                             ratio(ref.l2Misses, ref.instructions));
    ev.refsInflation = ratio(ratio(req.l2Refs, req.instructions),
                             ratio(ref.l2Refs, ref.instructions));
    ev.workInflation = ratio(req.instructions, medianIns);
    ev.cyclesPerMissInflation =
        ratio(ratio(req.cycles, req.l2Misses),
              ratio(ref.cycles, ref.l2Misses));
    ev.missesPerIns = req.instructions > 0.0
                          ? req.l2Misses / req.instructions
                          : 0.0;

    const auto reqMiss = core::binByInstructions(
        *req.timeline, binIns, core::Metric::L2MissesPerIns);
    const auto refMiss = core::binByInstructions(
        *ref.timeline, binIns, core::Metric::L2MissesPerIns);
    const std::size_t n = std::min(
        {reqCpi.size(), refCpi.size(), reqMiss.size(), refMiss.size()});
    core::MetricSeries dCpi(n), dMiss(n);
    for (std::size_t i = 0; i < n; ++i) {
        dCpi[i] = reqCpi[i] - refCpi[i];
        dMiss[i] = reqMiss[i] - refMiss[i];
    }
    ev.inflationCorr = pearson(dCpi, dMiss);
    ev.inflationConcentration = concentration(dCpi);

    ev.gapFrac = flagFraction(*req.timeline, &core::Period::gapBefore);
    ev.suspectFrac =
        flagFraction(*req.timeline, &core::Period::suspect);
    return ev;
}

} // namespace

RunDiagnosis
diagnoseRun(const std::vector<RequestView> &requests,
            const DiagConfig &cfg)
{
    RunDiagnosis run;

    // Cohorts keyed by group name; std::map so the shared
    // length-penalty RNG stream advances in a deterministic order.
    std::map<std::string, std::vector<const RequestView *>> groups;
    for (const auto &r : requests)
        if (r.timeline != nullptr)
            groups[r.group].push_back(&r);

    stats::Rng prng(cfg.seed ^ 0xD1A6);
    for (const auto &[name, group] : groups) {
        (void)name;
        if (group.size() < MinGroup)
            continue;
        ++run.groupsAnalyzed;
        run.requestsScored += group.size();

        std::vector<core::MetricSeries> series;
        series.reserve(group.size());
        for (const auto *r : group)
            series.push_back(core::binByInstructions(
                *r->timeline, BinIns, core::Metric::Cpi));
        const double penalty = core::lengthPenalty(series, prng);
        const auto det =
            core::detectCentroidAnomaly(series, penalty, cfg.jobs);

        double mean = 0.0;
        for (const double d : det.distances)
            mean += d;
        mean /= static_cast<double>(group.size());

        std::vector<double> ins;
        ins.reserve(group.size());
        for (const auto *r : group)
            ins.push_back(r->instructions);
        std::sort(ins.begin(), ins.end());
        const double medianIns = ins[ins.size() / 2];

        for (std::size_t i = 0; i < group.size(); ++i) {
            if (i == det.centroid)
                continue;
            const double score =
                mean > 0.0 ? det.distances[i] / mean : 0.0;
            if (score < ScoreThreshold)
                continue;
            AnomalyReport rep;
            rep.evidence = extractEvidence(
                *group[i], *group[det.centroid], series[i],
                series[det.centroid], BinIns, medianIns, score);
            run.anomalies.push_back(std::move(rep));
        }
    }

    // Lifetime-overlap context: a slowed core drags every request
    // crossing its window, so interference shows up as co-detected
    // anomalies with intersecting lifetimes.
    for (std::size_t i = 0; i < run.anomalies.size(); ++i) {
        std::size_t overlap = 0;
        const Evidence &a = run.anomalies[i].evidence;
        for (std::size_t j = 0; j < run.anomalies.size(); ++j) {
            if (i == j)
                continue;
            const Evidence &b = run.anomalies[j].evidence;
            if (a.injected < b.completed && b.injected < a.completed)
                ++overlap;
        }
        run.anomalies[i].evidence.coAnomalyOverlap =
            static_cast<double>(overlap);
    }

    for (auto &rep : run.anomalies) {
        rep.diagnosis = classify(rep.evidence);
        RBV_COUNT(DiagAnomalies, 1);
        if (rep.diagnosis.cause == Cause::Unknown)
            RBV_COUNT(DiagUnknownCauses, 1);
    }

    std::sort(run.anomalies.begin(), run.anomalies.end(),
              [](const AnomalyReport &a, const AnomalyReport &b) {
                  if (a.evidence.score != b.evidence.score)
                      return a.evidence.score > b.evidence.score;
                  return a.evidence.requestId < b.evidence.requestId;
              });
    return run;
}

} // namespace rbv::diag
