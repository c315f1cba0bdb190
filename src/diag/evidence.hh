/**
 * @file
 * Per-anomaly evidence extraction: the feature layer between anomaly
 * detection and cause classification.
 *
 * The diagnoser never looks at raw timelines when ranking causes; it
 * looks at an Evidence record — a small, deterministic fingerprint of
 * how a detected request deviates from its reference (the group
 * centroid in batch mode, rolling baselines online) plus the
 * telemetry-health and run-context signals the classifier's rules
 * key on. Extracting the features once and classifying a plain
 * struct keeps the classifier unit-testable on canned evidence and
 * byte-identical at any `--jobs` level.
 */

#ifndef RBV_DIAG_EVIDENCE_HH
#define RBV_DIAG_EVIDENCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/timeline.hh"
#include "diag/classify.hh"
#include "sim/types.hh"

namespace rbv::diag {

/**
 * A request as the diagnoser sees it: identity, lifetime (for the
 * ground-truth label join), exact counter totals, and the sampled
 * timeline. Built by thin adapters from exp::RequestRecord (batch)
 * or the serving loop's completion callback (online), so rbv::diag
 * depends on neither.
 */
struct RequestView
{
    std::int64_t id = -1;

    /** Same-semantics group ("tpch.q20", a WeBWorK problem id, ...). */
    std::string group;

    double instructions = 0.0;
    double cycles = 0.0;
    double l2Refs = 0.0;
    double l2Misses = 0.0;

    sim::Tick injected = 0;  ///< Lifetime start (cycles).
    sim::Tick completed = 0; ///< Lifetime end (cycles).

    /** Sampled periods; never null for diagnosable requests. */
    const core::Timeline *timeline = nullptr;
};

/** Knobs of the batch diagnosis pass. */
struct DiagConfig
{
    /** Worker threads for the per-group distance matrices; results
     *  are byte-identical at any value. */
    int jobs = 1;

    /** Seed of the length-penalty subsample stream. */
    std::uint64_t seed = 1;
};

/** One detected anomaly with its evidence and ranked causes. */
struct AnomalyReport
{
    Evidence evidence;
    Diagnosis diagnosis;
};

/** Everything the batch diagnosis pass produced for one run. */
struct RunDiagnosis
{
    /** Detections, most anomalous first (ties broken by id). */
    std::vector<AnomalyReport> anomalies;

    /** Groups of at least MinGroup (evidence.cc) members. */
    std::size_t groupsAnalyzed = 0;
    std::size_t requestsScored = 0;  ///< Members of those groups.
};

/**
 * Pearson correlation of two series over their common prefix; 0 when
 * either side is degenerate (fewer than 2 points or zero variance).
 */
double pearson(const core::MetricSeries &a, const core::MetricSeries &b);

/**
 * Spikiness of a deviation series: max positive element divided by
 * the mean of the positive elements (>= 1 when any element is
 * positive, 0 otherwise). A localized stall scores high; a uniform
 * slowdown scores near 1.
 */
double concentration(const core::MetricSeries &deltas);

/**
 * Run centroid-anomaly detection over every same-group cohort of
 * @p requests, extract evidence for each member past the score
 * threshold, and classify it. Deterministic: byte-identical reports
 * at any cfg.jobs, and a fixed seed fixes the length-penalty stream.
 */
RunDiagnosis diagnoseRun(const std::vector<RequestView> &requests,
                         const DiagConfig &cfg);

} // namespace rbv::diag

#endif // RBV_DIAG_EVIDENCE_HH
