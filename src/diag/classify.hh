/**
 * @file
 * Deterministic rule-scored cause classification.
 *
 * Each concrete cause class has a hand-built rule that maps an
 * Evidence record to a score in [0, 1] via clamped linear ramps
 * (step()): conjunctive conditions combine with min, alternative
 * signatures with max. The diagnosis ranks all five concrete causes
 * and falls back to Unknown when even the best score stays under the
 * caller's floor — a wrong confident attribution is worse than an
 * honest "unknown". No randomness anywhere: identical evidence
 * yields identical rankings on every host and at any `--jobs`.
 *
 * The rule shapes come straight from the fault semantics:
 *  - req-stuck re-executes its work, so instructions inflate with
 *    cycles (workInflation high, CPI near normal);
 *  - sys-stall burns cycles without instructions or misses, in one
 *    place (CPI inflation, flat misses, high concentration);
 *  - L2 contention inflates CPI *through* misses (the paper's Fig. 8
 *    diagnosis: CPI inflation tracks miss inflation bin by bin);
 *  - bandwidth saturation makes each miss dearer without adding
 *    misses (cycles/miss up, miss rate flat, misses substantial);
 *  - corrupted/saturated counters and sampling gaps mark periods
 *    suspect/gapped before they distort any metric;
 *  - a slowed core drags every request crossing the window (uniform
 *    CPI inflation, flat misses, overlapping co-detections).
 */

#ifndef RBV_DIAG_CLASSIFY_HH
#define RBV_DIAG_CLASSIFY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "diag/cause.hh"
#include "sim/types.hh"

namespace rbv::diag {

/**
 * The deviation fingerprint of one detected anomaly. All *Inflation
 * fields are ratios of the anomaly's value over its reference's
 * (1.0 = no change); fractions are in [0, 1].
 */
struct Evidence
{
    std::int64_t requestId = -1;
    std::string group;   ///< Cohort the detection came from.
    double score = 0.0;  ///< Detector's anomaly score (context only).

    sim::Tick injected = 0;  ///< Lifetime, for the ground-truth join.
    sim::Tick completed = 0;

    double cpiInflation = 1.0;   ///< CPI vs reference.
    double missInflation = 1.0;  ///< L2 misses/ins vs reference.
    double refsInflation = 1.0;  ///< L2 refs/ins vs reference.
    double workInflation = 1.0;  ///< Instructions vs expected work.
    double cyclesPerMissInflation = 1.0; ///< Cost per miss vs reference.
    double missesPerIns = 0.0;   ///< Absolute L2 miss rate.

    /** Correlation of per-bin CPI deviation with per-bin miss
     *  deviation — the paper's cache-contention witness. */
    double inflationCorr = 0.0;

    /** Spikiness of the per-bin CPI deviation (see concentration()). */
    double inflationConcentration = 0.0;

    double gapFrac = 0.0;     ///< Periods preceded by a sampling gap.
    double suspectFrac = 0.0; ///< Periods built from tampered reads.

    /** Co-detected anomalies whose lifetimes overlap this one's. */
    double coAnomalyOverlap = 0.0;

    /** Serving only: outstanding / admission cap at completion. */
    double queuePressure = 0.0;
};

/** One scored cause. */
struct CauseScore
{
    Cause cause = Cause::Unknown;
    double score = 0.0;
};

/** Ranked causes for one anomaly. */
struct Diagnosis
{
    /**
     * Winning cause; Unknown when ranked[0] scores under the
     * confidence floor (CauseFloor in classify.cc).
     */
    Cause cause = Cause::Unknown;

    /** All five concrete causes, best first (enum-order tie-break). */
    std::vector<CauseScore> ranked;
};

/** Clamped linear ramp: 0 at @p lo, 1 at @p hi. Requires lo < hi. */
double step(double x, double lo, double hi);

/** Score every concrete cause on @p ev and rank them. */
Diagnosis classify(const Evidence &ev);

} // namespace rbv::diag

#endif // RBV_DIAG_CLASSIFY_HH
