/**
 * @file
 * Rule-scored classifier implementation. Threshold constants were
 * tuned on the canned CI fault plans (docs/DIAGNOSIS.md records the
 * tuning runs); the ramps are deliberately wide so small workload
 * shifts degrade scores gradually instead of flipping verdicts.
 */

#include "diag/classify.hh"

#include <algorithm>

namespace rbv::diag {

double
step(double x, double lo, double hi)
{
    if (x <= lo)
        return 0.0;
    if (x >= hi)
        return 1.0;
    return (x - lo) / (hi - lo);
}

namespace {

double
scoreCounterArtifact(const Evidence &ev)
{
    // Suspect periods never occur without tampered reads (the
    // sampler only sets the flag when a fault layer altered a
    // snapshot), so a single one is near-conclusive; the ramp above
    // the 0.5 base just grades how much of the timeline is poisoned.
    // Gaps are weaker evidence: they need to be widespread before
    // they alone explain a detection.
    const double suspect =
        ev.suspectFrac > 0.0
            ? 0.5 + 0.5 * step(ev.suspectFrac, 0.0, 0.02)
            : 0.0;
    return std::max(suspect, 0.8 * step(ev.gapFrac, 0.10, 0.45));
}

double
scoreInjectedStall(const Evidence &ev)
{
    // req-stuck: the request re-executed its work, so attributed
    // instructions blow past the cohort's (or the spec's) count.
    const double stuck = step(ev.workInflation, 1.5, 3.0);
    // sys-stall: cycles without instructions or misses, concentrated
    // where the stalled syscall sat.
    const double stall =
        std::min({step(ev.cpiInflation, 1.08, 1.40),
                  1.0 - step(ev.missInflation, 1.10, 1.40),
                  step(ev.inflationConcentration, 2.0, 5.0)});
    return std::max(stuck, stall);
}

double
scoreCacheContention(const Evidence &ev)
{
    return std::min({step(ev.cpiInflation, 1.02, 1.20),
                     step(ev.missInflation, 1.08, 1.50),
                     step(ev.inflationCorr, 0.25, 0.65)});
}

double
scoreBandwidthSaturation(const Evidence &ev)
{
    // Per-request totals cannot separate "each miss got dearer" from
    // "a scheduler stole cycles" -- both inflate CPI and cycles/miss
    // with a flat miss rate.  The tiebreaker is cohort structure: a
    // dense cluster of co-anomalous requests points at a shared slowed
    // resource, so heavy co-anomaly overlap discounts the per-request
    // bandwidth-pricing explanation.
    return std::min({step(ev.cpiInflation, 1.03, 1.25),
                     step(ev.cyclesPerMissInflation, 1.10, 1.50),
                     1.0 - step(ev.missInflation, 1.08, 1.30),
                     step(ev.missesPerIns, 5.0e-4, 2.0e-3),
                     1.0 - 0.5 * step(ev.coAnomalyOverlap, 1.0, 3.0)});
}

double
scoreSchedInterference(const Evidence &ev)
{
    // A slowed core drags every request crossing the window: uniform
    // CPI inflation with flat misses, and co-detected neighbors.
    const double window =
        std::min({step(ev.cpiInflation, 1.05, 1.30),
                  1.0 - step(ev.missInflation, 1.10, 1.40),
                  1.0 - step(ev.inflationConcentration, 2.5, 5.0),
                  step(ev.coAnomalyOverlap, 0.5, 2.0)});
    // Serving overload variant: the queue is the scheduler here.
    const double overload =
        std::min(step(ev.cpiInflation, 1.05, 1.30),
                 step(ev.queuePressure, 0.75, 0.95));
    return std::max(window, overload);
}

/** Minimum winning score below which a diagnosis reports Unknown. */
constexpr double CauseFloor = 0.25;

} // namespace

Diagnosis
classify(const Evidence &ev)
{
    Diagnosis d;
    d.ranked = {
        {Cause::CacheContention, scoreCacheContention(ev)},
        {Cause::BandwidthSaturation, scoreBandwidthSaturation(ev)},
        {Cause::InjectedStall, scoreInjectedStall(ev)},
        {Cause::CounterArtifact, scoreCounterArtifact(ev)},
        {Cause::SchedInterference, scoreSchedInterference(ev)},
    };
    // Stable sort keeps the enum-order tie-break deterministic.
    std::stable_sort(d.ranked.begin(), d.ranked.end(),
                     [](const CauseScore &a, const CauseScore &b) {
                         return a.score > b.score;
                     });
    d.cause = d.ranked.front().score >= CauseFloor
                  ? d.ranked.front().cause
                  : Cause::Unknown;
    return d;
}

} // namespace rbv::diag
