/**
 * @file
 * Lower-bound cascade for the async-penalty DTW of Eq. 3.
 *
 * Most distance evaluations in clustering and identification are
 * comparisons against a best-so-far value, not free-standing numbers:
 * k-medoids assignment wants argmin over medoids, re-election wants
 * the member with the smallest summed distance, nearest-medoid
 * scoring wants a min. For those, a cheap sound lower bound that
 * already exceeds the cutoff proves the exact O(m*n) dynamic program
 * could not have changed the answer — so it never runs.
 *
 * The cascade, cheapest first:
 *
 *  1. LB_Kim, O(1): every warp path visits the two corner cells
 *     (0,0) and (m-1,n-1) and takes at least |m-n| asynchronous
 *     steps, so
 *
 *         LB_Kim = |x_0-y_0| + |x_{m-1}-y_{n-1}| + |m-n| * p
 *
 *     (the second corner only when it is a distinct cell) is a lower
 *     bound on the Eq. 3 distance.
 *
 *  2. LB_Keogh, O(m) against a precomputed Sakoe-Chiba envelope of
 *     y at radius r (U_i / L_i = max / min of y over [i-r, i+r],
 *     built with a monotonic deque in O(n)). A path either stays
 *     within |i-j| <= r — then every interior row i pays at least
 *     E_i = max(0, x_i - U_i, L_i - x_i) at its cheapest in-window
 *     column, on top of the corners and |m-n| penalties — or it
 *     leaves the band. The warp pointers start at offset i-j = 0
 *     and end at offset m-n, and only an asynchronous step moves the
 *     offset, by one; so a path that reaches |i-j| = r+1 takes at
 *     least 2*(r+1) - |m-n| asynchronous steps, each paying the
 *     penalty. The minimum of the two cases is sound:
 *
 *         LB_Keogh = corners + min(|m-n|*p + sum_i E_i,
 *                                  (2*(r+1) - |m-n|) * p)
 *
 *     and the exit arm disappears when the band covers every cell.
 *     LB_Kim <= LB_Keogh <= DTW holds structurally (for r >= |m-n|;
 *     below that LB_Keogh degenerates to LB_Kim), which the property
 *     suite asserts on random inputs.
 *
 *  3. dtwDistanceEarlyAbandon seeded with the cutoff: the exact DP,
 *     abandoned once a whole row proves the result >= cutoff.
 *
 * Iron rule: the cascade only ever *skips* work whose result provably
 * could not alter a strict-< comparison against the cutoff, so every
 * consumer (kMedoidsCascade, streaming scoring, the anomaly pair
 * search) produces bit-identical results to the plain kernels. The
 * surviving DPs run the same dispatched kernel as dtwDistance and
 * memoize, so no cell is ever computed twice.
 */

#ifndef RBV_CORE_MODEL_CASCADE_HH
#define RBV_CORE_MODEL_CASCADE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/model/kmedoids.hh"
#include "core/timeline.hh"
#include "obs/obs.hh"
#include "stats/rng.hh"

namespace rbv::core {

/**
 * Conservative deflation applied to every lower bound before it is
 * compared against a cutoff. The bounds are sound in real arithmetic,
 * but their summation order differs from the DP's, so a computed
 * bound can exceed the computed exact distance by a few ULPs on tight
 * inputs; the margin absorbs relative rounding error many orders of
 * magnitude beyond what the series lengths here can accumulate,
 * keeping every prune decision bit-safe.
 */
inline constexpr double LbPruneMargin = 0.999;

/** Sakoe-Chiba min/max envelope of one series at a fixed radius. */
struct SeriesEnvelope
{
    std::vector<double> lower; ///< L_i = min over [i-r, i+r].
    std::vector<double> upper; ///< U_i = max over [i-r, i+r].
    std::size_t radius = 0;
};

/**
 * Build the envelope of @p s at @p radius with two monotonic-deque
 * sweeps, O(n) amortized. Reuses @p out's storage.
 */
void buildEnvelope(const MetricSeries &s, std::size_t radius,
                   SeriesEnvelope &out);

/**
 * O(1) corner + length-mismatch lower bound on
 * dtwDistance(x, y, async_penalty). Equals the exact distance on
 * empty inputs.
 */
double lbKim(const MetricSeries &x, const MetricSeries &y,
             double async_penalty);

/**
 * O(|x|) envelope lower bound of x against @p env_y (the envelope of
 * y). Sound for any radius; at least as tight as lbKim() when
 * env_y.radius >= |m-n|, identical to it otherwise.
 */
double lbKeogh(const MetricSeries &x, const MetricSeries &y,
               const SeriesEnvelope &env_y, double async_penalty);

/**
 * Envelopes of a set of series at one shared radius: wide enough that
 * every pair's length mismatch fits inside the band (so LB_Keogh's
 * envelope arm applies to every pair), plus slack for genuine
 * warping. The radius only tunes bound tightness, never soundness.
 */
std::vector<SeriesEnvelope> buildEnvelopes(const MetricSeries *const *items,
                                           std::size_t n);

/** The cascade stage that decided a pruneGate() query. */
enum class PruneStage
{
    Kim,       ///< LB_Kim reached the cutoff; no DP ran.
    Keogh,     ///< LB_Keogh reached the cutoff; no DP ran.
    Abandoned, ///< The DP ran and proved the distance >= cutoff.
    Exact,     ///< The DP finished with the exact distance.
};

/**
 * The cascade for one pair at one cutoff, cheapest stage first:
 * LB_Kim, then LB_Keogh of @p x against @p env_y and, when @p env_x
 * is given, of @p y against @p env_x — every bound deflated by
 * LbPruneMargin — then dtwDistanceEarlyAbandon seeded with the
 * cutoff. No bound can reach an infinite cutoff, so there the DP runs
 * directly. Bumps model.lb_kim_prunes or model.lb_keogh_prunes when a
 * bound decides and model.cascade_dp_runs when the DP runs.
 *
 * Writes @p d only on PruneStage::Exact: the exact distance,
 * bit-identical to dtwDistance(), which may still be >= cutoff (the
 * bounds are sound, not complete). Every other stage proves the
 * distance >= cutoff.
 */
PruneStage pruneGate(const MetricSeries &x, const MetricSeries &y,
                     const SeriesEnvelope *env_x,
                     const SeriesEnvelope &env_y, double async_penalty,
                     double cutoff, double &d);

/** Where the cascade resolved its queries (per-instance tallies). */
struct CascadeStats
{
    std::uint64_t lookups = 0;      ///< exact() + atMost() queries.
    std::uint64_t memoHits = 0;     ///< Answered from the memo table.
    std::uint64_t kimPrunes = 0;    ///< Rejected by LB_Kim.
    std::uint64_t keoghPrunes = 0;  ///< Rejected by LB_Keogh.
    std::uint64_t dpRuns = 0;       ///< Reached the exact DP.
    std::uint64_t eaAbandons = 0;   ///< DP abandoned mid-flight.

    CascadeStats &
    operator+=(const CascadeStats &o)
    {
        lookups += o.lookups;
        memoHits += o.memoHits;
        kimPrunes += o.kimPrunes;
        keoghPrunes += o.keoghPrunes;
        dpRuns += o.dpRuns;
        eaAbandons += o.eaAbandons;
        return *this;
    }
};

/**
 * DistanceCascade::forEach() runs on obs::parallelFor when the set's
 * squared lengths sum to at least this many DP cells: about one
 * k-medoids seeding round, which runs one DP per item against the
 * newest medoid. Smaller sets run on the calling thread: there the
 * ~11 forks of one k-medoids call can cost as much as they save
 * (docs/PERFORMANCE.md, "k-medoids on the pool").
 */
inline constexpr std::size_t CascadeForkCells = std::size_t{1} << 19;

/**
 * Memoizing cascade oracle over a fixed set of series: per-series
 * envelopes built up front, a packed n*(n-1)/2 memo of exact
 * distances filled on demand, and the LB cascade answering
 * bounded queries without running the DP when it can.
 */
class DistanceCascade
{
  public:
    /**
     * @param items         The series, by pointer (not copied; must
     *                      outlive the cascade).
     * @param n             Number of series.
     * @param async_penalty Eq. 3 asynchrony penalty.
     * @param jobs          Worker threads for forEach() on a set that
     *                      reaches CascadeForkCells; <= 0 uses every
     *                      hardware thread, 1 the calling thread.
     */
    DistanceCascade(const MetricSeries *const *items, std::size_t n,
                    double async_penalty, int jobs = 0);

    std::size_t size() const { return count; }

    /**
     * Exact dtwDistance(items[i], items[j]), memoized. Bit-identical
     * to calling the kernel directly.
     */
    double exact(std::size_t i, std::size_t j)
    {
        return exactInto(i, j, tallies);
    }

    /**
     * Bounded query: when the cascade proves
     * d(i, j) >= cutoff, returns false and leaves @p d untouched —
     * skipping the DP entirely when a lower bound suffices.
     * Otherwise computes (and memoizes) the exact distance into
     * @p d and returns true. A true result is always the exact,
     * bit-identical distance; @p d may still be >= cutoff (the
     * cascade is sound, not complete).
     */
    bool
    atMost(std::size_t i, std::size_t j, double cutoff, double &d)
    {
        return atMostInto(i, j, cutoff, d, tallies);
    }

    /**
     * O(1) lower bound: the memoized exact value when known, LB_Kim
     * deflated by LbPruneMargin otherwise. For sum-abandon checks in
     * re-election loops.
     */
    double cheapLowerBound(std::size_t i, std::size_t j) const;

    const CascadeStats &stats() const { return tallies; }

    /** The cascade's queries, tallied into one forEach() body's own. */
    class Query
    {
      public:
        Query(DistanceCascade &cascade, CascadeStats &own)
            : dc(cascade), tallies(own)
        {
        }

        double
        exact(std::size_t i, std::size_t j)
        {
            return dc.exactInto(i, j, tallies);
        }

        bool
        atMost(std::size_t i, std::size_t j, double cutoff, double &d)
        {
            return dc.atMostInto(i, j, cutoff, d, tallies);
        }

        double
        cheapLowerBound(std::size_t i, std::size_t j) const
        {
            return dc.cheapLowerBound(i, j);
        }

      private:
        DistanceCascade &dc;
        CascadeStats &tallies;
    };

    /**
     * body(query, i) for every i < @p n: on the calling thread, or on
     * obs::parallelFor at the constructor's job count when the set
     * reaches CascadeForkCells. The caller guarantees that no two
     * bodies query the same pair and that each writes only its own
     * state, so every query decides as it would in a serial loop.
     * Each forked body tallies into its own CascadeStats, folded
     * into stats() after the join.
     */
    template <typename Body>
    void
    forEach(std::size_t n, Body &&body)
    {
        if (!forks) {
            Query q(*this, tallies);
            for (std::size_t i = 0; i < n; ++i)
                body(q, i);
            return;
        }
        std::vector<CascadeStats> shards(n);
        obs::parallelFor(n, jobs, [&](std::size_t i) {
            CascadeStats own;
            Query q(*this, own);
            body(q, i);
            shards[i] = own;
        });
        for (const CascadeStats &s : shards)
            tallies += s;
    }

  private:
    double exactInto(std::size_t i, std::size_t j, CascadeStats &t);
    bool atMostInto(std::size_t i, std::size_t j, double cutoff,
                    double &d, CascadeStats &t);
    double memoAt(std::size_t i, std::size_t j) const;
    std::size_t packedIndex(std::size_t i, std::size_t j) const;

    const MetricSeries *const *items;
    std::size_t count;
    double asyncPenalty;
    std::vector<SeriesEnvelope> envelopes;
    std::vector<double> memo; ///< NaN = unknown, packed upper tri.
    CascadeStats tallies;
    bool forks; ///< The set reaches CascadeForkCells.
    int jobs;   ///< forEach()'s worker count; <= 0 for every thread.
};

/**
 * k-medoids over a DistanceCascade: the one k-medoids loop kMedoids()
 * also runs, so the result is bit-identical to kMedoids() over a
 * fully materialized DistanceMatrix (the property suite pins it) —
 * but assignment candidates and re-election sums are abandoned via
 * the lower-bound cascade, so most pairwise DPs never run.
 */
Clustering kMedoidsCascade(DistanceCascade &dc, std::size_t k,
                           stats::Rng &rng, std::size_t max_iter = 50);

} // namespace rbv::core

#endif // RBV_CORE_MODEL_CASCADE_HH
