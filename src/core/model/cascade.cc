/**
 * @file
 * Lower-bound cascade implementation.
 */

#include "core/model/cascade.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.hh"
#include "core/model/distance.hh"
#include "core/model/kmedoids_impl.hh"
#include "obs/obs.hh"

namespace rbv::core {

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/**
 * The corner cells every warp path pays: (0,0) always, (m-1,n-1)
 * whenever it is a distinct cell. Shared by both bounds so
 * LB_Kim <= LB_Keogh is structural, never a rounding accident.
 */
inline double
cornerCost(const MetricSeries &x, const MetricSeries &y)
{
    const double c0 = std::abs(x.front() - y.front());
    return (x.size() > 1 || y.size() > 1)
               ? c0 + std::abs(x.back() - y.back())
               : c0;
}

/** DP cells of one seeding round: the sum of squared lengths. */
std::size_t
seedingCells(const MetricSeries *const *items, std::size_t n)
{
    std::size_t cells = 0;
    for (std::size_t i = 0; i < n; ++i)
        cells += items[i]->size() * items[i]->size();
    return cells;
}

} // namespace

void
buildEnvelope(const MetricSeries &s, std::size_t radius,
              SeriesEnvelope &out)
{
    const std::size_t n = s.size();
    out.radius = radius;
    out.lower.resize(n);
    out.upper.resize(n);
    if (n == 0)
        return;

    // Monotonic deque over the sliding window [c-r, c+r]: indices
    // enter in order, dominated values are popped from the back, and
    // stale indices fall off the front, so each sweep is O(n)
    // amortized. One index buffer serves both sweeps.
    std::vector<std::size_t> dq;
    dq.reserve(n);
    auto sweep = [&](bool is_max, std::vector<double> &dst) {
        dq.clear();
        std::size_t head = 0;
        std::size_t next = 0;
        for (std::size_t c = 0; c < n; ++c) {
            const std::size_t hi = std::min(n - 1, c + radius);
            for (; next <= hi; ++next) {
                while (dq.size() > head &&
                       (is_max ? s[dq.back()] <= s[next]
                               : s[dq.back()] >= s[next]))
                    dq.pop_back();
                dq.push_back(next);
            }
            const std::size_t lo = c > radius ? c - radius : 0;
            while (dq[head] < lo)
                ++head;
            dst[c] = s[dq[head]];
        }
    };
    sweep(true, out.upper);
    sweep(false, out.lower);
}

double
lbKim(const MetricSeries &x, const MetricSeries &y,
      double async_penalty)
{
    const std::size_t m = x.size(), n = y.size();
    if (m == 0 || n == 0)
        return static_cast<double>(m + n) * async_penalty;
    const std::size_t diff = m > n ? m - n : n - m;
    return cornerCost(x, y) +
           static_cast<double>(diff) * async_penalty;
}

double
lbKeogh(const MetricSeries &x, const MetricSeries &y,
        const SeriesEnvelope &env_y, double async_penalty)
{
    const std::size_t m = x.size(), n = y.size();
    if (m == 0 || n == 0)
        return static_cast<double>(m + n) * async_penalty;

    const std::size_t diff = m > n ? m - n : n - m;
    const std::size_t r = env_y.radius;
    const double corners = cornerCost(x, y);
    const double mismatch =
        static_cast<double>(diff) * async_penalty;

    // The in-band row argument needs the band to admit a path at all
    // (r >= |m-n|); below that, fall back to the corner bound.
    if (r < diff)
        return corners + mismatch;

    // In-band case: every interior row i is visited at some column
    // within [i-r, i+r], costing at least its distance outside the
    // envelope there. Clamping the envelope center to n-1 only
    // widens the window (it is a superset of [i-r, i+r] ∩ [0, n-1]
    // for i >= n-1), so the bound stays sound for m > n.
    double sum_e = 0.0;
    for (std::size_t i = 1; i + 1 < m; ++i) {
        const std::size_t c = std::min(i, n - 1);
        const double xi = x[i];
        if (xi > env_y.upper[c])
            sum_e += xi - env_y.upper[c];
        else if (xi < env_y.lower[c])
            sum_e += env_y.lower[c] - xi;
    }
    const double in_band = mismatch + sum_e;

    // No cell lies outside a band that spans the whole grid; only
    // then is the in-band case the only case.
    if (r >= std::max(m, n) - 1)
        return corners + in_band;

    // Exit case: reaching offset |i-j| = r+1 and still ending at
    // offset |m-n| takes at least 2*(r+1) - |m-n| asynchronous
    // steps, each paying the penalty.
    const double exit_cost =
        (2.0 * static_cast<double>(r + 1) -
         static_cast<double>(diff)) *
        async_penalty;
    return corners + std::min(in_band, exit_cost);
}

std::vector<SeriesEnvelope>
buildEnvelopes(const MetricSeries *const *items, std::size_t n)
{
    std::size_t max_len = 0, min_len = n == 0 ? 0 : ~std::size_t{0};
    for (std::size_t i = 0; i < n; ++i) {
        max_len = std::max(max_len, items[i]->size());
        min_len = std::min(min_len, items[i]->size());
    }
    const std::size_t radius =
        (max_len - min_len) + std::max<std::size_t>(1, max_len / 16);
    std::vector<SeriesEnvelope> envs(n);
    for (std::size_t i = 0; i < n; ++i)
        buildEnvelope(*items[i], radius, envs[i]);
    return envs;
}

PruneStage
pruneGate(const MetricSeries &x, const MetricSeries &y,
          const SeriesEnvelope *env_x, const SeriesEnvelope &env_y,
          double async_penalty, double cutoff, double &d)
{
    if (cutoff < Inf) {
        if (lbKim(x, y, async_penalty) * LbPruneMargin >= cutoff) {
            RBV_COUNT(ModelLbKimPrunes, 1);
            return PruneStage::Kim;
        }
        if (lbKeogh(x, y, env_y, async_penalty) * LbPruneMargin >=
                cutoff ||
            (env_x != nullptr &&
             lbKeogh(y, x, *env_x, async_penalty) * LbPruneMargin >=
                 cutoff)) {
            RBV_COUNT(ModelLbKeoghPrunes, 1);
            return PruneStage::Keogh;
        }
    }
    RBV_COUNT(ModelCascadeDpRuns, 1);
    const double raw =
        dtwDistanceEarlyAbandon(x, y, async_penalty, cutoff);
    if (std::isinf(raw))
        return PruneStage::Abandoned;
    d = raw;
    return PruneStage::Exact;
}

DistanceCascade::DistanceCascade(const MetricSeries *const *items_,
                                 std::size_t n, double async_penalty,
                                 int jobs_)
    : items(items_), count(n), asyncPenalty(async_penalty),
      envelopes(buildEnvelopes(items_, n)),
      memo(n < 2 ? 0 : n * (n - 1) / 2,
           std::numeric_limits<double>::quiet_NaN()),
      forks(seedingCells(items_, n) >= CascadeForkCells), jobs(jobs_)
{
}

std::size_t
DistanceCascade::packedIndex(std::size_t i, std::size_t j) const
{
    if (j < i)
        std::swap(i, j);
    return i * (count - 1) - i * (i - 1) / 2 + (j - i - 1);
}

double
DistanceCascade::memoAt(std::size_t i, std::size_t j) const
{
    return i == j ? 0.0 : memo[packedIndex(i, j)];
}

double
DistanceCascade::exactInto(std::size_t i, std::size_t j,
                           CascadeStats &t)
{
    ++t.lookups;
    if (i == j)
        return 0.0;
    double &cell = memo[packedIndex(i, j)];
    if (std::isnan(cell)) {
        ++t.dpRuns;
        RBV_COUNT(ModelCascadeDpRuns, 1);
        cell = dtwDistance(*items[i], *items[j], asyncPenalty);
    } else {
        ++t.memoHits;
    }
    return cell;
}

bool
DistanceCascade::atMostInto(std::size_t i, std::size_t j,
                            double cutoff, double &d, CascadeStats &t)
{
    ++t.lookups;
    if (i == j) {
        d = 0.0;
        return true;
    }
    double &cell = memo[packedIndex(i, j)];
    if (!std::isnan(cell)) {
        ++t.memoHits;
        if (cell >= cutoff)
            return false;
        d = cell;
        return true;
    }

    double raw = 0.0;
    switch (pruneGate(*items[i], *items[j], &envelopes[i],
                      envelopes[j], asyncPenalty, cutoff, raw)) {
      case PruneStage::Kim:
        ++t.kimPrunes;
        return false;
      case PruneStage::Keogh:
        ++t.keoghPrunes;
        return false;
      case PruneStage::Abandoned:
        // Provably >= cutoff, but not an exact value: leave the memo
        // cell unknown so a later query with a looser cutoff still
        // gets the exact distance.
        ++t.dpRuns;
        ++t.eaAbandons;
        return false;
      case PruneStage::Exact:
        break;
    }
    ++t.dpRuns;
    cell = raw; // finite early-abandon result == the exact DP value
    if (raw >= cutoff)
        return false;
    d = raw;
    return true;
}

double
DistanceCascade::cheapLowerBound(std::size_t i, std::size_t j) const
{
    if (i == j)
        return 0.0;
    const double cell = memoAt(i, j);
    if (!std::isnan(cell))
        return cell;
    // Deflated like every prune comparison: sum-abandon adds this to
    // a running cost and must never overshoot what the exact term
    // would have produced.
    return lbKim(*items[i], *items[j], asyncPenalty) * LbPruneMargin;
}

Clustering
kMedoidsCascade(DistanceCascade &dc, std::size_t k, stats::Rng &rng,
                std::size_t max_iter)
{
    return detail::kMedoidsOver(dc, k, rng, max_iter);
}

} // namespace rbv::core
