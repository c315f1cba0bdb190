/**
 * @file
 * The k-medoids loop, written once over a distance oracle.
 *
 * kMedoids() runs it over a full DistanceMatrix (kmedoids.cc) and
 * kMedoidsCascade() over the lower-bound DistanceCascade (cascade.cc).
 * Each instantiation sits in the file that defines the oracle methods
 * it calls, so the compiler can inline them. Internal to the model
 * layer: only those two files include it.
 */

#ifndef RBV_CORE_MODEL_KMEDOIDS_IMPL_HH
#define RBV_CORE_MODEL_KMEDOIDS_IMPL_HH

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "core/model/kmedoids.hh"
#include "obs/obs.hh"
#include "stats/rng.hh"

namespace rbv::core::detail {

/**
 * kMedoids() over the distance oracle @p dist, which answers:
 *
 *  - size(): the item count;
 *  - exact(i, j): the distance between items i and j;
 *  - atMost(i, j, cutoff, d): false only when it proves
 *    d(i, j) >= cutoff, leaving @p d untouched; otherwise true with
 *    the exact distance in @p d (which may still be >= cutoff);
 *  - cheapLowerBound(i, j): a value never above exact(i, j).
 *
 * Every decision is a strict-< comparison of exact distances, or of
 * sums accumulated in ascending member order, and an oracle only
 * skips work whose result could not win one — so every sound oracle
 * yields the same clustering, bit for bit.
 */
template <typename Oracle>
Clustering
kMedoidsOver(Oracle &dist, std::size_t k, stats::Rng &rng,
             std::size_t max_iter)
{
    RBV_PROF_SCOPE(KMedoids);
    constexpr double Inf = std::numeric_limits<double>::infinity();
    const std::size_t n = dist.size();
    Clustering cl;
    if (n == 0)
        return cl;
    k = std::min(k, n);

    // Greedy max-min seeding: random first medoid, then repeatedly
    // the item farthest from all chosen medoids. The max-min
    // comparison consumes every distance's value, so seeding asks for
    // exact ones.
    std::vector<std::size_t> medoids;
    medoids.push_back(rng.uniformInt(n));
    std::vector<double> min_d(n, Inf);
    while (medoids.size() < k) {
        for (std::size_t i = 0; i < n; ++i)
            min_d[i] = std::min(min_d[i], dist.exact(i, medoids.back()));
        std::size_t far = 0;
        double far_d = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (min_d[i] > far_d) {
                far_d = min_d[i];
                far = i;
            }
        }
        medoids.push_back(far);
    }

    // Nearest-medoid argmin. The winner is decided by strict <, so
    // skipping a candidate that atMost() proves >= best_d cannot
    // change it, and best_d (and with it totalCost) only ever holds
    // exact distances.
    const auto assignOne = [&](std::size_t i, double &best_d) {
        std::size_t best = 0;
        best_d = Inf;
        for (std::size_t c = 0; c < medoids.size(); ++c) {
            double d = 0.0;
            if (dist.atMost(i, medoids[c], best_d, d) && d < best_d) {
                best_d = d;
                best = c;
            }
        }
        return best;
    };

    std::vector<std::size_t> assign(n, 0);
    std::vector<std::vector<std::size_t>> members(medoids.size());
    for (std::size_t iter = 0; iter < max_iter; ++iter) {
        for (std::size_t i = 0; i < n; ++i) {
            double best_d = 0.0;
            assign[i] = assignOne(i, best_d);
        }

        // Medoid re-election over explicit per-cluster member lists,
        // O(sum |c|^2), summing in ascending item order. A candidate
        // is dropped as soon as its partial sum plus a lower bound on
        // the next term reaches best_cost: the remaining terms are
        // nonnegative and the incumbent only falls to a strictly
        // smaller full sum, so the true winner is never dropped and
        // best_cost only ever holds fully-summed values.
        for (auto &m : members)
            m.clear();
        for (std::size_t i = 0; i < n; ++i)
            members[assign[i]].push_back(i);

        bool changed = false;
        for (std::size_t c = 0; c < medoids.size(); ++c) {
            std::size_t best = medoids[c];
            double best_cost = Inf;
            for (const std::size_t i : members[c]) {
                double cost = 0.0;
                bool viable = true;
                for (const std::size_t j : members[c]) {
                    if (cost + dist.cheapLowerBound(i, j) >= best_cost) {
                        viable = false;
                        break;
                    }
                    cost += dist.exact(i, j);
                }
                if (viable && cost < best_cost) {
                    best_cost = cost;
                    best = i;
                }
            }
            if (best != medoids[c]) {
                medoids[c] = best;
                changed = true;
            }
        }
        if (!changed)
            break;
    }

    // Final assignment and cost.
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double best_d = 0.0;
        assign[i] = assignOne(i, best_d);
        total += best_d;
    }

    cl.medoids = std::move(medoids);
    cl.assignment = std::move(assign);
    cl.totalCost = total;
    return cl;
}

} // namespace rbv::core::detail

#endif // RBV_CORE_MODEL_KMEDOIDS_IMPL_HH
