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
 *  - cheapLowerBound(i, j): a value never above exact(i, j);
 *  - forEach(count, body): body(q, i) for every i < count, where q
 *    answers the three queries above. An oracle may run the bodies
 *    concurrently, so no two bodies of one forEach touch the same
 *    pair (i, j), and each writes only its own slots.
 *
 * Every decision is a strict-< comparison of exact distances, or of
 * sums accumulated in ascending member order, and an oracle only
 * skips work whose result could not win one — so every sound oracle
 * yields the same clustering, bit for bit. Each forked body queries
 * only pairs no other body of its forEach touches, so it sees the
 * oracle's state exactly as a serial ascending loop would show it.
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
    // exact ones. A round asks each item for one pair, its own with
    // the newest medoid, so it forks over the items; the argmax runs
    // after the join.
    std::vector<std::size_t> medoids;
    medoids.push_back(rng.uniformInt(n));
    std::vector<double> min_d(n, Inf);
    while (medoids.size() < k) {
        const std::size_t newest = medoids.back();
        dist.forEach(n, [&](auto &q, std::size_t i) {
            min_d[i] = std::min(min_d[i], q.exact(i, newest));
        });
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
    const auto assignOne = [&](auto &q, std::size_t i, double &best_d) {
        std::size_t best = 0;
        best_d = Inf;
        for (std::size_t c = 0; c < medoids.size(); ++c) {
            double d = 0.0;
            if (q.atMost(i, medoids[c], best_d, d) && d < best_d) {
                best_d = d;
                best = c;
            }
        }
        return best;
    };

    // One assignment pass. An item that is no medoid queries only its
    // pairs with the medoids, which no other item queries, so those
    // items fork. A medoid item queries pairs of two medoids, which
    // another medoid item queries too, so the medoid items run first,
    // serially, in ascending order (an item seeded as two medoids
    // runs once).
    std::vector<std::size_t> assign(n, 0);
    std::vector<double> best_d(n, 0.0);
    std::vector<std::size_t> others;
    others.reserve(n);
    const auto assignAll = [&] {
        others.clear();
        for (std::size_t i = 0; i < n; ++i) {
            if (std::find(medoids.begin(), medoids.end(), i) !=
                medoids.end())
                assign[i] = assignOne(dist, i, best_d[i]);
            else
                others.push_back(i);
        }
        dist.forEach(others.size(), [&](auto &q, std::size_t o) {
            const std::size_t i = others[o];
            assign[i] = assignOne(q, i, best_d[i]);
        });
    };

    std::vector<std::vector<std::size_t>> members(medoids.size());
    std::vector<std::size_t> elected(medoids.size());
    for (std::size_t iter = 0; iter < max_iter; ++iter) {
        assignAll();

        // Medoid re-election over explicit per-cluster member lists,
        // O(sum |c|^2), summing in ascending item order. A candidate
        // is dropped as soon as its partial sum plus a lower bound on
        // the next term reaches best_cost: the remaining terms are
        // nonnegative and the incumbent only falls to a strictly
        // smaller full sum, so the true winner is never dropped and
        // best_cost only ever holds fully-summed values. Clusters are
        // disjoint, so cluster c queries only pairs with both ends in
        // c: re-election forks over the clusters.
        for (auto &m : members)
            m.clear();
        for (std::size_t i = 0; i < n; ++i)
            members[assign[i]].push_back(i);

        dist.forEach(medoids.size(), [&](auto &q, std::size_t c) {
            std::size_t best = medoids[c];
            double best_cost = Inf;
            for (const std::size_t i : members[c]) {
                double cost = 0.0;
                bool viable = true;
                for (const std::size_t j : members[c]) {
                    if (cost + q.cheapLowerBound(i, j) >= best_cost) {
                        viable = false;
                        break;
                    }
                    cost += q.exact(i, j);
                }
                if (viable && cost < best_cost) {
                    best_cost = cost;
                    best = i;
                }
            }
            elected[c] = best;
        });
        if (elected == medoids)
            break;
        medoids = elected;
    }

    // Final assignment, and the cost summed in ascending item order.
    assignAll();
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        total += best_d[i];

    cl.medoids = std::move(medoids);
    cl.assignment = std::move(assign);
    cl.totalCost = total;
    return cl;
}

} // namespace rbv::core::detail

#endif // RBV_CORE_MODEL_KMEDOIDS_IMPL_HH
