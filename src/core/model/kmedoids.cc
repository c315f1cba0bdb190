/**
 * @file
 * k-medoids implementation.
 */

#include "core/model/kmedoids.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "core/check.hh"
#include "core/model/kmedoids_impl.hh"
#include "obs/obs.hh"

namespace rbv::core {

namespace detail {

void
parallelFor(std::size_t count, int jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    std::size_t workers = jobs > 0
        ? static_cast<std::size_t>(jobs)
        : std::max(1u, std::thread::hardware_concurrency());
    workers = std::min(workers, count);
    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // Chunked dynamic claiming: rows near the top of the triangle
    // are much longer than rows near the bottom, so static slicing
    // would leave workers idle — but claiming one index per atomic
    // op serializes workers on the cursor cache line when fn is
    // cheap (BENCH_distance.json once recorded the parallel matrix
    // build at 0.95x serial for exactly that reason). Workers now
    // steal a stripe of consecutive indices per claim: few enough
    // stripes per worker to keep the tail balanced, few enough
    // atomic ops to stay off each other's cache lines. Indices stay
    // disjoint and every index runs exactly once, so the caller's
    // purity contract keeps results byte-identical at any thread
    // count, exactly as before.
    //
    // Each worker counts into a private obs shard that folds into the
    // forking thread's after the join, so metric totals do not
    // depend on the worker count either.
    const std::size_t chunk =
        std::max<std::size_t>(1, count / (workers * 8));
    std::atomic<std::size_t> cursor{0};
    obs::PoolShards shards(workers);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&, w]() {
            const obs::PoolShards::Scope scope(shards, w);
            for (;;) {
                const std::size_t start = cursor.fetch_add(
                    chunk, std::memory_order_relaxed);
                if (start >= count)
                    return;
                const std::size_t stop =
                    std::min(count, start + chunk);
                for (std::size_t i = start; i < stop; ++i)
                    fn(i);
            }
        });
    }
    for (auto &t : pool)
        t.join();
    shards.fold();
}

} // namespace detail

std::vector<std::size_t>
Clustering::membersOf(std::size_t cluster) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < assignment.size(); ++i)
        if (assignment[i] == cluster)
            out.push_back(i);
    return out;
}

namespace {

/**
 * A full matrix as the k-medoids distance oracle: every query is
 * answered exactly, and the lower bound is the exact cell. The
 * re-election check `cost + at(i, j) >= best_cost` then computes the
 * very partial sum the check before the next term would see, so it
 * drops the same candidates one term sooner (or after their last
 * term, when their full sum could not win the strict < anyway) and
 * elects the same medoid.
 */
struct MatrixOracle
{
    const DistanceMatrix &dm;

    std::size_t size() const { return dm.size(); }

    double exact(std::size_t i, std::size_t j) const { return dm.at(i, j); }

    bool
    atMost(std::size_t i, std::size_t j, double, double &d) const
    {
        d = dm.at(i, j);
        return true;
    }

    double
    cheapLowerBound(std::size_t i, std::size_t j) const
    {
        return dm.at(i, j);
    }
};

} // namespace

Clustering
kMedoids(const DistanceMatrix &dm, std::size_t k, stats::Rng &rng,
         std::size_t max_iter)
{
    MatrixOracle oracle{dm};
    return detail::kMedoidsOver(oracle, k, rng, max_iter);
}

double
divergenceFromCentroid(const Clustering &cl,
                       const std::vector<double> &prop)
{
    RBV_CHECK(prop.size() == cl.assignment.size(),
              "divergenceFromCentroid: " << prop.size()
                                         << " properties for "
                                         << cl.assignment.size()
                                         << " items");
    if (cl.assignment.empty())
        return 0.0;
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < cl.assignment.size(); ++i) {
        const std::size_t medoid = cl.medoids[cl.assignment[i]];
        const double pc = prop[medoid];
        if (pc == 0.0)
            continue;
        sum += std::abs(prop[i] - pc) / std::abs(pc);
        ++count;
    }
    return count ? sum / static_cast<double>(count) : 0.0;
}

} // namespace rbv::core
