/**
 * @file
 * k-medoids implementation.
 */

#include "core/model/kmedoids.hh"

#include <cmath>

#include "core/check.hh"
#include "core/model/kmedoids_impl.hh"
#include "obs/obs.hh"

namespace rbv::core {

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
 * elects the same medoid. Its queries are memory reads, too cheap to
 * pay for a fork, so forEach runs serially.
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

    template <typename Body>
    void
    forEach(std::size_t count, Body &&body) const
    {
        for (std::size_t i = 0; i < count; ++i)
            body(*this, i);
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
