/**
 * @file
 * Reference (pre-optimization) differencing kernels.
 *
 * These are the straightforward textbook implementations the fast
 * path in distance.cc replaced: allocating rolling-row DTW, the
 * copy-then-DP Levenshtein, and the serial std::function-driven
 * distance matrix build. They are kept compiled and exported for two
 * consumers:
 *
 *  - the golden-equivalence suites (tests/distance_perf_test.cc,
 *    tests/distance_cascade_test.cc), which require the optimized
 *    kernels to match these to the last bit on randomized inputs;
 *  - bench_micro_distance_cost, whose before/after table and
 *    --json-out trajectory report the measured speedup against
 *    exactly this code.
 *
 * Nothing on a hot path may call into rbv::core::ref.
 */

#ifndef RBV_CORE_MODEL_DISTANCE_REF_HH
#define RBV_CORE_MODEL_DISTANCE_REF_HH

#include <functional>
#include <vector>

#include "core/model/kmedoids.hh"
#include "core/timeline.hh"
#include "os/syscall.hh"

namespace rbv::core::ref {

/** Textbook rolling-row DTW; allocates two rows per call. */
double dtwDistance(const MetricSeries &x, const MetricSeries &y,
                   double async_penalty = 0.0);

/**
 * Rolling-row early-abandoning DTW; allocates two rows per call.
 * Returns +inf at the first DP row whose minimum is >= @p cutoff,
 * else the exact DTW value: the decision every fast kernel must
 * make.
 */
double dtwDistanceEarlyAbandon(const MetricSeries &x,
                               const MetricSeries &y,
                               double async_penalty, double cutoff);

/** Subsample-by-copy plus full-DP Levenshtein. */
double levenshteinDistance(const std::vector<os::Sys> &a,
                           const std::vector<os::Sys> &b,
                           std::size_t max_len = 512);

/**
 * The pre-PR serial matrix build: walks the upper triangle through a
 * std::function indirection, exactly as DistanceMatrix::build did
 * before the templated parallel version.
 */
DistanceMatrix distanceMatrixBuild(
    std::size_t n,
    const std::function<double(std::size_t, std::size_t)> &dist);

} // namespace rbv::core::ref

#endif // RBV_CORE_MODEL_DISTANCE_REF_HH
