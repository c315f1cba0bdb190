/**
 * @file
 * Per-thread scratch arena for the request differencing kernels.
 *
 * Every modeling result sits on O(n^2) pairwise differencing, so the
 * kernels run millions of times per campaign. The naive versions
 * allocated two fresh DP rows (and, for Levenshtein, two subsampled
 * copies) per call; at steady state that is pure allocator churn.
 * DistanceScratch owns all of that storage and only ever grows it,
 * so after the first few calls on a thread every kernel invocation
 * is allocation-free.
 *
 * Contract (see docs/PERFORMANCE.md):
 *
 *  - One arena per thread, obtained via threadDistanceScratch().
 *    Arenas are never shared, so the kernels stay safe under the
 *    parallel DistanceMatrix build and the experiment engine.
 *  - Buffers grow monotonically (reserve-like semantics). Each
 *    kernel writes every element its result depends on before
 *    reading it (the anti-diagonal kernels' padding lanes may read
 *    leftovers, but no cell reads those lanes); no kernel result
 *    ever depends on leftover contents, so reuse cannot perturb
 *    determinism.
 *  - The arena is an implementation detail of the kernels in
 *    distance.cc; nothing outside the model layer should reach into
 *    the buffers.
 */

#ifndef RBV_CORE_MODEL_DISTANCE_SCRATCH_HH
#define RBV_CORE_MODEL_DISTANCE_SCRATCH_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "os/syscall.hh"

namespace rbv::core {

/** Reusable buffers for the DTW / Levenshtein kernels. */
struct DistanceScratch
{
    /** Two flat DTW DP rows, stored back to back (2 * rowLen). */
    std::vector<double> dtwRows;

    /** Myers Peq table: one 64-bit mask per (symbol, block). */
    std::vector<std::uint64_t> peq;

    /** Myers vertical delta vectors, one word per pattern block. */
    std::vector<std::uint64_t> myersPv;
    std::vector<std::uint64_t> myersMv;

    /** Subsample staging for the two syscall sequences. */
    std::vector<os::Sys> subA;
    std::vector<os::Sys> subB;

    /** Three anti-diagonal wavefront rows (3 * rowLen, dtw_simd). */
    std::vector<double> diagRows;

    /** Padded copy of x for the anti-diagonal kernels. */
    std::vector<double> xStage;

    /** Padded reversed copy of y for the anti-diagonal kernels. */
    std::vector<double> yRevStage;

    /** Running DP row minima of the early-abandoning wavefront. */
    std::vector<double> rowMins;

    /** Query-side prefix-sum staging for the signature-bank prune. */
    std::vector<double> sigPrefix;

    /**
     * The two DTW rows as raw pointers: element [0] and [rowLen] of
     * one grown flat buffer, so both rows come from one allocation
     * and stay hot in cache together.
     */
    std::pair<double *, double *>
    dtwRowPair(std::size_t row_len)
    {
        if (dtwRows.size() < 2 * row_len)
            dtwRows.resize(2 * row_len);
        return {dtwRows.data(), dtwRows.data() + row_len};
    }

    /**
     * Three anti-diagonal wavefront rows as one flat buffer of
     * 3 * row_len doubles (see dtw_simd.cc for the layout).
     */
    double *
    diagTriple(std::size_t row_len)
    {
        return grown(diagRows, 3 * row_len);
    }

    /** Staging buffer for the first series (@p n doubles). */
    double *xStageBuf(std::size_t n) { return grown(xStage, n); }

    /** Staging buffer for the reversed second series. */
    double *yRevBuf(std::size_t n) { return grown(yRevStage, n); }

    /** One running minimum per DP row. */
    double *rowMinBuf(std::size_t n) { return grown(rowMins, n); }

  private:
    static double *
    grown(std::vector<double> &v, std::size_t n)
    {
        if (v.size() < n)
            v.resize(n);
        return v.data();
    }
};

/**
 * The calling thread's arena. Thread-lifetime storage: the first call
 * on a thread constructs it, kernels grow it, and it dies with the
 * thread.
 */
DistanceScratch &threadDistanceScratch();

} // namespace rbv::core

#endif // RBV_CORE_MODEL_DISTANCE_SCRATCH_HH
