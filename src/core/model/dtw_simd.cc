/**
 * @file
 * Anti-diagonal DTW kernel implementations.
 *
 * Wavefront layout: diagonal d holds cells (i, d-i) for
 * i in [max(0, d-n+1), min(d, m-1)], each at row index i. The two
 * boundary cells of a diagonal, i == 0 (DP row 0) and i == d (DP
 * column 0), are computed apart from the inner loop, so every cell
 * the inner loop computes has i >= 1 and j >= 1, and its three
 * neighbours are real cells of diagonals d-1 and d-2: no sentinel or
 * wall is ever read.
 *
 * The inner loop runs whole groups of Pad + 1 = 4 lanes, so it may
 * compute up to Pad cells past the top of its range. x and the
 * reversed y are staged with Pad trailing zeros and each row has Pad
 * spare slots, so those lanes stay in bounds (no kernel reads past
 * the caller's series). Their values are never read as cells: the
 * column-0 cell, which the overrun can cover, is written after the
 * inner loop, and the other lanes lie past the diagonal's range.
 *
 * y is staged reversed (yr[k] = y[n-1-k]) so the inner loop reads
 * both series with stride +1: x[i] pairs with yr[n-1-d+i].
 *
 * The abandoning form keeps rm[i], the running minimum of DP row i.
 * The inner loop updates it at the indices it writes; the row's
 * column-0 cell *assigns* it, on diagonal i, which erases whatever
 * the overrun lanes of earlier diagonals folded in. Row d-n+1 is
 * complete after diagonal d.
 */

#include "core/model/dtw_simd.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.hh"
#include "core/model/distance_scratch.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define RBV_DTW_X86 1
#else
#define RBV_DTW_X86 0
#endif

namespace rbv::core::detail {

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/** Lanes the inner loop may compute past its range (a vector, less 1). */
constexpr std::size_t Pad = 3;

/**
 * The one wavefront loop: stages x, yr and the three rows, seeds
 * diagonal 0, computes each later diagonal's boundary cells and runs
 * Inner over its interior. Inner computes cells [lo, hi] (and up to
 * Pad more) of diagonal d into cur from prev1/prev2, folding them
 * into rm when Abandon. Abandon is a compile-time flag so the full
 * DP's loop does no extra work.
 */
template <bool Abandon, typename Inner>
double
diagDrive(const double *x, std::size_t m, const double *y,
          std::size_t n, double p, double cutoff,
          DistanceScratch &scratch, Inner &&inner)
{
    const std::size_t row = m + Pad;
    double *buf = scratch.diagTriple(row);
    double *xs = scratch.xStageBuf(m + Pad);
    double *yr = scratch.yRevBuf(n + Pad);
    double *rm = Abandon ? scratch.rowMinBuf(m + Pad) : nullptr;
    std::copy(x, x + m, xs);
    std::fill(xs + m, xs + m + Pad, 0.0);
    for (std::size_t k = 0; k < n; ++k)
        yr[k] = y[n - 1 - k];
    std::fill(yr + n, yr + n + Pad, 0.0);

    double *prev2 = buf;            // diagonal d-2
    double *prev1 = buf + row;      // diagonal d-1
    double *cur = buf + 2 * row;    // diagonal d

    prev1[0] = std::abs(xs[0] - yr[n - 1]); // cell (0, 0), diagonal 0
    if constexpr (Abandon) {
        rm[0] = prev1[0];
        if (n == 1 && rm[0] >= cutoff)
            return Inf;
    }

    const std::size_t last = m + n - 2;
    for (std::size_t d = 1; d <= last; ++d) {
        const std::size_t ilo = d >= n ? d - n + 1 : 0;
        const std::size_t ihi = std::min(d, m - 1);
        // yr index of cell (i, d-i) is n-1-d+i; nonnegative for
        // i >= ilo by construction. The base offset n-1-d can be
        // negative, so compute it signed; every access yd[i] with
        // i >= ilo lands back inside yr.
        const double *yd = yr + (static_cast<std::ptrdiff_t>(n) - 1 -
                                 static_cast<std::ptrdiff_t>(d));
        // The reference evaluates the boundary cells as
        // (neighbor + |x-y|) + p, a different association order than
        // the interior recurrence, so they are computed here, its
        // way, and the inner loop runs on the interior only.
        std::size_t lo = ilo, hi = ihi;
        if (lo == 0) {
            cur[0] = prev1[0] + std::abs(xs[0] - yd[0]) + p;
            if constexpr (Abandon)
                rm[0] = std::min(rm[0], cur[0]);
            lo = 1;
        }
        const bool column0 = hi == d;
        if (column0)
            --hi;
        inner(cur, prev1, prev2, xs, yd, rm, lo, hi, p);
        if (column0) {
            cur[d] = prev1[d - 1] + std::abs(xs[d] - yd[d]) + p;
            if constexpr (Abandon)
                rm[d] = cur[d]; // row d starts here
        }
        if constexpr (Abandon) {
            if (d + 1 >= n && rm[d + 1 - n] >= cutoff)
                return Inf;
        }
        double *tmp = prev2;
        prev2 = prev1;
        prev1 = cur;
        cur = tmp;
    }
    return prev1[m - 1]; // cell (m-1, n-1)
}

/**
 * Portable inner loop over cells [lo, hi] of one diagonal, in whole
 * groups of Pad + 1 lanes. Lane i is cell (i, d-i): it reads its
 * diagonal neighbour prev2[i-1], the cell above prev1[i-1] and the
 * cell to the left prev1[i], writes cur[i], and when Abandon folds it
 * into its row's minimum rm[i].
 */
template <bool Abandon>
inline void
scalarInner(double *cur, const double *prev1, const double *prev2,
            const double *x, const double *yd, double *rm,
            std::size_t lo, std::size_t hi, double p)
{
    for (std::size_t i = lo; i <= hi; i += Pad + 1) {
        for (std::size_t k = i; k <= i + Pad; ++k) {
            const double best =
                std::min(prev2[k - 1],
                         std::min(prev1[k - 1], prev1[k]) + p);
            cur[k] = best + std::abs(x[k] - yd[k]);
            if constexpr (Abandon)
                rm[k] = std::min(rm[k], cur[k]);
        }
    }
}

/**
 * The full wavefront, or the abandoning one when the cutoff is below
 * +inf; @p full and @p abandoning are the two forms of one inner loop.
 */
template <typename Full, typename Abandoning>
double
diagRun(const double *x, std::size_t m, const double *y, std::size_t n,
        double p, double cutoff, DistanceScratch &scratch, Full &&full,
        Abandoning &&abandoning)
{
    RBV_DCHECK(m >= 1 && n >= 1, "DTW kernels require nonempty series");
    if (cutoff < Inf)
        return diagDrive<true>(x, m, y, n, p, cutoff, scratch,
                               abandoning);
    return diagDrive<false>(x, m, y, n, p, cutoff, scratch, full);
}

} // namespace

double
dtwDiagScalar(const double *x, std::size_t m, const double *y,
              std::size_t n, double async_penalty, double cutoff,
              DistanceScratch &scratch)
{
    return diagRun(x, m, y, n, async_penalty, cutoff, scratch,
                   scalarInner<false>, scalarInner<true>);
}

#if RBV_DTW_X86

namespace {

/** Cells [i, i+4) of one diagonal; see scalarInner for the lanes. */
template <bool Abandon>
__attribute__((target("avx2"))) inline void
avx2Cells(double *cur, const double *prev1, const double *prev2,
          const double *x, const double *yd, double *rm, std::size_t i,
          __m256d vp, __m256d sign)
{
    const __m256d up_left = _mm256_min_pd(_mm256_loadu_pd(prev1 + i - 1),
                                          _mm256_loadu_pd(prev1 + i));
    const __m256d best = _mm256_min_pd(_mm256_loadu_pd(prev2 + i - 1),
                                       _mm256_add_pd(up_left, vp));
    const __m256d diff =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(yd + i));
    const __m256d cell = _mm256_add_pd(best, _mm256_andnot_pd(sign, diff));
    _mm256_storeu_pd(cur + i, cell);
    if constexpr (Abandon)
        _mm256_storeu_pd(rm + i,
                         _mm256_min_pd(_mm256_loadu_pd(rm + i), cell));
}

/**
 * AVX2 inner loop: four vectors per iteration while all four have a
 * lane in range (measured faster than one per iteration at the
 * series lengths the model sees), then one vector at a time, so the
 * overrun stays within Pad lanes.
 */
template <bool Abandon>
__attribute__((target("avx2"))) inline void
avx2Inner(double *cur, const double *prev1, const double *prev2,
          const double *x, const double *yd, double *rm, std::size_t lo,
          std::size_t hi, double p)
{
    const __m256d vp = _mm256_set1_pd(p);
    const __m256d sign = _mm256_set1_pd(-0.0);
    std::size_t i = lo;
    for (; i + 12 <= hi; i += 16) {
        avx2Cells<Abandon>(cur, prev1, prev2, x, yd, rm, i, vp, sign);
        avx2Cells<Abandon>(cur, prev1, prev2, x, yd, rm, i + 4, vp, sign);
        avx2Cells<Abandon>(cur, prev1, prev2, x, yd, rm, i + 8, vp, sign);
        avx2Cells<Abandon>(cur, prev1, prev2, x, yd, rm, i + 12, vp,
                           sign);
    }
    for (; i <= hi; i += 4)
        avx2Cells<Abandon>(cur, prev1, prev2, x, yd, rm, i, vp, sign);
}

} // namespace

__attribute__((target("avx2"))) double
dtwDiagAvx2(const double *x, std::size_t m, const double *y,
            std::size_t n, double async_penalty, double cutoff,
            DistanceScratch &scratch)
{
    return diagRun(x, m, y, n, async_penalty, cutoff, scratch,
                   avx2Inner<false>, avx2Inner<true>);
}

bool
dtwAvx2Available()
{
    return __builtin_cpu_supports("avx2") != 0;
}

#else // !RBV_DTW_X86

double
dtwDiagAvx2(const double *x, std::size_t m, const double *y,
            std::size_t n, double async_penalty, double cutoff,
            DistanceScratch &scratch)
{
    return dtwDiagScalar(x, m, y, n, async_penalty, cutoff, scratch);
}

bool
dtwAvx2Available()
{
    return false;
}

#endif // RBV_DTW_X86

const char *
dtwKernelId()
{
    return dtwAvx2Available() ? "avx2" : "scalar";
}

} // namespace rbv::core::detail
