/**
 * @file
 * Anti-diagonal (wavefront) DTW kernels with runtime SIMD dispatch.
 *
 * The classic rolling-row DTW recurrence is latency-bound: cell
 * (i, j) needs cell (i, j-1) from the same row, so the inner loop is
 * one serial add/min dependency chain. Cells on one anti-diagonal
 * (i + j = d) have no dependencies among themselves — they only read
 * diagonals d-1 and d-2 — so evaluating the DP wavefront-by-wavefront
 * exposes both instruction-level parallelism and clean SIMD lanes.
 *
 * Exactness contract (the repo's iron rule, docs/PERFORMANCE.md):
 * every kernel here computes, per cell, the value of the reference
 * recurrence
 *
 *     cell(i,j) = min3(cell(i-1,j-1), cell(i-1,j)+p, cell(i,j-1)+p)
 *               + |x_i - y_j|
 *
 * to the last bit. The interior evaluates the min as
 * min(diag, min(up, left) + p): adding p rounds monotonically, so
 * fl(min(b, c) + p) == min(fl(b + p), fl(c + p)), and min over
 * cells that are never NaN and never -0 is order-exact. The
 * recurrence contains no multiplications, so no FMA contraction can
 * perturb rounding. Results are therefore bit-identical to
 * rbv::core::ref::dtwDistance on every path (AVX2, portable), which
 * the golden and property suites assert on randomized inputs.
 *
 * Each kernel also has an early-abandoning form, selected by a
 * cutoff below +inf: it keeps a running minimum per DP row, tests
 * each row as soon as the wavefront completes it (row r after
 * diagonal r + n - 1), and returns +inf at the first row whose
 * minimum is >= cutoff. Rows complete in order 0..m-1, the order the
 * rolling-row kernel tests them, so both make the same decision and
 * the result is bit-identical to rbv::core::ref::dtwDistanceEarlyAbandon.
 *
 * Dispatch is decided per call from the CPU feature set (GCC's
 * cpu_supports builtin reads a libgcc-initialized model block; no
 * mutable state of ours), so there is no global kernel registry and
 * nothing for rbvlint R2 to see.
 */

#ifndef RBV_CORE_MODEL_DTW_SIMD_HH
#define RBV_CORE_MODEL_DTW_SIMD_HH

#include <cstddef>

namespace rbv::core {

struct DistanceScratch;

namespace detail {

/**
 * Portable anti-diagonal DTW. Requires m >= 1 and n >= 1; DP storage
 * comes from @p scratch (three wavefront rows, padded copies of x
 * and of the reversed y so every lane load is contiguous, and the
 * row minima of the abandoning form). With @p cutoff below +inf it
 * returns +inf once a complete DP row's minimum is >= cutoff.
 */
double dtwDiagScalar(const double *x, std::size_t m, const double *y,
                     std::size_t n, double async_penalty, double cutoff,
                     DistanceScratch &scratch);

/**
 * AVX2 anti-diagonal DTW (4 cells per vector op). Same contract and
 * bit-identical results; callers must check dtwAvx2Available() first.
 * On non-x86 builds this symbol exists but must not be called.
 */
double dtwDiagAvx2(const double *x, std::size_t m, const double *y,
                   std::size_t n, double async_penalty, double cutoff,
                   DistanceScratch &scratch);

/** True when the host CPU can run the AVX2 kernel. */
bool dtwAvx2Available();

/** Dispatch target name for reports: "avx2" or "scalar". */
const char *dtwKernelId();

} // namespace detail

} // namespace rbv::core

#endif // RBV_CORE_MODEL_DTW_SIMD_HH
