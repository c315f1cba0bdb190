/**
 * @file
 * Per-core hardware performance counters.
 *
 * Models the Xeon 5160 counter architecture the paper relies on: two
 * fixed counters (non-halt CPU cycles and retired instructions) plus
 * the two general-purpose counters, which the paper programs once to
 * L2 references and L2 misses. The model keeps those four event
 * totals and nothing else.
 */

#ifndef RBV_SIM_COUNTERS_HH
#define RBV_SIM_COUNTERS_HH

#include <cstdint>

#include "core/check.hh"

namespace rbv::sim {

/**
 * Architectural width of a counter register read, in bits. The
 * Core-2-era fixed and general counters are 40 bits wide.
 */
constexpr int CounterRegisterBits = 40;

/** Largest value a counter register read can report. */
constexpr std::uint64_t CounterRegisterMax =
    (std::uint64_t{1} << CounterRegisterBits) - 1;

/**
 * Convert a continuous counter total to its integer register read.
 * The pinned semantics are CLAMP, not wrap: a total past the
 * register width reads as "pegged at max", which samplers can detect
 * as saturation, instead of silently restarting from zero and faking
 * a plausible small value. Negative and non-finite totals read zero
 * (impossible on real hardware, but a fault-injected read must still
 * produce a defined register value).
 */
constexpr std::uint64_t
toCounterRegister(double total)
{
    if (!(total > 0.0))
        return 0;
    if (total >= static_cast<double>(CounterRegisterMax))
        return CounterRegisterMax;
    return static_cast<std::uint64_t>(total);
}

/**
 * Snapshot of the event totals a sampler reads.
 *
 * Values are continuous (double) internally; toCounterRegister() gives
 * a total's integer register read. All experiments consume deltas of
 * these fields.
 */
struct CounterSnapshot
{
    double cycles = 0.0;       ///< Non-halt CPU cycles (fixed ctr 0).
    double instructions = 0.0; ///< Retired instructions (fixed ctr 1).
    double l2Refs = 0.0;       ///< L2 cache references.
    double l2Misses = 0.0;     ///< L2 cache misses.

    CounterSnapshot
    operator-(const CounterSnapshot &o) const
    {
        return {cycles - o.cycles, instructions - o.instructions,
                l2Refs - o.l2Refs, l2Misses - o.l2Misses};
    }

    CounterSnapshot &
    operator+=(const CounterSnapshot &o)
    {
        cycles += o.cycles;
        instructions += o.instructions;
        l2Refs += o.l2Refs;
        l2Misses += o.l2Misses;
        return *this;
    }
};

/**
 * The per-core counter register file.
 *
 * The simulator accrues events through accrue(); samplers read
 * snapshot().
 */
class PerfCounters
{
  public:
    /**
     * Accrue events. Called by the core execution model at every
     * resynchronization and by observer-effect injection.
     */
    void
    accrue(double cycles, double instructions, double l2_refs,
           double l2_misses)
    {
        // Hardware counters only count up: a negative accrual would
        // make a snapshot delta regress, silently corrupting every
        // sampled timeline downstream. The tolerance absorbs the
        // sub-event rounding residue of proportional fixed-work
        // draining.
        constexpr double tol = -1e-6;
        RBV_DCHECK(cycles >= tol && instructions >= tol &&
                       l2_refs >= tol && l2_misses >= tol,
                   "counter accrual regressed: cycles="
                       << cycles << " ins=" << instructions
                       << " refs=" << l2_refs << " misses="
                       << l2_misses);
        totals.cycles += cycles;
        totals.instructions += instructions;
        totals.l2Refs += l2_refs;
        totals.l2Misses += l2_misses;
    }

    /** Continuous snapshot of the canonical event totals. */
    const CounterSnapshot &snapshot() const { return totals; }

  private:
    CounterSnapshot totals;
};

} // namespace rbv::sim

#endif // RBV_SIM_COUNTERS_HH
