/**
 * @file
 * Counter-register semantics tests: the pinned behavior is CLAMP, not
 * wrap — a counter total past the 40-bit register width reads as
 * pegged at max (detectable saturation), never as a plausible small
 * value, and degenerate totals read zero.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "sim/counters.hh"

using namespace rbv::sim;

TEST(CounterRegister, SmallTotalsPassThrough)
{
    EXPECT_EQ(toCounterRegister(0.0), 0u);
    EXPECT_EQ(toCounterRegister(1.0), 1u);
    EXPECT_EQ(toCounterRegister(123456.0), 123456u);
    EXPECT_EQ(toCounterRegister(123456.9), 123456u); // truncates
}

TEST(CounterRegister, ClampsAtMaxInsteadOfWrapping)
{
    // 2^41 would wrap to 0 under modulo-2^40 semantics; the pinned
    // behavior reads the register as pegged at max.
    const double past = std::ldexp(1.0, 41);
    EXPECT_EQ(toCounterRegister(past), CounterRegisterMax);
    EXPECT_EQ(toCounterRegister(
                  static_cast<double>(CounterRegisterMax) + 1.0),
              CounterRegisterMax);
    EXPECT_EQ(toCounterRegister(
                  std::numeric_limits<double>::infinity()),
              CounterRegisterMax);
    // Just below the cap is exact.
    EXPECT_EQ(toCounterRegister(1024.0), 1024u);
}

TEST(CounterRegister, DegenerateTotalsReadZero)
{
    EXPECT_EQ(toCounterRegister(-1.0), 0u);
    EXPECT_EQ(toCounterRegister(-1e30), 0u);
    EXPECT_EQ(toCounterRegister(std::nan("")), 0u);
    EXPECT_EQ(toCounterRegister(
                  -std::numeric_limits<double>::infinity()),
              0u);
}

TEST(PerfCounters, RegisterReadsPegAtSaturation)
{
    PerfCounters pc;
    // Accrue past the 40-bit width (2^40 - 1 is about 1.0995e12) on
    // cycles/instructions/refs; misses stay below it.
    pc.accrue(1e13, 2e13, 5e12, 1e12);
    const CounterSnapshot &t = pc.snapshot();
    EXPECT_EQ(toCounterRegister(t.cycles), CounterRegisterMax);
    EXPECT_EQ(toCounterRegister(t.instructions), CounterRegisterMax);
    EXPECT_EQ(toCounterRegister(t.l2Refs), CounterRegisterMax);
    EXPECT_EQ(toCounterRegister(t.l2Misses), 1000000000000u); // exact

    // The continuous snapshot keeps the true totals regardless.
    EXPECT_DOUBLE_EQ(t.cycles, 1e13);
    EXPECT_DOUBLE_EQ(t.l2Refs, 5e12);
}
