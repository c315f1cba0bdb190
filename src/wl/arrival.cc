/**
 * @file
 * Open-loop arrival process implementation.
 */

#include "wl/arrival.hh"

#include <cmath>
#include <stdexcept>

namespace rbv::wl {

namespace {

/** Burst mode: fraction of each period spent in the on phase. */
constexpr double BurstOnFraction = 0.25;
/** Burst mode: on-phase rate as a multiple of qps. */
constexpr double BurstMultiplier = 3.0;
/** Burst mode: square-wave period (simulated microseconds). */
constexpr double BurstPeriodUs = 1.0e6;

/** Diurnal mode: modulation amplitude in [0, 1). */
constexpr double DiurnalAmplitude = 0.8;
/** Diurnal mode: one simulated "day" (microseconds). */
constexpr double DiurnalPeriodUs = 10.0e6;

/** Flash mode: spike start (simulated microseconds). */
constexpr double FlashStartUs = 2.0e6;
/** Flash mode: spike duration (simulated microseconds). */
constexpr double FlashDurationUs = 1.0e6;
/** Flash mode: spike rate as a multiple of qps. */
constexpr double FlashMultiplier = 8.0;

// The off phase absorbs what the on phase takes above qps, so its
// rate stays non-negative only while the on phase carries at most
// the whole mean.
static_assert(BurstOnFraction > 0.0 && BurstOnFraction < 1.0);
static_assert(BurstMultiplier * BurstOnFraction <= 1.0);
static_assert(DiurnalAmplitude >= 0.0 && DiurnalAmplitude < 1.0);

} // namespace

ArrivalMode
arrivalModeFromName(const std::string &name)
{
    if (name == "poisson")
        return ArrivalMode::Poisson;
    if (name == "burst")
        return ArrivalMode::Burst;
    if (name == "diurnal")
        return ArrivalMode::Diurnal;
    if (name == "flash" || name == "flash-crowd")
        return ArrivalMode::FlashCrowd;
    throw std::invalid_argument("unknown arrival mode: " + name);
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig &config,
                               stats::Rng rng_)
    : cfg(config), rng(rng_)
{
    if (cfg.qps <= 0.0)
        throw std::invalid_argument("arrival qps must be positive");
}

double
ArrivalProcess::ratePerUs(double t_us) const
{
    const double base = cfg.qps / 1.0e6;
    switch (cfg.mode) {
      case ArrivalMode::Poisson:
        return base;
      case ArrivalMode::Burst: {
        // On/off square wave with the same long-run mean as qps: the
        // on phase runs at mult * qps, the off phase absorbs the rest.
        const double phase = std::fmod(t_us, BurstPeriodUs) / BurstPeriodUs;
        if (phase < BurstOnFraction)
            return base * BurstMultiplier;
        const double off = (1.0 - BurstMultiplier * BurstOnFraction) /
                           (1.0 - BurstOnFraction);
        return base * off;
      }
      case ArrivalMode::Diurnal: {
        const double phase = 2.0 * M_PI * t_us / DiurnalPeriodUs;
        return base * (1.0 + DiurnalAmplitude * std::sin(phase));
      }
      case ArrivalMode::FlashCrowd: {
        if (t_us >= FlashStartUs && t_us < FlashStartUs + FlashDurationUs)
            return base * FlashMultiplier;
        return base;
      }
    }
    return base;
}

double
ArrivalProcess::peakRatePerUs() const
{
    const double base = cfg.qps / 1.0e6;
    switch (cfg.mode) {
      case ArrivalMode::Poisson:
        return base;
      case ArrivalMode::Burst:
        return base * BurstMultiplier;
      case ArrivalMode::Diurnal:
        return base * (1.0 + DiurnalAmplitude);
      case ArrivalMode::FlashCrowd:
        return base * FlashMultiplier;
    }
    return base;
}

double
ArrivalProcess::nextGapUs()
{
    // Lewis-Shedler thinning: draw candidates at the peak rate and
    // accept each with probability rate(t) / peak. The accepted
    // points form an inhomogeneous Poisson process with the exact
    // rate function, with no per-mode sampling code.
    const double peak = peakRatePerUs();
    const double start = clock;
    for (;;) {
        clock += rng.exponential(1.0 / peak);
        if (rng.uniform() * peak <= ratePerUs(clock))
            return clock - start;
    }
}

} // namespace rbv::wl
