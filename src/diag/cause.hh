/**
 * @file
 * The diagnosis cause taxonomy: every class the rbv::diag layer can
 * attribute a detected anomaly to. The ground-truth labels of the
 * diagnosis evaluation come from the fi injection log (labelOf in
 * eval.hh).
 */

#ifndef RBV_DIAG_CAUSE_HH
#define RBV_DIAG_CAUSE_HH

#include <cstddef>
#include <cstdint>

namespace rbv::diag {

/**
 * Root-cause classes. The first five are concrete attributions; a
 * detection whose best rule score stays under the classifier floor
 * falls back to Unknown rather than guessing.
 */
enum class Cause : std::uint8_t
{
    CacheContention,     ///< Shared-L2 interference (the paper's Fig. 8).
    BandwidthSaturation, ///< Memory-bandwidth pressure: misses got slower.
    InjectedStall,       ///< fi req-stuck / sys-stall request faults.
    CounterArtifact,     ///< Corrupted/saturated counters, sampling gaps.
    SchedInterference,   ///< Core-level slowdown hitting many requests.
    Unknown,             ///< Evidence too ambiguous to attribute.
    Count_,
};

constexpr std::size_t NumCauses =
    static_cast<std::size_t>(Cause::Count_);

/** Canonical report name ("cache-contention", "unknown", ...). */
const char *causeName(Cause c);

} // namespace rbv::diag

#endif // RBV_DIAG_CAUSE_HH
