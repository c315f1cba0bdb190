/**
 * @file
 * Runtime invariant checks: the dynamic half of the rbvlint wall.
 *
 * RBV_CHECK(expr) is always on and aborts (with a source location
 * and the failed expression) when the invariant does not hold; use
 * it for cheap checks on state transitions that must never be
 * violated regardless of build type — monotonic event time, cache
 * occupancy within capacity, counters that never regress.
 *
 * RBV_DCHECK(expr) marks a hot-path invariant; it is on in every
 * build, like RBV_CHECK. Both forms take an optional streamable
 * message:
 *
 *     RBV_CHECK(when >= now, "event scheduled " << when
 *                                << " before now=" << now);
 *
 * Failures print to stderr and abort() so that sanitizer builds,
 * ctest, and gtest death tests all observe them the same way. The
 * failure path never allocates conditionally on the hot path: the
 * message expression is only evaluated after the check has failed.
 */

#ifndef RBV_CORE_CHECK_HH
#define RBV_CORE_CHECK_HH

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace rbv::core {

/** Terminal handler shared by RBV_CHECK and RBV_DCHECK. */
[[noreturn]] inline void
checkFailed(const char *kind, const char *file, int line,
            const char *expr, const std::string &msg = std::string())
{
    std::cerr << kind << " failed: " << expr << " at " << file << ":"
              << line;
    if (!msg.empty())
        std::cerr << " — " << msg;
    std::cerr << std::endl;
    std::abort();
}

} // namespace rbv::core

// The message argument, when present, is a chain of `<<` operands.
#define RBV_CHECK_INTERNAL(kind, expr, ...)                            \
    do {                                                               \
        if (!(expr)) {                                                 \
            std::ostringstream rbv_check_msg;                          \
            static_cast<void>(                                         \
                rbv_check_msg __VA_OPT__(<< __VA_ARGS__));             \
            ::rbv::core::checkFailed(kind, __FILE__, __LINE__, #expr,  \
                                     rbv_check_msg.str());             \
        }                                                              \
    } while (false)

#define RBV_CHECK(expr, ...)                                           \
    RBV_CHECK_INTERNAL("RBV_CHECK", expr __VA_OPT__(, ) __VA_ARGS__)

#define RBV_DCHECK(expr, ...)                                          \
    RBV_CHECK_INTERNAL("RBV_DCHECK", expr __VA_OPT__(, ) __VA_ARGS__)

#endif // RBV_CORE_CHECK_HH
