/**
 * @file
 * Deterministic RPC backoff schedule.
 */

#include "dist/rpc.hh"

#include <algorithm>
#include <cmath>

#include "fi/plan.hh"

namespace rbv::dist {

namespace {

/** Growth of the backoff per retry. */
constexpr double RpcBackoffFactor = 2.0;

/** Jitter fraction: the backoff is scaled by 1 +- RpcJitterFrac/2. */
constexpr double RpcJitterFrac = 0.5;

} // namespace

sim::Tick
RpcPolicy::backoffTicks(std::uint64_t seed, std::int64_t gid,
                        int attempt) const
{
    const double expo =
        std::pow(RpcBackoffFactor, static_cast<double>(attempt - 1));
    // Stateless lottery: invariant across --jobs and reruns.
    const double u = fi::unitIntervalHash(
        seed, 0xb0ff00u + static_cast<std::uint64_t>(attempt),
        static_cast<std::uint64_t>(gid));
    const double jitter = 1.0 + RpcJitterFrac * (u - 0.5);
    const double ticks =
        static_cast<double>(RpcBackoffBaseTicks) * expo * jitter;
    return std::max<sim::Tick>(static_cast<sim::Tick>(ticks), 1);
}

} // namespace rbv::dist
