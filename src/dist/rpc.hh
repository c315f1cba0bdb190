/**
 * @file
 * Per-hop RPC policy: deadlines, bounded retries with deterministic
 * exponential backoff, and optional hedged second requests.
 *
 * Every retry/backoff decision is drawn from a stateless lottery over
 * (seed, global request id, attempt) — `fi::unitIntervalHash` — so a
 * cluster run's retry schedule is a pure function of the seed and is
 * byte-identical at any `--jobs` level and across reruns. The policy
 * object itself is immutable configuration; per-request state lives
 * in the Topology.
 */

#ifndef RBV_DIST_RPC_HH
#define RBV_DIST_RPC_HH

#include <cstddef>
#include <cstdint>

#include "sim/types.hh"

namespace rbv::dist {

/** Backoff before the first retry (see RpcPolicy::backoffTicks). */
constexpr sim::Tick RpcBackoffBaseTicks = sim::usToCycles(100.0);

/** Retry/timeout/hedging knobs of one tier hop. */
struct RpcPolicy
{
    /** Per-attempt deadline, measured from the attempt's send. */
    sim::Tick deadlineTicks = sim::usToCycles(2000.0);

    /** Total attempts per hop (first try + retries), >= 1. */
    int maxAttempts = 3;

    /**
     * Hedge a second attempt when the first is slower than this
     * quantile of the tier's observed hop latency; 0 disables
     * hedging.
     */
    double hedgeQuantile = 0.0;

    /**
     * Deterministic backoff delay before retry @p attempt (1-based)
     * of global request @p gid: RpcBackoffBaseTicks * 2^(attempt-1),
     * scaled by a jitter in [0.75, 1.25) from a stateless lottery
     * keyed on (seed, gid, attempt).
     */
    sim::Tick backoffTicks(std::uint64_t seed, std::int64_t gid,
                           int attempt) const;
};

/** Aggregate RPC statistics of one topology run. */
struct RpcStats
{
    std::uint64_t attempts = 0;   ///< RPCs sent (incl. retries/hedges).
    std::uint64_t timeouts = 0;   ///< Attempts that hit their deadline.
    std::uint64_t retries = 0;    ///< Retry attempts issued.
    std::uint64_t hedges = 0;     ///< Hedged attempts issued.
    std::uint64_t failovers = 0;  ///< Retries that switched replica.
    std::uint64_t lateReplies = 0; ///< Replies for abandoned attempts.
    std::uint64_t noReplica = 0;  ///< Sends with every breaker open.
};

} // namespace rbv::dist

#endif // RBV_DIST_RPC_HH
