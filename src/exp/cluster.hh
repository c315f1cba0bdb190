/**
 * @file
 * Multi-tier cluster run loop (docs/CLUSTER.md): the one driver
 * behind rbv_cluster and bench_cluster_resilience, shaped like
 * runServe(). Arrivals are drawn lazily, one pending at a time, so
 * the loop's own state does not grow with the request count. Every
 * report line is simulation-deterministic, and a fault plan only
 * appends to the report of a run without one.
 */

#ifndef RBV_EXP_CLUSTER_HH
#define RBV_EXP_CLUSTER_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>

#include "dist/rpc.hh"
#include "dist/topology.hh"
#include "fi/plan.hh"

namespace rbv::exp {

/** Configuration of one cluster run. */
struct ClusterConfig
{
    dist::TopologySpec topo;
    dist::RpcPolicy policy;
    std::uint64_t seed = 1;
    double qps = 2000.0;          ///< Mean arrival rate (per sim s).
    std::size_t requests = 2000;  ///< Arrivals to generate (> 0).

    /** Emit a checkpoint line every this many resolutions (0 = none). */
    std::size_t checkpointEvery = 0;

    /** Cluster fault plan (node-* and link-* kinds); none = no faults. */
    std::optional<fi::FaultPlan> faults;

    /** Append the join of failed requests against the injection log. */
    bool diagnose = false;
};

/** Outcome of one cluster run. */
struct ClusterResult
{
    std::size_t injected = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    /** Requests never resolved, including arrivals never injected. */
    std::size_t unresolved = 0;

    double p50LatencyUs = 0.0; ///< Over completed requests.
    double p99LatencyUs = 0.0;

    dist::RpcStats rpc;
    std::size_t injections = 0; ///< Injection-log entries.

    /** True when a request failed or never resolved (exit code 3). */
    bool degraded() const { return failed > 0 || unresolved > 0; }
};

/**
 * Run one cluster to completion or to its horizon; the report goes
 * to @p out (byte-identical across runs at a fixed seed). Hitting the
 * horizon with requests unresolved is reported as degradation, never
 * a hang.
 */
ClusterResult runCluster(const ClusterConfig &cfg, std::ostream &out);

} // namespace rbv::exp

#endif // RBV_EXP_CLUSTER_HH
