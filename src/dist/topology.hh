/**
 * @file
 * Distributed request behavior tracking — the paper's stated future
 * work ("the online management of request behavior variations across
 * a distributed server architecture can expose both local and
 * inter-machine variations") — over declarative multi-tier
 * topologies with fault-tolerant RPC between tiers.
 *
 * A TopologySpec describes a chain of tiers (LB -> app -> DB), each
 * replicated N ways; Topology builds one node (a full machine +
 * kernel pair) per replica on one simulated clock, wires
 * ingress/reply channels, and drives every request through the tier
 * chain hop by hop under an RpcPolicy: per-attempt deadlines, bounded
 * retries with deterministic backoff, optional hedged seconds, and
 * per-replica circuit breakers (health.hh).
 *
 * A request keeps one cluster-wide id across machine boundaries, and
 * the topology keeps one record of it (GlobalRequestInfo): its hop
 * state and the node-local id it holds on each node it reached. A
 * node's share of the request is that node kernel's record, which
 * freezes when the request resolves; the per-node sampled timelines
 * merge into one serialized cross-machine execution timeline.
 *
 * Per-request state dies with its request. The record lives from
 * inject() until the request resolves and the resolved callback
 * returns; each node-local id then goes to its kernel's deferred
 * release (os::Kernel::deferRelease), which reuses the id once no
 * core, thread or message on that node can still reach it. A hedge
 * that reaches its replica after the request resolved registers an
 * id that is completed, charged nothing and released the same way.
 * Only the completed requests' latencies grow with the run.
 *
 * Failover preserves identity and accounting: a retried hop reuses
 * the same global request id, so the dead and the surviving replica
 * both account to one global request (the graceful-degradation
 * contract — a dead replica degrades the request, never loses it).
 * Exhausted retries mark the request failed (degraded, exit 3 at the
 * driver), never hang: every attempt carries a deadline event.
 *
 * Determinism: the whole cluster runs on one simulated clock in one
 * thread; every lottery (backoff jitter, service-time spread,
 * replica choice) is a stateless hash of (seed, ids), so stdout and
 * the injection log are byte-identical across reruns and at any
 * `--jobs` level.
 */

#ifndef RBV_DIST_TOPOLOGY_HH
#define RBV_DIST_TOPOLOGY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/check.hh"
#include "core/sampling/sampler.hh"
#include "dist/health.hh"
#include "dist/rpc.hh"
#include "os/kernel.hh"
#include "sim/event_queue.hh"
#include "sim/machine.hh"
#include "stats/online.hh"

namespace rbv::dist {

/** Cluster-wide request identifier. */
using GlobalRequestId = std::int64_t;
constexpr GlobalRequestId InvalidGlobalRequestId = -1;

/** Node identifier within a topology: replicas numbered tier by tier. */
using NodeId = int;

/** One tier of the serving chain. */
struct TierSpec
{
    std::string name;
    int replicas = 1;

    /** Mean service demand per request (thousands of instructions). */
    double serviceKiloIns = 60.0;
};

/**
 * A chain of replicated tiers.
 *
 * CLI grammar (`--topology`):
 *
 *     <spec> ::= <tier> [',' <tier>]...
 *     <tier> ::= <name> ':' <replicas> [':' <kilo-ins>]
 *
 * e.g. `lb:1:20,app:2:80,db:2:140`. Unknown shapes are parse errors
 * (a typo must never silently build a different cluster).
 */
struct TopologySpec
{
    std::vector<TierSpec> tiers;

    /** One-way link latency between adjacent tiers (and client). */
    sim::Tick linkLatencyTicks = sim::usToCycles(80.0);

    static bool parse(const std::string &text, TopologySpec &out,
                      std::string &error);

    /** Canonical re-parseable rendering. */
    std::string summary() const;

    int totalNodes() const;
};

/** Message-tag codec: the high 16 bits carry the sending node. */
constexpr std::uint64_t TagTokenMask = (std::uint64_t{1} << 48) - 1;

inline std::uint64_t
encodeTag(NodeId fromNode, std::uint64_t token)
{
    // fromNode -1 is the external client; bias keeps it encodable.
    return (static_cast<std::uint64_t>(fromNode + 2) << 48) |
           (token & TagTokenMask);
}

inline NodeId
tagPeer(std::uint64_t tag)
{
    return static_cast<NodeId>(tag >> 48) - 2;
}

inline std::uint64_t
tagToken(std::uint64_t tag)
{
    return tag & TagTokenMask;
}

/** Where a global request stands. */
enum class RequestState : std::uint8_t
{
    InFlight,
    Completed,
    Failed,
};

/** The topology's one record of a global request, live while the
 *  request is in flight and through its resolved callback. */
struct GlobalRequestInfo
{
    sim::Tick injected = 0;
    sim::Tick resolved = 0; ///< Tick it completed or failed.
    RequestState state = RequestState::InFlight;

    /** @name Progress through the tier chain */
    /// @{
    bool hedged = false;  ///< Hedge already issued at this hop.
    int tier = 0;
    int attempt = 0;      ///< Retry ordinal at the current hop.
    int lastReplica = -1; ///< Replica of the latest attempt.
    NodeId prevNode = -1; ///< Upstream node (-1 = client).
    std::vector<std::uint64_t> liveTokens;
    /// @}

    /** Node-local request id per node (InvalidRequestId = the
     *  request never reached that node). */
    std::vector<os::RequestId> local;
};

/**
 * A running multi-tier deployment: owns the event queue and one node
 * per replica, mediates every tier hop under the RpcPolicy, and keeps
 * the one record of every global request.
 */
class Topology
{
  public:
    Topology(const TopologySpec &spec, const RpcPolicy &policy,
             const BreakerConfig &breaker, std::uint64_t seed);
    ~Topology();

    Topology(const Topology &) = delete;
    Topology &operator=(const Topology &) = delete;

    sim::EventQueue &eventQueue() { return eq; }
    const TopologySpec &spec() const { return spec_; }

    int tierCount() const { return static_cast<int>(tiers.size()); }

    /** @name Nodes, numbered tier by tier */
    /// @{
    int numNodes() const { return static_cast<int>(nodes.size()); }
    os::Kernel &kernel(NodeId node) { return *nodes[node].kernel; }
    const std::string &nodeName(NodeId node) const
    {
        return nodes[node].name;
    }
    /// @}

    /** Start every node's kernel. Call once, before inject(). */
    void start();

    /** Inject one request at tier 0 (a client network arrival). */
    GlobalRequestId inject();

    /** Called once per request when it completes or fails. */
    void setResolvedCallback(
        std::function<void(GlobalRequestId, bool ok)> cb)
    {
        resolvedCb = std::move(cb);
    }

    /** Requests injected so far (records retire; this does not). */
    std::size_t injectedCount() const
    {
        return static_cast<std::size_t>(firstGid) + records.size();
    }
    std::size_t completedCount() const { return completed_; }
    std::size_t failedCount() const { return failed_; }
    bool allResolved() const
    {
        return completed_ + failed_ == injectedCount();
    }

    /**
     * Records held: every in-flight request, plus the resolved ones
     * injected after the oldest in-flight request (they leave from
     * the front). Bounded by the requests injected during one
     * worst-case request lifetime, not by the run length.
     */
    std::size_t heldRecords() const { return records.size(); }

    /** @name Global requests
     * request(), nodeTotals() and localIdOf() accept a global id from
     * inject() until its resolved callback returns; after that the
     * record is retired and they fail their RBV_CHECK, as an unknown
     * id does.
     */
    /// @{
    const GlobalRequestInfo &request(GlobalRequestId gid) const
    {
        RBV_CHECK(live(gid), "unknown or retired global request " << gid);
        return records[static_cast<std::size_t>(gid - firstGid)].info;
    }

    /**
     * A node's share of a request: the node kernel's record of it
     * once that record is done (it freezes when the request
     * resolves). Zero before then and on nodes the request never
     * reached. Read it in the resolved callback.
     */
    sim::CounterSnapshot nodeTotals(GlobalRequestId gid,
                                    NodeId node) const;

    /**
     * Translate a node-local request id to the global id, while the
     * node-local id is live: a released id keeps its last global id
     * until it is reused.
     */
    GlobalRequestId globalIdOf(NodeId node, os::RequestId local) const;

    /** The node-local id of a global request (registering lazily). */
    os::RequestId localIdOf(NodeId node, GlobalRequestId gid);

    /**
     * Take the per-node sampled timelines of a global request and
     * merge them into one wall-clock-ordered timeline (the serialized
     * cross-machine request execution). Each node's timeline is moved
     * out of its sampler, as a node-local id is reused once released:
     * a caller with samplers takes every request's merged timeline
     * in the resolved callback.
     *
     * @param samplers One sampler per node (index = NodeId); null
     *                 entries are skipped.
     */
    core::Timeline takeMergedTimeline(
        GlobalRequestId gid,
        const std::vector<core::Sampler *> &samplers) const;
    /// @}

    const RpcStats &rpcStats() const { return stats_; }

    /** End-to-end latency (us) of every completed request, in
     * completion order. */
    const std::vector<double> &completedLatenciesUs() const
    {
        return latenciesUs;
    }

    /** One breaker transition of one replica, for run reports. */
    struct BreakerEvent
    {
        sim::Tick tick = 0;
        int tier = 0;
        int replica = 0;
        BreakerState from = BreakerState::Closed;
        BreakerState to = BreakerState::Closed;
    };

    /** All replica breaker transitions, ordered by (tick, tier,
     * replica): the golden-testable breaker history of a run. */
    std::vector<BreakerEvent> breakerHistory() const;

  private:
    struct Node
    {
        std::string name;
        std::unique_ptr<sim::Machine> machine;
        std::unique_ptr<os::Kernel> kernel;

        /**
         * Global id by node-local id, overwritten when the kernel
         * reuses an id: bounded by the node's request slots.
         */
        std::vector<GlobalRequestId> localToGlobal;
    };

    struct Replica
    {
        NodeId node = -1;
        os::ChannelId ingress = os::InvalidChannelId;
        os::ChannelId reply = os::InvalidChannelId;
        ReplicaHealth health;
    };

    struct TierRt
    {
        std::vector<Replica> replicas;
        /** Observed hop latency (us) feeding the hedge trigger. */
        stats::SlidingQuantile hopLatencyUs{128};
    };

    /** One outstanding RPC attempt, keyed by token. */
    struct Attempt
    {
        GlobalRequestId gid = InvalidGlobalRequestId;
        int tier = 0;
        int replica = -1;
        sim::Tick sentAt = 0;
    };

    /** A record slot; a retired one waits to leave the front. */
    struct Record
    {
        GlobalRequestInfo info;
        bool retired = false;
    };

    bool
    live(GlobalRequestId gid) const
    {
        const auto idx = static_cast<std::size_t>(gid - firstGid);
        return gid >= firstGid && idx < records.size() &&
               !records[idx].retired;
    }

    GlobalRequestInfo &
    record(GlobalRequestId gid)
    {
        return records[static_cast<std::size_t>(gid - firstGid)].info;
    }

    /** Register a node-local id for @p gid on @p node. */
    os::RequestId registerLocal(NodeId node, GlobalRequestId gid);

    /** Deliver one attempt's message to its replica's ingress. */
    void postAttempt(NodeId node, os::ChannelId ingress, os::Message m,
                     GlobalRequestId gid);

    void sendAttempt(GlobalRequestId gid, int tier, int attempt,
                     bool hedge);
    void onDeadline(std::uint64_t token);
    void maybeHedge(std::uint64_t token, int armedAttempt);
    void onReply(int tier, int replica, const os::Message &msg);
    void scheduleRetryOrFail(GlobalRequestId gid, int tier);
    void failRequest(GlobalRequestId gid);
    void resolve(GlobalRequestId gid, bool ok);
    void dropToken(GlobalRequestInfo &info, std::uint64_t token);

    /** Release a resolved request's node-local ids and its record. */
    void retire(GlobalRequestId gid);

    TopologySpec spec_;
    RpcPolicy policy;
    BreakerConfig breakerCfg;
    std::uint64_t seed;

    sim::EventQueue eq;
    std::vector<Node> nodes;
    std::vector<TierRt> tiers;

    /**
     * The records from the oldest live request on, indexed by global
     * id minus firstGid; the next global id is firstGid plus their
     * count. A deque, not a vector: request() hands out references
     * while inject() appends and retire() pops the front, and neither
     * invalidates a reference to another record.
     */
    std::deque<Record> records;
    GlobalRequestId firstGid = 0;
    std::map<std::uint64_t, Attempt> attempts;
    std::uint64_t nextToken = 1;

    RpcStats stats_;
    std::size_t completed_ = 0;
    std::size_t failed_ = 0;
    std::vector<double> latenciesUs;
    std::function<void(GlobalRequestId, bool)> resolvedCb;
    bool started = false;
};

} // namespace rbv::dist

#endif // RBV_DIST_TOPOLOGY_HH
