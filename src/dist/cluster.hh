/**
 * @file
 * Distributed request behavior tracking — the paper's stated future
 * work ("the online management of request behavior variations across
 * a distributed server architecture can expose both local and
 * inter-machine variations").
 *
 * A Cluster hosts several nodes (each a full machine + kernel pair)
 * on one simulated clock and maintains a *global* request identity
 * across machine boundaries: a request posted to node A and later to
 * node B keeps one cluster-wide id, its counter totals aggregate per
 * node, and the per-node sampled timelines can be merged into one
 * serialized cross-machine execution timeline. The network hop
 * between nodes is Topology's (topology.hh): it delivers each tier
 * hop through post() after the link latency.
 */

#ifndef RBV_DIST_CLUSTER_HH
#define RBV_DIST_CLUSTER_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/check.hh"
#include "core/sampling/sampler.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"

namespace rbv::dist {

/** Cluster-wide request identifier. */
using GlobalRequestId = std::int64_t;
constexpr GlobalRequestId InvalidGlobalRequestId = -1;

/** Node identifier within a cluster. */
using NodeId = int;

/** The cluster's one record of a global request. */
struct GlobalRequestInfo
{
    GlobalRequestId id = InvalidGlobalRequestId;

    sim::Tick injected = 0;
    sim::Tick completed = 0;
    bool done = false;

    /** Node-local request id per node (InvalidRequestId = the
     *  request never reached that node). */
    std::vector<os::RequestId> local;

    /** Per-node exact counter totals (indexed by NodeId). */
    std::vector<sim::CounterSnapshot> perNode;
};

/**
 * A multi-node deployment sharing one simulated clock.
 */
class Cluster
{
  public:
    explicit Cluster(sim::EventQueue &eq);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** @name Topology (before start()) */
    /// @{
    /** Add a node running the default kernel and scheduler. */
    NodeId addNode(const std::string &name,
                   const sim::MachineConfig &machine);
    int numNodes() const { return static_cast<int>(nodes.size()); }

    os::Kernel &kernel(NodeId node) { return *nodes[node]->kernel; }
    sim::Machine &machine(NodeId node)
    {
        return *nodes[node]->machine;
    }
    const std::string &nodeName(NodeId node) const
    {
        return nodes[node]->name;
    }

    /** Start every node's kernel. */
    void start();
    /// @}

    /** @name Global requests */
    /// @{
    /** Register a cluster-wide request (after every addNode()). */
    GlobalRequestId registerRequest();

    /** Inject a request's first message at a node (network arrival). */
    void post(NodeId node, os::ChannelId channel, os::Message msg,
              GlobalRequestId id);

    /**
     * Mark a global request complete, folding in every node's local
     * accounting. Call from a reply-channel sink.
     */
    void completeRequest(GlobalRequestId id);

    /** Translate a node-local request id to the global id. */
    GlobalRequestId globalIdOf(NodeId node, os::RequestId local) const;

    /** The node-local id of a global request (registering lazily). */
    os::RequestId localIdOf(NodeId node, GlobalRequestId id);

    const GlobalRequestInfo &request(GlobalRequestId id) const
    {
        RBV_CHECK(id >= 0 && static_cast<std::size_t>(id) <
                                 requests.size(),
                  "unknown global request " << id);
        return requests[static_cast<std::size_t>(id)];
    }
    /// @}

    /**
     * Merge the per-node sampled timelines of a global request into
     * one wall-clock-ordered timeline (the serialized cross-machine
     * request execution), given each node's sampler.
     *
     * @param samplers One sampler per node (index = NodeId); null
     *                 entries are skipped.
     */
    core::Timeline mergedTimeline(
        GlobalRequestId id,
        const std::vector<const core::Sampler *> &samplers) const;

  private:
    struct Node
    {
        std::string name;
        std::unique_ptr<sim::Machine> machine;
        std::unique_ptr<os::Kernel> kernel;
    };

    /** Fold a node's local RequestInfo into the global record. */
    void foldNodeAccounting(GlobalRequestId id);

    sim::EventQueue &eq;
    std::vector<std::unique_ptr<Node>> nodes;

    /**
     * Per-request records. A deque, not a vector: request() hands out
     * long-lived references while registerRequest() keeps appending,
     * and a vector reallocation would invalidate every one of them.
     */
    std::deque<GlobalRequestInfo> requests;

    /**
     * Global id by node-local id, per node. Dense: the cluster never
     * recycles a node-local id, so each node's ids count up from 0.
     */
    std::vector<std::vector<GlobalRequestId>> localToGlobal;

    bool started = false;
};

} // namespace rbv::dist

#endif // RBV_DIST_CLUSTER_HH
