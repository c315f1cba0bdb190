/**
 * @file
 * Distributed cluster implementation.
 */

#include "dist/cluster.hh"

#include <algorithm>
#include <cassert>

namespace rbv::dist {

Cluster::Cluster(sim::EventQueue &eq) : eq(eq)
{
}

Cluster::~Cluster() = default;

NodeId
Cluster::addNode(const std::string &name,
                 const sim::MachineConfig &machine)
{
    assert(!started);
    RBV_CHECK(requests.empty(), "addNode after a request was registered");
    auto node = std::make_unique<Node>();
    node->name = name;
    node->machine = std::make_unique<sim::Machine>(machine, eq);
    node->kernel = std::make_unique<os::Kernel>(*node->machine);
    node->machine->setClient(node->kernel.get());
    nodes.push_back(std::move(node));
    localToGlobal.emplace_back();
    return static_cast<NodeId>(nodes.size() - 1);
}

void
Cluster::start()
{
    assert(!started);
    started = true;
    for (auto &node : nodes)
        node->kernel->start();
}

GlobalRequestId
Cluster::registerRequest()
{
    GlobalRequestInfo info;
    info.id = static_cast<GlobalRequestId>(requests.size());
    info.injected = eq.now();
    info.local.resize(nodes.size(), os::InvalidRequestId);
    info.perNode.resize(nodes.size());
    requests.push_back(std::move(info));
    return requests.back().id;
}

void
Cluster::post(NodeId node, os::ChannelId channel, os::Message msg,
              GlobalRequestId id)
{
    msg.request = localIdOf(node, id);
    nodes[node]->kernel->post(channel, msg);
}

GlobalRequestId
Cluster::globalIdOf(NodeId node, os::RequestId local) const
{
    const auto &ids = localToGlobal[node];
    const auto idx = static_cast<std::size_t>(local);
    return idx < ids.size() ? ids[idx] : InvalidGlobalRequestId;
}

os::RequestId
Cluster::localIdOf(NodeId node, GlobalRequestId id)
{
    RBV_CHECK(id >= 0 &&
                  static_cast<std::size_t>(id) < requests.size(),
              "localIdOf of unknown global request " << id);
    RBV_CHECK(node >= 0 && node < numNodes(),
              "localIdOf on unknown node " << node);
    os::RequestId &local =
        requests[static_cast<std::size_t>(id)].local[node];
    if (local != os::InvalidRequestId)
        return local;

    local = nodes[node]->kernel->registerRequest();
    auto &ids = localToGlobal[node];
    const auto idx = static_cast<std::size_t>(local);
    if (ids.size() <= idx)
        ids.resize(idx + 1, InvalidGlobalRequestId);
    ids[idx] = id;
    return local;
}

void
Cluster::foldNodeAccounting(GlobalRequestId id)
{
    GlobalRequestInfo &info = requests[static_cast<std::size_t>(id)];
    for (NodeId n = 0; n < numNodes(); ++n) {
        const os::RequestId local = info.local[n];
        if (local == os::InvalidRequestId)
            continue;
        // Completing the local request freezes and finalizes its
        // kernel-side accounting on that node.
        nodes[n]->kernel->completeRequest(local);
        info.perNode[static_cast<std::size_t>(n)] =
            nodes[n]->kernel->request(local).totals;
    }
}

void
Cluster::completeRequest(GlobalRequestId id)
{
    GlobalRequestInfo &info = requests[static_cast<std::size_t>(id)];
    if (info.done)
        return;
    foldNodeAccounting(id);
    info.done = true;
    info.completed = eq.now();
}

core::Timeline
Cluster::mergedTimeline(
    GlobalRequestId id,
    const std::vector<const core::Sampler *> &samplers) const
{
    core::Timeline merged;
    merged.request = id;
    const GlobalRequestInfo &info = request(id);
    for (NodeId n = 0; n < numNodes(); ++n) {
        const os::RequestId local = info.local[n];
        if (local == os::InvalidRequestId)
            continue;
        const auto idx = static_cast<std::size_t>(n);
        if (idx >= samplers.size() || !samplers[idx])
            continue;
        const core::Timeline &tl = samplers[idx]->timelineOf(local);
        merged.periods.insert(merged.periods.end(),
                              tl.periods.begin(), tl.periods.end());
    }
    // All nodes share one clock, so wall start order serializes the
    // cross-machine execution (a request's stages run sequentially).
    std::stable_sort(merged.periods.begin(), merged.periods.end(),
                     [](const core::Period &a, const core::Period &b) {
                         return a.wallStart < b.wallStart;
                     });
    return merged;
}

} // namespace rbv::dist
