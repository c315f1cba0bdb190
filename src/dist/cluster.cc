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
    auto node = std::make_unique<Node>();
    node->name = name;
    node->machine = std::make_unique<sim::Machine>(machine, eq);
    node->kernel = std::make_unique<os::Kernel>(*node->machine);
    node->machine->setClient(node->kernel.get());
    nodes.push_back(std::move(node));
    localToGlobal.emplace_back();
    globalToLocal_resize();
    return static_cast<NodeId>(nodes.size() - 1);
}

void
Cluster::globalToLocal_resize()
{
    for (auto &per_global : globalToLocal)
        per_global.resize(nodes.size(), os::InvalidRequestId);
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
Cluster::registerRequest(std::string class_name, const void *spec)
{
    GlobalRequestInfo info;
    info.id = static_cast<GlobalRequestId>(requests.size());
    info.className = std::move(class_name);
    info.spec = spec;
    info.injected = eq.now();
    info.perNode.resize(nodes.size());
    requests.push_back(std::move(info));
    globalToLocal.push_back(std::vector<os::RequestId>(
        nodes.size(), os::InvalidRequestId));
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
    const auto &map = localToGlobal[node];
    auto it = map.find(local);
    return it != map.end() ? it->second : InvalidGlobalRequestId;
}

os::RequestId
Cluster::localIdOf(NodeId node, GlobalRequestId id)
{
    RBV_CHECK(id >= 0 &&
                  static_cast<std::size_t>(id) < requests.size(),
              "localIdOf of unknown global request " << id);
    RBV_CHECK(node >= 0 && node < numNodes(),
              "localIdOf on unknown node " << node);
    auto &per_node = globalToLocal[static_cast<std::size_t>(id)];
    if (per_node[node] != os::InvalidRequestId)
        return per_node[node];

    const GlobalRequestInfo &info =
        requests[static_cast<std::size_t>(id)];
    const os::RequestId local =
        nodes[node]->kernel->registerRequest(info.className,
                                             info.spec);
    per_node[node] = local;
    localToGlobal[node][local] = id;
    return local;
}

void
Cluster::foldNodeAccounting(GlobalRequestId id)
{
    GlobalRequestInfo &info = requests[static_cast<std::size_t>(id)];
    const auto &per_node = globalToLocal[static_cast<std::size_t>(id)];
    for (NodeId n = 0; n < numNodes(); ++n) {
        if (per_node[n] == os::InvalidRequestId)
            continue;
        // Completing the local request freezes and finalizes its
        // kernel-side accounting on that node.
        nodes[n]->kernel->completeRequest(per_node[n]);
        info.perNode[static_cast<std::size_t>(n)] =
            nodes[n]->kernel->request(per_node[n]).totals;
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
    const auto &per_node = globalToLocal[static_cast<std::size_t>(id)];
    for (NodeId n = 0; n < numNodes(); ++n) {
        if (per_node[n] == os::InvalidRequestId)
            continue;
        const auto idx = static_cast<std::size_t>(n);
        if (idx >= samplers.size() || !samplers[idx])
            continue;
        const core::Timeline &tl =
            samplers[idx]->timelineOf(per_node[n]);
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
