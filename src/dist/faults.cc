/**
 * @file
 * Cluster fault session: plan decoding, per-node adapters, and the
 * deterministic delivery-fate lotteries.
 */

#include "dist/faults.hh"

#include "obs/obs.hh"
#include "os/faults.hh"

namespace rbv::dist {

/**
 * Per-node shim implementing the kernel's fault surface by
 * forwarding to the session with the node identity attached.
 */
struct ClusterFaultSession::NodeAdapter final : os::KernelFaults
{
    ClusterFaultSession *session = nullptr;
    NodeId node = -1;

    NodeAdapter(ClusterFaultSession *s, NodeId n)
        : session(s), node(n)
    {
    }

    double
    execMultiplier(os::RequestId request) override
    {
        (void)request;
        return session->execMultiplierFor(node);
    }

    os::DeliveryFault
    messageDelivery(os::ChannelId, const os::Message &msg) override
    {
        return session->onDelivery(node, msg);
    }
};

ClusterFaultSession::ClusterFaultSession(const fi::FaultPlan &plan,
                                         std::uint64_t seed)
    : seed(seed)
{
    for (const auto &fs : plan.specs()) {
        switch (fs.kind) {
          case fi::FaultKind::NodeCrash: {
            CrashWindow w;
            w.node = static_cast<NodeId>(fs.param("node", 0.0));
            w.at = static_cast<sim::Tick>(
                sim::msToCycles(fs.param("at-ms", 0.0)));
            crashes.push_back(w);
            break;
          }
          case fi::FaultKind::NodeDegrade: {
            DegradeWindow w;
            w.node = static_cast<NodeId>(fs.param("node", 0.0));
            w.from = static_cast<sim::Tick>(
                sim::msToCycles(fs.param("from-ms", 0.0)));
            w.until =
                w.from + static_cast<sim::Tick>(sim::msToCycles(
                             fs.param("for-ms", 10.0)));
            w.mult = fs.param("mult", 4.0);
            degrades.push_back(w);
            break;
          }
          case fi::FaultKind::LinkDrop: {
            DropRule r;
            r.node = static_cast<NodeId>(fs.param("node", -1.0));
            r.p = fs.param("p", 0.0);
            drops.push_back(r);
            break;
          }
          case fi::FaultKind::LinkDelay: {
            DelayRule r;
            r.node = static_cast<NodeId>(fs.param("node", -1.0));
            r.p = fs.param("p", 1.0);
            r.addUs = fs.param("add-us", 200.0);
            delays.push_back(r);
            break;
          }
          case fi::FaultKind::LinkPartition: {
            PartitionWindow w;
            w.a = static_cast<NodeId>(fs.param("a", 0.0));
            w.b = static_cast<NodeId>(fs.param("b", 1.0));
            w.from = static_cast<sim::Tick>(
                sim::msToCycles(fs.param("from-ms", 0.0)));
            w.until =
                w.from + static_cast<sim::Tick>(sim::msToCycles(
                             fs.param("for-ms", 10.0)));
            partitions.push_back(w);
            break;
          }
          default:
            break; // non-cluster kinds belong to other sessions
        }
    }
}

ClusterFaultSession::~ClusterFaultSession() = default;

void
ClusterFaultSession::attach(Topology &t)
{
    topo = &t;
    adapters.clear();
    for (NodeId n = 0; n < topo->numNodes(); ++n) {
        adapters.push_back(std::make_unique<NodeAdapter>(this, n));
        topo->kernel(n).setFaults(adapters.back().get());
    }

    // Arm the timed windows: one log record at each window start
    // marks the injection itself (per-delivery drops log their own
    // victims as they happen).
    sim::EventQueue &eq = topo->eventQueue();
    for (const auto &w : crashes) {
        eq.scheduleIn(w.at, [this, w] {
            record(fi::FaultKind::NodeCrash, w.node, 1.0, -1);
        });
    }
    for (const auto &w : degrades) {
        eq.scheduleIn(w.from, [this, w] {
            record(fi::FaultKind::NodeDegrade, w.node, w.mult, -1);
        });
    }
    for (const auto &w : partitions) {
        eq.scheduleIn(w.from, [this, w] {
            record(fi::FaultKind::LinkPartition, w.a,
                   static_cast<double>(w.b), -1);
        });
    }
}

std::string
ClusterFaultSession::formatLog() const
{
    return fi::formatLog(log_);
}

sim::Tick
ClusterFaultSession::now() const
{
    return topo != nullptr ? topo->eventQueue().now() : 0;
}

bool
ClusterFaultSession::nodeDead(NodeId node, sim::Tick t) const
{
    for (const auto &w : crashes)
        if (w.node == node && t >= w.at)
            return true;
    return false;
}

void
ClusterFaultSession::record(fi::FaultKind kind, std::int64_t subject,
                            double magnitude, std::int64_t victim)
{
    fi::Injection inj;
    inj.tick = now();
    inj.kind = kind;
    inj.subject = subject;
    inj.magnitude = magnitude;
    inj.victim = victim;
    log_.push_back(inj);
    RBV_COUNT(FiInjections, 1);
}

double
ClusterFaultSession::execMultiplierFor(NodeId node) const
{
    const sim::Tick t = now();
    double mult = 1.0;
    for (const auto &w : degrades)
        if (w.node == node && t >= w.from && t < w.until)
            mult *= w.mult;
    return mult;
}

os::DeliveryFault
ClusterFaultSession::onDelivery(NodeId node, const os::Message &msg)
{
    const sim::Tick t = now();

    // A crashed node is fail-silent: nothing is delivered on it any
    // more, in or out. Each swallowed delivery logs its victim for
    // the ground-truth join.
    if (nodeDead(node, t)) {
        record(fi::FaultKind::NodeCrash, node, 1.0,
               topo->globalIdOf(node, msg.request));
        return os::DeliveryFault{true, 0.0};
    }

    // Every delivery is link traffic: a node has only ingress/reply channels.
    const NodeId peer = tagPeer(msg.tag);
    for (const auto &w : partitions) {
        if (t < w.from || t >= w.until)
            continue;
        const bool match = (node == w.a && peer == w.b) ||
                           (node == w.b && peer == w.a);
        if (match) {
            record(fi::FaultKind::LinkPartition, node,
                   static_cast<double>(peer),
                   topo->globalIdOf(node, msg.request));
            return os::DeliveryFault{true, 0.0};
        }
    }

    // One lottery draw per delivery keeps the drop/delay decisions
    // independent of rule order and host parallelism.
    const std::uint64_t seq = deliverySeq++;
    for (const auto &r : drops) {
        if (r.node != -1 && r.node != node)
            continue;
        if (fi::unitIntervalHash(seed, 0xd70bu, seq) < r.p) {
            record(fi::FaultKind::LinkDrop, node, 1.0,
                   topo->globalIdOf(node, msg.request));
            return os::DeliveryFault{true, 0.0};
        }
    }
    for (const auto &r : delays) {
        if (r.node != -1 && r.node != node)
            continue;
        if (fi::unitIntervalHash(seed, 0xde1a4u, seq) < r.p) {
            record(fi::FaultKind::LinkDelay, node, r.addUs,
                   topo->globalIdOf(node, msg.request));
            return os::DeliveryFault{
                false, static_cast<double>(sim::usToCycles(r.addUs))};
        }
    }
    return {};
}

} // namespace rbv::dist
