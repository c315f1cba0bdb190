/**
 * @file
 * Cluster-level fault injection: node crashes, node degradation, and
 * link loss/delay/partition, driven by the same declarative
 * `--faults` plan grammar as the single-machine injectors (fi/).
 *
 * A ClusterFaultSession installs one os::KernelFaults adapter per
 * node and intercepts every message delivery: a topology's nodes
 * have only link channels (tier ingress and reply channels — both
 * directions of a link cross one of them). Fault decisions are
 * stateless lotteries over (seed, kind, delivery sequence), so the
 * injection log is a deterministic artifact of (plan, seed):
 * byte-identical across reruns and `--jobs` levels, and usable as
 * ground truth (each dropped delivery records the victim global
 * request id).
 *
 * Fault catalogue (plan grammar names):
 *
 *   node-crash(node=N,at-ms=T)             fail-silent from T on
 *   node-degrade(node=N,from-ms=A,for-ms=D,mult=M)
 *                                          exec M-x slower in window
 *   link-drop(node=N,p=P)                  drop P of N's link msgs
 *                                          (node=-1: every link)
 *   link-delay(node=N,p=P,add-us=U)        delay P of N's link msgs
 *   link-partition(a=A,b=B,from-ms=T,for-ms=D)
 *                                          A<->B unreachable in window
 */

#ifndef RBV_DIST_FAULTS_HH
#define RBV_DIST_FAULTS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/topology.hh"
#include "fi/injection.hh"
#include "fi/plan.hh"

namespace rbv::dist {

/** Deterministic cluster fault injector for one topology run. */
class ClusterFaultSession
{
  public:
    ClusterFaultSession(const fi::FaultPlan &plan,
                        std::uint64_t seed);
    ~ClusterFaultSession();

    ClusterFaultSession(const ClusterFaultSession &) = delete;
    ClusterFaultSession &operator=(const ClusterFaultSession &) =
        delete;

    /**
     * Wire the session into a topology: install per-node fault
     * adapters and arm the timed fault windows. Call after
     * constructing the Topology, before running.
     */
    void attach(Topology &topo);

    /** The deterministic injection log (fi::formatLog-renderable). */
    const std::vector<fi::Injection> &log() const { return log_; }

    /** Rendered log for byte-comparison. */
    std::string formatLog() const;

    /** @name Adapter callbacks (single-threaded event loop) */
    /// @{
    os::DeliveryFault onDelivery(NodeId node, const os::Message &msg);
    double execMultiplierFor(NodeId node) const;
    /// @}

  private:
    struct NodeAdapter;

    struct CrashWindow
    {
        NodeId node = -1;
        sim::Tick at = 0;
    };
    struct DegradeWindow
    {
        NodeId node = -1;
        sim::Tick from = 0;
        sim::Tick until = 0;
        double mult = 1.0;
    };
    struct DropRule
    {
        NodeId node = -1; ///< -1: every link in the cluster.
        double p = 0.0;
    };
    struct DelayRule
    {
        NodeId node = -1;
        double p = 0.0;
        double addUs = 0.0;
    };
    struct PartitionWindow
    {
        NodeId a = -1;
        NodeId b = -1;
        sim::Tick from = 0;
        sim::Tick until = 0;
    };

    bool nodeDead(NodeId node, sim::Tick now) const;
    void record(fi::FaultKind kind, std::int64_t subject,
                double magnitude, std::int64_t victim);
    sim::Tick now() const;

    std::uint64_t seed;
    std::vector<CrashWindow> crashes;
    std::vector<DegradeWindow> degrades;
    std::vector<DropRule> drops;
    std::vector<DelayRule> delays;
    std::vector<PartitionWindow> partitions;

    Topology *topo = nullptr;
    std::vector<std::unique_ptr<NodeAdapter>> adapters;
    std::vector<fi::Injection> log_;

    /** Monotonic per-delivery lottery id. */
    std::uint64_t deliverySeq = 0;
};

} // namespace rbv::dist

#endif // RBV_DIST_FAULTS_HH
