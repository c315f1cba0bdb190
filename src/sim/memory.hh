/**
 * @file
 * Memory subsystem model: miss latency under bandwidth contention.
 *
 * All cores share one front-side bus / memory controller. The
 * effective L2 miss latency grows with aggregate miss bandwidth
 * through an M/M/1-style queueing factor, which is what couples the
 * cores outside their L2 domains and makes fine-grained requests
 * (small working sets, bandwidth-bound) sensitive to co-runners, as
 * Section 5.2 of the paper observes.
 */

#ifndef RBV_SIM_MEMORY_HH
#define RBV_SIM_MEMORY_HH

#include <algorithm>

namespace rbv::sim {

/**
 * Stateless memory latency model of the paper's platform.
 */
class MemoryModel
{
  public:
    /** Unloaded L2 miss service latency in cycles (DRAM round trip). */
    static constexpr double BaseLatencyCycles = 220.0;

    /**
     * Peak sustainable miss bandwidth in bytes per cycle. The paper's
     * platform has a 1333 MT/s FSB (~10.6 GB/s) against 3 GHz cores,
     * i.e. about 3.55 bytes per core cycle.
     */
    static constexpr double PeakBytesPerCycle = 3.55;

    /** Utilization cap to keep the queueing factor finite. */
    static constexpr double MaxUtilization = 0.95;

    /**
     * Effective miss latency (cycles) at the given aggregate miss
     * bandwidth (bytes per cycle over all cores).
     */
    double
    latencyAt(double miss_bytes_per_cycle) const
    {
        const double u =
            std::clamp(miss_bytes_per_cycle / PeakBytesPerCycle, 0.0,
                       MaxUtilization);
        return BaseLatencyCycles / (1.0 - u);
    }
};

} // namespace rbv::sim

#endif // RBV_SIM_MEMORY_HH
