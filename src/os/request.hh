/**
 * @file
 * Kernel-side per-request accounting.
 *
 * The kernel tracks each request's context across context switches
 * and socket hops (the mechanism of Shen et al. [27] that the paper
 * builds on) and maintains exact counter totals plus the request's
 * system call sequence. These are the ground truth the experiments
 * evaluate the sampled timelines against.
 */

#ifndef RBV_OS_REQUEST_HH
#define RBV_OS_REQUEST_HH

#include <vector>

#include "os/ids.hh"
#include "os/syscall.hh"
#include "sim/counters.hh"
#include "sim/types.hh"

namespace rbv::os {

/**
 * Everything the kernel knows about one request.
 */
struct RequestInfo
{
    RequestId id = InvalidRequestId;

    /**
     * Registration sequence number: unique across the run even when
     * slots (and therefore ids) are recycled by the serving mode.
     * Without recycling, seq == id. Per-request fault decisions hash
     * this, not the id, so a recycled slot is not condemned forever.
     */
    std::uint64_t seq = 0;

    /** Exact counter totals attributed to this request. */
    sim::CounterSnapshot totals;

    /** Injection and completion times (cycles). */
    sim::Tick injected = 0;
    sim::Tick completed = 0;
    bool done = false;

    /** System calls issued while this request was in context. */
    std::vector<Sys> syscalls;

    /**
     * Messages inside the kernel that carry this id: queued on a
     * channel, pending for a woken thread, or held back by an
     * in-network delay. Each can still hand the id to a worker, so
     * the id is not released while any remain.
     */
    std::uint32_t messages = 0;

    /** CPU cycles per instruction over the whole request. */
    double
    cpi() const
    {
        return totals.instructions > 0.0
                   ? totals.cycles / totals.instructions
                   : 0.0;
    }

    /** L2 references per instruction over the whole request. */
    double
    l2RefsPerIns() const
    {
        return totals.instructions > 0.0
                   ? totals.l2Refs / totals.instructions
                   : 0.0;
    }

    /** L2 misses per reference over the whole request. */
    double
    l2MissRatio() const
    {
        return totals.l2Refs > 0.0 ? totals.l2Misses / totals.l2Refs
                                   : 0.0;
    }
};

} // namespace rbv::os

#endif // RBV_OS_REQUEST_HH
