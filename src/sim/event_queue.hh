/**
 * @file
 * Discrete event queue.
 *
 * The queue is a binary heap of (tick, sequence) keys with lazily
 * cancelled entries. Events scheduled for the same tick fire in
 * scheduling order, which keeps runs fully deterministic.
 */

#ifndef RBV_SIM_EVENT_QUEUE_HH
#define RBV_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "sim/types.hh"

namespace rbv::sim {

/** Opaque handle identifying a scheduled event; 0 is invalid. */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
constexpr EventId InvalidEventId = 0;

/**
 * Time-ordered event queue with cancellation.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /**
     * Schedule a callback at an absolute tick (>= now).
     * @return A handle usable with cancel().
     */
    EventId schedule(Tick when, Callback cb);

    /** Schedule a callback after a relative delay. */
    EventId
    scheduleIn(Tick delay, Callback cb)
    {
        return schedule(curTick + delay, std::move(cb));
    }

    /**
     * Cancel a previously scheduled event. Cancelling an already
     * fired or already cancelled event is a harmless no-op.
     * @return True if the event was pending.
     */
    bool cancel(EventId id);

    /** True if no pending (non-cancelled) events remain. */
    bool empty() const { return pending.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return pending.size(); }

    /**
     * Run the next event, advancing time to it.
     * @return False if the queue was empty.
     */
    bool runOne();

    /**
     * Run events until the queue is empty or simulated time would
     * exceed @p limit. Time is left at the last fired event (or at
     * @p limit if a stop was requested or the limit was reached).
     */
    void runUntil(Tick limit);

    /** Ask runUntil() to stop after the current event. */
    void requestStop() { stopRequested = true; }

    /** Total number of events fired so far (for diagnostics). */
    std::uint64_t firedCount() const { return fired; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        EventId id;

        bool
        operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    // Ordered map: iteration (or a future drain/dump) follows event-id
    // order, keeping replay output deterministic. The live set is
    // bounded by in-flight events, so the O(log n) lookup is noise
    // next to the heap operations.
    std::map<EventId, Callback> pending;
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    EventId nextId = 1;
    std::uint64_t fired = 0;
    bool stopRequested = false;
};

} // namespace rbv::sim

#endif // RBV_SIM_EVENT_QUEUE_HH
