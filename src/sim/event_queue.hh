/**
 * @file
 * Discrete event queue.
 *
 * The queue is an indexed binary heap. Each pending event lives in a
 * slot of a slot vector that holds its tick, sequence number, heap
 * position and callback; a fired or cancelled event's slot goes on a
 * free list for reuse. The heap holds slot indices ordered by
 * (tick, sequence), and every slot knows its heap position, so
 * cancel() unlinks an event at once and reschedule() re-keys one in
 * place, both in O(log n).
 *
 * Events scheduled for the same tick fire in scheduling order, which
 * keeps runs fully deterministic. reschedule() draws a fresh sequence
 * number: the key cancel() plus schedule() would give, so a re-keyed
 * event fires after every event already pending at its new tick.
 *
 * An EventId is a slot index tagged with the slot's generation, which
 * moves on each time the slot's event fires or is cancelled. A stale
 * id therefore never matches a later event in the same slot. The
 * generation has 40 bits; a million-request serve run reuses each of
 * its slots about two million times.
 */

#ifndef RBV_SIM_EVENT_QUEUE_HH
#define RBV_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace rbv::sim {

/** Opaque handle identifying a scheduled event; 0 is invalid. */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
constexpr EventId InvalidEventId = 0;

/**
 * Time-ordered event queue with cancellation and re-keying.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /**
     * Schedule a callback at an absolute tick (>= now).
     * @return A handle usable with cancel() and reschedule().
     */
    EventId schedule(Tick when, Callback cb);

    /** Schedule a callback after a relative delay. */
    EventId
    scheduleIn(Tick delay, Callback cb)
    {
        return schedule(curTick + delay, std::move(cb));
    }

    /**
     * Cancel a pending event and destroy its callback. Cancelling an
     * already fired or already cancelled event, or InvalidEventId, is
     * a harmless no-op.
     * @return True if the event was pending.
     */
    bool cancel(EventId id);

    /**
     * Move a pending event to an absolute tick (>= now), keeping its
     * id and callback. It is ordered as if cancelled and scheduled
     * anew: after every event already pending at @p when.
     * @return False, with no effect, if the event is not pending
     *         (fired, cancelled, or InvalidEventId).
     */
    bool reschedule(EventId id, Tick when);

    /** True if no pending events remain. */
    bool empty() const { return heap.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap.size(); }

    /**
     * Run the next event, advancing time to it.
     * @return False if the queue was empty.
     */
    bool runOne();

    /**
     * Run events until the queue is empty, a stop is requested, or
     * the next event lies beyond @p limit. In the first two cases
     * time is left at the last fired event, which after a stop is the
     * event that requested it; in the last case time is left at
     * @p limit.
     */
    void runUntil(Tick limit);

    /** Ask runUntil() to stop after the current event. */
    void requestStop() { stopRequested = true; }

    /** Total number of events fired so far (for diagnostics). */
    std::uint64_t firedCount() const { return fired; }

  private:
    struct Slot
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        /** Generation of the slot's pending or next event. */
        std::uint64_t gen = 1;
        /** Index into heap while pending. */
        std::uint32_t heapPos = 0;
        Callback cb;
    };

    /** Slot of the pending event @p id, or NoSlot if it is not. */
    std::uint32_t liveSlot(EventId id) const;

    /** True if slot @p a fires before slot @p b. */
    bool
    before(std::uint32_t a, std::uint32_t b) const
    {
        const Slot &x = slots[a];
        const Slot &y = slots[b];
        return x.when != y.when ? x.when < y.when : x.seq < y.seq;
    }

    /** Store slot @p s at heap position @p pos. */
    void
    place(std::size_t pos, std::uint32_t s)
    {
        heap[pos] = s;
        slots[s].heapPos = static_cast<std::uint32_t>(pos);
    }

    void siftUp(std::size_t pos);
    void siftDown(std::size_t pos);

    /**
     * Unlink slot @p s from the heap, retire its id and free the
     * slot for reuse.
     * @return The slot's callback.
     */
    Callback release(std::uint32_t s);

    static constexpr std::uint32_t NoSlot = ~std::uint32_t{0};

    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
    std::vector<std::uint32_t> heap;
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t fired = 0;
    bool stopRequested = false;
};

} // namespace rbv::sim

#endif // RBV_SIM_EVENT_QUEUE_HH
