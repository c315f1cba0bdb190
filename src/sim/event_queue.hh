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
 * A periodic event re-arms itself once its callback returns: its tick
 * moves on by one period and it draws a fresh sequence number, the
 * key a callback ending in scheduleIn(period) would give. An owner
 * whose callback would change nothing can park the event. A parked
 * event leaves the heap for a short side list kept in key order, and
 * its turns still come in key order: each one re-keys it by one
 * period and draws the next sequence number, with no callback and no
 * heap operation. unpark() puts it back into the heap under its
 * current key, so a parked event keeps the tick and the same-tick
 * order an unparked one would have. Parked events count as pending.
 *
 * An owner that changes its events many times in one turn can defer
 * the work to the turn's end. Each change reserves the block of
 * sequence numbers the owner's re-keying would draw and registers the
 * owner for a flush, and the queue runs every registered owner's
 * flush() once, before it takes its next turn and before size() or
 * empty() answer. The flush keys the owner's events with schedule()
 * and reschedule() under numbers from the block its last change
 * reserved. Time does not move before a flush, numbers drawn before
 * that reservation are smaller and numbers drawn after it larger, so
 * every key, and every same-tick order, is the one re-keying at the
 * last change would give.
 *
 * An EventId is a slot index tagged with the slot's generation, which
 * moves on each time the slot's one-shot event fires or its event is
 * cancelled, so a periodic event keeps its id across its turns. A
 * stale id therefore never matches a later event in the same slot.
 * The generation has 40 bits; a million-request serve run reuses each
 * of its slots about two million times.
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
 * Time-ordered event queue with cancellation, re-keying and parked
 * periodic events.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** An owner whose re-keying waits for the queue's flush. */
    class FlushOwner
    {
      public:
        /** Key the owner's events; runs once per deferFlush(). */
        virtual void flush() = 0;

      protected:
        ~FlushOwner() = default;
    };

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /**
     * Schedule a callback at an absolute tick (>= now).
     * @return A handle usable with cancel() and reschedule().
     */
    EventId schedule(Tick when, Callback cb);

    /**
     * schedule() under the reserved sequence number @p seq instead of
     * the next one.
     */
    EventId schedule(Tick when, std::uint64_t seq, Callback cb);

    /** Schedule a callback after a relative delay. */
    EventId
    scheduleIn(Tick delay, Callback cb)
    {
        return schedule(curTick + delay, std::move(cb));
    }

    /**
     * Schedule a periodic event: its callback runs at @p first (>=
     * now) and then every @p period (> 0) ticks until it is
     * cancelled. Each re-arm draws its sequence number after the
     * callback returns, and the event stays pending meanwhile.
     * @return A handle usable with cancel(), park() and unpark().
     */
    EventId schedulePeriodic(Tick first, Tick period, Callback cb);

    /**
     * Cancel a pending event and destroy its callback. Cancelling an
     * already fired or already cancelled event, or InvalidEventId, is
     * a harmless no-op. A periodic event may be cancelled while
     * parked or from inside its own callback, which ends it there.
     * @return True if the event was pending.
     */
    bool cancel(EventId id);

    /**
     * Move a pending one-shot event to an absolute tick (>= now),
     * keeping its id and callback. It is ordered as if cancelled and
     * scheduled anew: after every event already pending at @p when.
     * A periodic event's ticks are set by its period, so moving one
     * is a checked error.
     * @return False, with no effect, if the event is not pending
     *         (fired, cancelled, or InvalidEventId).
     */
    bool reschedule(EventId id, Tick when);

    /**
     * reschedule() under the reserved sequence number @p seq, which
     * must be above the event's own.
     */
    bool reschedule(EventId id, Tick when, std::uint64_t seq);

    /**
     * Reserve @p n sequence numbers for keyed schedule() and
     * reschedule() calls: every number drawn before is smaller, and
     * every number drawn after is larger.
     * @return The first of them.
     */
    std::uint64_t
    reserveSeq(std::uint64_t n)
    {
        const std::uint64_t first = nextSeq;
        nextSeq += n;
        return first;
    }

    /**
     * Run @p owner's flush() before the next turn, and before size()
     * or empty() answer. An owner registers once per flush.
     */
    void deferFlush(FlushOwner &owner) { deferred.push_back(&owner); }

    /** Drop @p owner's pending flush; it will not run. */
    void withdrawFlush(FlushOwner &owner);

    /**
     * Park a pending periodic event: until unpark(), each of its
     * turns re-keys it as its re-arm would, and runs no callback.
     * Parking from inside its own callback takes effect with the
     * re-arm; parking a parked event changes nothing. Parking a
     * one-shot event is a checked error.
     * @return False, with no effect, if the event is not pending.
     */
    bool park(EventId id);

    /**
     * Return a parked event to the heap under its current key, so it
     * fires at the turn it would have had if never parked. Unparking
     * an event that is not parked changes nothing.
     * @return False, with no effect, if the event is not pending.
     */
    bool unpark(EventId id);

    /** True if @p id is a pending, parked periodic event. */
    bool
    parked(EventId id) const
    {
        const std::uint32_t s = liveSlot(id);
        return s != NoSlot && slots[s].parked;
    }

    /**
     * True if no pending events remain, parked ones included, once
     * the pending flushes have run.
     */
    bool
    empty()
    {
        flushDeferred();
        return heap.empty() && parkedSlots.empty();
    }

    /**
     * Number of pending events, parked ones included, once the
     * pending flushes have run.
     */
    std::size_t
    size()
    {
        flushDeferred();
        return heap.size() + parkedSlots.size();
    }

    /**
     * Run the pending flushes, then take the next event's turn,
     * advancing time to it: fire it, or re-key it if it is parked.
     * @return False if the queue was empty.
     */
    bool runOne();

    /**
     * Run events until the queue is empty, a stop is requested, or
     * the next event lies beyond @p limit, running the pending
     * flushes before each step. In the first two cases time is left
     * at the last fired event, which after a stop is the event that
     * requested it; in the last case time is left at @p limit.
     */
    void runUntil(Tick limit);

    /** Ask runUntil() to stop after the current event. */
    void requestStop() { stopRequested = true; }

    /**
     * Total number of events fired so far (for diagnostics); a parked
     * turn fires nothing.
     */
    std::uint64_t firedCount() const { return fired; }

  private:
    struct Slot
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        /** Generation of the slot's pending or next event. */
        std::uint64_t gen = 1;
        /** Re-arm interval of a periodic event; 0 for a one-shot. */
        Tick periodTicks = 0;
        /** Index into heap while pending and not parked. */
        std::uint32_t heapPos = 0;
        /** In parkedSlots instead of the heap. */
        bool parked = false;
        Callback cb;
    };

    /** Take a free slot for a new event and put it in the heap. */
    EventId add(Tick when, Tick period, std::uint64_t seq, Callback cb);

    /** Move pending one-shot slot @p s to (@p when, @p seq). */
    void rekey(std::uint32_t s, Tick when, std::uint64_t seq);

    /** Run and clear the pending flushes. */
    void
    flushDeferred()
    {
        if (!deferred.empty())
            runFlushes();
    }

    void runFlushes();

    /** Slot of the pending event @p id, or NoSlot if it is not. */
    std::uint32_t
    liveSlot(EventId id) const
    {
        const std::uint64_t s = id & SlotMask;
        if (s >= slots.size() || slots[s].gen != id >> SlotBits)
            return NoSlot;
        return static_cast<std::uint32_t>(s);
    }

    /** Slot of the next event to take its turn, or NoSlot. */
    std::uint32_t next() const;

    /** Take slot @p s's turn; it is next(). */
    void take(std::uint32_t s);

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

    /** Put slot @p s into the heap. */
    void heapInsert(std::uint32_t s);

    /** Take slot @p s out of the heap. */
    void heapRemove(std::uint32_t s);

    /** Put slot @p s into parkedSlots at its key's place. */
    void parkedInsert(std::uint32_t s);

    /** Take slot @p s out of parkedSlots. */
    void parkedRemove(std::uint32_t s);

    /**
     * Move periodic slot @p s on by one period with a fresh sequence
     * number, where it is: in the heap or in parkedSlots.
     */
    void rearm(std::uint32_t s);

    /**
     * Unlink slot @p s from the heap or parkedSlots, retire its id
     * and free the slot for reuse.
     * @return The slot's callback.
     */
    Callback release(std::uint32_t s);

    static constexpr std::uint32_t NoSlot = ~std::uint32_t{0};

    /** Low bits of an EventId: the slot index. The rest: its generation. */
    static constexpr unsigned SlotBits = 24;
    static constexpr std::uint64_t SlotMask =
        (std::uint64_t{1} << SlotBits) - 1;

    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
    std::vector<std::uint32_t> heap;
    /** Parked periodic events, in key order; a handful at most. */
    std::vector<std::uint32_t> parkedSlots;
    /** Owners whose flush() runs before the next turn. */
    std::vector<FlushOwner *> deferred;
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t fired = 0;
    bool stopRequested = false;
};

} // namespace rbv::sim

#endif // RBV_SIM_EVENT_QUEUE_HH
