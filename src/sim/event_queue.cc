/**
 * @file
 * Discrete event queue implementation.
 */

#include "sim/event_queue.hh"

#include <utility>

#include "core/check.hh"
#include "obs/obs.hh"

namespace rbv::sim {

namespace {

/** Low bits of an EventId: the slot index. The rest: its generation. */
constexpr unsigned SlotBits = 24;
constexpr std::uint64_t SlotMask = (std::uint64_t{1} << SlotBits) - 1;

} // namespace

EventId
EventQueue::schedule(Tick when, Callback cb)
{
    RBV_CHECK(when >= curTick,
              "event scheduled into the past: when=" << when
                  << " now=" << curTick);
    std::uint32_t s;
    if (freeSlots.empty()) {
        RBV_CHECK(slots.size() <= SlotMask,
                  "more than " << SlotMask << " pending events");
        s = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
    } else {
        s = freeSlots.back();
        freeSlots.pop_back();
    }
    Slot &slot = slots[s];
    slot.when = when;
    slot.seq = nextSeq++;
    slot.cb = std::move(cb);
    heap.push_back(s);
    siftUp(heap.size() - 1);
    RBV_COUNT(SimEventsScheduled, 1);
    return (slot.gen << SlotBits) | s;
}

std::uint32_t
EventQueue::liveSlot(EventId id) const
{
    const std::uint64_t s = id & SlotMask;
    if (s >= slots.size() || slots[s].gen != id >> SlotBits)
        return NoSlot;
    return static_cast<std::uint32_t>(s);
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t s = liveSlot(id);
    if (s == NoSlot)
        return false;
    release(s);
    RBV_COUNT(SimEventsCancelled, 1);
    return true;
}

bool
EventQueue::reschedule(EventId id, Tick when)
{
    RBV_CHECK(when >= curTick,
              "event rescheduled into the past: when=" << when
                  << " now=" << curTick);
    const std::uint32_t s = liveSlot(id);
    if (s == NoSlot)
        return false;
    Slot &slot = slots[s];
    // The fresh sequence number is larger than the old one, so the
    // new key is earlier only if the tick is.
    const bool earlier = when < slot.when;
    slot.when = when;
    slot.seq = nextSeq++;
    if (earlier)
        siftUp(slot.heapPos);
    else
        siftDown(slot.heapPos);
    RBV_COUNT(SimEventsRescheduled, 1);
    return true;
}

void
EventQueue::siftUp(std::size_t pos)
{
    const std::uint32_t s = heap[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / 2;
        if (!before(s, heap[parent]))
            break;
        place(pos, heap[parent]);
        pos = parent;
    }
    place(pos, s);
}

void
EventQueue::siftDown(std::size_t pos)
{
    const std::uint32_t s = heap[pos];
    const std::size_t n = heap.size();
    while (true) {
        std::size_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap[child + 1], heap[child]))
            ++child;
        if (!before(heap[child], s))
            break;
        place(pos, heap[child]);
        pos = child;
    }
    place(pos, s);
}

EventQueue::Callback
EventQueue::release(std::uint32_t s)
{
    Slot &slot = slots[s];
    const std::size_t pos = slot.heapPos;
    const std::uint32_t last = heap.back();
    heap.pop_back();
    if (pos < heap.size()) {
        // The last leaf fills the hole and may belong above or below.
        place(pos, last);
        if (pos > 0 && before(last, heap[(pos - 1) / 2]))
            siftUp(pos);
        else
            siftDown(pos);
    }
    ++slot.gen;
    freeSlots.push_back(s);
    Callback cb;
    cb.swap(slot.cb);
    return cb;
}

bool
EventQueue::runOne()
{
    if (heap.empty())
        return false;
    const std::uint32_t s = heap.front();
    const Tick when = slots[s].when;
    RBV_CHECK(when >= curTick,
              "event time regressed: firing at " << when
                  << " with now=" << curTick);
    const Callback cb = release(s);
    curTick = when;
    ++fired;
    RBV_COUNT(SimEventsFired, 1);
    cb();
    return true;
}

void
EventQueue::runUntil(Tick limit)
{
    RBV_CHECK(limit >= curTick,
              "runUntil limit " << limit << " is before now="
                                << curTick);
    RBV_PROF_SCOPE(EventQueuePump);
    stopRequested = false;
    while (!stopRequested && !heap.empty()) {
        if (slots[heap.front()].when > limit) {
            curTick = limit;
            break;
        }
        runOne();
    }
}

} // namespace rbv::sim
