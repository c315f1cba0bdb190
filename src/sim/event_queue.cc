/**
 * @file
 * Discrete event queue implementation.
 */

#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "core/check.hh"
#include "obs/obs.hh"

namespace rbv::sim {

EventId
EventQueue::schedule(Tick when, Callback cb)
{
    RBV_CHECK(when >= curTick,
              "event scheduled into the past: when=" << when
                  << " now=" << curTick);
    return add(when, 0, nextSeq++, std::move(cb));
}

EventId
EventQueue::schedule(Tick when, std::uint64_t seq, Callback cb)
{
    RBV_CHECK(when >= curTick,
              "event scheduled into the past: when=" << when
                  << " now=" << curTick);
    RBV_DCHECK(seq < nextSeq, "sequence number " << seq
                                                 << " was not reserved");
    return add(when, 0, seq, std::move(cb));
}

EventId
EventQueue::schedulePeriodic(Tick first, Tick period, Callback cb)
{
    RBV_CHECK(first >= curTick,
              "event scheduled into the past: when=" << first
                  << " now=" << curTick);
    RBV_CHECK(period > 0, "periodic event with period 0");
    return add(first, period, nextSeq++, std::move(cb));
}

EventId
EventQueue::add(Tick when, Tick period, std::uint64_t seq, Callback cb)
{
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
    slot.seq = seq;
    slot.periodTicks = period;
    slot.cb = std::move(cb);
    heapInsert(s);
    RBV_COUNT(SimEventsScheduled, 1);
    return (slot.gen << SlotBits) | s;
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
    rekey(s, when, nextSeq++);
    return true;
}

bool
EventQueue::reschedule(EventId id, Tick when, std::uint64_t seq)
{
    RBV_CHECK(when >= curTick,
              "event rescheduled into the past: when=" << when
                  << " now=" << curTick);
    const std::uint32_t s = liveSlot(id);
    if (s == NoSlot)
        return false;
    RBV_DCHECK(seq > slots[s].seq && seq < nextSeq,
               "sequence number " << seq << " was not reserved after "
                                  << slots[s].seq);
    rekey(s, when, seq);
    return true;
}

void
EventQueue::rekey(std::uint32_t s, Tick when, std::uint64_t seq)
{
    Slot &slot = slots[s];
    RBV_CHECK(slot.periodTicks == 0, "periodic event rescheduled");
    const bool earlier =
        when < slot.when || (when == slot.when && seq < slot.seq);
    slot.when = when;
    slot.seq = seq;
    if (earlier)
        siftUp(slot.heapPos);
    else
        siftDown(slot.heapPos);
    RBV_COUNT(SimEventsRescheduled, 1);
}

void
EventQueue::withdrawFlush(FlushOwner &owner)
{
    std::erase(deferred, &owner);
}

void
EventQueue::runFlushes()
{
    for (std::size_t i = 0; i < deferred.size(); ++i)
        deferred[i]->flush();
    deferred.clear();
}

bool
EventQueue::park(EventId id)
{
    const std::uint32_t s = liveSlot(id);
    if (s == NoSlot)
        return false;
    Slot &slot = slots[s];
    RBV_CHECK(slot.periodTicks > 0, "one-shot event parked");
    if (!slot.parked) {
        heapRemove(s);
        slot.parked = true;
        parkedInsert(s);
    }
    return true;
}

bool
EventQueue::unpark(EventId id)
{
    const std::uint32_t s = liveSlot(id);
    if (s == NoSlot)
        return false;
    Slot &slot = slots[s];
    if (slot.parked) {
        parkedRemove(s);
        slot.parked = false;
        heapInsert(s);
    }
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

void
EventQueue::heapInsert(std::uint32_t s)
{
    heap.push_back(s);
    siftUp(heap.size() - 1);
}

void
EventQueue::heapRemove(std::uint32_t s)
{
    const std::size_t pos = slots[s].heapPos;
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
}

void
EventQueue::parkedInsert(std::uint32_t s)
{
    // A re-armed key is usually the latest, so the scan starts at the
    // back.
    std::size_t pos = parkedSlots.size();
    parkedSlots.push_back(s);
    for (; pos > 0 && before(s, parkedSlots[pos - 1]); --pos)
        parkedSlots[pos] = parkedSlots[pos - 1];
    parkedSlots[pos] = s;
}

void
EventQueue::parkedRemove(std::uint32_t s)
{
    parkedSlots.erase(
        std::find(parkedSlots.begin(), parkedSlots.end(), s));
}

void
EventQueue::rearm(std::uint32_t s)
{
    Slot &slot = slots[s];
    slot.when += slot.periodTicks;
    slot.seq = nextSeq++;
    // The new key is later than the old one.
    if (slot.parked) {
        parkedRemove(s);
        parkedInsert(s);
    } else {
        siftDown(slot.heapPos);
    }
}

EventQueue::Callback
EventQueue::release(std::uint32_t s)
{
    Slot &slot = slots[s];
    if (slot.parked) {
        parkedRemove(s);
        slot.parked = false;
    } else {
        heapRemove(s);
    }
    ++slot.gen;
    freeSlots.push_back(s);
    Callback cb;
    cb.swap(slot.cb);
    return cb;
}

std::uint32_t
EventQueue::next() const
{
    if (parkedSlots.empty())
        return heap.empty() ? NoSlot : heap.front();
    const std::uint32_t p = parkedSlots.front();
    return heap.empty() || before(p, heap.front()) ? p : heap.front();
}

void
EventQueue::take(std::uint32_t s)
{
    const Tick when = slots[s].when;
    RBV_CHECK(when >= curTick,
              "event time regressed: firing at " << when
                  << " with now=" << curTick);
    curTick = when;
    if (slots[s].parked) {
        rearm(s);
        RBV_COUNT(SimEventsParked, 1);
        return;
    }
    ++fired;
    RBV_COUNT(SimEventsFired, 1);
    if (slots[s].periodTicks == 0) {
        const Callback cb = release(s);
        cb();
        return;
    }
    // A periodic event stays pending under its old key while its
    // callback runs. The callback runs from a local, since events it
    // schedules may grow the slot vector.
    const std::uint64_t gen = slots[s].gen;
    Callback cb = std::move(slots[s].cb);
    cb();
    if (slots[s].gen != gen)
        return; // cancelled by its own callback
    slots[s].cb = std::move(cb);
    rearm(s);
    RBV_COUNT(SimEventsScheduled, 1);
}

bool
EventQueue::runOne()
{
    flushDeferred();
    const std::uint32_t s = next();
    if (s == NoSlot)
        return false;
    take(s);
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
    while (!stopRequested) {
        flushDeferred();
        const std::uint32_t s = next();
        if (s == NoSlot)
            break;
        if (slots[s].when > limit) {
            curTick = limit;
            break;
        }
        take(s);
    }
}

} // namespace rbv::sim
