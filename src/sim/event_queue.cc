/**
 * @file
 * Discrete event queue implementation.
 */

#include "sim/event_queue.hh"

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
    const EventId id = nextId++;
    heap.push(Entry{when, nextSeq++, id});
    pending.emplace(id, std::move(cb));
    RBV_COUNT(SimEventsScheduled, 1);
    return id;
}

bool
EventQueue::cancel(EventId id)
{
    const bool erased = pending.erase(id) > 0;
    if (erased)
        RBV_COUNT(SimEventsCancelled, 1);
    return erased;
}

bool
EventQueue::runOne()
{
    while (!heap.empty()) {
        const Entry top = heap.top();
        heap.pop();
        auto it = pending.find(top.id);
        if (it == pending.end())
            continue; // lazily cancelled
        Callback cb = std::move(it->second);
        pending.erase(it);
        RBV_CHECK(top.when >= curTick,
                  "event time regressed: firing at " << top.when
                      << " with now=" << curTick);
        curTick = top.when;
        ++fired;
        RBV_COUNT(SimEventsFired, 1);
        cb();
        return true;
    }
    return false;
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
        // Skip over cancelled heap tops to find the true next event.
        while (!heap.empty() && !pending.count(heap.top().id))
            heap.pop();
        if (heap.empty())
            break;
        if (heap.top().when > limit) {
            curTick = limit;
            break;
        }
        runOne();
    }
}

} // namespace rbv::sim
