/**
 * @file
 * Unit tests for the discrete event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "obs/obs.hh"
#include "sim/event_queue.hh"
#include "stats/rng.hh"

using namespace rbv::sim;

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(10, [&order, i] { order.push_back(i); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue eq;
    bool fired = false;
    const EventId id = eq.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(eq.cancel(id));
    eq.runUntil(100);
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceIsFalse)
{
    EventQueue eq;
    const EventId id = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(50, [&] { ++count; });
    eq.runUntil(20);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 20u);
    eq.runUntil(100);
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, ScheduleFromWithinEvent)
{
    EventQueue eq;
    std::vector<Tick> fired;
    eq.schedule(10, [&] {
        fired.push_back(eq.now());
        eq.scheduleIn(5, [&] { fired.push_back(eq.now()); });
    });
    eq.runUntil(100);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], 10u);
    EXPECT_EQ(fired[1], 15u);
}

TEST(EventQueue, ScheduleAtCurrentTickFiresThisRun)
{
    EventQueue eq;
    bool inner = false;
    eq.schedule(10, [&] {
        eq.schedule(eq.now(), [&] { inner = true; });
    });
    eq.runUntil(100);
    EXPECT_TRUE(inner);
}

TEST(EventQueue, RequestStopHaltsProcessing)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] {
        ++count;
        eq.requestStop();
    });
    eq.schedule(20, [&] { ++count; });
    eq.runUntil(100);
    EXPECT_EQ(count, 1);
    // A later runUntil resumes.
    eq.runUntil(100);
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.runOne());
    eq.schedule(5, [] {});
    EXPECT_TRUE(eq.runOne());
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, SizeAndEmptyTrackPending)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    const EventId a = eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.size(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.size(), 1u);
    eq.runUntil(10);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, FiredCountExcludesCancelled)
{
    EventQueue eq;
    const EventId a = eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    eq.cancel(a);
    eq.runUntil(10);
    EXPECT_EQ(eq.firedCount(), 1u);
}

TEST(EventQueue, ManyEventsStressOrder)
{
    EventQueue eq;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 1000; ++i) {
        const Tick when = (i * 7919) % 1000;
        eq.schedule(when, [&, when] {
            if (when < last)
                monotonic = false;
            last = when;
        });
    }
    eq.runUntil(2000);
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(eq.firedCount(), 1000u);
}

TEST(EventQueue, RequestStopLeavesTimeAtTheStoppingEvent)
{
    EventQueue eq;
    eq.schedule(10, [&] { eq.requestStop(); });
    eq.schedule(20, [] {});
    eq.runUntil(100);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueue, RunUntilLeavesTimeAtLastEventWhenDrained)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.runUntil(100);
    EXPECT_EQ(eq.now(), 10u);
}

// --------------------------------------------------------- reschedule

TEST(EventQueue, RescheduleToSameTickOrdersAsCancelPlusSchedule)
{
    EventQueue eq;
    std::vector<char> order;
    const EventId a = eq.schedule(10, [&] { order.push_back('A'); });
    eq.schedule(10, [&] { order.push_back('B'); });
    EXPECT_TRUE(eq.reschedule(a, 10));
    EXPECT_EQ(eq.size(), 2u);
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<char>{'B', 'A'}));
}

TEST(EventQueue, RescheduleMovesEarlierAndLater)
{
    EventQueue eq;
    std::vector<std::pair<char, Tick>> fired;
    auto log = [&](char name) {
        return [&, name] { fired.emplace_back(name, eq.now()); };
    };
    const EventId a = eq.schedule(10, log('A'));
    eq.schedule(20, log('B'));
    const EventId c = eq.schedule(30, log('C'));
    EXPECT_TRUE(eq.reschedule(c, 5));
    EXPECT_TRUE(eq.reschedule(a, 25));
    eq.runUntil(100);
    EXPECT_EQ(fired, (std::vector<std::pair<char, Tick>>{
                         {'C', 5}, {'B', 20}, {'A', 25}}));
    EXPECT_EQ(eq.firedCount(), 3u);
}

TEST(EventQueue, RescheduleFromInsideACallback)
{
    EventQueue eq;
    std::vector<Tick> fired;
    const EventId later =
        eq.schedule(50, [&] { fired.push_back(eq.now()); });
    eq.schedule(10, [&] {
        fired.push_back(eq.now());
        EXPECT_TRUE(eq.reschedule(later, eq.now()));
    });
    eq.runUntil(100);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 10}));
}

TEST(EventQueue, InvalidIdIsNeverPending)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    EXPECT_FALSE(eq.cancel(InvalidEventId));
    EXPECT_FALSE(eq.reschedule(InvalidEventId, 20));
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueue, DeadIdsStayDeadAfterTheirSlotIsReused)
{
    EventQueue eq;
    int fired = 0;

    // A cancelled id, then a new event that takes its slot.
    const EventId cancelled = eq.schedule(10, [&] { fired += 100; });
    EXPECT_TRUE(eq.cancel(cancelled));
    const EventId a = eq.schedule(20, [&] { ++fired; });
    EXPECT_NE(a, cancelled);
    EXPECT_FALSE(eq.cancel(cancelled));
    EXPECT_FALSE(eq.reschedule(cancelled, 30));

    // A fired id, then a new event that takes its slot.
    ASSERT_TRUE(eq.runOne());
    EXPECT_EQ(fired, 1);
    const EventId b = eq.schedule(40, [&] { ++fired; });
    EXPECT_NE(b, a);
    EXPECT_FALSE(eq.cancel(a));
    EXPECT_FALSE(eq.reschedule(a, 50));

    EXPECT_EQ(eq.size(), 1u);
    eq.runUntil(100);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 40u);
}

// ---------------------------------------------- periodic and parked

namespace {

/** A log of (name, tick) pairs, one per callback. */
struct FireLog
{
    EventQueue &eq;
    std::vector<std::pair<char, Tick>> fired;

    EventQueue::Callback
    at(char name)
    {
        return [this, name] { fired.emplace_back(name, eq.now()); };
    }
};

using Fired = std::vector<std::pair<char, Tick>>;

} // namespace

TEST(EventQueue, PeriodicEventRearmsAfterItsCallback)
{
    // P's re-arm draws its sequence number after the callback, so an
    // event the callback schedules for P's next tick fires before it.
    EventQueue eq;
    FireLog log{eq, {}};
    eq.schedulePeriodic(10, 10, [&] {
        log.fired.emplace_back('P', eq.now());
        if (eq.now() == 10)
            eq.schedule(20, log.at('E'));
    });
    eq.runUntil(35);
    EXPECT_EQ(log.fired,
              (Fired{{'P', 10}, {'E', 20}, {'P', 20}, {'P', 30}}));
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.firedCount(), 4u);
}

TEST(EventQueue, ParkedTurnsRunNoCallbackAndCountAsPending)
{
    rbv::obs::Session session;
    EventQueue eq;
    FireLog log{eq, {}};
    const EventId p = eq.schedulePeriodic(10, 10, log.at('P'));
    eq.runUntil(10);
    EXPECT_TRUE(eq.park(p));
    EXPECT_TRUE(eq.parked(p));
    EXPECT_TRUE(eq.park(p)); // parking a parked event changes nothing
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_FALSE(eq.empty());
    eq.runUntil(55);
    EXPECT_EQ(eq.now(), 55u);
    ASSERT_TRUE(eq.runOne()); // the parked turn at 60
    EXPECT_EQ(eq.now(), 60u);
    EXPECT_EQ(log.fired, (Fired{{'P', 10}}));
    EXPECT_EQ(eq.firedCount(), 1u);

    // Its turns at 20..60 re-keyed it without firing or scheduling.
    const auto &counters = session.mergedMetrics().counters;
    auto count = [&](rbv::obs::Counter c) {
        return counters[static_cast<std::size_t>(c)];
    };
    EXPECT_EQ(count(rbv::obs::Counter::SimEventsParked), 5u);
    EXPECT_EQ(count(rbv::obs::Counter::SimEventsFired), 1u);
    EXPECT_EQ(count(rbv::obs::Counter::SimEventsScheduled), 2u);

    EXPECT_TRUE(eq.unpark(p));
    EXPECT_FALSE(eq.parked(p));
    EXPECT_TRUE(eq.unpark(p)); // unparking an unparked event too
    eq.runUntil(80);
    EXPECT_EQ(log.fired, (Fired{{'P', 10}, {'P', 70}, {'P', 80}}));
}

TEST(EventQueue, UnparkedEventPrecedesWhatCameAfterItsPark)
{
    // E is scheduled for P's next tick after P parked: P's key is the
    // older one, and unpark() keeps it.
    EventQueue eq;
    FireLog log{eq, {}};
    const EventId p = eq.schedulePeriodic(10, 10, log.at('P'));
    EXPECT_TRUE(eq.park(p));
    eq.runUntil(5);
    eq.schedule(10, log.at('E'));
    EXPECT_TRUE(eq.unpark(p));
    eq.runUntil(10);
    EXPECT_EQ(log.fired, (Fired{{'P', 10}, {'E', 10}}));
}

TEST(EventQueue, ParkedTurnDrawsItsSequenceNumberInOrder)
{
    // E is scheduled for tick 20 before P's parked turn at 10, which
    // draws P's key for tick 20: E fires first.
    EventQueue eq;
    FireLog log{eq, {}};
    const EventId p = eq.schedulePeriodic(10, 10, log.at('P'));
    EXPECT_TRUE(eq.park(p));
    eq.schedule(20, log.at('E'));
    eq.runUntil(15);
    EXPECT_TRUE(log.fired.empty());
    EXPECT_TRUE(eq.unpark(p));
    eq.runUntil(20);
    EXPECT_EQ(log.fired, (Fired{{'E', 20}, {'P', 20}}));
}

TEST(EventQueue, PeriodicEventParksAndUnparksFromItsOwnCallback)
{
    EventQueue eq;
    FireLog log{eq, {}};
    EventId p = InvalidEventId;
    p = eq.schedulePeriodic(10, 10, [&] {
        log.fired.emplace_back('P', eq.now());
        EXPECT_TRUE(eq.park(p));
        if (eq.now() == 20) {
            EXPECT_TRUE(eq.unpark(p));
        }
    });
    eq.runUntil(10);
    EXPECT_TRUE(eq.parked(p));
    EXPECT_TRUE(eq.unpark(p));
    eq.runUntil(60);
    EXPECT_EQ(log.fired, (Fired{{'P', 10}, {'P', 20}, {'P', 30}}));
    EXPECT_TRUE(eq.parked(p));
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueue, PeriodicCallbackMayGrowTheSlotVector)
{
    // The callback is small enough for std::function to hold inline,
    // in the slot itself; it keeps its state across the growth.
    struct Context
    {
        EventQueue *eq;
        std::vector<int> seen;
    } ctx{nullptr, {}};
    EventQueue eq;
    ctx.eq = &eq;
    eq.schedulePeriodic(10, 10, [c = &ctx, n = 0]() mutable {
        if (n == 0) {
            for (int i = 0; i < 1000; ++i)
                c->eq->schedule(1000, [] {});
        }
        ++n;
        c->seen.push_back(n);
    });
    eq.runUntil(30);
    EXPECT_EQ(ctx.seen, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.size(), 1001u);
}

TEST(EventQueue, CancelEndsAPeriodicEventWhereverItIs)
{
    EventQueue eq;
    FireLog log{eq, {}};

    // In the heap.
    const EventId a = eq.schedulePeriodic(10, 10, log.at('A'));
    // Parked.
    const EventId b = eq.schedulePeriodic(10, 10, log.at('B'));
    EXPECT_TRUE(eq.park(b));
    // From inside its own callback, on its second turn.
    EventId c = InvalidEventId;
    c = eq.schedulePeriodic(10, 10, [&] {
        log.fired.emplace_back('C', eq.now());
        if (eq.now() == 20) {
            EXPECT_TRUE(eq.cancel(c));
        }
    });
    eq.runUntil(10);
    EXPECT_EQ(eq.size(), 3u);
    EXPECT_TRUE(eq.cancel(a));
    EXPECT_TRUE(eq.cancel(b));
    EXPECT_FALSE(eq.cancel(b));
    EXPECT_FALSE(eq.park(b));
    EXPECT_FALSE(eq.unpark(b));
    EXPECT_FALSE(eq.parked(b));
    eq.runUntil(100);
    EXPECT_EQ(log.fired, (Fired{{'A', 10}, {'C', 10}, {'C', 20}}));
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.cancel(c));
}

// ------------------------------------- reserved numbers and flushes

namespace {

/** A flush owner that runs @c body at each flush. */
struct TestOwner final : EventQueue::FlushOwner
{
    std::function<void()> body;
    int flushes = 0;

    void
    flush() override
    {
        ++flushes;
        if (body)
            body();
    }
};

} // namespace

TEST(EventQueue, KeyedEventOrdersByItsReservedNumber)
{
    // C takes number 0 and the reservation 1 and 2, then A draws 3.
    // B is keyed with 2 and C re-keyed with 1, both after A went in.
    EventQueue eq;
    FireLog log{eq, {}};
    const EventId c = eq.schedule(10, log.at('C'));
    const std::uint64_t r = eq.reserveSeq(2);
    EXPECT_EQ(r, 1u);
    eq.schedule(10, log.at('A'));
    eq.schedule(10, r + 1, log.at('B'));
    EXPECT_TRUE(eq.reschedule(c, 10, r));
    EXPECT_FALSE(eq.reschedule(InvalidEventId, 10, r));
    eq.runUntil(10);
    EXPECT_EQ(log.fired, (Fired{{'C', 10}, {'B', 10}, {'A', 10}}));
}

TEST(EventQueue, RunOneFlushesBeforeItChoosesATurn)
{
    // The flush moves E from tick 50 to tick 10, ahead of F at 20.
    EventQueue eq;
    FireLog log{eq, {}};
    const EventId e = eq.schedule(50, log.at('E'));
    eq.schedule(20, log.at('F'));
    TestOwner owner;
    const std::uint64_t r = eq.reserveSeq(1);
    owner.body = [&] { EXPECT_TRUE(eq.reschedule(e, 10, r)); };
    eq.deferFlush(owner);
    ASSERT_TRUE(eq.runOne());
    EXPECT_EQ(owner.flushes, 1);
    EXPECT_EQ(log.fired, (Fired{{'E', 10}}));
    // A flush runs once per registration.
    ASSERT_TRUE(eq.runOne());
    EXPECT_EQ(owner.flushes, 1);
}

TEST(EventQueue, RunUntilFlushesBeforeEachStep)
{
    // Each turn of E re-registers the owner, whose flush schedules
    // the next E 5 ticks on. Only a flush before every step fires E
    // at 5, 10 and 15; the fourth flush schedules E at 20.
    EventQueue eq;
    FireLog log{eq, {}};
    TestOwner owner;
    std::uint64_t r = 0;
    Tick next = 5;
    const EventQueue::Callback turn = [&] {
        log.fired.emplace_back('E', eq.now());
        next = eq.now() + 5;
        r = eq.reserveSeq(1);
        eq.deferFlush(owner);
    };
    EventId e = eq.schedule(100, turn);
    owner.body = [&] {
        if (!eq.reschedule(e, next, r))
            e = eq.schedule(next, r, turn);
    };
    r = eq.reserveSeq(1);
    eq.deferFlush(owner);
    eq.runUntil(15);
    EXPECT_EQ(log.fired, (Fired{{'E', 5}, {'E', 10}, {'E', 15}}));
    EXPECT_EQ(owner.flushes, 4);
    EXPECT_EQ(eq.now(), 15u);
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueue, SizeAndEmptyFlushFirst)
{
    EventQueue eq;
    TestOwner owner;
    EventId e = InvalidEventId;
    owner.body = [&] { e = eq.schedule(10, [] {}); };
    eq.deferFlush(owner);
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(owner.flushes, 1);
    owner.body = [&] { EXPECT_TRUE(eq.cancel(e)); };
    eq.deferFlush(owner);
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_EQ(owner.flushes, 2);
}

TEST(EventQueue, WithdrawnOwnerIsNotFlushed)
{
    EventQueue eq;
    TestOwner kept;
    TestOwner dropped;
    eq.deferFlush(kept);
    eq.deferFlush(dropped);
    eq.withdrawFlush(dropped);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(kept.flushes, 1);
    EXPECT_EQ(dropped.flushes, 0);
}

// ------------------------------------------------ differential model

namespace {

/**
 * Drives an EventQueue and a reference model with the same seeded
 * random steps. The model is an ordered set of (tick, sequence)
 * keys; every step, including those issued from inside callbacks,
 * must agree with it on firing order, now(), size() and every
 * return value. A periodic event is one more key: when it reaches
 * the front parked, it re-keys to (tick + period, next sequence)
 * without a callback; unparked, it fires and re-keys after the
 * callback's own steps. A reserved block is a gap in the counter, and
 * a keyed event is one more key, under its reserved number. A flush
 * owner with one event per slot, like a machine's boundaries, changes
 * them at each touch: the model re-keys them there from the touch's
 * reserved block, and the queue must give the same keys when it runs
 * the owner's flush before a later turn or size() or empty().
 */
class QueueModelCheck
{
  public:
    explicit QueueModelCheck(std::uint64_t seed) : rng(seed) {}

    void
    step()
    {
        const std::uint64_t pick = rng.uniformInt(100);
        if (pick < 26)
            schedule();
        else if (pick < 30)
            schedulePeriodic();
        else if (pick < 43)
            cancel();
        else if (pick < 63)
            reschedule();
        else if (pick < 67)
            park();
        else if (pick < 71)
            unpark();
        else if (pick < 74)
            scheduleKeyed();
        else if (pick < 77)
            rescheduleKeyed();
        else if (pick < 79)
            reserve();
        else if (pick < 83)
            touchOwner();
        else if (pick < 91)
            runOne();
        else
            runUntil();
        // size() and empty() flush first, so while the owner's flush
        // is pending they are checked on half the steps only: the
        // others leave it for the next runOne() or runUntil().
        if (!ownerPending || rng.uniformInt(2) == 0) {
            EXPECT_EQ(eq.size(), model.size());
            EXPECT_EQ(eq.empty(), model.empty());
        }
        EXPECT_EQ(eq.now(), now);
        const Handle h = randomPeriodic();
        EXPECT_EQ(eq.parked(h.id), parkedLabels.count(h.label) > 0);
    }

    std::uint64_t fired = 0;
    std::uint64_t parkedTurns = 0;
    std::uint64_t flushes = 0;

  private:
    struct Handle
    {
        EventId id;
        int label;
    };

    using Key = std::pair<Tick, std::uint64_t>;

    Tick
    randomTick()
    {
        // A narrow window, so that many events share a tick.
        return eq.now() + rng.uniformInt(24);
    }

    void
    remember(EventId id, int label)
    {
        if (handles.size() < 48)
            handles.push_back({id, label});
        else
            handles[rng.uniformInt(handles.size())] = {id, label};
    }

    /** A recent one-shot handle, live or dead, or the invalid id. */
    Handle
    randomHandle()
    {
        if (handles.empty() || rng.uniformInt(20) == 0)
            return {InvalidEventId, -1};
        return handles[rng.uniformInt(handles.size())];
    }

    /** A periodic handle, live or dead, or the invalid id. */
    Handle
    randomPeriodic()
    {
        if (periodics.empty() || rng.uniformInt(20) == 0)
            return {InvalidEventId, -1};
        return periodics[rng.uniformInt(periodics.size())];
    }

    bool pending(int label) const { return keyOf.count(label) > 0; }

    /** The owner's events: one per slot, labelled below -1. */
    static constexpr int OwnerSlots = 3;

    static int ownerLabel(int slot) { return -2 - slot; }

    struct Owned
    {
        EventId id = InvalidEventId;
        bool wanted = false;
        Tick when = 0;
    };

    struct Owner final : EventQueue::FlushOwner
    {
        explicit Owner(QueueModelCheck &c) : check(c) {}

        void flush() override { check.flushOwner(); }

        QueueModelCheck &check;
    };

    void
    schedule()
    {
        if (model.size() >= 64)
            return;
        const Tick when = randomTick();
        const int label = nextLabel++;
        const EventId id = eq.schedule(when, [this, label] {
            onFire(label);
        });
        ASSERT_NE(id, InvalidEventId);
        const Key key{when, nextSeq++};
        model.emplace(key, label);
        keyOf.emplace(label, key);
        remember(id, label);
    }

    /** Take a random unused reserved number, or none. */
    bool
    takeReserved(std::uint64_t above, std::uint64_t &seq)
    {
        std::vector<std::size_t> fits;
        for (std::size_t i = 0; i < reservedPool.size(); ++i)
            if (reservedPool[i] > above || above == NoFloor)
                fits.push_back(i);
        if (fits.empty())
            return false;
        const std::size_t at = fits[rng.uniformInt(fits.size())];
        seq = reservedPool[at];
        reservedPool[at] = reservedPool.back();
        reservedPool.pop_back();
        return true;
    }

    void
    reserve()
    {
        const std::uint64_t n = rng.uniformInt(5);
        EXPECT_EQ(eq.reserveSeq(n), nextSeq);
        // The numbers left out of the pool stay unused.
        for (std::uint64_t i = 0; i < n; ++i)
            if (reservedPool.size() < 16 && rng.uniformInt(2) == 0)
                reservedPool.push_back(nextSeq + i);
        nextSeq += n;
    }

    void
    scheduleKeyed()
    {
        std::uint64_t seq = 0;
        if (model.size() >= 64 || !takeReserved(NoFloor, seq))
            return;
        const Tick when = randomTick();
        const int label = nextLabel++;
        const EventId id = eq.schedule(when, seq, [this, label] {
            onFire(label);
        });
        ASSERT_NE(id, InvalidEventId);
        const Key key{when, seq};
        model.emplace(key, label);
        keyOf.emplace(label, key);
        remember(id, label);
    }

    void
    rescheduleKeyed()
    {
        const Handle h = randomHandle();
        const Tick when = randomTick();
        const auto it = keyOf.find(h.label);
        if (it == keyOf.end()) {
            EXPECT_FALSE(eq.reschedule(h.id, when, nextSeq));
            return;
        }
        std::uint64_t seq = 0;
        if (!takeReserved(it->second.second, seq))
            return;
        EXPECT_TRUE(eq.reschedule(h.id, when, seq));
        model.erase(it->second);
        it->second = Key{when, seq};
        model.emplace(it->second, h.label);
    }

    /**
     * A change of the owner's state: each slot's event is re-keyed,
     * scheduled or cancelled, as an eager pass would, under numbers
     * from a fresh block; the queue sees it at the flush.
     */
    void
    touchOwner()
    {
        const std::uint64_t first = eq.reserveSeq(OwnerSlots);
        EXPECT_EQ(first, nextSeq);
        nextSeq += OwnerSlots;
        std::uint64_t seq = first;
        for (int k = 0; k < OwnerSlots; ++k) {
            Owned &o = owned[k];
            o.wanted = rng.uniformInt(3) != 0;
            o.when = randomTick();
            const int label = ownerLabel(k);
            const auto it = keyOf.find(label);
            if (it != keyOf.end()) {
                model.erase(it->second);
                keyOf.erase(it);
            }
            if (o.wanted) {
                const Key key{o.when, seq++};
                model.emplace(key, label);
                keyOf.emplace(label, key);
            }
        }
        ownerSeq = first;
        if (!ownerPending) {
            ownerPending = true;
            eq.deferFlush(owner);
        }
    }

    /** The owner's flush: the last touch's pass, keyed from its block. */
    void
    flushOwner()
    {
        EXPECT_TRUE(ownerPending);
        ownerPending = false;
        ++flushes;
        std::uint64_t seq = ownerSeq;
        for (int k = 0; k < OwnerSlots; ++k) {
            Owned &o = owned[k];
            if (o.wanted) {
                if (!eq.reschedule(o.id, o.when, seq)) {
                    o.id = eq.schedule(o.when, seq, [this, k] {
                        owned[k].id = InvalidEventId;
                        onFire(ownerLabel(k));
                    });
                }
                ++seq;
            } else {
                eq.cancel(o.id);
                o.id = InvalidEventId;
            }
        }
    }

    void
    schedulePeriodic()
    {
        // At most 4 live at once; 8 handles keep room for dead ones.
        const auto live = std::count_if(
            periodics.begin(), periodics.end(),
            [&](const Handle &h) { return pending(h.label); });
        if (model.size() >= 64 || live >= 4)
            return;
        const Tick when = randomTick();
        const Tick period = 1 + rng.uniformInt(32);
        const int label = nextLabel++;
        const EventId id = eq.schedulePeriodic(when, period, [this, label] {
            onFire(label);
        });
        ASSERT_NE(id, InvalidEventId);
        const Key key{when, nextSeq++};
        model.emplace(key, label);
        keyOf.emplace(label, key);
        periodOf.emplace(label, period);
        const Handle h{id, label};
        const auto dead = std::find_if(
            periodics.begin(), periodics.end(),
            [&](const Handle &p) { return !pending(p.label); });
        if (periodics.size() < 8)
            periodics.push_back(h);
        else
            *dead = h;
    }

    void
    cancel()
    {
        const Handle h =
            rng.uniformInt(4) == 0 ? randomPeriodic() : randomHandle();
        const auto it = keyOf.find(h.label);
        const bool live = it != keyOf.end();
        EXPECT_EQ(eq.cancel(h.id), live);
        if (live) {
            model.erase(it->second);
            keyOf.erase(it);
            parkedLabels.erase(h.label);
        }
    }

    void
    reschedule()
    {
        const Handle h = randomHandle();
        const Tick when = randomTick();
        const auto it = keyOf.find(h.label);
        const bool live = it != keyOf.end();
        EXPECT_EQ(eq.reschedule(h.id, when), live);
        if (live) {
            model.erase(it->second);
            it->second = Key{when, nextSeq++};
            model.emplace(it->second, h.label);
        }
    }

    void
    park()
    {
        const Handle h = randomPeriodic();
        const bool live = pending(h.label);
        EXPECT_EQ(eq.park(h.id), live);
        if (live)
            parkedLabels.insert(h.label);
    }

    void
    unpark()
    {
        const Handle h = randomPeriodic();
        const bool live = pending(h.label);
        EXPECT_EQ(eq.unpark(h.id), live);
        parkedLabels.erase(h.label);
    }

    /** Move periodic @p label on by one period, with the next key. */
    void
    rearm(int label)
    {
        auto it = keyOf.find(label);
        model.erase(it->second);
        it->second = Key{it->second.first + periodOf.at(label), nextSeq++};
        model.emplace(it->second, label);
    }

    /**
     * Take the turns of parked events that come first, up to tick
     * @p limit: the queue takes them without a callback.
     */
    void
    takeParkedTurns(Tick limit)
    {
        while (!model.empty()) {
            const auto first = model.begin();
            if (parkedLabels.count(first->second) == 0 ||
                first->first.first > limit)
                return;
            now = first->first.first;
            rearm(first->second);
            ++parkedTurns;
        }
    }

    void
    runOne()
    {
        const bool any = !model.empty();
        const bool parkedTurn =
            any && parkedLabels.count(model.begin()->second) > 0;
        const std::uint64_t before = fired;
        if (parkedTurn) {
            now = model.begin()->first.first;
            rearm(model.begin()->second);
            ++parkedTurns;
        }
        EXPECT_EQ(eq.runOne(), any);
        EXPECT_EQ(fired - before, any && !parkedTurn ? 1u : 0u);
    }

    void
    runUntil()
    {
        limit = eq.now() + rng.uniformInt(40);
        inRunUntil = true;
        stopped = false;
        eq.runUntil(limit);
        inRunUntil = false;
        if (!stopped && !model.empty()) {
            takeParkedTurns(limit);
            EXPECT_GT(model.begin()->first.first, limit);
            now = limit;
        }
    }

    /** A callback: the model's earliest event must be this one. */
    void
    onFire(int label)
    {
        ++fired;
        takeParkedTurns(eq.now());
        ASSERT_FALSE(model.empty());
        EXPECT_FALSE(inRunUntil && stopped)
            << "event " << label << " fired after a stop request";
        const auto first = model.begin();
        EXPECT_EQ(first->second, label);
        EXPECT_EQ(parkedLabels.count(label), 0u);
        now = first->first.first;
        EXPECT_EQ(eq.now(), now);
        if (inRunUntil) {
            EXPECT_LE(now, limit);
        }
        // A periodic event stays pending while its callback runs.
        const bool periodic = periodOf.count(label) > 0;
        if (!periodic) {
            keyOf.erase(first->second);
            model.erase(first);
        }
        EXPECT_EQ(eq.size(), model.size());

        // Steps issued from inside the callback.
        const std::uint64_t nested = rng.uniformInt(4);
        for (std::uint64_t k = 0; k < nested; ++k) {
            const std::uint64_t pick = rng.uniformInt(6);
            if (pick == 0)
                schedule();
            else if (pick == 1)
                cancel();
            else if (pick == 2)
                reschedule();
            else if (pick == 3)
                park();
            else if (pick == 4)
                unpark();
            else
                schedulePeriodic();
            // The keyed steps ride along on half the nested steps.
            const std::uint64_t keyed = rng.uniformInt(6);
            if (keyed == 0)
                scheduleKeyed();
            else if (keyed == 1)
                rescheduleKeyed();
            else if (keyed == 2)
                touchOwner();
        }
        if (rng.uniformInt(16) == 0) {
            eq.requestStop();
            stopped = true;
        }
        // The queue re-arms it once the callback returns.
        if (periodic && pending(label))
            rearm(label);
    }

    rbv::stats::Rng rng;
    EventQueue eq;
    std::map<Key, int> model;
    std::map<int, Key> keyOf;
    std::map<int, Tick> periodOf;
    std::set<int> parkedLabels;
    std::vector<Handle> handles;
    std::vector<Handle> periodics;
    /** Reserved numbers that no event has taken yet. */
    std::vector<std::uint64_t> reservedPool;
    static constexpr std::uint64_t NoFloor = ~std::uint64_t{0};
    Owner owner{*this};
    std::array<Owned, OwnerSlots> owned{};
    std::uint64_t ownerSeq = 0;
    bool ownerPending = false;
    std::uint64_t nextSeq = 0;
    int nextLabel = 0;
    Tick now = 0;
    Tick limit = 0;
    bool inRunUntil = false;
    bool stopped = false;
};

} // namespace

TEST(EventQueue, MatchesAnOrderedSetModelOverRandomSteps)
{
    for (std::uint64_t seed : {1u, 7u, 20u, 99u}) {
        QueueModelCheck check(seed);
        for (int i = 0; i < 30000; ++i) {
            check.step();
            if (::testing::Test::HasFailure())
                FAIL() << "seed " << seed << " diverged at step " << i;
        }
        EXPECT_GT(check.fired, 10000u) << "seed " << seed;
        EXPECT_GT(check.parkedTurns, 1000u) << "seed " << seed;
        EXPECT_GT(check.flushes, 1000u) << "seed " << seed;
    }
}
