/**
 * @file
 * Unit tests for the discrete event queue.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

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

// ------------------------------------------------ differential model

namespace {

/**
 * Drives an EventQueue and a reference model with the same seeded
 * random steps. The model is an ordered set of (tick, sequence)
 * keys; every step, including those issued from inside callbacks,
 * must agree with it on firing order, now(), size() and every
 * return value.
 */
class QueueModelCheck
{
  public:
    explicit QueueModelCheck(std::uint64_t seed) : rng(seed) {}

    void
    step()
    {
        const std::uint64_t pick = rng.uniformInt(100);
        if (pick < 30)
            schedule();
        else if (pick < 45)
            cancel();
        else if (pick < 70)
            reschedule();
        else if (pick < 85)
            runOne();
        else
            runUntil();
        EXPECT_EQ(eq.size(), model.size());
        EXPECT_EQ(eq.now(), now);
    }

    std::uint64_t fired = 0;

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

    /** A recent handle, live or dead, or the invalid id. */
    Handle
    randomHandle()
    {
        if (handles.empty() || rng.uniformInt(20) == 0)
            return {InvalidEventId, -1};
        return handles[rng.uniformInt(handles.size())];
    }

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

    void
    cancel()
    {
        const Handle h = randomHandle();
        const auto it = keyOf.find(h.label);
        const bool pending = it != keyOf.end();
        EXPECT_EQ(eq.cancel(h.id), pending);
        if (pending) {
            model.erase(it->second);
            keyOf.erase(it);
        }
    }

    void
    reschedule()
    {
        const Handle h = randomHandle();
        const Tick when = randomTick();
        const auto it = keyOf.find(h.label);
        const bool pending = it != keyOf.end();
        EXPECT_EQ(eq.reschedule(h.id, when), pending);
        if (pending) {
            model.erase(it->second);
            it->second = Key{when, nextSeq++};
            model.emplace(it->second, h.label);
        }
    }

    void
    runOne()
    {
        const bool any = !model.empty();
        const std::uint64_t before = fired;
        EXPECT_EQ(eq.runOne(), any);
        EXPECT_EQ(fired - before, any ? 1u : 0u);
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
            EXPECT_GT(model.begin()->first.first, limit);
            now = limit;
        }
    }

    /** A callback: the model's earliest event must be this one. */
    void
    onFire(int label)
    {
        ++fired;
        ASSERT_FALSE(model.empty());
        EXPECT_FALSE(inRunUntil && stopped)
            << "event " << label << " fired after a stop request";
        const auto first = model.begin();
        EXPECT_EQ(first->second, label);
        now = first->first.first;
        EXPECT_EQ(eq.now(), now);
        if (inRunUntil) {
            EXPECT_LE(now, limit);
        }
        keyOf.erase(first->second);
        model.erase(first);
        EXPECT_EQ(eq.size(), model.size());

        // Steps issued from inside the callback.
        const std::uint64_t nested = rng.uniformInt(4);
        for (std::uint64_t k = 0; k < nested; ++k) {
            const std::uint64_t pick = rng.uniformInt(3);
            if (pick == 0)
                schedule();
            else if (pick == 1)
                cancel();
            else
                reschedule();
        }
        if (rng.uniformInt(16) == 0) {
            eq.requestStop();
            stopped = true;
        }
    }

    rbv::stats::Rng rng;
    EventQueue eq;
    std::map<Key, int> model;
    std::map<int, Key> keyOf;
    std::vector<Handle> handles;
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
    }
}
