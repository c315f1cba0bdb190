/**
 * @file
 * exp::Handoff tests: records arrive in push order, the producer
 * blocks at capacity and resumes once a batch is released, a drain
 * returns only once every pushed record has been consumed, a stop
 * ends the consumer, a throw in either stage of runStages() closes
 * the hand-off so that the other stage returns and the first
 * exception is rethrown after the join, and leaveCpu moves a thread
 * off a CPU without narrowing its CPU mask.
 */

#include <atomic>
#include <chrono>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#ifdef __linux__
#include <sched.h>
#endif

#include "exp/handoff.hh"

using namespace rbv::exp;

namespace {

using IntHandoff = Handoff<std::size_t>;
constexpr std::size_t Capacity = IntHandoff::Capacity;
constexpr std::size_t WakeBatch = IntHandoff::WakeBatch;

/** Push @p n consecutive values starting at @p from. */
void
pushRange(IntHandoff &h, std::size_t from, std::size_t n)
{
    for (std::size_t i = from; i < from + n; ++i) {
        h.next() = i;
        h.push();
    }
}

/** Take batches until the end, calling @p fn on each value. */
template <class Fn>
void
consumeAll(IntHandoff &h, Fn fn)
{
    for (;;) {
        const std::span<std::size_t> batch = h.take();
        if (batch.empty())
            return;
        for (const std::size_t v : batch)
            fn(v);
        h.release();
    }
}

/** Spin until @p done holds, yielding the CPU. */
template <class Pred>
void
awaitTrue(Pred done)
{
    while (!done())
        std::this_thread::yield();
}

TEST(Handoff, RecordsArriveInPushOrder)
{
    // Many rounds, so the two threads meet in many interleavings.
    for (int round = 0; round < 20; ++round) {
        IntHandoff h;
        const std::size_t n = 3 * Capacity + 7 * round;
        std::vector<std::size_t> seen;
        runStages(
            h, [&] { pushRange(h, 0, n); },
            [&](std::size_t v) { seen.push_back(v); });
        ASSERT_EQ(seen.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(seen[i], i);
    }
}

TEST(Handoff, OneThreadMayRunTheProducerThenTheConsumer)
{
    // The order parallelFor gives when its calling thread claims both
    // indices: a producer that fills no more than Capacity never waits.
    IntHandoff h;
    pushRange(h, 0, Capacity);
    h.stop();
    std::size_t next = 0;
    std::size_t batches = 0;
    for (;;) {
        const std::span<std::size_t> batch = h.take();
        if (batch.empty())
            break;
        ++batches;
        for (const std::size_t v : batch)
            EXPECT_EQ(v, next++);
        h.release();
    }
    EXPECT_EQ(next, Capacity);
    EXPECT_EQ(batches, IntHandoff::Batches);
}

TEST(Handoff, ProducerBlocksAtCapacityAndResumesAfterABatch)
{
    IntHandoff h;
    std::atomic<std::size_t> pushed{0};
    const std::size_t total = Capacity + WakeBatch;
    std::thread producer([&] {
        for (std::size_t i = 0; i < total; ++i) {
            h.next() = i;
            h.push();
            pushed.store(i + 1);
        }
    });
    awaitTrue([&] { return pushed.load() == Capacity; });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(pushed.load(), Capacity); // every batch handed over

    // A batch taken but not yet released: still waiting.
    const std::span<std::size_t> first = h.take();
    ASSERT_EQ(first.size(), WakeBatch);
    for (std::size_t i = 0; i < WakeBatch; ++i)
        ASSERT_EQ(first[i], i);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(pushed.load(), Capacity);

    // Its release wakes the producer, which fills the freed batch.
    h.release();
    producer.join();
    EXPECT_EQ(pushed.load(), total);
    std::size_t next = WakeBatch;
    h.stop();
    consumeAll(h, [&](std::size_t v) { ASSERT_EQ(v, next++); });
    EXPECT_EQ(next, total);
}

TEST(Handoff, DrainReturnsOnlyOnceEveryPushedRecordIsConsumed)
{
    IntHandoff h;
    // Written by the consumer, read by the producer after each drain
    // with no other synchronization: TSan checks the drain's
    // happens-before edge.
    std::size_t consumed = 0;
    std::size_t sum = 0;
    std::thread consumer([&] {
        consumeAll(h, [&](std::size_t v) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            sum += v;
            ++consumed;
        });
    });
    std::size_t pushed = 0;
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{5}, WakeBatch - 1, WakeBatch,
          WakeBatch + 1, Capacity + 3}) {
        pushRange(h, pushed, n);
        pushed += n;
        h.drain();
        EXPECT_EQ(consumed, pushed) << "after a round of " << n;
        EXPECT_EQ(sum, pushed * (pushed - 1) / 2);
    }
    h.drain(); // nothing pending: returns at once
    h.stop();
    consumer.join();
    EXPECT_EQ(consumed, pushed);
}

TEST(Handoff, StopEndsTheConsumer)
{
    // A consumer already asleep on an empty hand-off.
    {
        IntHandoff h;
        std::atomic<bool> ended{false};
        std::thread consumer([&] {
            EXPECT_TRUE(h.take().empty());
            ended = true;
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        EXPECT_FALSE(ended.load());
        h.stop();
        consumer.join();
        EXPECT_TRUE(ended.load());
    }
    // Fewer records than a batch: every one arrives before the end.
    {
        IntHandoff h;
        std::size_t seen = 0;
        std::thread consumer(
            [&] { consumeAll(h, [&](std::size_t) { ++seen; }); });
        pushRange(h, 0, 3);
        h.stop();
        consumer.join();
        EXPECT_EQ(seen, 3u);
    }
}

TEST(Handoff, AThrowingProducerClosesItAndTheConsumerReturns)
{
    for (int round = 0; round < 10; ++round) {
        IntHandoff h;
        std::size_t seen = 0;
        try {
            runStages(
                h,
                [&] {
                    pushRange(h, 0, WakeBatch + 10);
                    throw std::runtime_error("simulation failed");
                },
                [&](std::size_t) { ++seen; });
            ADD_FAILURE() << "runStages did not rethrow";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()), "simulation failed");
        }
        EXPECT_LE(seen, WakeBatch);
    }
}

TEST(Handoff, AThrowingConsumerClosesItAndTheProducerReturns)
{
    // The producer waits for a free batch, or in a drain, when the
    // consumer fails; either way it leaves through HandoffClosed.
    for (const bool drains : {false, true}) {
        for (int round = 0; round < 10; ++round) {
            IntHandoff h;
            bool producerReturned = false;
            try {
                runStages(
                    h,
                    [&] {
                        try {
                            pushRange(h, 0, drains ? 5 : 100 * Capacity);
                            if (drains)
                                h.drain();
                        } catch (const HandoffClosed &) {
                            producerReturned = true;
                            throw;
                        }
                    },
                    [&](std::size_t v) {
                        if (v == 3)
                            throw std::logic_error("model failed");
                    });
                ADD_FAILURE() << "runStages did not rethrow";
            } catch (const std::logic_error &e) {
                EXPECT_EQ(std::string(e.what()), "model failed");
            }
            EXPECT_TRUE(producerReturned);
        }
    }
}

TEST(Handoff, CloseWakesBothSleepers)
{
    IntHandoff a;
    std::thread consumer([&] { EXPECT_TRUE(a.take().empty()); });
    IntHandoff b;
    pushRange(b, 0, Capacity);
    std::thread producer([&] { EXPECT_THROW(b.next(), HandoffClosed); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    a.close();
    b.close();
    consumer.join();
    producer.join();
}

#ifdef __linux__
TEST(Handoff, LeaveCpuMovesOffACpuAndKeepsTheMask)
{
    cpu_set_t before;
    ASSERT_EQ(sched_getaffinity(0, sizeof before, &before), 0);
    const int cpu = currentCpu();
    ASSERT_GE(cpu, 0);

    leaveCpu(cpu == 0 ? 1 : cpu - 1); // not this CPU: no move
    leaveCpu(cpu);
    if (CPU_COUNT(&before) > 1)
        EXPECT_NE(currentCpu(), cpu);
    else
        EXPECT_EQ(currentCpu(), cpu);

    cpu_set_t after;
    ASSERT_EQ(sched_getaffinity(0, sizeof after, &after), 0);
    EXPECT_TRUE(CPU_EQUAL(&before, &after));
}
#endif

} // namespace
