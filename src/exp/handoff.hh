/**
 * @file
 * A bounded single-producer/single-consumer hand-off between the two
 * stages of a pipeline that runs on the two threads of one
 * obs::parallelFor(2, 2, ...): runServe's simulation stage hands over
 * one record per completed request and its model stage consumes them
 * in order (docs/SERVING.md, "Two stages").
 *
 * The producer fills a batch of up to WakeBatch records in place and
 * hands it over under the hand-off's one mutex; the consumer takes
 * whole batches, oldest first. Batches batches are reused in turn, so
 * at most Capacity records are in flight and the producer waits while
 * every batch is handed over. A stage that keeps up with the other
 * costs one lock and at most one wake-up per batch, not per record.
 *
 *     producer                        consumer
 *       Rec &r = h.next();              for (;;) {
 *       ...fill r...                        auto batch = h.take();
 *       h.push();                           if (batch.empty()) break;
 *       h.drain();  // everything           ...read batch...
 *                   // pushed is consumed   h.release();
 *       h.stop();                       }
 *
 * runStages() runs the two loops on one obs::parallelFor(2, 2, ...).
 * A stage that throws closes the hand-off: take() then returns an
 * empty batch and the producer's next() (at its next batch) and
 * drain() throw HandoffClosed, so the other stage returns instead of
 * waiting forever, and parallelFor rethrows the first stage's
 * exception. Records are reused in place, so next() returns a slot
 * that still holds the record of Capacity pushes ago; memory a record
 * owns is freed by the producer's next assignment, on the thread that
 * allocated it.
 */

#ifndef RBV_EXP_HANDOFF_HH
#define RBV_EXP_HANDOFF_HH

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/obs.hh"

namespace rbv::exp {

/** Thrown at the producer once the hand-off is closed. */
class HandoffClosed : public std::runtime_error
{
  public:
    HandoffClosed() : std::runtime_error("stage hand-off closed") {}
};

/** The bounded SPSC hand-off; see the file comment. */
template <class Record>
class Handoff
{
  public:
    /** Records per batch: a sleeping consumer wakes once one is full. */
    static constexpr std::size_t WakeBatch = 32;

    /** Batches reused in turn. */
    static constexpr std::size_t Batches = 8;

    /** Records in flight at most. */
    static constexpr std::size_t Capacity = Batches * WakeBatch;

    Handoff() : slots(Capacity) {}

    Handoff(const Handoff &) = delete;
    Handoff &operator=(const Handoff &) = delete;

    /** @name Producer side (one thread). */
    /// @{
    /**
     * The slot the next push() fills. At the start of a batch, waits
     * while every batch is handed over, and throws HandoffClosed once
     * the hand-off is closed. Call it once per push().
     */
    Record &
    next()
    {
        if (filled == 0)
            acquire();
        return slots[fillBatch * WakeBatch + filled];
    }

    /** Count the slot next() returned; a full batch is handed over. */
    void
    push()
    {
        if (++filled == WakeBatch)
            publish();
    }

    /**
     * Hand over a partial batch and return once the consumer has
     * released every batch, so the caller sees everything the
     * consumer wrote. Throws HandoffClosed once the hand-off is
     * closed.
     */
    void
    drain()
    {
        if (filled > 0)
            publish();
        std::unique_lock<std::mutex> lock(mu);
        changed.wait(lock, [&] { return closed || consumed == produced; });
        if (closed)
            throw HandoffClosed();
    }

    /** No more records: take() ends once every batch is taken. */
    void
    stop()
    {
        if (filled > 0)
            publish();
        {
            const std::lock_guard<std::mutex> lock(mu);
            stopped = true;
        }
        changed.notify_one();
    }
    /// @}

    /** @name Consumer side (one thread). */
    /// @{
    /**
     * The oldest batch handed over and not yet released; waits while
     * there is none. Empty after stop() once every batch was taken,
     * and once the hand-off is closed.
     */
    std::span<Record>
    take()
    {
        std::unique_lock<std::mutex> lock(mu);
        changed.wait(lock, [&] {
            return closed || stopped || consumed < produced;
        });
        if (closed || consumed == produced)
            return {};
        const std::size_t b = consumed % Batches;
        return {slots.data() + b * WakeBatch, sizes[b]};
    }

    /** Give the batch take() returned back to the producer. */
    void
    release()
    {
        {
            const std::lock_guard<std::mutex> lock(mu);
            ++consumed;
        }
        changed.notify_one();
    }
    /// @}

    /**
     * Either side, on failure: wake both sides for good, so take()
     * returns an empty batch and the producer throws HandoffClosed.
     */
    void
    close() noexcept
    {
        {
            const std::lock_guard<std::mutex> lock(mu);
            closed = true;
        }
        changed.notify_all();
    }

  private:
    /** Producer: wait for a free batch and start filling it. */
    void
    acquire()
    {
        std::unique_lock<std::mutex> lock(mu);
        changed.wait(lock, [&] {
            return closed || produced - consumed < Batches;
        });
        if (closed)
            throw HandoffClosed();
        fillBatch = produced % Batches;
    }

    /** Producer: hand the batch being filled to the consumer. */
    void
    publish()
    {
        {
            const std::lock_guard<std::mutex> lock(mu);
            sizes[fillBatch] = filled;
            ++produced;
        }
        changed.notify_one();
        filled = 0;
    }

    /** Batch b is slots [b * WakeBatch, (b + 1) * WakeBatch). */
    std::vector<Record> slots;

    /** The producer's batch: touched by the producer only. */
    std::size_t fillBatch = 0;
    std::size_t filled = 0;

    std::mutex mu;
    /**
     * Both sides wait on it. With one producer and one consumer, the
     * side that notifies is not waiting, so notify_one() wakes the
     * other.
     */
    std::condition_variable changed;
    /** Batches handed over and released; batch i is i % Batches. */
    std::size_t produced = 0;                  // rbvlint: guarded_by(mu)
    std::size_t consumed = 0;                  // rbvlint: guarded_by(mu)
    std::array<std::size_t, Batches> sizes{}; // rbvlint: guarded_by(mu)
    bool stopped = false;                      // rbvlint: guarded_by(mu)
    bool closed = false;                       // rbvlint: guarded_by(mu)
};

/** The CPU the calling thread runs on, or -1 where unknown. */
int currentCpu();

/**
 * If the calling thread runs on @p cpu and may run on another CPU,
 * move it to another one, then give it back every CPU it had. A host
 * whose scheduler does not balance load (a cpuset with
 * sched_load_balance off) starts a thread on its forking thread's CPU
 * and keeps it there, so two stages would share one core; elsewhere
 * the scheduler has usually placed them apart already and this does
 * nothing.
 */
void leaveCpu(int cpu);

/**
 * Run @p produce, then stop(), as one stage and a take()/release()
 * loop over @p consume as the other, on the two threads of one
 * obs::parallelFor(2, 2, ...). Either thread may run either stage,
 * and one thread may run both in turn when the producer never waits.
 * The consuming thread leaves the producing thread's CPU (leaveCpu)
 * when it finds itself on it. A stage that throws closes the
 * hand-off, so the other one returns (a producer through
 * HandoffClosed); parallelFor rethrows the first exception after the
 * join.
 */
template <class Record, class Produce, class Consume>
void
runStages(Handoff<Record> &handoff, Produce &&produce,
          Consume &&consume)
{
    // A placement hint only: a stale value costs at most one move.
    std::atomic<int> produceCpu{-1};
    obs::parallelFor(2, 2, [&](std::size_t stage) {
        try {
            if (stage == 0) {
                produceCpu.store(currentCpu(), std::memory_order_relaxed);
                produce();
                handoff.stop();
                return;
            }
            for (;;) {
                const std::span<Record> batch = handoff.take();
                if (batch.empty())
                    break;
                leaveCpu(produceCpu.load(std::memory_order_relaxed));
                for (Record &r : batch)
                    consume(r);
                handoff.release();
            }
        } catch (const HandoffClosed &) {
            // The other stage failed; parallelFor rethrows its error.
        } catch (...) {
            handoff.close();
            throw;
        }
    });
}

} // namespace rbv::exp

#endif // RBV_EXP_HANDOFF_HH
