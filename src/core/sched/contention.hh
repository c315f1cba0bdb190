/**
 * @file
 * Contention-easing CPU scheduling (Sec. 5.2) and the contention
 * monitor that evaluates it (Figs. 12 and 13).
 *
 * Policy: requests in high resource-usage periods should avoid
 * co-execution. At each scheduling opportunity the scheduler checks
 * whether any other core currently executes a request in a high
 * resource-usage period; if so it searches its local runqueue for a
 * request that is not, picking the one closest to the head. It never
 * migrates between runqueues. Re-scheduling is attempted at no more
 * than 5 ms intervals, keeping the current request at the head so a
 * no-switch decision costs nothing.
 *
 * "High resource usage" is defined on predicted L2 cache misses per
 * instruction (which both reflects shared-L2 performance and
 * indicates memory bandwidth pressure) against the workload's
 * 80-percentile threshold; predictions are maintained per thread by
 * a variable-aging EWMA over sampled periods.
 */

#ifndef RBV_CORE_SCHED_CONTENTION_HH
#define RBV_CORE_SCHED_CONTENTION_HH

#include <memory>
#include <vector>

#include "core/predict/predictor.hh"
#include "core/sampling/sampler.hh"
#include "os/kernel.hh"
#include "os/scheduler.hh"

namespace rbv::core {

/** Contention-easing policy tunables. */
struct ContentionConfig
{
    /** High-usage threshold on L2 misses per instruction (the
     *  80-percentile of the workload; calibrated externally). */
    double highThreshold = 0.002;

    /** Re-scheduling attempt interval (the paper uses 5 ms). */
    sim::Tick reschedIntervalTicks = sim::msToCycles(5.0);

    /** vaEWMA gain for the per-thread predictions (Sec. 5.1). */
    double alpha = 0.6;

    /** vaEWMA unit observation length (1 ms). */
    double unitTicks = static_cast<double>(sim::msToCycles(1.0));

    /**
     * Starvation guard: a runqueue head may be passed over at most
     * this many consecutive times before it runs regardless of
     * contention. Unbounded deferral would batch the high-usage
     * requests together at the end of every request wave and
     * *create* the simultaneous contention the policy exists to
     * avoid.
     */
    int maxHeadDeferrals = 4;
};

/**
 * The contention-easing scheduler policy.
 *
 * Must be attached to a kernel (constructor) and fed by a sampler
 * (attachSampler) so its per-thread predictions stay current.
 */
class ContentionEasingPolicy : public os::SchedulerPolicy
{
  public:
    explicit ContentionEasingPolicy(ContentionConfig cfg =
                                        ContentionConfig{});

    /** Subscribe to a sampler's periods to drive the predictions. */
    void attachSampler(os::Kernel &kernel, Sampler &sampler);

    /**
     * Feed one observed period of a thread into its vaEWMA predictor
     * (attachSampler routes sampled periods here).
     */
    void observePeriod(os::ThreadId thread, double cycles,
                       double misses_per_ins);

    sim::Tick
    reschedInterval() const override
    {
        return cfg.reschedIntervalTicks;
    }

    std::size_t pickNext(os::Kernel &kernel, sim::CoreId core,
                         const std::vector<os::ThreadId> &candidates)
        override;

    /** Current prediction for a thread (0 if never sampled). */
    double predictionOf(os::ThreadId thread) const;

    /** Whether a thread is predicted to be in a high-usage period. */
    bool
    isHigh(os::ThreadId thread) const
    {
        return predictionOf(thread) > cfg.highThreshold;
    }

    const ContentionConfig &config() const { return cfg; }

  private:
    ContentionConfig cfg;
    std::vector<std::unique_ptr<VaEwmaPredictor>> predictors;
    std::vector<int> headDeferrals; ///< Indexed by thread id.
};

/** Time-weighted census of simultaneous high-usage execution. */
struct ContentionStats
{
    /** Wall cycles observed with exactly k cores at high usage
     *  (index k, up to numCores). */
    std::vector<double> cyclesAtHighCount;

    double
    totalCycles() const
    {
        double t = 0.0;
        for (double c : cyclesAtHighCount)
            t += c;
        return t;
    }

    /** Fraction of time with at least k cores at high usage. */
    double fractionAtLeast(std::size_t k) const;
};

/**
 * Samples the machine's actual (ground truth) per-core L2
 * misses/instruction at a fixed interval and accumulates the Fig. 12
 * census of simultaneous high-resource-usage execution.
 */
class ContentionMonitor
{
  public:
    /**
     * @param kernel     Kernel whose machine to observe.
     * @param threshold  High-usage threshold (misses/instruction).
     * @param intervalCycles   Sampling interval in cycles.
     */
    ContentionMonitor(os::Kernel &kernel, double threshold,
                      sim::Tick intervalCycles = sim::usToCycles(100.0));

    /** Begin monitoring (call after Kernel::start()). */
    void start();

    const ContentionStats &stats() const { return cstats; }

  private:
    void tick();

    os::Kernel &kernel;
    double threshold;
    sim::Tick intervalCycles;
    ContentionStats cstats;
};

} // namespace rbv::core

#endif // RBV_CORE_SCHED_CONTENTION_HH
