/**
 * @file
 * Behavior-transition signals (Sec. 3.2, Table 2): the signal, its
 * online trainer, and the sampler that samples only at selected
 * signals.
 *
 * A signal is a system call name, alone or right after a given
 * previous call on the same thread. Table 2 uses single calls; the
 * paper suggests "a sequence of two or more recent system call names"
 * as a richer signal. A call pair separates calls whose meaning
 * depends on context, e.g. the web server's read() after poll()
 * (request arrival, parse follows) and read() after write() (the
 * next body chunk).
 *
 * During an online training phase, each system call occurrence is
 * mapped to the CPI change between the sampled periods immediately
 * before and after the call, once as a single call and once as a
 * pair with the thread's previous call. The running average
 * indicates the significance of the transition a signal marks; the
 * standard deviation indicates its uniformity. The most significant
 * signals are then selected as sampling triggers.
 */

#ifndef RBV_CORE_SAMPLING_TRANSITION_HH
#define RBV_CORE_SAMPLING_TRANSITION_HH

#include <array>
#include <cstddef>
#include <vector>

#include "core/sampling/sampler.hh"
#include "os/kernel.hh"
#include "stats/online.hh"

namespace rbv::core {

/**
 * A system call, alone or right after @ref prev on the same thread.
 * Built only by name, so two single calls cannot pass for one pair.
 */
class TransitionSignal
{
  public:
    /** @p sys after any call. */
    static constexpr TransitionSignal
    call(os::Sys sys)
    {
        return {os::Sys::NumSyscalls, sys};
    }

    /** @p sys right after @p prev (any call, if NumSyscalls). */
    static constexpr TransitionSignal
    after(os::Sys prev, os::Sys sys)
    {
        return {prev, sys};
    }

    /** The single-call or pair signal with dense key @p key. */
    static TransitionSignal fromKey(bool pair, std::size_t key);

    bool isPair() const { return prev != os::Sys::NumSyscalls; }

    /** Dense key within its kind: sys, or prev * NumSys + sys. */
    std::size_t key() const;

    bool operator==(const TransitionSignal &) const = default;

    os::Sys prev; ///< os::Sys::NumSyscalls: after any call.
    os::Sys sys;

  private:
    constexpr TransitionSignal(os::Sys prev, os::Sys sys)
        : prev(prev), sys(sys)
    {
    }
};

/** The last system call of each thread. */
class LastCalls
{
  public:
    /**
     * Record @p sys as @p thread's last call. Returns the signal
     * this call completes: the pair with the thread's previous call,
     * or the single call on the thread's first.
     */
    TransitionSignal enter(os::ThreadId thread, os::Sys sys);

  private:
    std::vector<os::Sys> last; ///< NumSyscalls before the first call.
};

/**
 * Trains the signal -> CPI-change mapping online, for single calls
 * and call pairs from the same calls.
 *
 * Attach to a kernel (for syscall entries) and a sampler (for period
 * completions). The "before" value is the CPI of the last period
 * completed on the calling core; the "after" value is the CPI of the
 * next period completed there.
 */
class TransitionTrainer : public os::KernelHooks
{
  public:
    /** Training result of one signal. */
    struct SignalStat
    {
        TransitionSignal signal =
            TransitionSignal::call(os::Sys::gettimeofday);
        std::size_t count = 0;
        double meanChange = 0.0;
        double stddev = 0.0;
    };

    /**
     * @param kernel  Kernel to observe.
     * @param sampler Sampler whose periods define the windows.
     */
    TransitionTrainer(os::Kernel &kernel, Sampler &sampler);

    void onSyscallEntry(sim::CoreId core, os::ThreadId thread,
                        os::RequestId request, os::Sys sys) override;

    /**
     * Single-call signals (call pairs, with @p pairs) seen at least
     * @p min_count times, ranked by |mean change|.
     */
    std::vector<SignalStat> ranked(bool pairs,
                                   std::size_t min_count) const;

    /** The top @p k of ranked() as sampling triggers. */
    std::vector<TransitionSignal>
    selectTriggers(bool pairs, std::size_t k,
                   std::size_t min_count) const;

  private:
    void onSample(sim::CoreId core, const Period &period);

    struct Pending
    {
        std::size_t key;
        double before;

        /** Set once the period straddling the call has been skipped
         *  (only needed when samples are not syscall-aligned). */
        bool armed;
    };

    struct CoreTrain
    {
        bool hasBefore = false;
        double beforeValue = 0.0;

        /** Calls awaiting "after", single calls and pairs apart. */
        std::array<std::vector<Pending>, 2> pending;
    };

    /** CPI changes by dense key, single calls and pairs apart. */
    std::array<std::vector<stats::OnlineMeanVar>, 2> byKey;
    LastCalls lastCalls;
    std::vector<CoreTrain> cores;
};

/**
 * Syscall sampler that samples only at selected behavior-transition
 * signals (Sec. 3.2, Table 2): a call triggers when its single-call
 * signal or its pair with the thread's previous call is selected.
 */
class TransitionSignalSampler : public SyscallSampler
{
  public:
    TransitionSignalSampler(os::Kernel &kernel, SamplerConfig cfg,
                            const std::vector<TransitionSignal> &triggers);

  protected:
    bool isTrigger(os::ThreadId thread, os::Sys sys) override;

  private:
    bool isSelected(const TransitionSignal &s) const;

    /** Selected dense keys, single calls and pairs apart. */
    std::array<std::vector<bool>, 2> selected;
    LastCalls lastCalls;
};

} // namespace rbv::core

#endif // RBV_CORE_SAMPLING_TRANSITION_HH
