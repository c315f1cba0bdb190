/**
 * @file
 * Behavior-transition signal training and sampling.
 */

#include "core/sampling/transition.hh"

#include <algorithm>
#include <cmath>

namespace rbv::core {

namespace {

/** Cap on unresolved calls of one kind per core between two samples. */
constexpr std::size_t MaxPending = 16;

constexpr auto NumSys = static_cast<std::size_t>(os::NumSys);

/** Dense-key cells of one kind. */
constexpr std::size_t
numKeys(bool pairs)
{
    return pairs ? NumSys * NumSys : NumSys;
}

} // namespace

TransitionSignal
TransitionSignal::fromKey(bool pair, std::size_t key)
{
    return pair ? after(static_cast<os::Sys>(key / NumSys),
                        static_cast<os::Sys>(key % NumSys))
                : call(static_cast<os::Sys>(key));
}

std::size_t
TransitionSignal::key() const
{
    const auto s = static_cast<std::size_t>(sys);
    return isPair() ? static_cast<std::size_t>(prev) * NumSys + s : s;
}

TransitionSignal
LastCalls::enter(os::ThreadId thread, os::Sys sys)
{
    const auto idx = static_cast<std::size_t>(thread);
    if (last.size() <= idx)
        last.resize(idx + 1, os::Sys::NumSyscalls);
    const os::Sys prev = last[idx];
    last[idx] = sys;
    return TransitionSignal::after(prev, sys);
}

// ---------------------------------------------------------------------
// TransitionTrainer

TransitionTrainer::TransitionTrainer(os::Kernel &kernel,
                                     Sampler &sampler)
    : byKey{std::vector<stats::OnlineMeanVar>(numKeys(false)),
            std::vector<stats::OnlineMeanVar>(numKeys(true))},
      cores(kernel.machine().numCores())
{
    kernel.addHooks(this);
    sampler.addSampleObserver(
        [this](sim::CoreId core, os::RequestId, const Period &p) {
            onSample(core, p);
        });
}

void
TransitionTrainer::onSyscallEntry(sim::CoreId core, os::ThreadId thread,
                                  os::RequestId request, os::Sys sys)
{
    const TransitionSignal signal = lastCalls.enter(thread, sys);
    if (request == os::InvalidRequestId)
        return; // idle server loops carry no request semantics
    CoreTrain &ct = cores[core];
    if (!ct.hasBefore)
        return;
    const auto offer = [&ct](const TransitionSignal &s) {
        auto &pending = ct.pending[s.isPair()];
        if (pending.size() < MaxPending)
            pending.push_back(Pending{s.key(), ct.beforeValue, false});
    };
    offer(TransitionSignal::call(sys));
    if (signal.isPair())
        offer(signal);
}

void
TransitionTrainer::onSample(sim::CoreId core, const Period &period)
{
    CoreTrain &ct = cores[core];
    const double value = metricOf(period, Metric::Cpi);

    // A period closed by a system call sample starts exactly at the
    // previous call, so it is a clean "after" window for any pending
    // call. Periods closed by interrupts straddle the call: skip the
    // straddling one and resolve against the next.
    const bool aligned = period.trigger == SampleTrigger::Syscall;
    for (std::size_t kind = 0; kind < 2; ++kind) {
        auto &pending = ct.pending[kind];
        auto it = pending.begin();
        while (it != pending.end()) {
            if (aligned || it->armed) {
                byKey[kind][it->key].add(value - it->before);
                it = pending.erase(it);
            } else {
                it->armed = true;
                ++it;
            }
        }
    }
    ct.beforeValue = value;
    ct.hasBefore = true;
}

std::vector<TransitionTrainer::SignalStat>
TransitionTrainer::ranked(bool pairs, std::size_t min_count) const
{
    std::vector<SignalStat> out;
    const auto &cells = byKey[pairs];
    for (std::size_t k = 0; k < cells.size(); ++k) {
        const auto &acc = cells[k];
        if (acc.count() < min_count)
            continue;
        out.push_back({TransitionSignal::fromKey(pairs, k), acc.count(),
                       acc.mean(), acc.sampleStddev()});
    }
    std::sort(out.begin(), out.end(),
              [](const SignalStat &a, const SignalStat &b) {
                  return std::abs(a.meanChange) >
                         std::abs(b.meanChange);
              });
    return out;
}

std::vector<TransitionSignal>
TransitionTrainer::selectTriggers(bool pairs, std::size_t k,
                                  std::size_t min_count) const
{
    std::vector<TransitionSignal> out;
    for (const auto &st : ranked(pairs, min_count)) {
        if (out.size() >= k)
            break;
        out.push_back(st.signal);
    }
    return out;
}

// ---------------------------------------------------------------------
// TransitionSignalSampler

TransitionSignalSampler::TransitionSignalSampler(
    os::Kernel &kernel, SamplerConfig cfg,
    const std::vector<TransitionSignal> &triggers)
    : SyscallSampler(kernel, cfg),
      selected{std::vector<bool>(numKeys(false)),
               std::vector<bool>(numKeys(true))}
{
    for (const TransitionSignal &s : triggers)
        selected[s.isPair()][s.key()] = true;
}

bool
TransitionSignalSampler::isTrigger(os::ThreadId thread, os::Sys sys)
{
    // On a thread's first call, the pair is the single call itself.
    const TransitionSignal pair = lastCalls.enter(thread, sys);
    return isSelected(TransitionSignal::call(sys)) || isSelected(pair);
}

bool
TransitionSignalSampler::isSelected(const TransitionSignal &s) const
{
    return selected[s.isPair()][s.key()];
}

} // namespace rbv::core
