/**
 * @file
 * Server application builder and load driver implementation.
 */

#include "wl/server.hh"

#include "obs/obs.hh"
#include "wl/worker.hh"

namespace rbv::wl {

ServerApp::ServerApp(os::Kernel &kernel,
                     const std::vector<TierSpec> &tiers)
{
    chans.reserve(tiers.size());
    for (std::size_t t = 0; t < tiers.size(); ++t)
        chans.push_back(kernel.createChannel());
    reply = kernel.createChannel();

    for (std::size_t t = 0; t < tiers.size(); ++t) {
        const os::ProcessId proc = kernel.createProcess(tiers[t].name);
        for (int w = 0; w < tiers[t].workers; ++w) {
            kernel.createThread(
                proc, std::make_unique<WorkerLogic>(chans[t], chans,
                                                    reply));
        }
    }
}

LoadDriver::LoadDriver(os::Kernel &kernel, ServerApp &app,
                       Generator &gen, stats::Rng rng, Config cfg)
    : kernel(kernel), app(app), gen(gen), rng(rng), cfg(cfg)
{
    kernel.setChannelSink(app.replyChannel(),
                          [this](const os::Message &msg) {
                              onReply(msg);
                          });
}

void
LoadDriver::start()
{
    const int population =
        static_cast<int>(std::min<std::size_t>(
            cfg.concurrency, cfg.targetRequests));
    for (int u = 0; u < population; ++u) {
        // Stagger the initial arrivals over roughly one think time.
        const auto delay = static_cast<sim::Tick>(
            sim::usToCycles(rng.exponential(cfg.thinkTimeUs)));
        kernel.eventQueue().scheduleIn(delay + 1, [this] { inject(); });
    }
}

void
LoadDriver::inject()
{
    if (numInjected >= cfg.targetRequests)
        return;
    ++numInjected;

    auto spec = gen.generate(rng);
    const RequestSpec *raw = spec.get();
    specs.push_back(std::move(spec));

    const os::RequestId id =
        kernel.registerRequest(raw->className, raw);
    ids.push_back(id);
    if (specByRequest.size() <= static_cast<std::size_t>(id))
        specByRequest.resize(static_cast<std::size_t>(id) + 1, nullptr);
    specByRequest[static_cast<std::size_t>(id)] = raw;

    os::Message msg;
    msg.request = id;
    msg.tag = 0;
    msg.payload = raw;
    kernel.post(app.tierChannel(raw->stages.front().tier), msg);
}

void
LoadDriver::onReply(const os::Message &msg)
{
    kernel.completeRequest(msg.request);
    ++numCompleted;

    if (numCompleted >= cfg.targetRequests) {
        kernel.eventQueue().requestStop();
        return;
    }
    if (numInjected < cfg.targetRequests) {
        const auto delay = static_cast<sim::Tick>(
            sim::usToCycles(rng.exponential(cfg.thinkTimeUs)));
        kernel.eventQueue().scheduleIn(delay + 1, [this] { inject(); });
    }
}

const RequestSpec *
LoadDriver::specOf(os::RequestId id) const
{
    const auto idx = static_cast<std::size_t>(id);
    return idx < specByRequest.size() ? specByRequest[idx] : nullptr;
}

OpenLoopDriver::OpenLoopDriver(os::Kernel &kernel, ServerApp &app,
                               Generator &gen, stats::Rng rng_,
                               Config cfg_)
    : kernel(kernel), app(app), gen(gen), rng(rng_), cfg(cfg_),
      arrival(cfg.arrival, rng.split())
{
    kernel.setChannelSink(app.replyChannel(),
                          [this](const os::Message &msg) {
                              onReply(msg);
                          });
}

void
OpenLoopDriver::start()
{
    scheduleNextArrival();
}

void
OpenLoopDriver::scheduleNextArrival()
{
    if (cfg.targetRequests != 0 && numArrivals >= cfg.targetRequests)
        return;
    const auto delay = static_cast<sim::Tick>(
        sim::usToCycles(arrival.nextGapUs()));
    kernel.eventQueue().scheduleIn(delay + 1, [this] { onArrival(); });
}

void
OpenLoopDriver::onArrival()
{
    ++numArrivals;
    RBV_COUNT(WlArrivals, 1);
    scheduleNextArrival();

    if (outstanding() >= cfg.maxOutstanding) {
        // Admission control: shedding instead of queueing without
        // bound is what keeps an overloaded run's memory flat.
        ++numShed;
        RBV_COUNT(WlShedRequests, 1);
        maybeStop();
        return;
    }

    auto spec = gen.generate(rng);
    const RequestSpec *raw = spec.get();
    const os::RequestId id =
        kernel.registerRequest(raw->className, raw);
    const auto idx = static_cast<std::size_t>(id);
    if (specByRequest.size() <= idx)
        specByRequest.resize(idx + 1);
    specByRequest[idx] = std::move(spec);
    ++numInjected;

    os::Message msg;
    msg.request = id;
    msg.tag = 0;
    msg.payload = raw;
    kernel.post(app.tierChannel(raw->stages.front().tier), msg);
}

void
OpenLoopDriver::onReply(const os::Message &msg)
{
    kernel.completeRequest(msg.request);
    ++numCompleted;

    const auto idx = static_cast<std::size_t>(msg.request);
    if (onComplete && idx < specByRequest.size() &&
        specByRequest[idx] != nullptr)
        onComplete(msg.request, *specByRequest[idx]);

    // The worker that sent this reply still dereferences the spec in
    // its post-reply continuation (checking the final stage), so the
    // spec must outlive the reply. It dies together with the kernel
    // slot, whose release condition — no core context, no thread
    // holds the id — is exactly "nothing can touch the spec anymore".
    kernel.requestMutable(msg.request).spec = nullptr;
    tryRelease(msg.request);

    // Retry earlier deferred releases: ids pinned by a worker thread
    // between its reply and its next recv fall quiescent as traffic
    // moves on, so the pending list stays bounded by the thread count.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pendingRelease.size(); ++i) {
        const os::RequestId id = pendingRelease[i];
        if (!kernel.releaseRequest(id)) {
            pendingRelease[kept++] = id;
        } else {
            specByRequest[static_cast<std::size_t>(id)].reset();
            RBV_COUNT(OsRequestSlotsRecycled, 1);
        }
    }
    pendingRelease.resize(kept);

    maybeStop();
}

void
OpenLoopDriver::tryRelease(os::RequestId id)
{
    if (kernel.releaseRequest(id)) {
        specByRequest[static_cast<std::size_t>(id)].reset();
        RBV_COUNT(OsRequestSlotsRecycled, 1);
    } else {
        pendingRelease.push_back(id);
    }
}

void
OpenLoopDriver::maybeStop()
{
    if (cfg.targetRequests == 0 || numArrivals < cfg.targetRequests)
        return;
    if (numCompleted >= numInjected)
        kernel.eventQueue().requestStop();
}

} // namespace rbv::wl
