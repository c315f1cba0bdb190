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

RequestDriver::RequestDriver(os::Kernel &kernel, ServerApp &app,
                             Generator &gen, stats::Rng rng)
    : kernel(kernel), rng(rng), app(app), gen(gen)
{
    kernel.setChannelSink(app.replyChannel(),
                          [this](const os::Message &msg) {
                              onReply(msg);
                          });
}

void
RequestDriver::inject()
{
    auto spec = gen.generate(rng);
    const os::RequestId id = kernel.registerRequest();
    os::Message msg;
    msg.request = id;
    msg.tag = 0;
    msg.payload = spec.get();
    const os::ChannelId first =
        app.tierChannel(spec->stages.front().tier);

    const auto idx = static_cast<std::size_t>(id);
    if (liveSpecs.size() <= idx)
        liveSpecs.resize(idx + 1);
    liveSpecs[idx] = std::move(spec);
    ++numInjected;
    kernel.post(first, msg);
}

void
RequestDriver::onReply(const os::Message &msg)
{
    kernel.completeRequest(msg.request);
    ++numCompleted;

    // No worker reads a spec after its reply, so it dies here.
    const auto idx = static_cast<std::size_t>(msg.request);
    if (idx < liveSpecs.size() && liveSpecs[idx]) {
        if (onComplete)
            onComplete(msg.request, *liveSpecs[idx]);
        liveSpecs[idx].reset();
    }
    afterReply(msg.request);
}

LoadDriver::LoadDriver(os::Kernel &kernel, ServerApp &app,
                       Generator &gen, stats::Rng rng, Config cfg)
    : RequestDriver(kernel, app, gen, rng), cfg(cfg)
{
}

void
LoadDriver::start()
{
    // Stagger the initial arrivals over roughly one think time.
    const std::size_t population = std::min<std::size_t>(
        cfg.concurrency, cfg.targetRequests);
    for (std::size_t u = 0; u < population; ++u)
        scheduleUser();
}

void
LoadDriver::scheduleUser()
{
    const auto delay = static_cast<sim::Tick>(
        sim::usToCycles(rng.exponential(cfg.thinkTimeUs)));
    kernel.eventQueue().scheduleIn(delay + 1, [this] {
        if (numInjected < cfg.targetRequests)
            inject();
    });
}

void
LoadDriver::afterReply(os::RequestId)
{
    if (numCompleted >= cfg.targetRequests)
        kernel.eventQueue().requestStop();
    else if (numInjected < cfg.targetRequests)
        scheduleUser();
}

OpenLoopDriver::OpenLoopDriver(os::Kernel &kernel, ServerApp &app,
                               Generator &gen, stats::Rng rng_,
                               Config cfg_)
    : RequestDriver(kernel, app, gen, rng_), cfg(cfg_),
      arrival(cfg.arrival, rng.split())
{
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
    inject();
}

void
OpenLoopDriver::afterReply(os::RequestId id)
{
    // Try the replying id first, then retry earlier deferred
    // releases in order: ids pinned by a worker thread between its
    // reply and its next recv fall quiescent as traffic moves on, so
    // the pending list stays bounded by the thread count. The order
    // fixes which slot a future registerRequest reuses.
    if (kernel.releaseRequest(id))
        RBV_COUNT(OsRequestSlotsRecycled, 1);
    else
        pendingRelease.push_back(id);
    std::size_t kept = 0;
    for (const os::RequestId pending : pendingRelease) {
        if (kernel.releaseRequest(pending))
            RBV_COUNT(OsRequestSlotsRecycled, 1);
        else
            pendingRelease[kept++] = pending;
    }
    pendingRelease.resize(kept);

    maybeStop();
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
