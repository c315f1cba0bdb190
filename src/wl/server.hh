/**
 * @file
 * Server application builder and the two load drivers: the original
 * closed-loop driver of the batch figure benches, and the open-loop
 * driver behind `rbv_serve` (arrivals keep coming whether or not
 * earlier requests finished).
 */

#ifndef RBV_WL_SERVER_HH
#define RBV_WL_SERVER_HH

#include <functional>
#include <memory>
#include <vector>

#include "os/kernel.hh"
#include "stats/rng.hh"
#include "wl/arrival.hh"
#include "wl/generator.hh"
#include "wl/spec.hh"

namespace rbv::wl {

/**
 * Instantiates a multi-tier server application on a kernel: one
 * process per tier, a channel per tier, a worker pool per tier, and
 * a reply channel whose sink the load driver owns.
 */
class ServerApp
{
  public:
    ServerApp(os::Kernel &kernel, const std::vector<TierSpec> &tiers);

    os::ChannelId tierChannel(int tier) const { return chans[tier]; }
    const std::vector<os::ChannelId> &tierChannels() const
    {
        return chans;
    }
    os::ChannelId replyChannel() const { return reply; }
    int numTiers() const { return static_cast<int>(chans.size()); }

  private:
    std::vector<os::ChannelId> chans;
    os::ChannelId reply = os::InvalidChannelId;
};

/**
 * What both load drivers share: each request's spec lives from
 * generate() to its reply, behind one inject path (generate,
 * register, post) and one reply path (complete, completion callback,
 * free the spec). A driver subclass decides only when the next
 * request is injected and what happens after a reply.
 */
class RequestDriver
{
  public:
    /**
     * Invoked on each completion, after the kernel froze the totals
     * and before the spec is freed: the last point at which the spec
     * is valid. kernel.request(id) stays valid until the slot is
     * recycled (serving mode only).
     */
    using CompletionCallback =
        std::function<void(os::RequestId, const RequestSpec &)>;

    RequestDriver(const RequestDriver &) = delete;
    RequestDriver &operator=(const RequestDriver &) = delete;

    void
    setCompletionCallback(CompletionCallback cb)
    {
        onComplete = std::move(cb);
    }

    std::size_t injected() const { return numInjected; }
    std::size_t completed() const { return numCompleted; }

  protected:
    RequestDriver(os::Kernel &kernel, ServerApp &app, Generator &gen,
                  stats::Rng rng);
    ~RequestDriver() = default;

    /** Generate one request, register it and post its first stage. */
    void inject();

    /** After a reply is complete and its spec freed. */
    virtual void afterReply(os::RequestId id) = 0;

    os::Kernel &kernel;
    stats::Rng rng;
    std::size_t numInjected = 0;
    std::size_t numCompleted = 0;

  private:
    void onReply(const os::Message &msg);

    ServerApp &app;
    Generator &gen;
    /** Specs of requests awaiting their reply, by request id. */
    std::vector<std::unique_ptr<RequestSpec>> liveSpecs;
    CompletionCallback onComplete;
};

/**
 * Closed-loop load driver: a fixed population of virtual users, each
 * injecting its next request an exponentially distributed think time
 * after its previous reply. Injection stops after a target number of
 * requests; the event loop is stopped when the last reply arrives.
 */
class LoadDriver : public RequestDriver
{
  public:
    struct Config
    {
        int concurrency = 8;
        std::size_t targetRequests = 1000;
        double thinkTimeUs = 1000.0;
    };

    LoadDriver(os::Kernel &kernel, ServerApp &app, Generator &gen,
               stats::Rng rng, Config cfg);

    /** Inject the initial user population (call after Kernel::start). */
    void start();

  private:
    /** One user thinks, then injects unless the target is reached. */
    void scheduleUser();
    void afterReply(os::RequestId id) override;

    Config cfg;
};

/**
 * Open-loop load driver: requests arrive on an ArrivalProcess
 * schedule, independent of completions. Completed kernel request
 * slots are recycled (Kernel::releaseRequest) as soon as they fall
 * quiescent, so memory stays flat over arbitrarily long serving
 * runs. Arrivals beyond a configurable outstanding cap are shed,
 * which both models server-side admission control and bounds memory
 * under overload.
 */
class OpenLoopDriver : public RequestDriver
{
  public:
    struct Config
    {
        ArrivalConfig arrival;
        /** Arrivals to generate; 0 = unbounded (duration-driven). */
        std::size_t targetRequests = 0;
        /** Shed arrivals beyond this many outstanding requests. */
        std::size_t maxOutstanding = 4096;
    };

    OpenLoopDriver(os::Kernel &kernel, ServerApp &app, Generator &gen,
                   stats::Rng rng, Config cfg);

    /** Schedule the first arrival (call after Kernel::start). */
    void start();

    /** Arrivals generated (injected + shed). */
    std::size_t arrivals() const { return numArrivals; }
    /** Arrivals dropped at the admission cap. */
    std::size_t shed() const { return numShed; }
    std::size_t outstanding() const
    {
        return numInjected - numCompleted;
    }

  private:
    void scheduleNextArrival();
    void onArrival();
    void afterReply(os::RequestId id) override;
    void maybeStop();

    Config cfg;
    ArrivalProcess arrival;
    std::vector<os::RequestId> pendingRelease;

    std::size_t numArrivals = 0;
    std::size_t numShed = 0;
};

} // namespace rbv::wl

#endif // RBV_WL_SERVER_HH
