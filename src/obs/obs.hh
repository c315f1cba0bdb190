/**
 * @file
 * rbv::obs — the repo's dependency-free observability layer: a
 * structured trace recorder, a metrics registry, and self-profiling
 * scoped timers, all threaded through the simulator, kernel, sampling
 * subsystem, and experiment engine.
 *
 * Design constraints (see DESIGN.md §10):
 *
 *  - **Determinism (rbvlint R1–R3).** Recording never perturbs the
 *    simulation: simulated events are keyed by simulated time taken
 *    from the caller, all storage is per-thread, and nothing is
 *    written anywhere except through caller-supplied `std::ostream`
 *    sinks at report time. Host wall time (`steady_clock`) appears
 *    only in host-side engine events and profiling totals, which go
 *    to diagnostic outputs (trace files, stderr), never to the
 *    deterministic stdout result tables.
 *
 *  - **Dormant-by-default, lock-free when live.** Instrumentation
 *    sites compile to a thread-local pointer load plus a predictable
 *    branch when no `Session` is attached (the normal state for unit
 *    tests and untraced runs). With a session attached, every write
 *    lands in the calling thread's private shard; the only locks are
 *    on thread attach/detach and at merge/report time.
 *
 *  - **Totals independent of the thread count.** parallelFor() is
 *    the one place threads are made: each thread it starts counts
 *    into a shard of its forking thread's session, and every shard
 *    merges by an element-wise sum, so a counter reads the same at
 *    any `--jobs`.
 *
 * Hot-path API:
 *
 *     RBV_COUNT(KernelSyscalls, 1);            // monotonic counter
 *     RBV_HIST(RequestLatencyUs, us);          // fixed-bucket histogram
 *     RBV_PROF_SCOPE(DtwDistance);             // scoped self-profiling
 *
 * Trace emission goes through inline functions (`simInstant`,
 * `simSpanBegin`/`simSpanEnd`, `hostSlice`, ...) that no-op when
 * dormant.
 */

#ifndef RBV_OBS_OBS_HH
#define RBV_OBS_OBS_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace rbv::obs {

// ------------------------------------------------- metric catalogue

/**
 * Monotonic counters. The catalogue is a closed enum rather than a
 * string-keyed registry so a shard is a plain array and an increment
 * is one indexed add — no hashing on the hot path, and shard merge
 * is a deterministic element-wise sum.
 */
enum class Counter : std::uint16_t
{
    SimEventsScheduled,
    SimEventsFired,
    SimEventsCancelled,
    SimEventsRescheduled,
    SimEventsParked,
    SimWaterFills,
    OsSyscalls,
    OsContextSwitches,
    OsPreemptions,
    OsWakeups,
    OsRequestsCompleted,
    SamplingSamples,
    SamplingOverheadCycles,
    SchedContentionDeferrals,
    ExpJobsCompleted,
    FiInjections,
    ModelDistanceCells,
    ModelDtwEarlyAbandons,
    ModelLevBitParallel,
    ModelLbKimPrunes,
    ModelLbKeoghPrunes,
    ModelCascadeDpRuns,
    ModelSigPrefixPrunes,
    WlArrivals,
    WlShedRequests,
    OsRequestSlotsRecycled,
    ServeCheckpoints,
    ServeStalledRequests,
    DiagAnomalies,
    DiagUnknownCauses,
    OsDroppedDeliveries,
    DistRpcAttempts,
    DistRetries,
    DistHedges,
    DistFailovers,
    DistBreakerTransitions,
    Count_,
};

constexpr std::size_t NumCounters =
    static_cast<std::size_t>(Counter::Count_);

/** Dotted report name of a counter (e.g. "os.syscalls"). */
const char *counterName(Counter c);

/**
 * Fixed-bucket histograms with geometric buckets: bucket i of
 * [1..buckets] covers [base * factor^(i-1), base * factor^i); bucket
 * 0 is the underflow bucket (v < base) and bucket buckets+1 the
 * overflow bucket. Bucket math is pure integer/multiply arithmetic —
 * see histBucket() — so boundary behavior is exactly testable.
 */
enum class Hist : std::uint16_t
{
    SamplingPeriodCycles,
    OsRequestLatencyUs,
    ExpJobMs,
    Count_,
};

constexpr std::size_t NumHists = static_cast<std::size_t>(Hist::Count_);

/** Static description of one histogram. */
struct HistSpec
{
    const char *name; ///< Dotted report name.
    const char *unit;
    double base;   ///< Lower bound of bucket 1.
    double factor; ///< Geometric bucket growth (> 1).
    int buckets;   ///< Finite buckets (excl. under/overflow).
};

const HistSpec &histSpec(Hist h);

/** Bucket index for a value: 0 underflow .. spec.buckets+1 overflow. */
int histBucket(const HistSpec &spec, double v);

/** Inclusive lower bound of a bucket (-inf for the underflow one). */
double histBucketLow(const HistSpec &spec, int bucket);

/**
 * Self-profiling scope keys: the hot paths whose host-time cost the
 * per-run top-N table reports (the perf baseline for future PRs).
 */
enum class Prof : std::uint16_t
{
    EventQueuePump,
    DtwDistance,
    DtwEarlyAbandon,
    LevenshteinDistance,
    SignatureIdentify,
    DistanceMatrixBuild,
    KMedoids,
    WaterFill,
    RunScenario,
    ServeCheckpoint,
    Count_,
};

constexpr std::size_t NumProfs = static_cast<std::size_t>(Prof::Count_);

/** Report name of a profiling key (e.g. "model.dtw"). */
const char *profName(Prof p);

// ----------------------------------------------------- trace events

/**
 * One trace record in the Chrome trace_event model. POD so the ring
 * buffer is a flat array; dynamic names (job keys) are captured into
 * a small inline buffer.
 */
struct TraceEvent
{
    const char *name = nullptr; ///< Static literal; null → dyn[].
    const char *cat = "";
    char phase = 'i';      ///< 'X' slice, 'i' instant, 'b'/'e' async.
    bool hostClock = false; ///< Host (engine) vs simulated clock.
    std::uint32_t pid = 1;   ///< Trace process: 0 engine, >=1 sim.
    std::uint32_t track = 0; ///< tid: core id (sim) / worker (host).
    std::uint64_t id = 0;    ///< Async span id ('b'/'e' only).
    double tsUs = 0.0;
    double durUs = 0.0;     ///< 'X' only.
    const char *argKey = nullptr; ///< Optional single numeric arg.
    double argVal = 0.0;
    char dyn[48] = {};      ///< Dynamic name storage (see name).
};

class Session;

/**
 * Per-thread observation state: a trace ring buffer plus counter,
 * histogram, and profiling shards. Created by Session::attachThread
 * and written only by its owning thread; merged under the session
 * lock after the owning thread has been joined. The ring is made at
 * the shard's first push, so a thread that emits no trace events
 * (serve's model stage, a pool body of pure model work) never pays
 * for one.
 */
struct ThreadState
{
    /** Profiling cell: call count and accumulated host nanoseconds. */
    struct ProfCell
    {
        std::uint64_t count = 0;
        std::uint64_t ns = 0;
    };

    std::vector<TraceEvent> ring; ///< Empty until the first push.
    std::size_t ringCapacity = 0; ///< Events; fixed at attach.
    std::uint64_t pushed = 0;     ///< Total emitted (incl. dropped).

    std::array<std::uint64_t, NumCounters> counters{};
    std::vector<std::uint64_t> hist; ///< Flat buckets, all hists.
    std::array<ProfCell, NumProfs> prof{};

    std::uint32_t logicalId = 0; ///< Host track (0 main, N worker).
    std::uint32_t simPid = 1;    ///< Trace pid for sim-clock events.
    Session *session = nullptr;
    bool bound = false; ///< A thread holds it (session mutex).

    /** Append one event to the ring (oldest entry overwritten). */
    void
    push(const TraceEvent &ev)
    {
        if (ringCapacity == 0)
            return;
        if (ring.empty())
            ring.resize(ringCapacity);
        ring[static_cast<std::size_t>(pushed % ringCapacity)] = ev;
        ++pushed;
    }

    std::uint64_t
    dropped() const
    {
        return pushed > ringCapacity ? pushed - ringCapacity : 0;
    }
};

namespace detail {

/**
 * The calling thread's shard; null when dormant. `constinit` tells
 * every includer that the variable needs no dynamic initialization,
 * so reads skip the TLS init wrapper.
 */
extern constinit thread_local ThreadState *tl_state;

/** Outlined emit helpers (called only when tl_state is non-null). */
void emitSim(char phase, const char *cat, const char *name,
             double ts_us, double dur_us, std::uint64_t id,
             std::uint32_t core, const char *arg_key, double arg_val);
void emitHost(char phase, const char *cat, const char *name,
              const std::string &dyn_name, double dur_us,
              const char *arg_key, double arg_val);
void recordHist(Hist h, double v);

} // namespace detail

// ------------------------------------------------ hot-path inlines

/** Add to a counter; dormant cost: one TL load and branch. */
inline void
counterAdd(Counter c, std::uint64_t n) noexcept
{
    if (ThreadState *ts = detail::tl_state)
        ts->counters[static_cast<std::size_t>(c)] += n;
}

/** Record a histogram value (outlined bucket math when live). */
inline void
histRecord(Hist h, double v)
{
    if (detail::tl_state)
        detail::recordHist(h, v);
}

/** Instant event on a simulated-clock track (ts in simulated us). */
inline void
simInstant(const char *cat, const char *name, std::uint32_t core,
           double ts_us, const char *arg_key = nullptr,
           double arg_val = 0.0)
{
    if (detail::tl_state)
        detail::emitSim('i', cat, name, ts_us, 0.0, 0, core, arg_key,
                        arg_val);
}

/** Begin an async span on the simulated clock (id-matched). */
inline void
simSpanBegin(const char *cat, const char *name, std::uint64_t id,
             double ts_us, const char *arg_key = nullptr,
             double arg_val = 0.0)
{
    if (detail::tl_state)
        detail::emitSim('b', cat, name, ts_us, 0.0, id, 0, arg_key,
                        arg_val);
}

/** End an async span on the simulated clock. */
inline void
simSpanEnd(const char *cat, const char *name, std::uint64_t id,
           double ts_us, const char *arg_key = nullptr,
           double arg_val = 0.0)
{
    if (detail::tl_state)
        detail::emitSim('e', cat, name, ts_us, 0.0, id, 0, arg_key,
                        arg_val);
}

/**
 * Completed slice on the calling thread's host-clock track, ending
 * now and lasting @p dur_us host microseconds (engine/job timing).
 */
inline void
hostSlice(const char *cat, const std::string &dyn_name, double dur_us,
          const char *arg_key = nullptr, double arg_val = 0.0)
{
    if (detail::tl_state)
        detail::emitHost('X', cat, nullptr, dyn_name, dur_us, arg_key,
                         arg_val);
}

/** True if the calling thread is attached to a live session. */
inline bool
attached() noexcept
{
    return detail::tl_state != nullptr;
}

/**
 * Self-profiling scope: accumulates host time under a Prof key.
 * Dormant cost is one TL load and branch at construction; the
 * destructor re-checks the cached pointer, never the TL slot.
 */
class ProfScope
{
  public:
    explicit ProfScope(Prof key) noexcept
        : ts(detail::tl_state), key(key)
    {
        if (ts)
            t0 = std::chrono::steady_clock::now();
    }

    ~ProfScope()
    {
        if (!ts)
            return;
        const auto dt = std::chrono::steady_clock::now() - t0;
        auto &cell = ts->prof[static_cast<std::size_t>(key)];
        ++cell.count;
        cell.ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                .count());
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    ThreadState *ts;
    Prof key;
    std::chrono::steady_clock::time_point t0;
};

#define RBV_OBS_CONCAT_(a, b) a##b
#define RBV_OBS_CONCAT(a, b) RBV_OBS_CONCAT_(a, b)

#define RBV_PROF_SCOPE(key)                                           \
    ::rbv::obs::ProfScope RBV_OBS_CONCAT(rbv_prof_scope_, __LINE__)   \
    {                                                                 \
        ::rbv::obs::Prof::key                                         \
    }
#define RBV_COUNT(key, n)                                             \
    ::rbv::obs::counterAdd(::rbv::obs::Counter::key, (n))
#define RBV_HIST(key, v)                                              \
    ::rbv::obs::histRecord(::rbv::obs::Hist::key, (v))

// ---------------------------------------------------------- session

/** Session tunables. */
struct SessionConfig
{
    /** Trace ring capacity per attached thread (events). 0 disables
     *  trace recording (metrics/profiling stay on). */
    std::size_t traceCapacityPerThread = 1u << 15;
};

/** Merged (cross-shard) metric totals, for tests and reports. */
struct MergedMetrics
{
    std::array<std::uint64_t, NumCounters> counters{};
    /** Bucket counts per histogram: [hist][0..buckets+1]. */
    std::array<std::vector<std::uint64_t>, NumHists> hist;
};

/** One row of the merged self-profile. */
struct ProfRow
{
    Prof key = Prof::Count_;
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
};

/**
 * One observability session: the owner of every shard recorded
 * between its construction and destruction.
 *
 * At most one session is live per process (the constructor makes the
 * new session current only if none is); the constructing thread is
 * attached as logical thread 0. parallelFor()'s threads attach under
 * the lowest free logical id and detach before they are joined, so a
 * session holds one shard per thread that ever ran at once, and the
 * merge happens after the join.
 */
class Session
{
  public:
    explicit Session(SessionConfig cfg = {});
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** True if this session became the process-current one. */
    bool active() const { return isActive; }

    /**
     * Attach the calling thread to the shard of the lowest logical id
     * no thread holds (its host trace track; 0 = main, n = worker
     * n), made on first use. Returns null when this session is not
     * the current one.
     */
    ThreadState *attachThread();

    /**
     * Release the calling thread's shard for the next attach. Takes
     * the mutex, so the shard's next holder sees every write made
     * before this call.
     */
    void detachThread();

    /** Name the simulated-trace process @p pid (e.g. a job key). */
    void nameSimProcess(std::uint32_t pid, const std::string &name);

    /** Host microseconds since session construction. */
    double hostNowUs() const;

    /** @name Report-time views (call after workers are joined). */
    /// @{
    MergedMetrics mergedMetrics() const;

    /** Profile rows sorted by total time, descending. */
    std::vector<ProfRow> mergedProfile() const;

    /** Chrome trace_event JSON (chrome://tracing, Perfetto). */
    void writeChromeTrace(std::ostream &os) const;

    /** Flat text metrics dump (one `counter`/`hist.bucket` per line). */
    void writeMetrics(std::ostream &os) const;

    /** Human-readable top-N self-profile table. */
    void writeProfile(std::ostream &os, std::size_t top_n = 10) const;
    /// @}

    /** Total trace events dropped to ring overflow (all shards). */
    std::uint64_t droppedEvents() const;

  private:
    SessionConfig cfg;
    bool isActive = false;
    std::chrono::steady_clock::time_point epoch;

    mutable std::mutex mu;
    // Shared registries mutated from worker threads as they attach
    // and detach; every touch outside construction must hold mu.
    // threads[id] is logical thread id's shard.
    std::vector<std::unique_ptr<ThreadState>>
        threads; // rbvlint: guarded_by(mu)
    std::map<std::uint32_t, std::string>
        simProcNames; // rbvlint: guarded_by(mu)
};

/**
 * Threads for a parallelFor() over @p count indices at @p jobs: jobs
 * (every hardware thread when <= 0), at most count, at least 1.
 */
std::size_t poolThreads(std::size_t count, int jobs);

/**
 * The one fork/join pool: runs fn(0 .. count-1) on
 * poolThreads(count, jobs) threads, the calling thread among them.
 * Threads claim max(1, count / (threads * 8)) consecutive indices at
 * a time from an atomic cursor, so every index runs exactly once;
 * when each writes only its own state, results cannot depend on the
 * thread count or schedule. When the calling thread is attached to a
 * session, each started thread attaches to the same session (lowest
 * free logical id, the caller's simulated-trace pid) and detaches
 * before the join; otherwise the started threads stay dormant. An
 * exception from fn stops the thread that threw from claiming more;
 * the first one is rethrown once every thread has been joined.
 */
void parallelFor(std::size_t count, int jobs,
                 const std::function<void(std::size_t)> &fn);

/**
 * RAII simulated-process scope: routes the calling thread's
 * simulated-clock events to trace pid @p pid (named @p name) for the
 * scope's lifetime — one pid per experiment-engine job, so each
 * scenario renders as its own process group in the trace viewer.
 */
class ScopedSimProcess
{
  public:
    ScopedSimProcess(std::uint32_t pid, const std::string &name);
    ~ScopedSimProcess();

    ScopedSimProcess(const ScopedSimProcess &) = delete;
    ScopedSimProcess &operator=(const ScopedSimProcess &) = delete;

  private:
    std::uint32_t prevPid = 1;
    bool didSet = false;
};

} // namespace rbv::obs

#endif // RBV_OBS_OBS_HH
