/**
 * @file
 * Online serving loop: the streaming counterpart of runScenario().
 *
 * Where the batch scenario runner drives a closed-loop population to
 * a fixed request count and returns every record at the end, the
 * serving loop runs an open-loop arrival process (rbv::wl::
 * ArrivalProcess) against the same machine/kernel/sampler stack and
 * consumes each request the moment it completes:
 *
 *  - its sampled timeline is taken out of the sampler (freeing the
 *    slot for the recycled request id),
 *  - latency and CPI enter windowed/decaying statistics
 *    (stats/online.hh),
 *  - its metric series feeds the streaming identification /
 *    clustering / anomaly models (core/model/streaming.hh),
 *  - and the kernel request slot is recycled.
 *
 * Nothing grows with the stream: a fixed seed reproduces the run bit
 * for bit, and memory stays flat over tens of millions of requests.
 * Progress is reported as checkpoint lines every N completions; all
 * checkpoint fields are simulation-deterministic (host-side values
 * such as RSS go to side files only).
 */

#ifndef RBV_EXP_SERVE_HH
#define RBV_EXP_SERVE_HH

#include <array>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "diag/evidence.hh"
#include "exp/scenario.hh"
#include "obs/obs.hh"
#include "wl/arrival.hh"

namespace rbv::exp {

/** Configuration of one serving run. */
struct ServeConfig
{
    /**
     * Machine, sampler, seed, and fault-plan configuration, shared
     * with the batch runner so both modes attach identical
     * instrumentation. The closed-loop fields (requests, warmup,
     * concurrency) are ignored here.
     */
    ScenarioConfig base;

    /**
     * Workload name; overrides base.app when nonempty. Accepts the
     * five catalogue applications plus "micromix", the lightweight
     * serving smoke mix that is deliberately not a wl::App.
     */
    std::string appName;

    /** Open-loop arrival process (QPS, mode, shape). */
    wl::ArrivalConfig arrival;

    /** Arrivals to generate; 0 = run for durationSec instead. */
    std::size_t targetRequests = 0;

    /** Simulated duration in seconds (targetRequests == 0). */
    double durationSec = 1.0;

    /** Admission cap: shed arrivals beyond this many outstanding. */
    std::size_t maxOutstanding = 4096;

    /** Emit a checkpoint line every this many completions. */
    std::size_t checkpointEvery = 10000;

    /** @name Streaming model shape (core/model/streaming.hh). */
    /// @{
    std::size_t window = 512;         ///< Cluster window.
    std::size_t sample = 64;          ///< CLARA sample per recluster.
    std::size_t k = 4;                ///< Medoids.
    std::size_t reclusterEvery = 256; ///< Series between reclusters.
    std::size_t bankCapacity = 256;   ///< Signature reservoir size.
    std::size_t scoreWindow = 1024;   ///< Anomaly score quantile window.
    double scoreQuantile = 0.99;      ///< Anomaly flag quantile.
    /** Signature bin width in instructions. */
    double binIns = 2000.0;
    /** Identification confidence floor (Sec. 4.4 degradation). */
    double idFloor = 0.05;
    /// @}

    /**
     * Flag a request as stalled when its attributed instructions
     * exceed this multiple of its specified work (the req-stuck
     * fault signature); any stalled request marks the run degraded.
     */
    double stuckFactor = 8.0;

    /** @name Online diagnosis (rbv::diag; docs/DIAGNOSIS.md). */
    /// @{
    /**
     * Extract an evidence fingerprint for every flagged completion
     * and classify it into a cause. Dormant by default: without the
     * flag no diagnosis state is touched and stdout is unchanged.
     */
    bool diagnose = false;

    /** Diagnosis JSON report path ("" = none). */
    std::string diagOut;
    /// @}

    /** @name Live observability (all optional). */
    /// @{
    /** Session whose metrics are re-dumped at each checkpoint. */
    obs::Session *session = nullptr;
    /** Metrics dump path (rewritten atomically-enough per epoch). */
    std::string metricsOut;
    /** Host RSS samples per checkpoint (host-only side file). */
    std::string rssLog;
    /// @}

    /** Suppress per-checkpoint lines (the summary still prints). */
    bool quiet = false;
};

/** One per-epoch progress snapshot (all fields sim-deterministic). */
struct ServeCheckpoint
{
    std::size_t epoch = 0;
    double simMs = 0.0;

    std::size_t arrivals = 0;
    std::size_t completed = 0;
    std::size_t outstanding = 0;
    std::size_t shed = 0;

    double p50LatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    double cpiMean = 0.0;
    double cpiCov = 0.0;

    std::size_t idAttempts = 0;
    std::size_t idCorrect = 0;
    std::size_t idUnknown = 0;

    std::size_t bankSize = 0;
    std::size_t reclusters = 0;
    std::size_t flagged = 0;
    std::size_t stalled = 0;

    /** Kernel request-slot table size — the flat-memory witness. */
    std::size_t requestSlots = 0;
};

/** Outcome of one serving run. */
struct ServeResult
{
    std::vector<ServeCheckpoint> checkpoints;

    std::size_t arrivals = 0;
    std::size_t injected = 0;
    std::size_t completed = 0;
    std::size_t shed = 0;
    std::size_t stalled = 0;
    std::size_t flagged = 0;
    std::size_t reclusters = 0;
    std::size_t bankSize = 0;

    std::size_t idAttempts = 0;
    std::size_t idCorrect = 0;
    std::size_t idUnknown = 0;

    double p50LatencyUs = 0.0;
    double p99LatencyUs = 0.0;

    sim::Tick wallCycles = 0;
    std::size_t requestSlots = 0;

    /** Deterministic injection log (empty without a fault plan). */
    std::vector<fi::Injection> injections;

    /** @name Online diagnosis outputs (empty unless cfg.diagnose). */
    /// @{
    std::size_t diagAnomalies = 0; ///< Flags seen by the diagnoser.
    std::size_t diagDropped = 0;   ///< Oldest reports evicted.
    /** The latest reports: a bound so diagnosis memory stays flat
     *  over arbitrarily long streams. */
    std::vector<diag::AnomalyReport> diagReports;
    std::array<std::size_t, diag::NumCauses> diagCauseCounts{};
    /// @}

    /** Identification accuracy over warm-bank attempts. */
    double
    idAccuracy() const
    {
        return idAttempts > 0
                   ? static_cast<double>(idCorrect) /
                         static_cast<double>(idAttempts)
                   : 0.0;
    }

    /** True when the run saw stalled requests (exit code 3). */
    bool degraded() const { return stalled > 0; }
};

/**
 * Resolve a serving workload by name: any wl::App catalogue name, or
 * "micromix". Throws std::invalid_argument on unknown names.
 */
std::unique_ptr<wl::Generator>
makeServeGenerator(const std::string &name);

/**
 * Run one serving loop to completion; checkpoint and summary lines
 * go to @p out (byte-identical across runs at a fixed seed).
 */
ServeResult runServe(const ServeConfig &cfg, std::ostream &out);

} // namespace rbv::exp

#endif // RBV_EXP_SERVE_HH
