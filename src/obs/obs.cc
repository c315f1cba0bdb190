/**
 * @file
 * rbv::obs implementation: shard bookkeeping, merge, the three
 * report writers (Chrome trace_event JSON, flat metrics text, the
 * self-profile table) and the fork/join pool. Everything here is
 * cold path; the hot path lives in the obs.hh inlines.
 */

#include "obs/obs.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <iomanip>
#include <limits>
#include <sstream>
#include <thread>

namespace rbv::obs {

// -------------------------------------------------------- catalogue

const char *
counterName(Counter c)
{
    switch (c) {
      case Counter::SimEventsScheduled:
        return "sim.events_scheduled";
      case Counter::SimEventsFired:
        return "sim.events_fired";
      case Counter::SimEventsCancelled:
        return "sim.events_cancelled";
      case Counter::SimEventsRescheduled:
        return "sim.events_rescheduled";
      case Counter::SimEventsParked:
        return "sim.events_parked";
      case Counter::SimWaterFills:
        return "sim.water_fills";
      case Counter::OsSyscalls:
        return "os.syscalls";
      case Counter::OsContextSwitches:
        return "os.context_switches";
      case Counter::OsPreemptions:
        return "os.preemptions";
      case Counter::OsWakeups:
        return "os.wakeups";
      case Counter::OsRequestsCompleted:
        return "os.requests_completed";
      case Counter::SamplingSamples:
        return "sampling.samples";
      case Counter::SamplingOverheadCycles:
        return "sampling.overhead_cycles";
      case Counter::SchedContentionDeferrals:
        return "sched.contention_deferrals";
      case Counter::ExpJobsCompleted:
        return "exp.jobs_completed";
      case Counter::FiInjections:
        return "fi.injections";
      case Counter::ModelDistanceCells:
        return "model.distance_cells";
      case Counter::ModelDtwEarlyAbandons:
        return "model.dtw_early_abandons";
      case Counter::ModelLevBitParallel:
        return "model.lev_bit_parallel";
      case Counter::ModelLbKimPrunes:
        return "model.lb_kim_prunes";
      case Counter::ModelLbKeoghPrunes:
        return "model.lb_keogh_prunes";
      case Counter::ModelCascadeDpRuns:
        return "model.cascade_dp_runs";
      case Counter::ModelSigPrefixPrunes:
        return "model.sig_prefix_prunes";
      case Counter::WlArrivals:
        return "wl.arrivals";
      case Counter::WlShedRequests:
        return "wl.shed_requests";
      case Counter::OsRequestSlotsRecycled:
        return "os.request_slots_recycled";
      case Counter::ServeCheckpoints:
        return "serve.checkpoints";
      case Counter::ServeStalledRequests:
        return "serve.stalled_requests";
      case Counter::DiagAnomalies:
        return "diag.anomalies";
      case Counter::DiagUnknownCauses:
        return "diag.unknown_causes";
      case Counter::OsDroppedDeliveries:
        return "os.dropped_deliveries";
      case Counter::DistRpcAttempts:
        return "dist.rpc_attempts";
      case Counter::DistRetries:
        return "dist.retries";
      case Counter::DistHedges:
        return "dist.hedges";
      case Counter::DistFailovers:
        return "dist.failovers";
      case Counter::DistBreakerTransitions:
        return "dist.breaker_transitions";
      case Counter::Count_:
        break;
    }
    return "?";
}

const HistSpec &
histSpec(Hist h)
{
    static const HistSpec specs[NumHists] = {
        {"sampling.period_cycles", "cycles", 1000.0, 2.0, 16},
        {"os.request_latency_us", "us", 10.0, 2.0, 20},
        {"exp.job_ms", "ms", 1.0, 2.0, 16},
    };
    return specs[static_cast<std::size_t>(h)];
}

int
histBucket(const HistSpec &spec, double v)
{
    if (!(v >= spec.base)) // NaN lands in the underflow bucket too
        return 0;
    double lo = spec.base;
    for (int i = 1; i <= spec.buckets; ++i) {
        const double hi = lo * spec.factor;
        if (v < hi)
            return i;
        lo = hi;
    }
    return spec.buckets + 1;
}

double
histBucketLow(const HistSpec &spec, int bucket)
{
    if (bucket <= 0)
        return -std::numeric_limits<double>::infinity();
    double lo = spec.base;
    for (int i = 1; i < bucket; ++i)
        lo *= spec.factor;
    return lo;
}

const char *
profName(Prof p)
{
    switch (p) {
      case Prof::EventQueuePump:
        return "sim.event_queue_pump";
      case Prof::DtwDistance:
        return "model.dtw";
      case Prof::DtwEarlyAbandon:
        return "model.dtw_early_abandon";
      case Prof::LevenshteinDistance:
        return "model.levenshtein";
      case Prof::SignatureIdentify:
        return "model.identify_l1";
      case Prof::DistanceMatrixBuild:
        return "model.distance_matrix";
      case Prof::KMedoids:
        return "model.kmedoids";
      case Prof::WaterFill:
        return "sim.water_fill";
      case Prof::RunScenario:
        return "exp.run_scenario";
      case Prof::ServeCheckpoint:
        return "serve.checkpoint";
      case Prof::Count_:
        break;
    }
    return "?";
}

namespace {

/** Slots of one histogram including under/overflow buckets. */
std::size_t
histSlots(Hist h)
{
    return static_cast<std::size_t>(histSpec(h).buckets) + 2;
}

/** Offset of a histogram's buckets in the flat shard vector. */
std::size_t
histOffset(Hist h)
{
    std::size_t off = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(h); ++i)
        off += histSlots(static_cast<Hist>(i));
    return off;
}

[[maybe_unused]] std::size_t
histTotalSlots()
{
    return histOffset(Hist::Count_);
}

/** The process-current session (at most one live at a time). */
std::atomic<Session *> g_current{nullptr};

/** Minimal JSON string escaping for names/categories/keys. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                std::ostringstream hex;
                hex << "\\u" << std::hex << std::setw(4)
                    << std::setfill('0') << static_cast<int>(c);
                out += hex.str();
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Format a double for JSON/metrics output (no trailing noise). */
std::string
fmtNum(double v)
{
    std::ostringstream os;
    os << std::setprecision(12) << v;
    return os.str();
}

} // namespace

// ----------------------------------------------------- detail emits

namespace detail {

constinit thread_local ThreadState *tl_state = nullptr;

void
emitSim(char phase, const char *cat, const char *name, double ts_us,
        double dur_us, std::uint64_t id, std::uint32_t core,
        const char *arg_key, double arg_val)
{
    ThreadState *ts = tl_state;
    TraceEvent ev;
    ev.name = name;
    ev.cat = cat;
    ev.phase = phase;
    ev.hostClock = false;
    ev.pid = ts->simPid;
    ev.track = core;
    ev.id = id;
    ev.tsUs = ts_us;
    ev.durUs = dur_us;
    ev.argKey = arg_key;
    ev.argVal = arg_val;
    ts->push(ev);
}

void
emitHost(char phase, const char *cat, const char *name,
         const std::string &dyn_name, double dur_us,
         const char *arg_key, double arg_val)
{
    ThreadState *ts = tl_state;
    const double now_us = ts->session->hostNowUs();
    TraceEvent ev;
    ev.cat = cat;
    ev.phase = phase;
    ev.hostClock = true;
    ev.pid = 0;
    ev.track = ts->logicalId;
    ev.tsUs = phase == 'X' ? now_us - dur_us : now_us;
    ev.durUs = dur_us;
    ev.argKey = arg_key;
    ev.argVal = arg_val;
    if (name) {
        ev.name = name;
    } else {
        std::strncpy(ev.dyn, dyn_name.c_str(), sizeof(ev.dyn) - 1);
        ev.dyn[sizeof(ev.dyn) - 1] = '\0';
    }
    ts->push(ev);
}

void
recordHist(Hist h, double v)
{
    ThreadState *ts = tl_state;
    const std::size_t slot =
        histOffset(h) +
        static_cast<std::size_t>(histBucket(histSpec(h), v));
    ++ts->hist[slot];
}

} // namespace detail

// ---------------------------------------------------------- session

Session::Session(SessionConfig cfg)
    : cfg(cfg), epoch(std::chrono::steady_clock::now())
{
    Session *expected = nullptr;
    isActive = g_current.compare_exchange_strong(expected, this);
    if (isActive)
        attachThread();
}

Session::~Session()
{
    if (!isActive)
        return;
    if (detail::tl_state && detail::tl_state->session == this)
        detail::tl_state = nullptr;
    Session *expected = this;
    g_current.compare_exchange_strong(expected, nullptr);
}

ThreadState *
Session::attachThread()
{
    if (!isActive)
        return nullptr;
    std::lock_guard<std::mutex> lock(mu);
    std::size_t id = 0;
    while (id < threads.size() && threads[id]->bound)
        ++id;
    if (id == threads.size()) {
        auto ts = std::make_unique<ThreadState>();
        ts->ringCapacity = cfg.traceCapacityPerThread;
        ts->hist.assign(histTotalSlots(), 0);
        ts->logicalId = static_cast<std::uint32_t>(id);
        ts->session = this;
        threads.push_back(std::move(ts));
    }
    threads[id]->bound = true;
    detail::tl_state = threads[id].get();
    return detail::tl_state;
}

void
Session::detachThread()
{
    std::lock_guard<std::mutex> lock(mu);
    detail::tl_state->bound = false;
    detail::tl_state = nullptr;
}

void
Session::nameSimProcess(std::uint32_t pid, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu);
    simProcNames[pid] = name;
}

double
Session::hostNowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

MergedMetrics
Session::mergedMetrics() const
{
    MergedMetrics m;
    for (std::size_t h = 0; h < NumHists; ++h)
        m.hist[h].assign(histSlots(static_cast<Hist>(h)), 0);
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &ts : threads) {
        for (std::size_t c = 0; c < NumCounters; ++c)
            m.counters[c] += ts->counters[c];
        for (std::size_t h = 0; h < NumHists; ++h) {
            const std::size_t off = histOffset(static_cast<Hist>(h));
            for (std::size_t b = 0; b < m.hist[h].size(); ++b)
                m.hist[h][b] += ts->hist[off + b];
        }
    }
    return m;
}

std::vector<ProfRow>
Session::mergedProfile() const
{
    std::array<ProfRow, NumProfs> rows{};
    {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto &ts : threads) {
            for (std::size_t p = 0; p < NumProfs; ++p) {
                rows[p].key = static_cast<Prof>(p);
                rows[p].count += ts->prof[p].count;
                rows[p].ns += ts->prof[p].ns;
            }
        }
    }
    std::vector<ProfRow> out;
    for (const auto &r : rows)
        if (r.count > 0)
            out.push_back(r);
    std::sort(out.begin(), out.end(),
              [](const ProfRow &a, const ProfRow &b) {
                  return a.ns != b.ns
                             ? a.ns > b.ns
                             : static_cast<int>(a.key) <
                                   static_cast<int>(b.key);
              });
    return out;
}

std::uint64_t
Session::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::uint64_t dropped = 0;
    for (const auto &ts : threads)
        dropped += ts->dropped();
    return dropped;
}

void
Session::writeChromeTrace(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu);

    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    const auto next = [&]() -> std::ostream & {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
        return os;
    };

    // Metadata: name every (pid, tid) pair that carries events.
    std::map<std::uint32_t, std::string> pidNames = simProcNames;
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::string>
        tidNames;
    for (const auto &ts : threads) {
        const std::uint64_t n =
            std::min<std::uint64_t>(ts->pushed, ts->ring.size());
        const std::uint64_t start = ts->pushed - n;
        for (std::uint64_t k = 0; k < n; ++k) {
            const TraceEvent &ev =
                ts->ring[static_cast<std::size_t>((start + k) %
                                                  ts->ring.size())];
            if (ev.hostClock) {
                pidNames.emplace(0, "engine (host clock)");
                tidNames[{0, ev.track}] =
                    ev.track == 0
                        ? "main"
                        : "worker " + std::to_string(ev.track);
            } else {
                pidNames.emplace(ev.pid, "sim");
                tidNames[{ev.pid, ev.track}] =
                    "core " + std::to_string(ev.track);
            }
        }
    }
    for (const auto &[pid, name] : pidNames) {
        next() << "{\"ph\":\"M\",\"pid\":" << pid
               << ",\"name\":\"process_name\",\"args\":{\"name\":\""
               << jsonEscape(name) << "\"}}";
    }
    for (const auto &[key, name] : tidNames) {
        next() << "{\"ph\":\"M\",\"pid\":" << key.first
               << ",\"tid\":" << key.second
               << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
               << jsonEscape(name) << "\"}}";
    }

    // Events, shard by shard in logical-thread order, oldest first.
    for (const auto &ts : threads) {
        const std::uint64_t n =
            std::min<std::uint64_t>(ts->pushed, ts->ring.size());
        const std::uint64_t start = ts->pushed - n;
        for (std::uint64_t k = 0; k < n; ++k) {
            const TraceEvent &ev =
                ts->ring[static_cast<std::size_t>((start + k) %
                                                  ts->ring.size())];
            next() << "{\"name\":\""
                   << jsonEscape(ev.name ? ev.name : ev.dyn)
                   << "\",\"cat\":\"" << jsonEscape(ev.cat)
                   << "\",\"ph\":\"" << ev.phase
                   << "\",\"ts\":" << fmtNum(ev.tsUs)
                   << ",\"pid\":" << ev.pid
                   << ",\"tid\":" << ev.track;
            if (ev.phase == 'X')
                os << ",\"dur\":" << fmtNum(ev.durUs);
            if (ev.phase == 'i')
                os << ",\"s\":\"t\"";
            if (ev.phase == 'b' || ev.phase == 'e')
                os << ",\"id\":\"0x" << std::hex << ev.id << std::dec
                   << "\"";
            if (ev.argKey) {
                os << ",\"args\":{\"" << jsonEscape(ev.argKey)
                   << "\":" << fmtNum(ev.argVal) << "}";
            }
            os << "}";
        }
    }
    os << "\n]}\n";
}

void
Session::writeMetrics(std::ostream &os) const
{
    const MergedMetrics m = mergedMetrics();
    os << "# rbv metrics v1\n";
    for (std::size_t c = 0; c < NumCounters; ++c) {
        os << "counter " << counterName(static_cast<Counter>(c)) << " "
           << m.counters[c] << "\n";
    }
    os << "counter obs.trace_dropped_events " << droppedEvents()
       << "\n";
    for (std::size_t h = 0; h < NumHists; ++h) {
        const HistSpec &spec = histSpec(static_cast<Hist>(h));
        std::uint64_t total = 0;
        for (const std::uint64_t n : m.hist[h])
            total += n;
        os << "hist " << spec.name << " unit=" << spec.unit
           << " base=" << fmtNum(spec.base)
           << " factor=" << fmtNum(spec.factor)
           << " buckets=" << spec.buckets << " count=" << total
           << "\n";
        for (std::size_t b = 0; b < m.hist[h].size(); ++b) {
            const int bucket = static_cast<int>(b);
            const double lo = histBucketLow(spec, bucket);
            os << "hist.bucket " << spec.name << " " << bucket << " "
               << (bucket == 0 ? "-inf" : fmtNum(lo)) << " "
               << (bucket > spec.buckets
                       ? "+inf"
                       : fmtNum(lo == -std::numeric_limits<
                                          double>::infinity()
                                    ? spec.base
                                    : lo * spec.factor))
               << " " << m.hist[h][b] << "\n";
        }
    }
}

void
Session::writeProfile(std::ostream &os, std::size_t top_n) const
{
    const std::vector<ProfRow> rows = mergedProfile();
    os << "obs: self-profile (top " << std::min(top_n, rows.size())
       << " of " << rows.size() << " keys by total host time)\n";
    os << "  " << std::left << std::setw(24) << "key" << std::right
       << std::setw(12) << "count" << std::setw(14) << "total_ms"
       << std::setw(12) << "mean_us" << "\n";
    std::size_t shown = 0;
    for (const auto &r : rows) {
        if (shown++ >= top_n)
            break;
        const double total_ms = static_cast<double>(r.ns) / 1.0e6;
        const double mean_us =
            static_cast<double>(r.ns) / 1.0e3 /
            static_cast<double>(r.count);
        os << "  " << std::left << std::setw(24) << profName(r.key)
           << std::right << std::setw(12) << r.count << std::setw(14)
           << std::fixed << std::setprecision(3) << total_ms
           << std::setw(12) << mean_us << "\n";
        os.unsetf(std::ios::floatfield);
    }
    if (rows.empty())
        os << "  (no profiled scopes ran)\n";
}

// ------------------------------------------------------------ pool

std::size_t
poolThreads(std::size_t count, int jobs)
{
    const std::size_t want =
        jobs > 0 ? static_cast<std::size_t>(jobs)
                 : std::max(1u, std::thread::hardware_concurrency());
    return std::max<std::size_t>(1, std::min(want, count));
}

void
parallelFor(std::size_t count, int jobs,
            const std::function<void(std::size_t)> &fn)
{
    // Chunked claiming: rows near the top of a distance triangle are
    // much longer than rows near the bottom, so static slicing would
    // leave threads idle, but claiming one index per atomic op puts
    // the threads on the cursor's cache line when fn is cheap.
    // Stripes of count / (threads * 8) indices keep the tail
    // balanced with few atomic ops.
    const std::size_t threads = poolThreads(count, jobs);
    const std::size_t chunk =
        std::max<std::size_t>(1, count / (threads * 8));
    std::atomic<std::size_t> cursor{0};
    std::mutex failureMu;
    std::exception_ptr failure; // the first exception an index threw
    const auto claim = [&] {
        try {
            for (;;) {
                const std::size_t start =
                    cursor.fetch_add(chunk, std::memory_order_relaxed);
                if (start >= count)
                    return;
                const std::size_t stop = std::min(count, start + chunk);
                for (std::size_t i = start; i < stop; ++i)
                    fn(i);
            }
        } catch (...) {
            const std::lock_guard<std::mutex> lock(failureMu);
            if (!failure)
                failure = std::current_exception();
        }
    };

    // Started threads count into the forking thread's session, in
    // its simulated-trace process; read both before the fork, since
    // the forking thread's own indices may change its process.
    Session *session =
        detail::tl_state ? detail::tl_state->session : nullptr;
    const std::uint32_t simPid =
        session ? detail::tl_state->simPid : 0;
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t) {
        pool.emplace_back([&] {
            if (session)
                session->attachThread()->simPid = simPid;
            claim();
            if (session)
                session->detachThread();
        });
    }
    claim();
    for (std::thread &th : pool)
        th.join();
    if (failure)
        std::rethrow_exception(failure);
}

ScopedSimProcess::ScopedSimProcess(std::uint32_t pid,
                                   const std::string &name)
{
    ThreadState *ts = detail::tl_state;
    if (ts) {
        prevPid = ts->simPid;
        ts->simPid = pid;
        ts->session->nameSimProcess(pid, name);
        didSet = true;
    }
}

ScopedSimProcess::~ScopedSimProcess()
{
    if (didSet && detail::tl_state)
        detail::tl_state->simPid = prevPid;
}

} // namespace rbv::obs
