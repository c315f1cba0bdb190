/**
 * @file
 * rbv::obs tests: histogram bucket math at exact boundaries, counter
 * and histogram shard merge under the runner's --jobs parallelism
 * (merged totals must equal a serial run's), the pool's attach rule
 * (lowest free logical id, dormant without a session), and a minimal
 * JSON schema check over the Chrome trace_event export.
 */

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/model/distance.hh"
#include "core/model/kmedoids.hh"
#include "exp/runner.hh"
#include "obs/obs.hh"
#include "os/syscall.hh"

using namespace rbv;
using namespace rbv::obs;

namespace {

// ------------------------------------------------ minimal JSON model

/** Just enough JSON to validate the trace export structurally. */
struct JsonValue
{
    enum class Kind
    {
        Object,
        Array,
        String,
        Number,
        Bool,
        Null,
    };

    Kind kind = Kind::Null;
    std::map<std::string, JsonValue> object;
    std::vector<JsonValue> array;
    std::string str;
    double num = 0.0;
    bool boolean = false;

    bool
    has(const std::string &key) const
    {
        return kind == Kind::Object && object.count(key) > 0;
    }

    const JsonValue &
    at(const std::string &key) const
    {
        return object.at(key);
    }
};

/** Recursive-descent parser; throws std::runtime_error on bad input. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s(text) {}

    JsonValue
    parse()
    {
        const JsonValue v = value();
        skipWs();
        if (pos != s.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw std::runtime_error("json error at byte " +
                                 std::to_string(pos) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    char
    peek()
    {
        skipWs();
        if (pos >= s.size())
            fail("unexpected end");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    JsonValue
    value()
    {
        switch (peek()) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
          case 'f':
            return boolean();
          case 'n':
            return null();
          default:
            return number();
        }
    }

    JsonValue
    object()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        if (peek() == '}') {
            ++pos;
            return v;
        }
        for (;;) {
            const JsonValue key = string();
            expect(':');
            v.object[key.str] = value();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        if (peek() == ']') {
            ++pos;
            return v;
        }
        for (;;) {
            v.array.push_back(value());
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    string()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        expect('"');
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\') {
                if (pos + 1 >= s.size())
                    fail("bad escape");
                ++pos;
            }
            v.str += s[pos++];
        }
        if (pos >= s.size())
            fail("unterminated string");
        ++pos;
        return v;
    }

    JsonValue
    number()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        const std::size_t start = pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '-' || s[pos] == '+' || s[pos] == '.' ||
                s[pos] == 'e' || s[pos] == 'E'))
            ++pos;
        if (pos == start)
            fail("expected number");
        std::size_t used = 0;
        v.num = std::stod(s.substr(start, pos - start), &used);
        if (used != pos - start)
            fail("malformed number");
        return v;
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (s.compare(pos, 4, "true") == 0) {
            v.boolean = true;
            pos += 4;
        } else if (s.compare(pos, 5, "false") == 0) {
            pos += 5;
        } else {
            fail("expected boolean");
        }
        return v;
    }

    JsonValue
    null()
    {
        if (s.compare(pos, 4, "null") != 0)
            fail("expected null");
        pos += 4;
        return JsonValue{};
    }

    const std::string &s;
    std::size_t pos = 0;
};

/** Schema check for one trace_event entry. */
void
checkTraceEvent(const JsonValue &ev)
{
    ASSERT_EQ(ev.kind, JsonValue::Kind::Object);
    ASSERT_TRUE(ev.has("ph"));
    ASSERT_TRUE(ev.has("name"));
    ASSERT_TRUE(ev.has("pid"));
    const std::string ph = ev.at("ph").str;
    if (ph == "M") {
        // Metadata: process_name / thread_name with an args.name.
        ASSERT_TRUE(ev.at("name").str == "process_name" ||
                    ev.at("name").str == "thread_name");
        ASSERT_TRUE(ev.has("args"));
        ASSERT_TRUE(ev.at("args").has("name"));
        return;
    }
    ASSERT_TRUE(ph == "X" || ph == "i" || ph == "b" || ph == "e")
        << "unexpected phase " << ph;
    ASSERT_TRUE(ev.has("cat"));
    ASSERT_TRUE(ev.has("ts"));
    ASSERT_TRUE(ev.has("tid"));
    ASSERT_EQ(ev.at("ts").kind, JsonValue::Kind::Number);
    if (ph == "X") {
        ASSERT_TRUE(ev.has("dur"));
    }
    if (ph == "i") {
        ASSERT_EQ(ev.at("s").str, "t");
    }
    if (ph == "b" || ph == "e") {
        ASSERT_TRUE(ev.has("id"));
    }
}

exp::ScenarioConfig
tinyScenario()
{
    exp::ScenarioConfig cfg;
    cfg.app = wl::App::WebServer;
    cfg.requests = 12;
    cfg.warmup = 2;
    cfg.concurrency = 4;
    return cfg;
}

std::vector<exp::Job>
tinyJobs()
{
    exp::ScenarioGrid grid(tinyScenario());
    grid.replicates(4);
    return grid.jobs();
}

/** Merged metrics of a tiny campaign run under @p jobs threads. */
MergedMetrics
campaignMetrics(int jobs)
{
    Session session;
    exp::RunnerOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    exp::ParallelRunner(opts).run(tinyJobs());
    return session.mergedMetrics();
}

// ------------------------------------------------------ bucket math

TEST(HistBucket, ExactBoundariesAreExclusiveAbove)
{
    const HistSpec spec{"t", "u", 1000.0, 2.0, 4};
    // Underflow below base.
    EXPECT_EQ(histBucket(spec, 0.0), 0);
    EXPECT_EQ(histBucket(spec, 999.999), 0);
    // Bucket i covers [base * f^(i-1), base * f^i).
    EXPECT_EQ(histBucket(spec, 1000.0), 1);
    EXPECT_EQ(histBucket(spec, 1999.999), 1);
    EXPECT_EQ(histBucket(spec, 2000.0), 2);
    EXPECT_EQ(histBucket(spec, 4000.0), 3);
    EXPECT_EQ(histBucket(spec, 8000.0), 4);
    EXPECT_EQ(histBucket(spec, 15999.0), 4);
    // Top finite boundary goes to overflow.
    EXPECT_EQ(histBucket(spec, 16000.0), 5);
    EXPECT_EQ(histBucket(spec, 1e30), 5);
}

TEST(HistBucket, PathologicalValues)
{
    const HistSpec spec{"t", "u", 1.0, 10.0, 3};
    EXPECT_EQ(histBucket(spec, std::nan("")), 0);
    EXPECT_EQ(histBucket(spec, -std::numeric_limits<double>::infinity()),
              0);
    EXPECT_EQ(histBucket(spec, std::numeric_limits<double>::infinity()),
              4);
    EXPECT_EQ(histBucket(spec, -5.0), 0);
}

TEST(HistBucket, LowBoundsMatchBucketAssignment)
{
    for (std::size_t h = 0; h < NumHists; ++h) {
        const HistSpec &spec = histSpec(static_cast<Hist>(h));
        EXPECT_EQ(histBucketLow(spec, 0),
                  -std::numeric_limits<double>::infinity());
        EXPECT_DOUBLE_EQ(histBucketLow(spec, 1), spec.base);
        for (int b = 1; b <= spec.buckets + 1; ++b) {
            // A bucket's inclusive lower bound must land in it.
            EXPECT_EQ(histBucket(spec, histBucketLow(spec, b)), b)
                << spec.name << " bucket " << b;
        }
    }
}

TEST(HistBucket, EverySpecIsSane)
{
    for (std::size_t h = 0; h < NumHists; ++h) {
        const HistSpec &spec = histSpec(static_cast<Hist>(h));
        EXPECT_NE(spec.name, nullptr);
        EXPECT_GT(spec.base, 0.0);
        EXPECT_GT(spec.factor, 1.0);
        EXPECT_GT(spec.buckets, 0);
    }
}

TEST(Catalogue, EveryKeyHasAName)
{
    for (std::size_t c = 0; c < NumCounters; ++c)
        EXPECT_STRNE(counterName(static_cast<Counter>(c)), "?");
    for (std::size_t p = 0; p < NumProfs; ++p)
        EXPECT_STRNE(profName(static_cast<Prof>(p)), "?");
}

// -------------------------------------------------------- recording

TEST(ObsSession, CountersAndHistogramsRecord)
{
    Session session;
    ASSERT_TRUE(attached());

    RBV_COUNT(SimEventsFired, 3);
    RBV_COUNT(SimEventsFired, 2);
    RBV_HIST(SamplingPeriodCycles, 1500.0); // bucket 1 of that spec
    RBV_HIST(SamplingPeriodCycles, 1.0);    // underflow

    const MergedMetrics m = session.mergedMetrics();
    EXPECT_EQ(
        m.counters[static_cast<std::size_t>(Counter::SimEventsFired)],
        5u);
    const auto &hist =
        m.hist[static_cast<std::size_t>(Hist::SamplingPeriodCycles)];
    EXPECT_EQ(hist[0], 1u);
    EXPECT_EQ(hist[1], 1u);
}

TEST(ObsSession, DormantWithoutSession)
{
    EXPECT_FALSE(attached());
    // Recording without a session must be a safe no-op.
    RBV_COUNT(SimEventsFired, 1);
    RBV_HIST(SamplingPeriodCycles, 1.0);
    simInstant("t", "orphan", 0, 0.0);
    { RBV_PROF_SCOPE(DtwDistance); }
    EXPECT_FALSE(attached());
}

TEST(ObsSession, SecondSessionIsInert)
{
    Session first;
    Session second;
    ASSERT_TRUE(attached());
    EXPECT_TRUE(first.active());
    EXPECT_FALSE(second.active());
    EXPECT_EQ(second.attachThread(), nullptr);
}

TEST(ObsSession, AttachTakesTheLowestFreeIdAndDetachFreesIt)
{
    Session session;
    ASSERT_EQ(detail::tl_state->logicalId, 0u);
    const auto attachedId = [&] {
        std::uint32_t id = 0;
        std::thread([&] {
            id = session.attachThread()->logicalId;
            session.detachThread();
            EXPECT_FALSE(attached());
        }).join();
        return id;
    };
    EXPECT_EQ(attachedId(), 1u);
    EXPECT_EQ(attachedId(), 1u); // the first thread freed id 1

    // While id 1 is held, the next thread takes id 2.
    std::atomic<bool> holding{false}, release{false};
    std::thread holder([&] {
        session.attachThread();
        holding = true;
        while (!release)
            std::this_thread::yield();
        session.detachThread();
    });
    while (!holding)
        std::this_thread::yield();
    EXPECT_EQ(attachedId(), 2u);
    release = true;
    holder.join();
    EXPECT_EQ(attachedId(), 1u);
}

TEST(ObsSession, ProfScopesAccumulate)
{
    Session session;
    ASSERT_TRUE(attached());
    for (int i = 0; i < 10; ++i) {
        RBV_PROF_SCOPE(KMedoids);
    }
    const auto rows = session.mergedProfile();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].key, Prof::KMedoids);
    EXPECT_EQ(rows[0].count, 10u);
}

TEST(ObsSession, RingDropsOldestBeyondCapacity)
{
    SessionConfig cfg;
    cfg.traceCapacityPerThread = 8;
    Session session(cfg);
    ASSERT_TRUE(attached());
    for (int i = 0; i < 20; ++i)
        simInstant("t", "e", 0, static_cast<double>(i));
    EXPECT_EQ(session.droppedEvents(), 12u);

    // The export keeps the newest events (ts 12..19).
    std::ostringstream os;
    session.writeChromeTrace(os);
    const JsonValue doc = JsonParser(os.str()).parse();
    double min_ts = 1e300;
    std::size_t instants = 0;
    for (const auto &ev : doc.at("traceEvents").array) {
        if (ev.at("ph").str != "i")
            continue;
        ++instants;
        min_ts = std::min(min_ts, ev.at("ts").num);
    }
    EXPECT_EQ(instants, 8u);
    EXPECT_DOUBLE_EQ(min_ts, 12.0);
}

TEST(ObsSession, AShardMakesItsRingAtItsFirstTraceEvent)
{
    SessionConfig cfg;
    cfg.traceCapacityPerThread = 8;
    Session session(cfg);
    ThreadState *main = detail::tl_state;
    ASSERT_NE(main, nullptr);
    // Attached, counting and profiling, but no trace event yet.
    RBV_COUNT(SimEventsFired, 1);
    { RBV_PROF_SCOPE(KMedoids); }
    EXPECT_EQ(main->ring.capacity(), 0u);

    // A second shard that records nothing holds no ring either.
    std::thread([&] {
        ThreadState *other = session.attachThread();
        RBV_COUNT(SimEventsFired, 1);
        EXPECT_EQ(other->ring.capacity(), 0u);
        session.detachThread();
    }).join();
    EXPECT_EQ(session.droppedEvents(), 0u);
    EXPECT_EQ(session.mergedMetrics().counters[static_cast<std::size_t>(
                  Counter::SimEventsFired)],
              2u);

    simInstant("t", "e", 0, 1.0);
    EXPECT_EQ(main->ring.size(), 8u);
    EXPECT_EQ(session.droppedEvents(), 0u);
    std::ostringstream os;
    session.writeChromeTrace(os);
    const JsonValue doc = JsonParser(os.str()).parse();
    std::size_t instants = 0;
    for (const auto &ev : doc.at("traceEvents").array)
        instants += ev.at("ph").str == "i" ? 1 : 0;
    EXPECT_EQ(instants, 1u);
}

// ----------------------------------------------------- trace schema

TEST(TraceExport, EmptySessionIsValidJson)
{
    Session session;
    std::ostringstream os;
    session.writeChromeTrace(os);
    const JsonValue doc = JsonParser(os.str()).parse();
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    ASSERT_TRUE(doc.has("traceEvents"));
    EXPECT_EQ(doc.at("traceEvents").kind, JsonValue::Kind::Array);
}

TEST(TraceExport, EventsMatchTraceEventSchema)
{
    Session session;
    simInstant("os.syscall", "read", 2, 10.5, "req", 7.0);
    simSpanBegin("os.request", "request", 42, 11.0);
    simSpanEnd("os.request", "request", 42, 99.0);
    hostSlice("exp.job", "app=web/rep=0", 1234.5);
    // A name needing JSON escaping must not corrupt the document.
    hostSlice("exp.job", "k=\"v\"\\w", 1.0);

    std::ostringstream os;
    session.writeChromeTrace(os);
    const JsonValue doc = JsonParser(os.str()).parse();
    const auto &events = doc.at("traceEvents").array;

    std::size_t data_events = 0;
    bool saw_escaped = false;
    for (const auto &ev : events) {
        checkTraceEvent(ev);
        if (ev.at("ph").str != "M")
            ++data_events;
        if (ev.at("name").str == "k=\"v\"\\w")
            saw_escaped = true;
    }
    EXPECT_EQ(data_events, 5u);
    EXPECT_TRUE(saw_escaped);

    // Sim events land on sim pid 1, host events on engine pid 0.
    for (const auto &ev : events) {
        if (ev.at("ph").str == "M")
            continue;
        const bool host = ev.at("cat").str == "exp.job";
        EXPECT_EQ(static_cast<int>(ev.at("pid").num), host ? 0 : 1);
    }
}

TEST(TraceExport, CampaignTraceValidatesAndNamesJobProcesses)
{
    Session session;
    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    exp::ParallelRunner(opts).run(tinyJobs());

    std::ostringstream os;
    session.writeChromeTrace(os);
    const JsonValue doc = JsonParser(os.str()).parse();
    const auto &events = doc.at("traceEvents").array;

    std::size_t named_jobs = 0;
    for (const auto &ev : events) {
        checkTraceEvent(ev);
        if (ev.at("ph").str == "M" &&
            ev.at("name").str == "process_name" &&
            ev.at("args").at("name").str.rfind("rep=", 0) == 0)
            ++named_jobs;
    }
    // Every job that recorded events has a named trace process.
    EXPECT_GE(named_jobs, 1u);
    EXPECT_GT(events.size(), 100u);
}

// ------------------------------------------- parallel merge == serial

TEST(ShardMerge, ParallelCampaignEqualsSerialTotals)
{
    const MergedMetrics serial = campaignMetrics(1);
    const MergedMetrics parallel = campaignMetrics(4);

    // Counters are sums of per-job deterministic work, so the merge
    // must be exactly thread-count independent.
    for (std::size_t c = 0; c < NumCounters; ++c) {
        EXPECT_EQ(serial.counters[c], parallel.counters[c])
            << counterName(static_cast<Counter>(c));
    }

    // Simulated-time histograms merge exactly. ExpJobMs buckets are
    // host-timing dependent; only its total count is deterministic.
    for (const Hist h : {Hist::SamplingPeriodCycles,
                         Hist::OsRequestLatencyUs}) {
        const auto &s = serial.hist[static_cast<std::size_t>(h)];
        const auto &p = parallel.hist[static_cast<std::size_t>(h)];
        ASSERT_EQ(s.size(), p.size());
        for (std::size_t b = 0; b < s.size(); ++b)
            EXPECT_EQ(s[b], p[b]) << histSpec(h).name << " bucket "
                                  << b;
    }
    std::uint64_t serial_jobs = 0, parallel_jobs = 0;
    for (const std::uint64_t n :
         serial.hist[static_cast<std::size_t>(Hist::ExpJobMs)])
        serial_jobs += n;
    for (const std::uint64_t n :
         parallel.hist[static_cast<std::size_t>(Hist::ExpJobMs)])
        parallel_jobs += n;
    EXPECT_EQ(serial_jobs, parallel_jobs);

    // The campaign must actually have recorded simulator work.
    EXPECT_GT(serial.counters[static_cast<std::size_t>(
                  Counter::SimEventsFired)],
              0u);
    EXPECT_EQ(serial.counters[static_cast<std::size_t>(
                  Counter::ExpJobsCompleted)],
              4u);
}

// ------------------------------------------- pool threads fold back

/** Metrics and profile of one traced 24-sequence matrix build. */
struct PoolRun
{
    MergedMetrics metrics;
    std::vector<ProfRow> profile;
};

PoolRun
matrixBuildMetrics(int jobs)
{
    std::vector<std::vector<os::Sys>> seqs(24);
    for (std::size_t i = 0; i < seqs.size(); ++i)
        for (std::size_t k = 0; k < 10 + i; ++k)
            seqs[i].push_back(static_cast<os::Sys>((i * k) % 7));
    Session session;
    const core::DistanceMatrix dm = core::DistanceMatrix::build(
        seqs.size(),
        [&](std::size_t i, std::size_t j) {
            RBV_HIST(SamplingPeriodCycles,
                     static_cast<double>(1000 * (i + j)));
            return core::levenshteinDistance(seqs[i], seqs[j]);
        },
        jobs);
    EXPECT_EQ(dm.size(), seqs.size());
    return {session.mergedMetrics(), session.mergedProfile()};
}

/** Call count of one profile key (0 when it never ran). */
std::uint64_t
profCount(const std::vector<ProfRow> &rows, Prof key)
{
    for (const ProfRow &r : rows)
        if (r.key == key)
            return r.count;
    return 0;
}

TEST(ShardMerge, PoolThreadCountsMergeToTheSerialTotals)
{
    const PoolRun serial = matrixBuildMetrics(1);
    const PoolRun pooled = matrixBuildMetrics(4);

    const std::uint64_t cells = 24 * 23 / 2;
    EXPECT_EQ(serial.metrics.counters[static_cast<std::size_t>(
                  Counter::ModelLevBitParallel)],
              cells);
    for (std::size_t c = 0; c < NumCounters; ++c)
        EXPECT_EQ(serial.metrics.counters[c], pooled.metrics.counters[c])
            << counterName(static_cast<Counter>(c));
    const auto h = static_cast<std::size_t>(Hist::SamplingPeriodCycles);
    EXPECT_EQ(serial.metrics.hist[h], pooled.metrics.hist[h]);
    EXPECT_EQ(profCount(pooled.profile, Prof::LevenshteinDistance),
              cells);
    EXPECT_EQ(profCount(pooled.profile, Prof::DistanceMatrixBuild), 1u);
}

TEST(ShardMerge, PoolThreadsWithoutASessionStayDormant)
{
    std::vector<std::vector<os::Sys>> seqs(8, {os::Sys::read});
    core::DistanceMatrix::build(
        seqs.size(),
        [&](std::size_t i, std::size_t j) {
            EXPECT_FALSE(attached());
            return core::levenshteinDistance(seqs[i], seqs[j]);
        },
        4);
    EXPECT_FALSE(attached());
}

/** Busy-wait about @p us host microseconds (a body worth stealing). */
void
spinFor(int us)
{
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(us);
    while (std::chrono::steady_clock::now() < until) {
    }
}

/**
 * Made on a forking thread before a parallelFor() and called by each
 * body: the forking thread waits in its first index until a started
 * thread has run one, so every fork of a test exercises its started
 * threads however the host schedules them.
 */
class AwaitAStartedThread
{
  public:
    void
    operator()()
    {
        if (std::this_thread::get_id() != forker)
            ++startedRan;
        while (startedRan.load() == 0)
            std::this_thread::yield();
    }

  private:
    const std::thread::id forker = std::this_thread::get_id();
    std::atomic<int> startedRan{0};
};

TEST(ShardMerge, PoolThreadsReuseTheLowestFreeIds)
{
    Session session;
    constexpr std::size_t calls = 200, count = 16;
    constexpr std::uint32_t unattached = ~0u;
    std::vector<std::uint32_t> ids(calls * count, unattached);
    std::vector<int> hits(calls * count, 0);
    for (std::size_t c = 0; c < calls; ++c) {
        AwaitAStartedThread await;
        parallelFor(count, 4, [&](std::size_t i) {
            spinFor(20);
            await();
            const ThreadState *ts = detail::tl_state;
            ids[c * count + i] = ts ? ts->logicalId : unattached;
            ++hits[c * count + i];
            RBV_COUNT(ModelCascadeDpRuns, 1);
        });
    }
    for (std::size_t k = 0; k < ids.size(); ++k) {
        EXPECT_EQ(hits[k], 1) << "index " << k;
        // Every body saw a shard, and 4 threads never need id 4.
        EXPECT_LT(ids[k], 4u) << "index " << k;
    }
    EXPECT_EQ(session.mergedMetrics().counters[static_cast<std::size_t>(
                  Counter::ModelCascadeDpRuns)],
              calls * count);
}

/** Metrics and profile of 4 runner jobs that each fork a pool. */
PoolRun
nestedPoolMetrics(int jobs)
{
    Session session;
    exp::RunnerOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    exp::ParallelRunner(opts).map(4, [&](std::size_t job) {
        RBV_PROF_SCOPE(RunScenario);
        parallelFor(8, jobs, [&](std::size_t i) {
            RBV_PROF_SCOPE(KMedoids);
            spinFor(20);
            RBV_COUNT(ModelCascadeDpRuns, 1 + job * 8 + i);
            RBV_HIST(SamplingPeriodCycles,
                     static_cast<double>(1000 * (1 + i)));
        });
        return job;
    });
    return {session.mergedMetrics(), session.mergedProfile()};
}

TEST(ShardMerge, NestedPoolsMergeToTheSerialTotals)
{
    const PoolRun serial = nestedPoolMetrics(1);
    const PoolRun nested = nestedPoolMetrics(2);

    EXPECT_EQ(serial.metrics.counters[static_cast<std::size_t>(
                  Counter::ModelCascadeDpRuns)],
              32u * 33u / 2u);
    for (std::size_t c = 0; c < NumCounters; ++c)
        EXPECT_EQ(serial.metrics.counters[c], nested.metrics.counters[c])
            << counterName(static_cast<Counter>(c));
    const auto h = static_cast<std::size_t>(Hist::SamplingPeriodCycles);
    EXPECT_EQ(serial.metrics.hist[h], nested.metrics.hist[h]);
    for (std::size_t p = 0; p < NumProfs; ++p) {
        const auto key = static_cast<Prof>(p);
        EXPECT_EQ(profCount(serial.profile, key),
                  profCount(nested.profile, key))
            << profName(key);
    }
    EXPECT_EQ(profCount(nested.profile, Prof::RunScenario), 4u);
    EXPECT_EQ(profCount(nested.profile, Prof::KMedoids), 32u);
}

TEST(ShardMerge, AnUnattachedThreadForksDormantWorkers)
{
    Session session;
    std::vector<char> sawShard(16, 1);
    std::thread([&] {
        AwaitAStartedThread await;
        parallelFor(sawShard.size(), 4, [&](std::size_t i) {
            spinFor(20);
            await();
            sawShard[i] = attached() ? 1 : 0;
            RBV_COUNT(ModelCascadeDpRuns, 1);
        });
    }).join();
    for (std::size_t i = 0; i < sawShard.size(); ++i)
        EXPECT_EQ(sawShard[i], 0) << "index " << i;
    EXPECT_EQ(session.mergedMetrics().counters[static_cast<std::size_t>(
                  Counter::ModelCascadeDpRuns)],
              0u);
}

TEST(ShardMerge, AThrowingIndexRethrowsAfterTheJoin)
{
    Session session;
    std::atomic<int> ran{0};
    EXPECT_THROW(parallelFor(64, 4,
                             [&](std::size_t i) {
                                 spinFor(20);
                                 ++ran;
                                 if (i == 5)
                                     throw std::runtime_error("index 5");
                             }),
                 std::runtime_error);
    EXPECT_GE(ran.load(), 6);
    // Every started thread detached: a new fork reuses ids 1..3.
    std::vector<std::uint32_t> ids(16);
    AwaitAStartedThread await;
    parallelFor(ids.size(), 4, [&](std::size_t i) {
        await();
        ids[i] = detail::tl_state->logicalId;
    });
    for (const std::uint32_t id : ids)
        EXPECT_LT(id, 4u);
}

// -------------------------------------------------- metrics writer

TEST(MetricsExport, FlatTextListsEveryCounterAndHistogram)
{
    Session session;
    RBV_COUNT(OsSyscalls, 7);
    RBV_HIST(OsRequestLatencyUs, 25.0);
    std::ostringstream os;
    session.writeMetrics(os);
    const std::string text = os.str();

    EXPECT_EQ(text.rfind("# rbv metrics v1", 0), 0u);
    for (std::size_t c = 0; c < NumCounters; ++c) {
        EXPECT_NE(text.find(std::string("counter ") +
                            counterName(static_cast<Counter>(c))),
                  std::string::npos);
    }
    for (std::size_t h = 0; h < NumHists; ++h) {
        EXPECT_NE(text.find(std::string("hist ") +
                            histSpec(static_cast<Hist>(h)).name),
                  std::string::npos);
    }
    EXPECT_NE(text.find("counter os.syscalls 7"), std::string::npos);
}

} // namespace
