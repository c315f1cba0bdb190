/**
 * @file
 * Micro-benchmark: hot-path costs of the online machinery — the
 * predictor update the scheduler runs at every sample (Sec. 5.1),
 * partial-signature identification against a 500-entry bank
 * (Sec. 4.4), timeline binning, k-medoids clustering, and the
 * serving mode's sliding quantile.
 *
 * These bound the real-time budget of online request modeling: all
 * per-sample operations must stay far below the per-sample cost of
 * Table 1 (~0.4-0.8 us on the paper's hardware).
 *
 * The BM_Obs* benchmarks bound the observability layer's own cost:
 * dormant sites (no session attached) must be ~a thread-local load
 * and branch. The layer is always compiled in; the instrumented pair
 * (BM_SignatureBankIdentify here vs its live-session cost) is the
 * <=2% overhead check.
 */

#include <benchmark/benchmark.h>

#include "core/model/kmedoids.hh"
#include "core/model/signature.hh"
#include "core/predict/predictor.hh"
#include "core/timeline.hh"
#include "obs/obs.hh"
#include "stats/online.hh"
#include "stats/rng.hh"

using namespace rbv;
using namespace rbv::core;

namespace {

void
BM_VaEwmaObserve(benchmark::State &state)
{
    VaEwmaPredictor pred(0.6, 3000.0);
    stats::Rng rng(1);
    double t = 2500.0, x = 0.001;
    for (auto _ : state) {
        pred.observe(t, x);
        benchmark::DoNotOptimize(pred.predict());
        x += 1e-7;
    }
}

void
BM_SignatureBankIdentify(benchmark::State &state)
{
    const auto bank_size = static_cast<std::size_t>(state.range(0));
    const auto prefix_len = static_cast<std::size_t>(state.range(1));
    stats::Rng rng(2);
    SignatureBank bank(1.0e5);
    for (std::size_t i = 0; i < bank_size; ++i) {
        MetricSeries s;
        for (int k = 0; k < 60; ++k)
            s.push_back(rng.uniform(0.0, 0.05));
        bank.add(std::move(s), rng.uniform(1e6, 1e8), 0);
    }
    MetricSeries prefix;
    for (std::size_t k = 0; k < prefix_len; ++k)
        prefix.push_back(rng.uniform(0.0, 0.05));
    for (auto _ : state)
        benchmark::DoNotOptimize(bank.identify(prefix));
}

void
BM_TimelineBinning(benchmark::State &state)
{
    const auto periods = static_cast<std::size_t>(state.range(0));
    stats::Rng rng(3);
    Timeline tl;
    for (std::size_t i = 0; i < periods; ++i) {
        Period p;
        p.instructions = rng.uniform(5000.0, 50000.0);
        p.cycles = p.instructions * rng.uniform(0.8, 3.0);
        p.l2Refs = p.instructions * 0.02;
        p.l2Misses = p.l2Refs * 0.1;
        tl.periods.push_back(p);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            binByInstructions(tl, 1.0e5, Metric::Cpi));
    }
}

void
BM_KMedoids(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    stats::Rng rng(4);
    std::vector<double> pts;
    for (std::size_t i = 0; i < n; ++i)
        pts.push_back(rng.uniform(0.0, 100.0));
    const auto dm = DistanceMatrix::build(
        n, [&](std::size_t i, std::size_t j) {
            return std::abs(pts[i] - pts[j]);
        });
    for (auto _ : state) {
        stats::Rng crng(5);
        benchmark::DoNotOptimize(kMedoids(dm, 10, crng));
    }
}

/**
 * One add and one p99 read over a full window, as serve's anomaly
 * scorer (1024) and latency window (8192) do per completion.
 */
void
BM_SlidingQuantile(benchmark::State &state)
{
    const auto window = static_cast<std::size_t>(state.range(0));
    stats::Rng rng(6);
    stats::SlidingQuantile q(window);
    for (std::size_t i = 0; i < window; ++i)
        q.add(rng.exponential(50.0));
    for (auto _ : state) {
        q.add(rng.exponential(50.0));
        benchmark::DoNotOptimize(q.quantile(0.99));
    }
}

// ------------------------------------------------- obs layer costs

void
BM_ObsCounterDormant(benchmark::State &state)
{
    // No session: the macro is one thread-local load plus a branch.
    // The clobber keeps that load inside the loop.
    for (auto _ : state) {
        RBV_COUNT(SimEventsFired, 1);
        benchmark::ClobberMemory();
    }
}

void
BM_ObsCounterActive(benchmark::State &state)
{
    obs::Session session;
    for (auto _ : state)
        RBV_COUNT(SimEventsFired, 1);
}

void
BM_ObsProfScopeDormant(benchmark::State &state)
{
    for (auto _ : state) {
        RBV_PROF_SCOPE(DtwDistance);
        benchmark::ClobberMemory();
    }
}

void
BM_ObsProfScopeActive(benchmark::State &state)
{
    obs::Session session;
    for (auto _ : state) {
        RBV_PROF_SCOPE(DtwDistance);
        benchmark::ClobberMemory();
    }
}

void
BM_ObsTraceInstantActive(benchmark::State &state)
{
    obs::Session session;
    double ts = 0.0;
    for (auto _ : state) {
        obs::simInstant("bench", "instant", 0, ts);
        ts += 1.0;
    }
}

/**
 * The overhead check in situ: identification against a 500-entry
 * bank with a live session recording its profiled scopes — compare
 * against BM_SignatureBankIdentify/500/60 (dormant) in the same run.
 */
void
BM_ObsSignatureIdentifyActive(benchmark::State &state)
{
    obs::Session session;
    stats::Rng rng(2);
    SignatureBank bank(1.0e5);
    for (std::size_t i = 0; i < 500; ++i) {
        MetricSeries s;
        for (int k = 0; k < 60; ++k)
            s.push_back(rng.uniform(0.0, 0.05));
        bank.add(std::move(s), rng.uniform(1e6, 1e8), 0);
    }
    MetricSeries prefix;
    for (std::size_t k = 0; k < 60; ++k)
        prefix.push_back(rng.uniform(0.0, 0.05));
    for (auto _ : state)
        benchmark::DoNotOptimize(bank.identify(prefix));
}

} // namespace

BENCHMARK(BM_VaEwmaObserve);
BENCHMARK(BM_ObsCounterDormant);
BENCHMARK(BM_ObsCounterActive);
BENCHMARK(BM_ObsProfScopeDormant);
BENCHMARK(BM_ObsProfScopeActive);
BENCHMARK(BM_ObsTraceInstantActive);
BENCHMARK(BM_ObsSignatureIdentifyActive);
BENCHMARK(BM_SignatureBankIdentify)
    ->Args({100, 10})
    ->Args({500, 10})
    ->Args({500, 60});
BENCHMARK(BM_TimelineBinning)->Range(64, 4096);
BENCHMARK(BM_KMedoids)->Range(64, 512);
BENCHMARK(BM_SlidingQuantile)->Arg(1024)->Arg(8192);

BENCHMARK_MAIN();
