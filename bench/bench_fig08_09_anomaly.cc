/**
 * @file
 * Figures 8 and 9: anomaly detection and analysis.
 *
 * Figure 8 (TPCH): within the group of requests processing the same
 * query (Q20), the request farthest from the group centroid is the
 * suspected anomaly; its CPI inflation should track its L2
 * misses/instruction inflation (the shared L2 is the culprit).
 *
 * Figure 9 (WeBWorK): multi-metric detection — the anomaly-reference
 * pair with very similar L2 references/instruction patterns but
 * different CPI patterns isolates dynamic L2-sharing victims among
 * requests processing the same problem.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <utility>

#include <fstream>

#include "core/model/anomaly.hh"
#include "core/model/distance.hh"
#include "diag/evidence.hh"
#include "diag/report.hh"
#include "exp/analysis.hh"
#include "exp/cli.hh"
#include "exp/diagnose.hh"
#include "exp/obsio.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "fi/eval.hh"
#include "fi/injection.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "wl/webwork.hh"

using namespace rbv;
using namespace rbv::exp;

namespace {

/** Print anomaly-vs-reference metric series side by side. */
void
printComparison(const RequestRecord &anom, const RequestRecord &ref,
                std::size_t rows)
{
    const double total =
        std::max(anom.totals.instructions, ref.totals.instructions);
    const double bin = total / static_cast<double>(rows);

    const auto a_cpi = core::binByInstructions(anom.timeline, bin,
                                               core::Metric::Cpi);
    const auto r_cpi = core::binByInstructions(ref.timeline, bin,
                                               core::Metric::Cpi);
    const auto a_miss = core::binByInstructions(
        anom.timeline, bin, core::Metric::L2MissesPerIns);
    const auto r_miss = core::binByInstructions(
        ref.timeline, bin, core::Metric::L2MissesPerIns);
    const auto a_refs = core::binByInstructions(
        anom.timeline, bin, core::Metric::L2RefsPerIns);
    const auto r_refs = core::binByInstructions(
        ref.timeline, bin, core::Metric::L2RefsPerIns);

    stats::Table t({"progress (Mins)", "CPI anom", "CPI ref",
                    "miss/ins anom", "miss/ins ref", "refs/ins anom",
                    "refs/ins ref"});
    const std::size_t n = std::min(
        {a_cpi.size(), r_cpi.size(), a_miss.size(), r_miss.size(),
         a_refs.size(), r_refs.size()});
    if (n == 0) {
        // Degraded telemetry (fault-injected sampling) can leave a
        // request with no comparable bins; dividing by n would NaN
        // the correlation below.
        t.print(std::cout);
        measured("no comparable progress bins (degraded telemetry)");
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        t.addRow({stats::Table::fmt((i + 0.5) * bin / 1e6, 1),
                  stats::Table::fmt(a_cpi[i]),
                  stats::Table::fmt(r_cpi[i]),
                  stats::Table::fmt(a_miss[i] * 1000.0, 3) + "e-3",
                  stats::Table::fmt(r_miss[i] * 1000.0, 3) + "e-3",
                  stats::Table::fmt(a_refs[i], 4),
                  stats::Table::fmt(r_refs[i], 4)});
    }
    t.print(std::cout);

    // Correlation between CPI inflation and miss inflation across
    // bins: the paper's key diagnosis.
    core::MetricSeries dc(n), dm(n);
    for (std::size_t i = 0; i < n; ++i) {
        dc[i] = a_cpi[i] - r_cpi[i];
        dm[i] = a_miss[i] - r_miss[i];
    }
    const double corr = diag::pearson(dc, dm);
    measured("correlation of (CPI inflation, L2 miss/ins inflation) "
             "across progress bins: " +
             stats::Table::fmt(corr, 2) +
             " (the paper finds these patterns 'match very well')");
}

/**
 * Rank every request of a run by its centroid-distance anomaly score
 * (within same-class groups, cross-group scores normalized by the
 * group's mean distance) and grade the ranking against the requests
 * the fi layer actually made anomalous.
 */
std::pair<fi::RankedDetection, std::size_t>
scoreDetection(const ScenarioResult &res, std::uint64_t seed)
{
    std::map<std::string, std::vector<const RequestRecord *>> groups;
    for (const auto &r : res.records)
        groups[r.className].push_back(&r);

    const double bin = 2.0e6;
    stats::Rng prng(seed ^ 0xF1);
    std::vector<std::pair<double, std::int64_t>> scored;
    for (const auto &[name, group] : groups) {
        (void)name;
        if (group.size() < 3)
            continue; // no centroid to speak of
        std::vector<core::MetricSeries> series;
        series.reserve(group.size());
        for (const auto *r : group)
            series.push_back(core::binByInstructions(
                r->timeline, bin, core::Metric::Cpi));
        const double penalty = core::lengthPenalty(series, prng);
        const auto det = core::detectCentroidAnomaly(series, penalty);

        double mean = 0.0;
        for (const double d : det.distances)
            mean += d;
        mean /= static_cast<double>(group.size());
        for (std::size_t i = 0; i < group.size(); ++i) {
            // Normalizing by the group mean makes scores comparable
            // across classes of very different lengths.
            const double score =
                mean > 0.0 ? det.distances[i] / mean : 0.0;
            scored.emplace_back(score,
                                static_cast<std::int64_t>(group[i]->id));
        }
    }

    // Most anomalous first; ties broken by request id so the ranking
    // (and hence the printed numbers) are deterministic.
    std::sort(scored.begin(), scored.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first > b.first
                                            : a.second < b.second;
              });

    const std::vector<std::int64_t> truth =
        fi::faultedRequests(res.injections);
    std::vector<bool> is_truth;
    is_truth.reserve(scored.size());
    for (const auto &[score, id] : scored) {
        (void)score;
        is_truth.push_back(std::binary_search(truth.begin(),
                                              truth.end(), id));
    }
    return {fi::evaluateRanking(is_truth), truth.size()};
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv, {"seed", "requests", "webwork-requests",
                               "rows", "jobs", "quiet", "faults",
                               "retries", "diagnose", "diag-out"});
    const ObsScope obs(cli);
    const std::uint64_t seed = cli.getU64("seed", 1);
    const std::size_t rows = cli.getU64("rows", 16);

    fi::FaultPlan plan;
    if (cli.has("faults")) {
        std::string error;
        if (!fi::FaultPlan::parse(cli.getStr("faults", ""), plan,
                                  error)) {
            std::cerr << argv[0] << ": bad --faults plan: " << error
                      << "\n";
            return 2;
        }
        if (plan.hasClusterFaults()) {
            std::cerr << argv[0] << ": bad --faults plan: "
                      << plan.summary()
                      << ": node-* and link-* faults need rbv_cluster\n";
            return 2;
        }
    }

    // Both figures' scenarios run as one concurrent campaign.
    ScenarioConfig base;
    base.seed = seed;
    if (!plan.empty())
        base.faults = std::make_shared<const fi::FaultPlan>(plan);
    ScenarioGrid grid(base);
    grid.apps({wl::App::Tpch, wl::App::WebWork})
        .finalize([&](ScenarioConfig &c) {
            c.requests = c.app == wl::App::Tpch
                             ? cli.getU64("requests", 170)
                             : cli.getU64("webwork-requests", 110);
            c.warmup = c.requests / 10;
        });
    std::vector<Job> jobs = grid.jobs();
    if (!plan.empty())
        applyJobFaults(jobs, plan, seed);
    const auto results = ParallelRunner(runnerOptions(cli)).run(jobs);

    // ---------------- Figure 8: TPCH Q20 centroid anomaly ----------
    banner("Figure 8", "Anomalous TPCH request vs group centroid "
           "reference (Q20)",
           "the anomaly exhibits higher CPI for much of its "
           "execution; CPI inflation matches L2 miss inflation");
    if (const auto *res_p = tryResultFor(results, "app=tpch");
        res_p == nullptr) {
        std::cerr << "skipping Figure 8: job app=tpch failed\n";
    } else {
        const auto &res = *res_p;

        std::vector<const RequestRecord *> group;
        for (const auto &r : res.records)
            if (r.className == "tpch.q20")
                group.push_back(&r);
        if (group.size() < 3) {
            std::cerr << "not enough Q20 requests\n";
            return 1;
        }

        const double bin = 2.0e6;
        std::vector<core::MetricSeries> cpi_series;
        for (const auto *r : group)
            cpi_series.push_back(core::binByInstructions(
                r->timeline, bin, core::Metric::Cpi));
        stats::Rng prng(seed);
        const double penalty = core::lengthPenalty(cpi_series, prng);

        const auto det = core::detectCentroidAnomaly(
            cpi_series, penalty, jobsFlag(cli));
        std::cout << "Q20 group size " << group.size()
                  << "; anomaly = request #"
                  << group[det.anomaly]->id << ", reference = "
                  << "group centroid request #"
                  << group[det.centroid]->id << "\n\n";
        printComparison(*group[det.anomaly], *group[det.centroid],
                        rows);
    }

    // ---------------- Figure 9: WeBWorK multi-metric anomaly -------
    banner("Figure 9", "WeBWorK anomaly-reference pair via "
           "multi-metric differencing",
           "pair shares the L2 references/instruction pattern "
           "(problem 954 in the paper) but differs in CPI in some "
           "execution regions");
    if (const auto *res_p = tryResultFor(results, "app=webwork");
        res_p == nullptr) {
        std::cerr << "skipping Figure 9: job app=webwork failed\n";
    } else {
        const auto &res = *res_p;

        // Group by problem id; analyze the largest group (popular
        // problems recur thanks to the Zipf over problem sets).
        std::map<int, std::vector<const RequestRecord *>> groups;
        for (const auto &r : res.records)
            groups[r.classId].push_back(&r);
        const std::vector<const RequestRecord *> *best = nullptr;
        int best_pid = -1;
        for (const auto &[pid, g] : groups) {
            if (!best || g.size() > best->size()) {
                best = &g;
                best_pid = pid;
            }
        }
        if (!best || best->size() < 2) {
            std::cerr << "no repeated WeBWorK problem\n";
            return 1;
        }

        const double bin = 4.0e6;
        std::vector<core::MetricSeries> refs_series, cpi_series;
        for (const auto *r : *best) {
            refs_series.push_back(core::binByInstructions(
                r->timeline, bin, core::Metric::L2RefsPerIns));
            cpi_series.push_back(core::binByInstructions(
                r->timeline, bin, core::Metric::Cpi));
        }
        stats::Rng prng(seed + 1);
        const double refs_pen =
            core::lengthPenalty(refs_series, prng);
        const double cpi_pen = core::lengthPenalty(cpi_series, prng);

        const auto det = core::detectMetricPairAnomaly(
            refs_series, cpi_series, refs_pen, cpi_pen);
        std::cout << "problem id " << best_pid << ", group size "
                  << best->size() << "; anomaly = request #"
                  << (*best)[det.anomaly]->id << ", reference #"
                  << (*best)[det.reference]->id
                  << " (refs-pattern distance "
                  << stats::Table::fmt(det.refsDistance, 4)
                  << ", CPI-pattern distance "
                  << stats::Table::fmt(det.cpiDistance, 3) << ")\n\n";
        printComparison(*(*best)[det.anomaly],
                        *(*best)[det.reference], rows);
    }

    // ------------- Ground truth: detection quality under faults ----
    // Only meaningful (and only printed) when a fault plan is active:
    // the injection log tells us exactly which requests were made
    // anomalous, turning detection quality into a measured quantity.
    // Without --faults this block is silent, keeping the default
    // output byte-identical.
    if (!plan.empty()) {
        banner("Ground truth",
               "Detection quality vs injected faults",
               "ranked centroid-distance detection should "
               "concentrate the injected req-stuck requests at the "
               "top of the ranking");
        std::cout << "fault plan: " << plan.summary() << "\n\n";
        stats::Table t({"app", "scored", "injected", "hits",
                        "precision", "recall", "ROC AUC"});
        for (const char *key : {"app=tpch", "app=webwork"}) {
            const auto *res = tryResultFor(results, key);
            if (res == nullptr) {
                std::cerr << "skipping ground truth for " << key
                          << ": job failed\n";
                continue;
            }
            const auto [det, injected] = scoreDetection(*res, seed);
            t.addRow({std::string(key).substr(4),
                      std::to_string(det.scored),
                      std::to_string(injected),
                      std::to_string(det.hits),
                      stats::Table::fmt(det.precision, 2),
                      stats::Table::fmt(det.recall, 2),
                      stats::Table::fmt(det.rocAuc, 2)});
        }
        t.print(std::cout);
        measured("precision/recall at the oracle cutoff and rank ROC "
                 "AUC against the requests the fi layer actually "
                 "injected (from the run's injection log)");
    }

    // ------------- Diagnosis: anomaly root-cause attribution -------
    // Opt-in (--diagnose): everything above stays byte-identical
    // when the flag is absent. With a fault plan the verdicts are
    // additionally graded against the injection log, per cause.
    if (cli.getBool("diagnose", false)) {
        banner("Diagnosis",
               "Anomaly root-cause attribution (rbv::diag)",
               "each detection's evidence fingerprint is classified "
               "into a cause; with --faults the verdicts are graded "
               "against the injection log per cause class");
        diag::DiagConfig dc;
        dc.seed = seed;
        dc.jobs = jobsFlag(cli);

        std::vector<std::pair<std::string, diag::RunDiagnosis>> runs;
        diag::DiagEval eval;
        bool anyEval = false;
        stats::Table dt({"app", "request", "group", "score", "cause",
                         "conf", "runner-up"});
        for (const char *key : {"app=tpch", "app=webwork"}) {
            const auto *res = tryResultFor(results, key);
            if (res == nullptr) {
                std::cerr << "skipping diagnosis for " << key
                          << ": job failed\n";
                continue;
            }
            diag::RunDiagnosis run = diagnoseScenario(*res, dc);
            if (!plan.empty()) {
                diag::merge(eval, evaluateScenarioDiagnosis(*res, run));
                anyEval = true;
            }
            const std::string app = std::string(key).substr(4);
            for (const auto &rep : run.anomalies) {
                const auto &up = rep.diagnosis.ranked[1];
                dt.addRow(
                    {app, std::to_string(rep.evidence.requestId),
                     rep.evidence.group,
                     stats::Table::fmt(rep.evidence.score, 2),
                     diag::causeName(rep.diagnosis.cause),
                     stats::Table::fmt(
                         rep.diagnosis.ranked.front().score, 2),
                     std::string(diag::causeName(up.cause)) + " " +
                         stats::Table::fmt(up.score, 2)});
            }
            runs.emplace_back(app, std::move(run));
        }
        dt.print(std::cout);
        measured("detections past the score cut with their winning "
                 "cause (conf = rule score; under the floor falls "
                 "back to unknown)");

        if (anyEval) {
            std::cout << "\n";
            stats::Table et({"cause", "labeled", "detected",
                             "det-recall", "diagnosed", "correct",
                             "precision", "recall"});
            for (std::size_t i = 0; i < diag::NumCauses; ++i) {
                const auto &cs = eval.perCause[i];
                et.addRow({diag::causeName(
                               static_cast<diag::Cause>(i)),
                           std::to_string(cs.labeled),
                           std::to_string(cs.detected),
                           stats::Table::fmt(cs.detectionRecall(), 2),
                           std::to_string(cs.diagnosed),
                           std::to_string(cs.correct),
                           stats::Table::fmt(cs.precision(), 2),
                           stats::Table::fmt(cs.recall(), 2)});
            }
            et.print(std::cout);
            measured("per-cause join vs the injection log: recall is "
                     "conditional on detection (correct/detected); "
                     "det-recall is the detector's own coverage of "
                     "the labeled requests");

            std::cout << "\nconfusion (rows = truth, cols = verdict; "
                         "labeled detections only)\n";
            stats::Table ct({"truth \\ verdict", "cache", "bw",
                             "stall", "ctr", "sched", "unknown"});
            for (std::size_t i = 0; i < diag::NumCauses; ++i) {
                std::vector<std::string> row{
                    diag::causeName(static_cast<diag::Cause>(i))};
                for (std::size_t j = 0; j < diag::NumCauses; ++j)
                    row.push_back(
                        std::to_string(eval.confusion[i][j]));
                ct.addRow(row);
            }
            ct.print(std::cout);
            measured(std::to_string(eval.unlabeledDetections) +
                     " detection(s) carried no injected label "
                     "(organic anomalies; not graded)");
        }

        if (cli.has("diag-out")) {
            std::ofstream js(cli.getStr("diag-out", ""));
            std::vector<diag::NamedRun> named;
            named.reserve(runs.size());
            for (const auto &[name, run] : runs)
                named.push_back({name, &run});
            diag::writeJsonReport(
                js, {"bench_fig08_09_anomaly", seed}, named,
                anyEval ? &eval : nullptr);
        }
    }
    return exitCodeFor(results);
}
