#!/usr/bin/env python3
"""Run interleaved perfbench pairs of two source checkouts.

Usage:

    tools/perfpairs.py PARENT_DIR CHANGE_DIR --workload W --seed S \\
        --pairs N [--seconds 20]

Each pair runs `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` once in each checkout, each with its own
perfbench/run.py and its own .bench_build/, and alternates which side
goes first: the parent in odd pairs, the change in even ones. A pair
fails when either run is not `correct` or has failed operations; a
failed pair is reported and left out of the summary, and the exit
status is 1.

For every end-to-end metric in PARENT_DIR/BENCHMARK.json the tool
prints each pair's values, each side's median and quartiles, the
median of the per-pair ratios (change over parent) and how many pairs
the change won, taking the metric's `better` direction into account.
It also says whether the gap between the medians exceeds the parent's
interquartile range, and gives the no-regression verdict against the
metric's `bound`:

  worse         the change's median is worse than the parent's by
                more than bound x the parent's median;
  unresolved    the parent's IQR exceeds bound x its median, unless
                every run of the change beats every run of the parent;
  within bound  otherwise.

It prints each side's share of failed operations over every run that
reported one. The last stdout line is the summary as JSON.
"""

import argparse
import json
import os
import subprocess
import sys


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_side(checkout, args):
    """One perfbench run in @p checkout: (result dict, error or None)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "run.py exited with %d" % proc.returncode
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, "last line is not JSON"
    if not out.get("correct"):
        return out, "not correct"
    if int(out.get("failed", 0)) != 0:
        return out, "%d failed operations" % int(out["failed"])
    return out, None


def wins(better, parent, change):
    return change > parent if better == "higher" else change < parent


def verdict(better, bound, ps, cs):
    """The no-regression verdict of one metric (see the module doc)."""
    pm, cm = quantile(ps, 0.5), quantile(cs, 0.5)
    worse_by = pm - cm if better == "higher" else cm - pm
    if worse_by > bound * abs(pm):
        return "worse"
    iqr = quantile(ps, 0.75) - quantile(ps, 0.25)
    if iqr > bound * abs(pm) and not all(
            wins(better, p, c) for p in ps for c in cs):
        return "unresolved"
    return "within bound"


def fmt(v):
    if v == 0 or 1e-3 <= abs(v) < 1e6:
        return "%.4g" % v if abs(v) < 1000 else "{:,.0f}".format(v)
    return "%.3e" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be at least 1")

    with open(os.path.join(args.parent_dir, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    sides = {"parent": args.parent_dir, "change": args.change_dir}
    values = {m["name"]: {"parent": [], "change": []} for m in metrics}
    ops = {side: {"attempted": 0, "failed": 0} for side in sides}
    failed_pairs = 0
    for pair in range(1, args.pairs + 1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        results = {}
        errors = []
        for side in order:
            out, err = run_side(sides[side], args)
            results[side] = out
            if out is not None:
                for k in ("attempted", "failed"):
                    ops[side][k] += int(out.get(k, 0))
            if err:
                errors.append("%s: %s" % (side, err))
        if errors:
            failed_pairs += 1
            print("pair %d (%s first): FAILED (%s)"
                  % (pair, order[0], "; ".join(errors)), flush=True)
            continue
        cells = []
        for m in metrics:
            name = m["name"]
            p = results["parent"]["metrics"][name]["value"]
            c = results["change"]["metrics"][name]["value"]
            values[name]["parent"].append(p)
            values[name]["change"].append(c)
            cells.append("%s %s -> %s" % (name, fmt(p), fmt(c)))
        print("pair %d (%s first): %s" % (pair, order[0], "; ".join(cells)),
              flush=True)

    for side in sides:
        n = ops[side]["attempted"]
        ops[side]["share"] = ops[side]["failed"] / n if n else None
    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "pairs": args.pairs,
               "failed_pairs": failed_pairs, "operations": ops,
               "metrics": {}}
    print("%d pairs, %d failed; workload %s, seed %d, %d s per run"
          % (args.pairs, failed_pairs, args.workload, args.seed,
             args.seconds))
    for side in sides:
        o = ops[side]
        print("  %s: %d of %d operations failed (share %s)"
              % (side, o["failed"], o["attempted"],
                 "%.4g" % o["share"] if o["share"] is not None
                 else "n/a"))
    for m in metrics:
        name, better = m["name"], m["better"]
        ps, cs = values[name]["parent"], values[name]["change"]
        if not ps:
            continue
        ratios = [c / p for p, c in zip(ps, cs) if p != 0]
        won = sum(wins(better, p, c) for p, c in zip(ps, cs))
        side = {}
        for label, xs in (("parent", ps), ("change", cs)):
            side[label] = {"median": quantile(xs, 0.5),
                           "q1": quantile(xs, 0.25),
                           "q3": quantile(xs, 0.75)}
        gap = side["change"]["median"] - side["parent"]["median"]
        iqr = side["parent"]["q3"] - side["parent"]["q1"]
        ratio = quantile(ratios, 0.5) if ratios else None
        print("  %s (%s is better): parent %s [%s, %s] -> change %s "
              "[%s, %s]; median ratio %s; change won %d of %d; "
              "|gap| %s parent IQR"
              % (name, better, fmt(side["parent"]["median"]),
                 fmt(side["parent"]["q1"]), fmt(side["parent"]["q3"]),
                 fmt(side["change"]["median"]), fmt(side["change"]["q1"]),
                 fmt(side["change"]["q3"]),
                 "%.3f" % ratio if ratio is not None else "n/a", won,
                 len(ps), ">" if abs(gap) > iqr else "<="))
        v = verdict(better, m["bound"], ps, cs)
        print("  verdict %s: %s (bound %g)" % (name, v, m["bound"]))
        summary["metrics"][name] = {
            "better": better, "parent": side["parent"],
            "change": side["change"], "per_pair": {"parent": ps,
                                                   "change": cs},
            "median_ratio": ratio, "change_wins": won,
            "gap_exceeds_parent_iqr": abs(gap) > iqr, "verdict": v}
    print(json.dumps(summary, sort_keys=True))
    return 1 if failed_pairs else 0


if __name__ == "__main__":
    sys.exit(main())
