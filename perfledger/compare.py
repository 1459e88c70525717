#!/usr/bin/env python3
"""Compare two sets of perf-ledger runs: the parent commit and a change.

    python3 perfledger/compare.py PARENT_DIR CHANGE_DIR [--layers]

Each directory holds the JSON reports `run.py --report-dir DIR` keeps,
one per (workload, seed) run; traced runs' reports feed only --layers.
For every end-to-end metric in BENCHMARK.json and every workload, the
change is judged against the parent:

  worse       the change's median is worse than the parent's by more
              than the pair's bound (below); or a change run failed its
              output checks, or the change failed a larger share of its
              volleys than the parent (medians of failed / attempted) —
              a faster run that gets more wrong is no gain;
  unresolved  the parent's own spread (interquartile range over median)
              is wider than the bound, and neither side's runs all beat
              the other's (a change whose every run is worse than every
              parent run, past the bound, is still worse);
  improved    at least ten pairs were run, the change wins at least
              9/10 of them (ties count for neither) and the medians
              differ by more than the parent's interquartile range;
  no worse    anything else.

A pair's bound is the metric's bound in BENCHMARK.json, which covers
the noisiest workload on a busy shared host, tightened to three times
the wider of the two sides' spreads on this workload but never below
10%. A pair whose runs are quiet on both sides is so held to 10%: a
20% regression of a metric that moves 2% from run to run is worse,
whatever the host does to another workload's numbers. The change's
spread counts too because the host's noise comes and goes: a parent
measured in a quiet hour says nothing about a change measured in a
busy one.

One row per workload carries the worst verdict of its metrics. Runs
pair up by seed when both sides have it, otherwise in seed order.
Exit status: 1 if any (metric, workload) is worse, 2 on bad input,
0 otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
VERDICT_ORDER = ["worse", "unresolved", "improved", "no worse"]
# Below ten pairs a 9/10 win rate is five heads in a row; a gain needs
# at least this many.
MIN_PAIRS_FOR_GAIN = 10
# The tightest bound a pair is held to: a regression of 10% or more on
# any quiet (metric, workload) pair counts.
MIN_BOUND = 0.10

def load_runs(directory, traced):
    """{workload: {seed: report}} of the directory's untraced (or traced)
    run reports; Chrome traces beside them are skipped."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            report = json.load(f)
        if "workload" in report and report.get("traced", False) == traced:
            runs.setdefault(report["workload"], {})[report["seed"]] = report
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """True when a reads strictly better than b."""
    return a > b if direction == "higher" else a < b


def pairs(parent, change):
    common = sorted(set(parent) & set(change))
    if common:
        return [(parent[s], change[s]) for s in common]
    return list(zip([parent[s] for s in sorted(parent)],
                    [change[s] for s in sorted(change)]))


def judge(p_vals, c_vals, paired, metric):
    """Verdict and statistics for one (metric, workload)."""
    direction = metric["better"]
    mp, mc = statistics.median(p_vals), statistics.median(c_vals)
    p1, p3 = quartiles(p_vals)
    c1, c3 = quartiles(c_vals)
    wins = sum(better(c, p, direction) for p, c in paired)
    win_frac = wins / len(paired) if paired else 0.0
    spread = (p3 - p1) / mp if mp else float("inf")
    noise = max(spread, (c3 - c1) / mc if mc else float("inf"))
    bound = min(metric["bound"], max(MIN_BOUND, 3 * noise))
    worse_by = (mc - mp) / mp if direction == "lower" else (mp - mc) / mp
    all_better = all(better(c, p, direction)
                     for c in c_vals for p in p_vals)
    all_worse = all(better(p, c, direction)
                    for c in c_vals for p in p_vals)
    if spread > bound and not all_better and not (all_worse
                                                  and worse_by > bound):
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    elif (len(paired) >= MIN_PAIRS_FOR_GAIN and win_frac >= 0.9
          and abs(mc - mp) > p3 - p1 and better(mc, mp, direction)):
        verdict = "improved"
    else:
        verdict = "no worse"
    return {"verdict": verdict, "parent": (mp, p1, p3),
            "change": (mc, c1, c3), "delta": -worse_by, "bound": bound,
            "win_frac": win_frac, "pairs": len(paired), "spread": spread}


def failed_share(report):
    return report["failed"] / max(1, report["attempted"])


def correctness(p_reports, c_reports):
    """Why the change's runs fail the parent's correctness, or None."""
    wrong = sum(not r["correct"] for r in c_reports)
    if wrong:
        return f"{wrong} change run(s) failed their output checks"
    mp = statistics.median(failed_share(r) for r in p_reports)
    mc = statistics.median(failed_share(r) for r in c_reports)
    if mc > mp:
        return (f"median failed share {mc:.3g} above the parent's "
                f"{mp:.3g}")
    return None


def values(reports, section, name):
    return [r[section][name]["value"] for r in reports
            if name in r.get(section, {})]


def main():
    parser = argparse.ArgumentParser(
        description="Judge a change's ledger runs against the parent's.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--layers", action="store_true",
                        help="also print per-layer medians of the traced "
                             "runs (no verdict)")
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    parent, change = load_runs(args.parent, False), load_runs(args.change,
                                                              False)
    workloads = [w["name"] for w in bench["workloads"]
                 if w["name"] in parent and w["name"] in change]
    if not workloads:
        print("compare: no workload has runs on both sides",
              file=sys.stderr)
        return 2

    any_worse = False
    for w in workloads:
        paired_reports = pairs(parent[w], change[w])
        p_reports, c_reports = list(parent[w].values()), list(change[w].values())
        rows = []
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p_vals = values(p_reports, "metrics", name)
            c_vals = values(c_reports, "metrics", name)
            if not p_vals or not c_vals:
                continue
            paired = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                      for p, c in paired_reports
                      if name in p["metrics"] and name in c["metrics"]]
            rows.append((metric, judge(p_vals, c_vals, paired, metric)))
        verdict = min((r["verdict"] for _, r in rows),
                      key=VERDICT_ORDER.index, default="no worse")
        wrong = correctness(p_reports, c_reports)
        if wrong:
            verdict = "worse"
        any_worse = any_worse or verdict == "worse"
        print(f"{w:14s} {verdict:10s} ({len(p_reports)} parent runs, "
              f"{len(c_reports)} change runs)")
        if wrong:
            print(f"    correctness          worse      {wrong}")
        for metric, r in rows:
            mp, p1, p3 = r["parent"]
            mc, c1, c3 = r["change"]
            print(f"    {metric['name']:20s} {r['verdict']:10s} "
                  f"parent {mp:.6g} [{p1:.6g}, {p3:.6g}]  "
                  f"change {mc:.6g} [{c1:.6g}, {c3:.6g}]  "
                  f"{r['delta'] * 100:+.1f}% (bound {r['bound'] * 100:.0f}%, "
                  f"parent spread {r['spread'] * 100:.1f}%)  "
                  f"wins {r['win_frac'] * 100:.0f}% of {r['pairs']}")
        if args.layers:
            p_traced = list(load_runs(args.parent, True).get(w, {}).values())
            c_traced = list(load_runs(args.change, True).get(w, {}).values())
            names = sorted({n for rep in p_traced + c_traced
                            for n in rep["layers"]})
            for name in names:
                pv = values(p_traced, "layers", name)
                cv = values(c_traced, "layers", name)
                if pv and cv:
                    print(f"    layer {name:30s} parent "
                          f"{statistics.median(pv):.6g}  change "
                          f"{statistics.median(cv):.6g}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
