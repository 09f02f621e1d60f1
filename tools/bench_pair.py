#!/usr/bin/env python3
"""Alternating benchmark pairs: the repo benchmark on two source trees.

Runs `perfbench/run.py --trace 0` once in each of two source trees per
pair, N pairs, switching which tree goes first on every pair, and
writes every run plus a per-metric summary:

    python3 tools/bench_pair.py PARENT_TREE CHANGE_TREE \\
        --workload repro-quick --pairs 10 --seconds 10 \\
        --out bench/results/PAIR_repro_quick.json

PARENT_TREE is typically a `git worktree` (or `git archive` copy) of
the parent commit; each tree builds its own benchmark binary into its
own `.bench_build/`. The report names each tree by its directory
name, so a parent copy in `parent-<commit>/` records its commit. The
JSON holds every run's metrics, environment line, `correct`,
`attempted` and `failed`; and for each end-to-end metric of
BENCHMARK.json both medians, their change/parent ratio, the parent's
quartiles, the change's wins out of N (strictly better, in the
metric's direction), whether the gap between the medians exceeds
the parent's interquartile range, and the median and quartiles of the
per-pair change/parent ratios. Each ratio compares two runs made back
to back, so a slow host phase that falls on one side of one pair moves
one ratio, where it can move a whole side's median. A Markdown summary
is written beside it (same path, `.md`).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree, workload, seed, seconds):
    """One `perfbench/run.py --trace 0` in @tree: its env line and
    result line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_pair: {' '.join(cmd)} in {tree} failed "
                 f"(exit {proc.returncode})")
    env, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "env": env,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(runs, metric_defs, pairs):
    """Per metric: medians, ratio, parent quartiles, change wins, and
    the median and quartiles of the per-pair ratios."""
    out = {}
    for m in metric_defs:
        name, lower = m["name"], m["better"] == "lower"
        by_side = {s: [r["metrics"][name] for r in runs if r["side"] == s]
                   for s in SIDES}
        parent, change = by_side["parent"], by_side["change"]
        wins = sum(1 for p, c in zip(parent, change)
                   if (c < p if lower else c > p))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        pair_ratios = [c / p for p, c in zip(parent, change) if p]
        r_q1, r_q3 = quartiles(pair_ratios) if pair_ratios else (None, None)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent_median": p_med,
            "change_median": c_med,
            "ratio": c_med / p_med if p_med else None,
            "parent_q1": q1,
            "parent_q3": q3,
            "wins": wins,
            "of": pairs,
            "gap_exceeds_parent_iqr": abs(c_med - p_med) > q3 - q1,
            "pair_ratio_median": (statistics.median(pair_ratios)
                                  if pair_ratios else None),
            "pair_ratio_q1": r_q1,
            "pair_ratio_q3": r_q3,
        }
    return out


def markdown(report):
    head = (f"**Alternating pairs: {report['workload']} "
            f"(seed {report['seed']})**\n"
            f"{report['pairs']} pairs at --seconds {report['seconds']}, "
            f"order switched every pair; parent = {report['parent']}, "
            f"change = {report['change']}; every run correct: "
            f"{'yes' if report['all_correct'] else 'NO'}\n\n")
    rows = ["| metric | parent median | parent IQR | change median | "
            "change/parent | change better | gap > IQR | "
            "pair ratio median (IQR) |",
            "| :--- | ---: | ---: | ---: | ---: | ---: | :---: | ---: |"]
    for name, m in report["metrics"].items():
        ratio = "n/a" if m["ratio"] is None else f"{m['ratio']:.3f}"
        pair = ("n/a" if m["pair_ratio_median"] is None else
                f"{m['pair_ratio_median']:.3f} "
                f"({m['pair_ratio_q1']:.3f}–{m['pair_ratio_q3']:.3f})")
        rows.append(
            f"| {name} ({m['unit']}, {m['better']} is better) "
            f"| {m['parent_median']:.6g} "
            f"| {m['parent_q1']:.6g}–{m['parent_q3']:.6g} "
            f"| {m['change_median']:.6g} | {ratio} "
            f"| {m['wins']}/{m['of']} "
            f"| {'yes' if m['gap_exceeds_parent_iqr'] else 'no'} "
            f"| {pair} |")
    return head + "\n".join(rows) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_tree", type=Path)
    ap.add_argument("change_tree", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("bench_pair: --pairs must be at least 1")

    trees = {"parent": args.parent_tree.resolve(),
             "change": args.change_tree.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())

    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            print(f"bench_pair: pair {pair + 1}/{args.pairs}: {side}",
                  file=sys.stderr, flush=True)
            run = run_once(trees[side], args.workload, args.seed,
                           args.seconds)
            run.update(pair=pair, side=side, position=position)
            runs.append(run)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "parent": trees["parent"].name,
        "change": trees["change"].name,
        "all_correct": all(r["correct"] and r["failed"] == 0
                           for r in runs),
        "metrics": summarize(runs, spec["end_to_end"], args.pairs),
        "runs": runs,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    args.out.with_suffix(".md").write_text(markdown(report))
    print(markdown(report))


if __name__ == "__main__":
    main()
