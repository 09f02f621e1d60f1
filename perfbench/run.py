#!/usr/bin/env python3
"""The pcbp benchmark harness.

Builds the pcbp_perfbench workload program from source (the library in
src/ plus perfbench/src/), runs one workload in its own process,
checks every operation's output, and prints the metrics named in
BENCHMARK.json as the last line of standard output:

    python3 perfbench/run.py --workload engine-long --seed 1 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
reports the per-layer metrics of a run whose traced passes alternate
with untraced ones. Seed 1 keeps the registry recipes; other seeds
re-seed them. See perfbench/README.md for what each metric means.

    python3 perfbench/run.py --workload engine-long --record

re-pins the expected outputs of a workload in perfbench/expected.json
from a run at the default seed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
EXPECTED = HERE / "expected.json"
GOLDEN = ROOT / "tests" / "golden" / "repro_quick"

DEFAULT_SEED = 1
WORKLOADS = ("engine-long", "trace-replay", "repro-quick")
# The seed does not change run lengths, so these outputs are checked
# at every seed; the rest only at the default seed.
SEED_INDEPENDENT = ("committed_branches", "records")
CHILD_TIMEOUT_S = 170


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure and build pcbp_perfbench; a no-op when up to date."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--parallel",
                    str(nproc())], stdout=sys.stderr, check=True)
    return BUILD / "pcbp_perfbench"


def run_workload(binary, args, seconds, trace):
    """Run one workload process and return its parsed record."""
    work = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("PCBP_BENCH_SCALE", None)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(trace), "--jobs", str(nproc()),
           "--work-dir", str(work), "--golden-dir", str(GOLDEN)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload process exited with "
                     f"{proc.returncode}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if record["files"]:
            record["files"] = {k: json.loads(Path(p).read_text())
                               for k, p in record["files"].items()}
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check(record, workload, seed, expected):
    """Count operations and failures. An operation fails if it says so,
    if its outputs differ between passes (traced or not), or if they
    differ from the pinned outputs."""
    pinned = expected.get(workload, {})
    seed_free = workload == "repro-quick" or seed == DEFAULT_SEED
    first = {}
    attempted = failed = 0
    for p in record["passes"]:
        for op in p["ops"]:
            name, out = op["name"], op["out"]
            want = pinned.get(name)
            if want is not None and not seed_free:
                want = {k: v for k, v in want.items()
                        if k in SEED_INDEPENDENT}
                out = {k: v for k, v in out.items() if k in want}
            ok = (op["ok"] and want is not None and out == want
                  and first.setdefault(name, op["out"]) == op["out"])
            attempted += 1
            if not ok:
                failed += 1
                log(f"FAILED {name}: got {op['out']}, want {want}")
    missing = set(pinned) - set(first)
    for name in sorted(missing):
        log(f"FAILED {name}: not run")
    return attempted + len(missing), failed + len(missing)


def end_to_end(record):
    """Every operation is timed by its fastest pass: the program is
    deterministic, so contention from other tenants of the machine
    only ever adds time, and the fastest of many passes is the
    steadiest estimate of the work itself."""
    best = {}
    for p in record["passes"]:
        for op in p["ops"]:
            name = op["name"]
            if name not in best or op["s"] < best[name]["s"]:
                best[name] = op
    ops = best.values()

    def rate(key):
        timed = [op for op in ops if op[key]]
        return sum(op[key] for op in timed) / sum(op["s"] for op in timed)

    return {
        "setup_s": statistics.median(record["setup_s"]),
        "wall_s": sum(op["s"] for op in ops),
        "accuracy_branches_per_s": rate("acc_branches"),
        "timing_branches_per_s": rate("tim_branches"),
        "peak_rss_mb": record["peak_rss_kb"] / 1024,
    }


def sweep_layers(files, layers):
    """The sweep-layer metrics of a traced repro pass, from its span
    trace (cells per worker), its stats dump (pool and fork counters)
    and the warmup its executed cells asked for."""
    open_spans, units, figures = {}, [], 0.0
    for e in files["spans"]["traceEvents"]:
        if e["ph"] == "B":
            open_spans.setdefault(e["tid"], []).append(e)
        elif e["ph"] == "E":
            ms = (e["ts"] - open_spans[e["tid"]].pop()["ts"]) / 1000
            if e["cat"] in ("cell", "chain"):
                units.append(ms)
            elif e["cat"] == "figure":
                figures += ms
    host = files["stats"]["host"]
    return {
        "sweep.cell_ms_p50": statistics.median(units),
        "sweep.cell_ms_p99": statistics.quantiles(units, n=100)[98],
        "sweep.worker_busy_ratio":
            sum(units) / (figures * host["pool.workers"]),
        "sweep.pool.idle_ms": host["pool.idle_ns"] / 1e6,
        "sweep.pool.steals": host["pool.steals"],
        "sim.fork.warmup_saved_ratio":
            host["sweep.fork.warmup_branches_saved"]
            / layers["sweep.executed_warmup_branches"],
    }


def per_layer(record, names):
    traced = [p for p in record["passes"] if p["traced"]]
    untraced = [p for p in record["passes"] if not p["traced"]]
    med = statistics.median
    # A layer the workload does not call into reads 0.
    out = {n: med(p["layers"].get(n, 0.0) for p in traced) for n in names}
    if record["files"]:
        out.update(sweep_layers(record["files"], traced[-1]["layers"]))
    out["bench.trace_overhead_ratio"] = (
        med(p["wall_s"] for p in traced) / med(p["wall_s"] for p in untraced))
    return out


def record_expected(binary, args):
    args.seed = DEFAULT_SEED
    record = run_workload(binary, args, 1, 0)
    failed = [op["name"] for op in record["passes"][0]["ops"] if not op["ok"]]
    if failed:
        sys.exit(f"perfbench: not pinning failed outputs: {failed}")
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    expected[args.workload] = {op["name"]: op["out"]
                               for op in record["passes"][0]["ops"]}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    log(f"pinned {len(expected[args.workload])} outputs of {args.workload}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if args.record:
        record_expected(binary, args)
        return

    record = run_workload(binary, args, args.seconds, args.trace)
    expected = json.loads(EXPECTED.read_text())
    attempted, failed = check(record, args.workload, args.seed, expected)
    if args.trace:
        rows = spec["per_layer"]
        values = per_layer(record, [m["name"] for m in rows])
    else:
        rows = spec["end_to_end"]
        values = end_to_end(record)

    print(json.dumps({"env": record["env"],
                      "passes": len(record["passes"]),
                      "setup_reps": len(record["setup_s"])}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in rows},
    }))


if __name__ == "__main__":
    main()
