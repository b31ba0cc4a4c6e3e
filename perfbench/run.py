#!/usr/bin/env python3
"""Outside-in benchmark of the model-C fault-injection pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fault-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

It builds ``perfbench/main.exe`` with dune, runs it as fresh single-domain
processes with every ``SFI_*`` variable removed and a private scratch
directory (cache, checkpoint) that is deleted afterwards, and prints one
JSON result as its last line of standard output.

``--trace 0`` reports the end-to-end metrics: ``trials_per_s`` (median over
whole passes of the workload's sweep), ``setup_s`` (median of three cold
set-ups, each in its own process) and ``peak_rss_mb``. ``--trace 1`` runs one
traced process and reports the per-layer metrics; its spans are written
to ``.perfbench-out/``.

``--make-reference SEEDS`` (e.g. ``1-16``) recomputes the stored point
digests and det signatures in ``perfbench/reference.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["fault-dense", "rare-fault", "adaptive-ckpt"]
SETUP_RUNS = 3  # cold set-ups per --trace 0 run, the main run's included
RUN_BUDGET_S = 170  # per workload run, after the build


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if shutil.which("dune") is None:
        log("dune not found")
        sys.exit(1)
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=850,
    )
    if r.returncode != 0 or not os.path.exists(EXE):
        log("build failed")
        sys.exit(1)


def hermetic_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("SFI_")}


def child(mode, workload, seed, seconds, deadline, extra=()):
    """Runs main.exe once in a fresh private scratch directory; returns its
    result object (the last stdout line). Exits the benchmark, printing no
    result, if the child fails or runs past the deadline."""
    scratch_root = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(scratch_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root)
    try:
        cmd = [EXE, "--mode", mode, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--tmp", tmp, *extra]
        r = subprocess.run(cmd, cwd=ROOT, env=hermetic_env(), stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"{mode} run of {workload} timed out")
        sys.exit(1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"{mode} run of {workload} failed (exit {r.returncode})")
        sys.exit(1)
    return json.loads(lines[-1])


def run_untraced(workload, seed, seconds, deadline):
    setups = [child("setup", workload, seed, seconds, deadline)["metrics"]["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    res = child("run", workload, seed, seconds, deadline, ["--reference", REFERENCE])
    log(f"{workload}: {res['passes']} passes of "
        + " ".join(f"{t:.2f}" for t in res["pass_s"]) + " s")
    setups.append(res["metrics"]["setup_s"])
    res["metrics"]["setup_s"] = statistics.median(setups)
    res["setup_runs_s"] = setups
    return res


def run_traced(workload, seed, seconds, deadline):
    outdir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(outdir, exist_ok=True)
    out = os.path.join(outdir, f"spans-{workload}-seed{seed}.jsonl")
    return child("trace", workload, seed, seconds, deadline,
                 ["--reference", REFERENCE, "--out", out])


def describe(workload, seed, res):
    a, f = res["attempted"], res["failed"]
    log(f"{workload} seed {seed}: {a - f}/{a} points correct, failed share {f / a:.3f}")
    if not res["reference"]:
        log(f"{workload} seed {seed}: point digests {' '.join(d[:12] for d in res['digests'])}")


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def result_line(res, units):
    if set(res["metrics"]) != set(units):
        log(f"metrics {sorted(set(res['metrics']) ^ set(units))} differ from BENCHMARK.json")
        sys.exit(1)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()}
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def make_reference(spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    try:
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {"schema": "perfbench-ref/1", "workloads": {}}
    for w in WORKLOADS:
        for s in seeds:
            res = child("reference", w, s, 0, time.monotonic() + RUN_BUDGET_S)
            if not res["correct"]:
                log(f"{w} seed {s}: invariants failed, not stored")
                sys.exit(1)
            ref["workloads"].setdefault(w, {})[str(s)] = {
                "points": res["digests"], "det_signature": res["det_signature"]}
            log(f"{w} seed {s}: stored")
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--make-reference", metavar="SEEDS")
    args = ap.parse_args()

    build()
    if args.make_reference:
        make_reference(args.make_reference)
        return

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        t0 = time.monotonic()
        run = run_traced if args.trace else run_untraced
        res = run(w, args.seed, args.seconds, t0 + RUN_BUDGET_S)
        describe(w, args.seed, res)
        log(f"{w}: run took {time.monotonic() - t0:.1f} s")
        results[w] = res

    units = declared_units(args.trace)
    if args.workload != "all":
        print(result_line(results[args.workload], units))
        sys.exit(0)
    for w, res in results.items():
        a, f = res["attempted"], res["failed"]
        cells = "  ".join(f"{k} {v:.4g} {units[k]}" for k, v in res["metrics"].items())
        print(f"{w:14s} {cells}  failed {f}/{a} ({f / a:.1%})")
    everything = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": everything,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {w: json.loads(result_line(r, units)) for w, r in results.items()},
    }))
    sys.exit(0 if everything else 1)


if __name__ == "__main__":
    main()
