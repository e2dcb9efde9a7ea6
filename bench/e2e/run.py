#!/usr/bin/env python3
"""End-to-end benchmark: wall time per simulated request on the paper's
fig2 / fig8 / fig9 / sharded configurations, plus a traced per-layer
breakdown (see bench/e2e/README.md).

  python3 bench/e2e/run.py                    # every workload, timed + traced
  python3 bench/e2e/run.py --workload fig2_rr [--seed N] [--seconds S] [--trace 0|1]
  python3 bench/e2e/run.py --repeat 10 [--workload W] [--out F]   # seed spread
  python3 bench/e2e/run.py --smoke            # fidelity only, tiny durations

Builds bench/e2e as a standalone CMake project into build-e2e/ at the root of
the checkout, runs each workload in its own process (one at a time, at most
two threads each), checks every result digest, and prints every metric with
its unit. With --workload the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.

Exit codes: 0 ok, 1 fidelity or build failure, 2 usage error.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "e2e_bench"
WORKLOADS = ["fig2_rr", "fig8_ghost", "fig9_mica_sw", "fig2_rr_sharded2"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no syrup source tree at {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                   "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))


def run_binary(args):
    """Runs e2e_bench and returns the JSON document on its last line."""
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"e2e_bench {' '.join(args)} exited "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def reference_digest(doc, expected):
    """The digest every run must reproduce: expected.json at the workload's
    default seed, otherwise the bench-local copy (checked against the reps)."""
    entry = expected.get(doc["workload"])
    if entry is None or entry["seed"] != doc["seed"]:
        return doc["copy_digest"]
    if (entry["warmup_ns"], entry["measure_ns"]) != (doc["warmup_ns"],
                                                     doc["measure_ns"]):
        raise RuntimeError(f"expected.json entry for {doc['workload']} was "
                           "recorded at other rep durations")
    return entry["digest"]


def evaluate(doc, expected):
    """(correct, attempted, failed) over every checked run: the reps and the
    bench-local copy. A run fails its drops and faults; a run whose digest
    mismatches fails all of its requests."""
    ref = reference_digest(doc, expected)
    per_run = round(doc["offered_per_rep"])
    runs = [(r["digest"], r["runtime_faults"]) for r in doc["reps"]]
    runs.append((doc["copy_digest"], 0))
    correct = True
    failed = 0
    for digest, faults in runs:
        if digest != ref:
            correct = False
            failed += per_run
            continue
        failed += math.ceil(digest["drop_fraction"] * doc["window_requests"])
        failed += faults
    return correct, per_run * len(runs), failed


def print_run(doc, correct, attempted, failed):
    print(f"{doc['workload']}  mode={doc['mode']}  seed={doc['seed']}  "
          f"reps={len(doc['reps'])}  correct={correct}  "
          f"attempted={attempted}  failed={failed}")
    for name, m in doc["metrics"].items():
        spread = ""
        if "n" in m:
            spread = f"  (median of {m['n']}; q1 {m['q1']:.6g}, q3 {m['q3']:.6g})"
        print(f"  {name:<40} {m['value']:>16.6f} {m['unit']}{spread}")


def contract_line(doc, names, correct, attempted, failed):
    metrics = {}
    for name in names:
        if name not in doc["metrics"]:
            raise RuntimeError(f"{doc['workload']} did not report {name}")
        m = doc["metrics"][name]
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def measure(name, seed, seconds, trace, expected):
    args = ["--workload", name, "--seconds", str(seconds),
            "--trace", str(trace)]
    if seed is not None:
        args += ["--seed", str(seed)]
    doc = run_binary(args)
    correct, attempted, failed = evaluate(doc, expected)
    print_run(doc, correct, attempted, failed)
    return doc, correct, attempted, failed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def repeat(names, base_seed, count, seconds, bench, expected):
    """Runs each workload `count` times (trace 0) on seeds base..base+count-1
    and reports each end-to-end metric's median, quartiles and IQR/median."""
    summary = {}
    runs = []
    ok = True
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(base_seed, base_seed + count):
            doc, correct, _, failed = measure(name, seed, seconds, 0, expected)
            ok = ok and correct and failed == 0
            runs.append(doc)
            for metric, vals in values.items():
                vals.append(doc["metrics"][metric]["value"])
        summary[name] = {}
        for m in bench["end_to_end"]:
            med, q1, q3, rel = spread(values[m["name"]])
            summary[name][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                        "iqr_over_median": rel, "n": count,
                                        "values": values[m["name"]]}
    print(f"\nspread over {count} seeds (IQR / median; bound / 3 in brackets)")
    for name, metrics in summary.items():
        for metric, s in metrics.items():
            bound = next(m["bound"] for m in bench["end_to_end"]
                         if m["name"] == metric)
            print(f"  {name:<18} {metric:<16} median {s['median']:.6g}  "
                  f"spread {s['iqr_over_median']:.4f}  [{bound / 3:.4f}]")
    return ok, {"summary": summary, "runs": runs}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 3600:
        parser.error("--seconds must be in (0, 3600]")
    if args.repeat is not None and args.repeat < 2:
        parser.error("--repeat must be >= 2")

    try:
        build()
    except RuntimeError as err:
        log(f"run.py: {err}")
        return 1
    expected = json.loads((HERE / "expected.json").read_text())
    names = [args.workload] if args.workload else WORKLOADS

    if args.smoke:
        cmd = ["--smoke"] + (["--workload", args.workload]
                             if args.workload else [])
        return subprocess.run([str(BINARY)] + cmd,
                              stdout=subprocess.DEVNULL).returncode

    if args.repeat:
        ok, record = repeat(names, 1 if args.seed is None else args.seed,
                            args.repeat, args.seconds, bench, expected)
        if args.out:
            args.out.write_text(json.dumps(record, indent=1) + "\n")
        return 0 if ok else 1

    if args.workload:
        doc, correct, attempted, failed = measure(
            args.workload, args.seed, args.seconds, args.trace, expected)
        if args.out:
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
        key = "per_layer" if args.trace else "end_to_end"
        print(contract_line(doc, [m["name"] for m in bench[key]], correct,
                            attempted, failed))
        return 0 if correct else 1

    ok = True
    docs = []
    for name in names:
        for trace in (0, 1):
            doc, correct, _, failed = measure(name, args.seed, args.seconds,
                                              trace, expected)
            ok = ok and correct and failed == 0
            docs.append(doc)
    if args.out:
        args.out.write_text(json.dumps(docs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        log(f"run.py: {err}")
        sys.exit(1)
