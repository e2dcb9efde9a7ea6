#!/usr/bin/env python3
"""A/B a change against its parent: alternating pairs of benchmark runs.

  python3 bench/ab.py --workload fig2_rr_sharded2 --pairs 10 [--seconds 20]
                      [--seed N] [--metric wall_ns_per_req]
  python3 bench/ab.py --workload fig8_ghost --trace [--seconds 5] [--seed N]
  python3 bench/ab.py --bench sim_parallel --args="--quick --out {out}" \\
                      --metric scenarios.cross_heavy.speedup_4 --better higher

Sides: --base REV (default HEAD) and --change REV (default: the working
tree, tracked and untracked files that git does not ignore). Each side is
copied out with `git archive` (or a file copy for the working tree) into
its own tree under --workdir (default: a fresh temporary directory, removed
at exit) and built there. A --workdir that already holds a side's tree from
the same source reuses it and its build.

--workload W runs `python3 bench/e2e/run.py --workload W --seconds S
--trace 0` in each tree and reads every end-to-end metric of BENCHMARK.json
from its last line; a run that is not correct or fails requests is an
error. --workload W --trace instead runs one `run.py --trace 1` per side and
prints every per-layer metric side by side, to show where a change's
saving lands. A count (events, decisions, messages, map operations per
request, ...) is deterministic per seed, so any count that differs is
flagged; timings (units in ns or us, and trace.overhead_ratio) only show
their relative change.

--bench NAME runs the tree's build/bench/NAME with --args (write
--args="..." when the value starts with a dash), where {out} names a fresh
JSON file the metric (a dotted key path) is read from; without {out} the
metric is the run's wall time in seconds.

Pair i runs the base first when i is even and the change first when i is
odd. The report prints every run, each side's median and quartiles, the
change's wins and the base's IQR. The verdict follows the claim rule of
the choosing-metrics guide: a gain when the change wins at least 9/10 of
the pairs (ties count for neither) and its median beats the base's by more
than the base's IQR. For e2e metrics it also flags a median worse than the
base's by more than BENCHMARK.json's bound.

Exit codes: 0 ran, 1 build or run failure, 2 usage error.
"""

import argparse
import hashlib
import json
import math
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT)] + list(args), check=True,
                          stdout=subprocess.PIPE).stdout


def worktree_files():
    out = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    return sorted(p for p in out.decode().split("\0")
                  if p and (ROOT / p).is_file())


def source_id(rev):
    """A string naming exactly the sources a side is built from."""
    if rev is not None:
        return "rev " + git("rev-parse", rev + "^{commit}").decode().strip()
    digest = hashlib.sha256()
    for path in worktree_files():
        digest.update(path.encode() + b"\0" + (ROOT / path).read_bytes())
    return "worktree " + digest.hexdigest()


def extract(rev, tree):
    tree.mkdir(parents=True)
    if rev is not None:
        archive = subprocess.Popen(
            ["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {rev} failed")
        return
    for path in worktree_files():
        (tree / path).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / path, tree / path)


def prepare(side, rev, workdir, args):
    """Extracts (or reuses) and builds one side's tree; returns its path."""
    tree = workdir / side
    ident = source_id(rev)
    stamp = tree / ".ab-source"
    if tree.exists():
        if not stamp.is_file() or stamp.read_text() != ident:
            raise RuntimeError(f"{tree} holds other sources; remove it")
        log(f"ab: {side}: reusing {tree} ({ident})")
    else:
        log(f"ab: {side}: extracting {ident} into {tree}")
        extract(rev, tree)
        stamp.write_text(ident)
    if args.workload:
        # Builds build-e2e/ in the tree and checks the workload's digests.
        cmd = [sys.executable, str(tree / "bench/e2e/run.py"), "--smoke",
               "--workload", args.workload]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise RuntimeError(f"{side}: run.py --smoke failed")
    else:
        build = tree / "build"
        steps = []
        if not (build / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(tree), "-B", str(build),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build), "--target", args.bench,
                      "-j", "2"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                raise RuntimeError(f"{side}: build failed: {' '.join(cmd)}")
    return tree


def lookup(doc, path):
    for key in path.split("."):
        doc = doc[key]
    return float(doc)


def run_once(tree, args, scratch):
    """One run of one side: {metric: value}."""
    if args.workload:
        cmd = [sys.executable, str(tree / "bench/e2e/run.py"), "--workload",
               args.workload, "--seconds", str(args.seconds), "--trace", "0"]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError(f"{' '.join(cmd)} printed nothing")
        doc = json.loads(lines[-1])
        if not doc["correct"] or doc["failed"] != 0:
            raise RuntimeError(f"{tree.name}: run not correct: {lines[-1]}")
        return {name: m["value"] for name, m in doc["metrics"].items()}
    out = scratch / "out.json"
    out.unlink(missing_ok=True)
    extra = [a.replace("{out}", str(out)) for a in shlex.split(args.args)]
    start = time.perf_counter()
    # Run in the scratch dir: some benches write a default output file.
    proc = subprocess.run([str(tree / "build/bench" / args.bench)] + extra,
                          stdout=subprocess.DEVNULL, cwd=scratch)
    wall = time.perf_counter() - start
    if "{out}" not in args.args:
        if proc.returncode != 0:
            raise RuntimeError(f"{args.bench} exited {proc.returncode}")
        return {"wall_s": wall}
    # A perf gate may exit 1 on its own bound; the number is still read.
    return {args.metric: lookup(json.loads(out.read_text()), args.metric)}


def run_traced(tree, args, scratch):
    """One traced run of one side: {metric: (value, unit)}, every metric
    the run reports."""
    out = scratch / f"{tree.name}-trace.json"
    cmd = [sys.executable, str(tree / "bench/e2e/run.py"), "--workload",
           args.workload, "--seconds", str(args.seconds), "--trace", "1",
           "--out", str(out)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing")
    contract = json.loads(lines[-1])
    if not contract["correct"] or contract["failed"] != 0:
        raise RuntimeError(f"{tree.name}: run not correct: {lines[-1]}")
    doc = json.loads(out.read_text())
    return {name: (m["value"], m["unit"])
            for name, m in doc["metrics"].items()}


def is_timing(name, unit):
    return unit == "us" or unit.startswith("ns") or name.endswith(
        "overhead_ratio")


def report_trace(traced):
    """Prints the two sides' per-layer metrics; returns how many counts
    differ."""
    base, change = traced["base"], traced["change"]
    differ = 0
    print(f"  {'metric':<40} {'base':>14} {'change':>14}  {'delta':>8}")
    for name in list(base) + [n for n in change if n not in base]:
        if name not in base or name not in change:
            side = "base" if name in base else "change"
            print(f"  {name:<40} only in {side}  COUNT DIFFERS")
            differ += 1
            continue
        (b, unit), (c, _) = base[name], change[name]
        rel = "=" if c == b else f"{(c - b) / b:+.1%}" if b else "new"
        note = ""
        if is_timing(name, unit):
            note = "  (timing)"
        elif c != b:
            note = "  COUNT DIFFERS"
            differ += 1
        print(f"  {name:<40} {b:>14.6f} {c:>14.6f}  {rel:>8}  "
              f"{unit}{note}")
    return differ


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def report(runs, metric, better, bound):
    """Prints one metric's summary; returns the verdict line."""
    base = [r["base"][metric] for r in runs]
    change = [r["change"][metric] for r in runs]
    sign = 1 if better == "lower" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    stats = {}
    for side, values in (("base", base), ("change", change)):
        q1, q3 = quartiles(values)
        stats[side] = (statistics.median(values), q1, q3)
        print(f"  {metric:<24} {side:<6} median {stats[side][0]:.6g}  "
              f"q1 {q1:.6g}  q3 {q3:.6g}")
    base_med, base_q1, base_q3 = stats["base"]
    change_med = stats["change"][0]
    iqr = base_q3 - base_q1
    gap = sign * (base_med - change_med)
    pairs = len(runs)
    gain = wins >= math.ceil(0.9 * pairs) and gap > iqr
    rel = (change_med - base_med) / base_med if base_med else float("nan")
    verdict = (f"  {metric:<24} change better in {wins}/{pairs} pairs "
               f"(worse in {losses}), median {base_med:.6g} -> "
               f"{change_med:.6g} ({rel:+.1%}), base IQR {iqr:.6g}: "
               f"{'GAIN' if gain else 'no gain claimed'}")
    if bound is not None and sign * rel > bound:
        verdict += f"; WORSE than the {bound:.0%} bound"
    return verdict


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", help="bench/e2e workload")
    what.add_argument("--bench", help="binary under build/bench/")
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--change", help="revision (default: working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="e2e run length (default: BENCHMARK.json's)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--args", default="", help="--bench arguments")
    parser.add_argument("--metric", help="metric the verdict is about")
    parser.add_argument("--better", choices=["lower", "higher"])
    parser.add_argument("--trace", action="store_true",
                        help="compare one traced run per side, layer by "
                             "layer, instead of timed pairs")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--out", type=Path, help="write every run as JSON")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.trace and not args.workload:
        parser.error("--trace needs --workload")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    if args.workload:
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        args.metric = args.metric or "wall_ns_per_req"
        if args.metric not in bounds:
            parser.error(f"--metric must be one of {sorted(bounds)}")
        args.better = args.better or bounds[args.metric]["better"]
    else:
        if "{out}" in args.args and not args.metric:
            parser.error("--args with {out} needs --metric")
        if "{out}" not in args.args:
            args.metric = "wall_s"
        args.better = args.better or "lower"

    workdir = (args.workdir.resolve() if args.workdir
               else Path(tempfile.mkdtemp(prefix="syrup-ab-")))
    scratch = Path(tempfile.mkdtemp(prefix="syrup-ab-run-"))
    try:
        trees = {"base": prepare("base", args.base, workdir, args),
                 "change": prepare("change", args.change, workdir, args)}
        if args.trace:
            traced = {side: run_traced(trees[side], args, scratch)
                      for side in SIDES}
        runs = []
        for i in range(0 if args.trace else args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                pair[side] = run_once(trees[side], args, scratch)
                values = "  ".join(f"{k}={v:.6g}"
                                   for k, v in sorted(pair[side].items()))
                print(f"pair {i + 1:>2} {side:<6} {values}", flush=True)
            runs.append(pair)
    except (RuntimeError, subprocess.CalledProcessError, OSError,
            KeyError, ValueError) as err:
        log(f"ab: {err}")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    what = args.workload or args.bench
    change = args.change or "working tree"
    if args.trace:
        print(f"\n{what}: one traced run per side, base {args.base}, "
              f"change {change}")
        differ = report_trace(traced)
        print(f"  {differ} count(s) differ")
        if args.out:
            args.out.write_text(json.dumps({"what": what, "traced": traced},
                                           indent=1) + "\n")
        return 0
    print(f"\n{what}: {args.pairs} pairs, base {args.base}, change "
          f"{change}")
    verdicts = []
    metrics = sorted(runs[0]["base"], key=lambda m: m != args.metric)
    for metric in metrics:
        better = args.better if metric == args.metric else (
            bounds[metric]["better"] if metric in bounds else "lower")
        bound = bounds[metric]["bound"] if args.workload else None
        verdicts.append(report(runs, metric, better, bound))
    print("\n".join(verdicts))
    if args.out:
        args.out.write_text(json.dumps({"what": what, "runs": runs},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
