"""Run the benchmark on a parent commit and on the working tree, in pairs, and judge each metric.

    python tools/benchpair.py --parent HEAD --pairs 10 --seeds 3701 --seconds 15 \\
        --change "what the change does" --out BENCH_37.json

The parent is extracted from the local repository by `git archive`, and the
change is a copy of the working tree's tracked files, each in a directory of
its own under the system's temporary directory (TMPDIR).  Both run the
unchanged `perfbench/run.py --trace 0` of their own checkout, with
OPENBLAS_NUM_THREADS=1 and PYTHONDONTWRITEBYTECODE=1.  Each seed is one pair
per workload; the parent runs first on odd seeds and the change first on
even ones.

It prints, per workload and end-to-end metric, the median (q1-q3) of each
side, the change of the median, the pairs the change won (ties count for
neither) and a verdict:

- for the claimed metric (--claim WORKLOAD:METRIC), "claim holds" when the
  change wins at least 9 pairs in 10, the 95 % bootstrap interval of the
  median per-pair ratio (change / parent) lies wholly on the better side of
  1, and the medians differ by more than the parent's interquartile range;
  otherwise "claim not met";
- for every other metric, against its bound in BENCHMARK.json, relative to
  the parent's median: "worse beyond bound" when the change's median is
  worse by more than the bound; else "unresolved" when either side's
  interquartile range is wider than the bound, unless every run of the
  change is better than every run of the parent; else "within bound".

With --out it writes the record: change, claim, method, machine and
workloads, and claim_result when a claim is made.  It uses the standard
library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("single", "ensemble", "verify", "shots")
SIDES = ("parent", "change")
WIN_SHARE = 0.9
BOOTSTRAP_DRAWS = 2000

# The machine block, printed as JSON by the change's interpreter: numpy's
# build, OpenBLAS's kernel set and numpy's SIMD dispatch targets, the things
# the byte pins and the timings depend on.  A missing library prints None.
_MACHINE_PROBE = r"""
import ctypes, glob, json, os, platform
import numpy as np
from numpy._core import _multiarray_umath as umath
cpu = None
try:
    for line in open("/proc/cpuinfo"):
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
except OSError:
    pass
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "libscipy_openblas*.so")))
core = None
try:
    get = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    get.restype = ctypes.c_char_p
    core = get().decode()
except (IndexError, OSError, AttributeError):
    pass
print(json.dumps({
    "cores": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
    "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": 1, "blas_coretype": core,
    "simd_found": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
}))
"""


def spread(runs: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs, and the runs."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": list(runs)}


def improvement(parent: float, change: float, better: str) -> float:
    """How much better change is than parent, as a share of |parent|; negative when worse."""
    gain = change - parent if better == "higher" else parent - change
    return gain / abs(parent) if parent else gain


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs where the change is strictly better."""
    return sum(improvement(p, c, better) > 0 for p, c in zip(parent, change))


def ratio_interval(parent: list[float], change: list[float]) -> tuple[float, float]:
    """95 % percentile-bootstrap interval of the median of the per-pair ratios
    change / parent, from a fixed stream so that one input gives one interval."""
    ratios = [c / p for p, c in zip(parent, change)]
    draw = random.Random(0).choices
    medians = sorted(statistics.median(draw(ratios, k=len(ratios))) for _ in range(BOOTSTRAP_DRAWS))
    return medians[int(0.025 * BOOTSTRAP_DRAWS)], medians[int(0.975 * BOOTSTRAP_DRAWS) - 1]


def judge_claim(parent: list[float], change: list[float], better: str) -> dict:
    """The claim's result: met when the change wins at least WIN_SHARE of the
    pairs, the ratio interval excludes 1 on the better side, and the median
    gap exceeds the parent's interquartile range."""
    p, c = spread(parent), spread(change)
    wins = change_wins(parent, change, better)
    lo, hi = ratio_interval(parent, change)
    gap, iqr = abs(c["median"] - p["median"]), p["q3"] - p["q1"]
    beyond_one = lo > 1.0 if better == "higher" else hi < 1.0
    return {
        "met": wins >= math.ceil(WIN_SHARE * len(parent)) and beyond_one and gap > iqr,
        "median_delta_pct": 100.0 * (c["median"] / p["median"] - 1.0),
        "change_wins": wins,
        "ratio_interval": [lo, hi],
        "median_gap": gap,
        "parent_iqr": iqr,
    }


def judge_bound(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict of a metric no claim is made on, against its relative bound."""
    p, c = spread(parent), spread(change)
    if improvement(p["median"], c["median"], better) < -bound:
        return "worse beyond bound"
    wide = any(s["q3"] - s["q1"] > bound * abs(p["median"]) for s in (p, c))
    every_run_better = all(improvement(a, b, better) > 0 for a in parent for b in change)
    if wide and not every_run_better:
        return "unresolved"
    return "within bound"


def summarize(runs: dict, metrics: list[dict], claim: tuple[str, str] | None) -> tuple[dict, dict | None]:
    """The workloads block and the claim's result, from runs[workload][metric][side],
    each a list of one value per pair in seed order."""
    block, claim_result = {}, None
    for workload, by_metric in runs.items():
        block[workload] = {}
        for metric in metrics:
            name, better = metric["name"], metric["better"]
            parent, change = by_metric[name]["parent"], by_metric[name]["change"]
            entry = {"parent": spread(parent), "change": spread(change),
                     "change_wins": change_wins(parent, change, better)}
            if claim == (workload, name):
                claim_result = judge_claim(parent, change, better)
                entry["verdict"] = "claim holds" if claim_result["met"] else "claim not met"
            else:
                entry["verdict"] = judge_bound(parent, change, better, metric["bound"])
            block[workload][name] = entry
    return block, claim_result


def _cell(value: float) -> str:
    if abs(value) >= 1000:
        return f"{value:.0f}"
    return f"{value:.2f}" if abs(value) >= 10 else f"{value:.4f}"


def table(block: dict, pairs: int) -> str:
    """The markdown table of a workloads block, one row per workload and metric."""
    lines = ["| workload | metric | parent | change | Δ median | wins | verdict |",
             "|---|---|---|---|---|---|---|"]
    for workload, by_metric in block.items():
        for name, e in by_metric.items():
            p, c = e["parent"], e["change"]
            delta = 100.0 * (c["median"] / p["median"] - 1.0) if p["median"] else 0.0
            lines.append(
                f"| {workload} | {name} | {_cell(p['median'])} ({_cell(p['q1'])}–{_cell(p['q3'])}) "
                f"| {_cell(c['median'])} ({_cell(c['q1'])}–{_cell(c['q3'])}) | {delta:+.1f} % "
                f"| {e['change_wins']}/{pairs} | {e['verdict']} |")
    return "\n".join(lines)


def checkouts(parent: str, into: Path) -> dict[str, Path]:
    """The parent's tree from `git archive` and a copy of the working tree's tracked files."""
    git = ["git", "-C", str(ROOT)]
    tree = subprocess.run([*git, "archive", "--format=tar", parent], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tree)) as archive:
        archive.extractall(into / "parent", filter="data")
    names = subprocess.run([*git, "ls-files", "-z"], capture_output=True, check=True).stdout
    for name in names.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            target = into / "change" / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return {side: into / side for side in SIDES}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one `perfbench/run.py --trace 0` run in `checkout`."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def machine() -> dict:
    """The machine block, from this interpreter's numpy."""
    probe = subprocess.run([sys.executable, "-c", _MACHINE_PROBE], capture_output=True, text=True, check=True)
    return json.loads(probe.stdout)


def short_commit(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                          capture_output=True, text=True, check=True).stdout.strip()


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="benchpair", description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit the working tree is compared with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, required=True, help="the first seed: pair k runs on seed FIRST + k")
    parser.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated")
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    parser.add_argument("--change", default="", help="what the change does, for the record")
    parser.add_argument("--out", type=Path, help="where to write the BENCH record")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be 2 or more, for quartiles")
    args.seeds = list(range(args.seeds, args.seeds + args.pairs))
    args.workloads = args.workloads.split(",")
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    if args.claim is not None:
        args.claim = tuple(args.claim.split(":", 1))
        if len(args.claim) != 2 or args.claim[0] not in args.workloads:
            parser.error("--claim takes WORKLOAD:METRIC of a workload that runs")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    if args.claim is not None and args.claim[1] not in {m["name"] for m in metrics}:
        sys.exit(f"benchpair: {args.claim[1]} is not an end-to-end metric of BENCHMARK.json")
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    parent_commit = short_commit(args.parent)
    runs = {w: {m["name"]: {side: [] for side in SIDES} for m in metrics} for w in args.workloads}
    failed = dict.fromkeys(SIDES, 0)
    with tempfile.TemporaryDirectory(prefix="benchpair-") as tmp:
        trees = checkouts(args.parent, Path(tmp))
        for seed in args.seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for workload in args.workloads:
                for side in order:
                    result = run_once(trees[side], workload, seed, seconds)
                    failed[side] += result["failed"]
                    for m in metrics:
                        runs[workload][m["name"]][side].append(result["metrics"][m["name"]]["value"])
                print(f"seed {seed} {workload}: done", file=sys.stderr)
    block, claim_result = summarize(runs, metrics, args.claim)
    print(table(block, len(args.seeds)))
    print(f"failed operations: parent {failed['parent']}, change {failed['change']}")
    if args.out is not None:
        claim = None
        if args.claim is not None:
            better = {m["name"]: m["better"] for m in metrics}[args.claim[1]]
            claim = {"workload": args.claim[0], "metric": args.claim[1], "direction": better}
        record = {
            "change": args.change,
            "claim": claim,
            "method": {
                "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
                "pairs": len(args.seeds),
                "order": "parent first on odd seeds, change first on even seeds",
                "statistic": "median and quartiles (statistics.quantiles, n=4, inclusive) over each side's "
                             "runs; change_wins counts pairs where the change is better, ties for neither",
                "checkouts": f"parent ({parent_commit}) from a git archive of its tree, change from a copy "
                             "of the working tree's tracked files; PYTHONDONTWRITEBYTECODE=1 and "
                             "OPENBLAS_NUM_THREADS=1 on both sides",
                "seeds": args.seeds,
                "failed_operations": failed,
            },
            "machine": machine(),
            "workloads": block,
        }
        if claim_result is not None:
            record["claim_result"] = claim_result
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
