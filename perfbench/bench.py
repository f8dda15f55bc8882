"""Measurement loop of the spaneg benchmark.

One run measures one workload for a fixed time.  Without tracing it reports
the end-to-end metrics; with tracing, the per-layer metrics of a separate set
of repetitions.  Every timing is expressed in reference-speed seconds:

    reference seconds = raw seconds * mean(reference calibration / calibration)

The calibration is a short fixed kernel of numpy and interpreter work that
never calls spaneg.  It is timed before and after each repetition and, from
a SIGALRM interval timer, every CALIBRATION_INTERVAL seconds during it; the
time spent in it is left out of the raw seconds.  On a shared 2-core Xeon VM
the CPU's speed drifted by up to 1.8x, also within a single 3 s repetition;
samples taken only between repetitions left a spread of 15-28% between
runs of the longer workloads there.

The last line printed is the result object; the line before it is the run
record (machine, raw seconds, calibration samples, sample counts), which is
also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import workloads
from .tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_FILE = HERE / "reference.json"

SETUP_SAMPLES = 9
SETUP_CALIBRATION_SAMPLES = 20
MIN_REPETITIONS = 3
TAIL_BEYOND = 10
CALIBRATION_INTERVAL = 0.05

# Public functions wrapped by the tracer, by layer (package module).
TRACED = (
    "cli.run", "cli.random_study_rows", "cli.spa_verify_report",
    "states.random_mixed", "states.random_pure", "states.from_spec",
    "states.load_state", "states.validate", "states.family_quasi",
    "linalg.partial_transpose_b", "linalg.herm_eigen", "linalg.psd_sqrt", "linalg.kron",
    "spa.spa_pt_affine", "spa.spa_pt_compositional", "spa.spa_pt_paper_entries",
    "spa.choi_matrix", "spa.spa_transpose_tilde", "spa.spa_theta", "spa.depol_d",
    "measures.full_report", "measures.negativity_exact", "measures.pt_negative_count",
    "measures.concurrence_wootters", "measures.negativity_normalized",
    "shotsim.estimate_negativity",
    "curves.nn_from_nd",
)


# ---------------------------------------------------------------- calibration

def _calibration_matrix() -> np.ndarray:
    g = np.random.default_rng(20180829).standard_normal((4, 8)).view(complex)
    return g @ g.conj().T


def calibration_kernel(h: np.ndarray) -> None:
    """Fixed numpy and interpreter work, independent of spaneg (about 1 ms).

    A mix of small eigensolves, small-array arithmetic, generator set-up and
    draws, dict and json work: a broad mix follows the host's speed changes
    on every workload better than any one of its parts.
    """
    a, b = h[:2, :2], h[2:, 2:]
    for _ in range(30):
        np.linalg.eigvalsh(h)
        np.trace(np.kron(a, b).conj().T @ h)
    for i in range(6):
        np.random.default_rng(i).binomial(1000, 0.45)
    counts: dict[int, int] = {}
    for i in range(600):
        counts[i % 97] = counts.get(i % 97, 0) + i
    json.dumps([str(i) for i in range(60)])


class Calibration:
    """Samples the host's speed and converts raw seconds to reference seconds."""

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.samples: list[float] = []
        self.spent = 0.0
        self._h = _calibration_matrix()
        self._busy = False

    def _on_alarm(self, signum, frame):
        if not self._busy:  # a late alarm must not nest a sample inside another
            self.sample()

    def sample(self) -> float:
        self._busy = True
        t0 = time.perf_counter()
        calibration_kernel(self._h)
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        self.spent += seconds
        self._busy = False
        return seconds

    def clock(self) -> float:
        """perf_counter minus the time spent sampling."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def factor(self, first: int) -> float:
        """Raw to reference seconds over the samples taken since index first."""
        return statistics.fmean(self.reference_s / c for c in self.samples[first:])

    @contextlib.contextmanager
    def during(self):
        """Sample before, every CALIBRATION_INTERVAL seconds within, and after the block.

        Yields the index of the first sample, for factor().
        """
        first = len(self.samples)
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL, CALIBRATION_INTERVAL)
        try:
            yield first
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()


# ----------------------------------------------------------------- statistics

def tail_percentile(values, higher_is_better: bool):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Beyond means worse: below it for a throughput.  Returns (percentile,
    value), or (None, None) when there are too few samples.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None, None
    # Sorted from worst to best, TAIL_BEYOND samples are worse than ordered[TAIL_BEYOND].
    ordered = sorted(values, reverse=not higher_is_better)
    return math.floor(100.0 * (n - TAIL_BEYOND) / n), ordered[TAIL_BEYOND]


# ------------------------------------------------------------------- running

def invoke(cli, argv, clock=time.perf_counter):
    """Call cli.run(argv); (exit code, stdout, seconds).  Only the call is timed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        try:
            rc = cli.run(list(argv))
        except Exception as exc:  # an escaped exception is a failed invocation
            rc = f"raised {type(exc).__name__}: {exc}"
        seconds = clock() - t0
    return rc, out.getvalue(), seconds


class Ledger:
    """Invocations attempted and failed, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def run_repetition(cli, rep: workloads.Repetition, ledger: Ledger, clock=time.perf_counter):
    """Issue every invocation of rep in turn; (seconds, digest, bytes out)."""
    seconds = 0.0
    digest = hashlib.sha256()
    nbytes = 0
    for i, inv in enumerate(rep.invocations):
        rc, out, dt = invoke(cli, inv.argv, clock)
        seconds += dt
        ledger.attempted += 1
        reason = rc if isinstance(rc, str) else inv.check(rc, out)
        if reason is not None:
            ledger.fail(f"invocation {i} ({' '.join(inv.argv)}): {reason}")
        data = out.encode()
        nbytes += len(data)
        digest.update(f"{rc}\n".encode())
        digest.update(data)
    return seconds, digest.hexdigest(), nbytes


def warm_up(cli, name, seed, expected, ledger, workdir):
    """One repetition at seed; a digest other than expected (if given) is a failure."""
    rep = workloads.build(name, seed, workdir / f"{name}-{seed}")
    before = ledger.failed
    _, digest, _ = run_repetition(cli, rep, ledger)
    if expected is not None and ledger.failed == before and digest != expected:
        ledger.fail(f"output digest at seed {seed} is {digest}, recorded {expected}")
    return digest


# Run in a fresh interpreter: time the import, then sample the calibration
# in the same process, so the speed it sees is that of the import's CPU.
_SETUP_CHILD = """
import json, time
t0 = time.perf_counter()
import spaneg.cli
seconds = time.perf_counter() - t0
from perfbench.bench import Calibration, SETUP_CALIBRATION_SAMPLES
calibration = Calibration(1.0)
for _ in range(SETUP_CALIBRATION_SAMPLES):
    calibration.sample()
print(json.dumps([seconds, calibration.samples]))
"""


def measure_setup(calibration):
    """Seconds to import spaneg.cli in a fresh interpreter; (reference, raw).

    The child's calibration samples are added to calibration.samples.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    raw, ref = [], []
    for k in range(SETUP_SAMPLES + 1):  # the first import compiles bytecode and is not kept
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, samples = json.loads(proc.stdout.strip().splitlines()[-1])
        if k:
            first = len(calibration.samples)
            calibration.samples.extend(samples)
            raw.append(seconds)
            ref.append(seconds * calibration.factor(first))
    return ref, raw


class Timed:
    """Raw and reference seconds of the repetitions of one kind."""

    def __init__(self):
        self.raw: list[float] = []
        self.ref: list[float] = []

    def add(self, seconds, factor):
        self.raw.append(seconds)
        self.ref.append(seconds * factor)


def timed_repetition(cli, rep, calibration, ledger, timed):
    """Run rep under calibration sampling and add its timing to timed."""
    with calibration.during() as first:
        seconds, digest, nbytes = run_repetition(cli, rep, ledger, calibration.clock)
    timed.add(seconds, calibration.factor(first))
    return digest, nbytes


def measure_untraced(cli, rep, calibration, ledger, seconds):
    """Repetitions for `seconds` with tracing off; (timings, digests, bytes)."""
    timed, digests = Timed(), []
    nbytes = 0
    start = time.perf_counter()
    while len(timed.raw) < MIN_REPETITIONS or time.perf_counter() - start < seconds:
        digest, nbytes = timed_repetition(cli, rep, calibration, ledger, timed)
        digests.append(digest)
    return timed, digests, nbytes


class Counters:
    """Counters read from values the traced functions return."""

    def __init__(self):
        self.trials = 0
        self.clamped = 0
        self.reports = 0
        self.quasi_matches = 0

    def on_estimate(self, est):
        self.trials += est.trials
        self.clamped += est.clamp_count

    def on_report(self, report):
        self.reports += 1
        self.quasi_matches += report.concurrence_quasi_est is not None


def measure_traced(cli, rep, calibration, ledger, seconds, span_path=None):
    """Alternate untraced and traced repetitions for `seconds`.

    Returns (untraced timings, traced timings, per-repetition summaries,
    counters, bytes out, digests, targets not found).  Span times leave out calibration
    samples.  The spans of the last traced repetition are written to
    span_path.
    """
    counters = Counters()
    tracer = Tracer(
        TRACED,
        observers={
            "shotsim.estimate_negativity": counters.on_estimate,
            "measures.full_report": counters.on_report,
        },
        clock=calibration.clock,
    )
    plain, traced, summaries, digests = Timed(), Timed(), [], []
    nbytes = 0
    start = time.perf_counter()
    while len(traced.raw) < MIN_REPETITIONS or time.perf_counter() - start < seconds:
        digest, nbytes = timed_repetition(cli, rep, calibration, ledger, plain)
        digests.append(digest)
        with tracer:
            tracer.reset()
            digest, _ = timed_repetition(cli, rep, calibration, ledger, traced)
        digests.append(digest)
        factor = traced.ref[-1] / traced.raw[-1]
        summaries.append({k: (c, s * factor, r) for k, (c, s, r) in tracer.summary().items()})
    if span_path is not None:
        tracer.write_spans(span_path)
    return plain, traced, summaries, counters, nbytes, digests, tracer.missing


# ------------------------------------------------------------------- metrics

def check_repeats(digests, ledger):
    """Every repetition at one seed must print the same bytes."""
    for i, digest in enumerate(digests[1:], start=1):
        if digest != digests[0]:
            ledger.fail(f"repetition {i} printed other bytes than repetition 0")


def layer_metrics(summaries, counters, nbytes, plain, traced):
    """The per-layer metrics of a traced run, per repetition."""
    metrics = {}
    first = summaries[0]
    for name in TRACED:
        calls, _, raised = first[name]
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {
            "value": statistics.median(s[name][1] for s in summaries), "unit": "s",
        }
        metrics[f"{name}.raised"] = {"value": raised, "unit": "count"}
    metrics["shotsim.clamp_ratio"] = {
        "value": counters.clamped / counters.trials if counters.trials else 0.0, "unit": "ratio",
    }
    metrics["measures.quasi_match_ratio"] = {
        "value": counters.quasi_matches / counters.reports if counters.reports else 0.0,
        "unit": "ratio",
    }
    metrics["cli.bytes_out"] = {"value": nbytes, "unit": "B"}
    metrics["trace_overhead_frac"] = {
        "value": statistics.median(traced.ref) / statistics.median(plain.ref) - 1.0,
        "unit": "ratio",
    }
    return metrics


def machine_block(seed, samples):
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
        "seed": seed,
        "samples": samples,
    }


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    with contextlib.suppress(OSError):
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    return None


def load_reference():
    return json.loads(REFERENCE_FILE.read_text())


def run(name, seed, seconds, trace, cli):
    """Measure workload `name`; (result object, run record)."""
    reference = load_reference()
    calibration = Calibration(reference["calibration_s"])
    ledger = Ledger()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "reference_calibration_s": reference["calibration_s"]}
    if not trace:
        setup_ref, setup_raw = measure_setup(calibration)
        record["setup"] = {"ref_s": setup_ref, "raw_s": setup_raw}
    rep = workloads.build(name, seed, OUT_DIR / f"{name}-{seed}")
    record["items_per_repetition"] = rep.items
    record["invocations_per_repetition"] = len(rep.invocations)
    record["default_seed_digest"] = warm_up(
        cli, name, reference["default_seed"], reference["digests"][name], ledger, OUT_DIR)

    if trace:
        span_path = OUT_DIR / f"spans-{name}-{seed}.json"
        plain, traced, summaries, counters, nbytes, digests, missing = measure_traced(
            cli, rep, calibration, ledger, seconds, span_path)
        check_repeats(digests, ledger)
        calls = [{k: v[0] for k, v in s.items()} for s in summaries]
        record["calls_repeat"] = all(c == calls[0] for c in calls)
        record["repetitions"] = {"untraced_raw_s": plain.raw, "untraced_ref_s": plain.ref,
                                 "traced_raw_s": traced.raw, "traced_ref_s": traced.ref}
        record["spans"] = str(span_path.relative_to(ROOT))
        record["untraceable"] = missing
        record["wait_s"] = 0.0  # one thread, no queue: nothing waits
        metrics = layer_metrics(summaries, counters, nbytes, plain, traced)
        samples = {"untraced": len(plain.raw), "traced": len(traced.raw)}
    else:
        timed, digests, nbytes = measure_untraced(cli, rep, calibration, ledger, seconds)
        check_repeats(digests, ledger)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rates = [rep.items / t for t in timed.ref]
        pct, tail = tail_percentile(rates, higher_is_better=True)
        record["repetitions"] = {"raw_s": timed.raw, "ref_s": timed.ref}
        record["items_per_s"] = {"median": statistics.median(rates), "tail_percentile": pct,
                                 "tail": tail, "samples": len(rates)}
        record["bytes_out_per_repetition"] = nbytes
        samples = {"repetitions": len(rates), "setup": len(setup_ref)}
        metrics = {
            "items_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "success_frac": {"value": 1.0 - ledger.failed / ledger.attempted, "unit": "ratio"},
        }
    record["machine"] = machine_block(seed, samples)
    record["calibration_s"] = calibration.samples
    record["attempted"] = ledger.attempted
    record["failed"] = ledger.failed
    record["error_frac"] = ledger.failed / ledger.attempted
    record["failures"] = ledger.reasons
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return result, record


def reference_block(cli):
    """A fresh reference.json: calibration median and default-seed digests."""
    reference = load_reference()
    calibration = Calibration(reference["calibration_s"])
    for _ in range(200):
        calibration.sample()
    digests = {}
    for name in workloads.WORKLOADS:
        ledger = Ledger()
        digests[name] = warm_up(cli, name, reference["default_seed"], None, ledger, OUT_DIR)
        if ledger.failed:
            raise SystemExit(f"{name} fails its checks: {ledger.reasons}")
    return dict(reference, calibration_s=statistics.median(calibration.samples), digests=digests)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="print a fresh reference.json for this program and host, then exit")
    args = parser.parse_args(argv)
    if not args.reference and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import spaneg.cli as cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "spaneg":
        print(f"perfbench: spaneg imported from {cli.__file__}, not from src/", file=sys.stderr)
        return 1
    if args.reference:
        print(json.dumps(reference_block(cli), indent=1))
        return 0
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), cli)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    (OUT_DIR / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0
