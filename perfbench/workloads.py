"""The benchmark's workloads: inputs made from a seed, and output checks.

A workload is a fixed list of ``spaneg`` CLI invocations, called one
repetition.  Every repetition of a workload at one seed issues the same
invocations and must print the same bytes.  Each invocation carries a check
of its exit code and standard output, written against closed forms and
numpy computations of the benchmark's own, not against spaneg code.

Workloads (one repetition each):

* ``ensemble`` -- ``random-study --count 10000``; item = state.
* ``verify``   -- ``spa-verify``; item = each of its 1000 random states and
  2 x 21 family grid points.
* ``shots``    -- ``simulate`` of the Horodecki state p = 0.8 with 100000
  shots and 20000 trials; item = trial.
* ``single``   -- 160 ``analyze`` requests; item = request.  Half name a
  family point (pure_m, horodecki, quasi, bell in turn), half a JSON state
  file; one file in four is malformed and must be rejected with exit 2.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ENSEMBLE_COUNT = 10000
VERIFY_ITEMS = 1000 + 2 * 21
SHOTS_TRIALS = 20000
SHOTS_PARAM = 0.8
SINGLE_REQUESTS = 160

# A mean over trials lies within this many standard errors of the exact
# value; at 5 sigma a correct program fails about once in 1.7 million seeds.
SHOT_SIGMAS = 5.0
INVARIANT_TOL = 1e-10
CLOSED_FORM_TOL = 1e-12
EXIT_INPUT = 2

FAMILIES = ("pure_m", "horodecki", "quasi", "bell")
# Requests cycle through CYCLE slots: one per family, then state files.
CYCLE = 8
MALFORMED_SLOT = CYCLE - 1
ENSEMBLE_HEADER = "seed_index,rank,nd,nn,mu_min,concurrence,ppt,neg_pt_eigs"

WORKLOADS = ("ensemble", "verify", "shots", "single")

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the check of its (exit code, stdout); None means passed."""

    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Repetition:
    """The invocations of one repetition and the work items they complete."""

    invocations: tuple[Invocation, ...]
    items: int


def _fmt(x: float) -> str:
    return repr(float(x))


def nn_from_nd(nd: float) -> float:
    """The universal estimator curve N^N = N^D (338 + N^D) / 339."""
    return nd * (338.0 + nd) / 339.0


def closed_form(family: str, param: float) -> tuple[float, float]:
    """(N^D, mu_min) of a family point, from the paper's closed forms."""
    if family == "bell":
        return 1.0, 1.0 / 6.0
    if family == "pure_m":
        s = math.sqrt(param * (1.0 - param))
        return 2.0 * s, 2.0 / 9.0 - s / 9.0
    nd = math.sqrt((1.0 - param) ** 2 + param**2) - (1.0 - param)
    if family == "horodecki":
        root = math.sqrt(1.0 - 2.0 * param + 2.0 * param**2)
        return nd, 5.0 / 18.0 - param / 18.0 - root / 18.0
    if family == "quasi":
        return nd, 2.0 / 9.0 - nd / 18.0
    raise ValueError(f"unknown family {family!r}")


def negativity(rho: np.ndarray) -> float:
    """N^D = 2 sum max(0, -lambda) over the spectrum of the partial transpose."""
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    lam = np.linalg.eigvalsh(pt)
    return float(2.0 * np.sum(np.maximum(0.0, -lam)))


def _json_report(rc: int, out: str):
    if rc != 0:
        return None, f"exit code {rc}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def _ensemble_check(count: int) -> Check:
    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        lines = out.split("\n")
        if lines[0] != ENSEMBLE_HEADER or lines[-1] != "" or len(lines) < 3:
            return "malformed CSV framing"
        if len(lines) - 3 != count:
            return f"{len(lines) - 3} rows, expected {count}"
        summary = lines[-2].split(",")
        if summary[0] != "# summary":
            return "missing summary line"
        fields = dict(kv.split("=", 1) for kv in summary[1:])
        tight = float(fields["max_tightness_violation"])
        universal = float(fields["max_universal_relation_violation"])
        neg = int(fields["max_neg_pt_eigs"])
        if not (tight <= INVARIANT_TOL and universal <= INVARIANT_TOL and neg <= 1):
            return f"summary violations: tightness {tight}, universal {universal}, neg {neg}"
        return None

    return check


_DEVIATION = re.compile(r"compositional vs affine max deviation \(\d+ random states\): (\S+)")


def _verify_check(rc, out):
    if rc != 0:
        return f"exit code {rc}"
    if not out.endswith("affine invariants: PASS\n"):
        return "report does not end with 'affine invariants: PASS'"
    match = _DEVIATION.search(out)
    if match is None:
        return "missing compositional deviation line"
    if not float(match.group(1)) <= INVARIANT_TOL:
        return f"compositional deviation {match.group(1)} above {INVARIANT_TOL}"
    return None


def _shots_check(trials: int) -> Check:
    nd, _ = closed_form("horodecki", SHOTS_PARAM)
    exact_nn = nn_from_nd(nd)

    def check(rc, out):
        payload, error = _json_report(rc, out)
        if error:
            return error
        if payload["trials"] != trials:
            return f"trials {payload['trials']}, expected {trials}"
        if abs(payload["exact_nn"] - exact_nn) > CLOSED_FORM_TOL:
            return f"exact_nn {payload['exact_nn']} differs from closed form {exact_nn}"
        bound = SHOT_SIGMAS * payload["std_nn"] / math.sqrt(trials)
        if not abs(payload["mean_nn"] - payload["exact_nn"]) <= bound:
            return f"mean_nn {payload['mean_nn']} off exact_nn {payload['exact_nn']} by more than {bound}"
        return None

    return check


def _family_check(nd: float, mu: float) -> Check:
    nn = nn_from_nd(nd)

    def check(rc, out):
        report, error = _json_report(rc, out)
        if error:
            return error
        got = (report["nd"], report["mu_min"], report["nn"])
        if max(abs(a - b) for a, b in zip(got, (nd, mu, nn))) > CLOSED_FORM_TOL:
            return f"(nd, mu_min, nn) = {got}, closed form {(nd, mu, nn)}"
        return None

    return check


def _state_check(nd: float) -> Check:
    def check(rc, out):
        report, error = _json_report(rc, out)
        if error:
            return error
        if abs(report["nd"] - nd) > CLOSED_FORM_TOL:
            return f"nd {report['nd']}, expected {nd}"
        if abs(report["nd"] - max(0.0, 4.0 - 18.0 * report["mu_min"])) > INVARIANT_TOL:
            return "tightness N^D = max(0, 4 - 18 mu_min) violated"
        if abs(report["nn"] - nn_from_nd(report["nd"])) > INVARIANT_TOL:
            return "universal relation N^N = N^D (338 + N^D) / 339 violated"
        return None

    return check


def _rejected_check(rc, out):
    if rc != EXIT_INPUT or out:
        return f"malformed state file: exit code {rc}, {len(out)} bytes out; expected exit {EXIT_INPUT}, no output"
    return None


def _random_state(rng) -> np.ndarray:
    rank = int(rng.integers(1, 5))
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _state_text(m: np.ndarray) -> str:
    return json.dumps({"re": m.real.tolist(), "im": m.imag.tolist()}, indent=1) + "\n"


def _malformed_text(kind: int, rho: np.ndarray) -> str:
    """Six ways a state file can be wrong; every one must exit 2."""
    if kind == 0:
        return _state_text(rho)[:40]
    if kind == 1:
        return json.dumps({"re": rho.real.tolist()}) + "\n"
    if kind == 2:
        return _state_text(rho[:3, :3])
    if kind == 3:
        skewed = rho.copy()
        skewed[0, 1] += 0.1
        return _state_text(skewed)
    if kind == 4:
        return _state_text(1.5 * rho)
    return _state_text(np.diag([0.6, 0.6, -0.2, 0.0]).astype(complex))


def _single(seed: int, workdir: Path, requests: int) -> Repetition:
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    invocations = []
    malformed = 0
    for j in range(requests):
        slot = j % CYCLE
        if slot < len(FAMILIES):
            family = FAMILIES[slot]
            param = float(rng.integers(4)) if family == "bell" else float(rng.uniform())
            argv = ("analyze", "--family", family, "--param", _fmt(param))
            invocations.append(Invocation(argv, _family_check(*closed_form(family, param))))
            continue
        rho = _random_state(rng)
        path = workdir / f"state-{j:04d}.json"
        if slot == MALFORMED_SLOT:
            path.write_text(_malformed_text(malformed % 6, rho))
            malformed += 1
            check = _rejected_check
        else:
            path.write_text(_state_text(rho))
            check = _state_check(negativity(rho))
        invocations.append(Invocation(("analyze", "--state", str(path)), check))
    return Repetition(tuple(invocations), requests)


def build(name: str, seed: int, workdir: Path, size: int | None = None) -> Repetition:
    """The repetition of workload `name` at `seed`.

    size overrides the item count (states, trials or requests) so tests can
    run a workload small; ``verify`` has a fixed size.  State files of
    ``single`` are written under workdir.
    """
    if name == "ensemble":
        count = size or ENSEMBLE_COUNT
        argv = ("random-study", "--count", str(count), "--seed", str(seed))
        return Repetition((Invocation(argv, _ensemble_check(count)),), count)
    if name == "verify":
        return Repetition((Invocation(("spa-verify", "--seed", str(seed)), _verify_check),), VERIFY_ITEMS)
    if name == "shots":
        trials = size or SHOTS_TRIALS
        argv = (
            "simulate", "--family", "horodecki", "--param", _fmt(SHOTS_PARAM),
            "--shots", "100000", "--trials", str(trials), "--seed", str(seed),
        )
        return Repetition((Invocation(argv, _shots_check(trials)),), trials)
    if name == "single":
        return _single(seed, workdir, size or SINGLE_REQUESTS)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
