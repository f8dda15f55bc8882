"""Tests of the benchmark itself: tracer arithmetic, restoration, inputs, checks."""

import itertools
import time

import pytest

import spaneg
from spaneg import cli, measures, shotsim, spa, states

from perfbench import bench, workloads
from perfbench.tracer import Tracer, self_times

TINY = {"ensemble": 40, "verify": None, "shots": 50, "single": 24}


class _ScriptedClock:
    """Returns 0, 1, 2, ... on successive calls."""

    def __init__(self):
        self._ticks = itertools.count()

    def __call__(self):
        return float(next(self._ticks))


def test_self_times_subtract_child_spans():
    # outer [0, 10] holds inner [1, 3] and inner [4, 8]; inner [4, 8] holds leaf [5, 6].
    names = [0, 1, 1, 2]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    assert self_times(names, parents, starts, ends, 3) == [4.0, 5.0, 1.0]


def test_tracer_records_nested_calls(monkeypatch):
    def inner(x):
        return x + 1

    def outer(x):
        return spa.inner_probe(x) * 2

    monkeypatch.setattr(spa, "inner_probe", inner, raising=False)
    monkeypatch.setattr(spa, "outer_probe", outer, raising=False)
    clock = _ScriptedClock()
    with Tracer(["spa.outer_probe", "spa.inner_probe"], clock=clock) as tracer:
        assert spa.outer_probe(1) == 4
    # Clock reads: outer start 0, inner start 1, inner end 2, outer end 3.
    assert tracer.parents == [-1, 0]
    assert tracer.summary() == {"spa.outer_probe": (1, 2.0, 0), "spa.inner_probe": (1, 1.0, 0)}


def test_tracer_counts_raised_and_observes_returns():
    seen = []
    with Tracer(["states.validate", "measures.full_report"],
                observers={"measures.full_report": seen.append}) as tracer:
        with pytest.raises(states.StateValidationError):
            states.validate([[1.0]])
        measures.full_report(states.bell_state(0))
    summary = tracer.summary()
    assert summary["states.validate"][2] == 1
    assert summary["measures.full_report"][:1] == (1,)
    assert len(seen) == 1 and seen[0].nd == pytest.approx(1.0)


def test_tracer_patches_from_imports_and_restores_originals():
    originals = {
        (m, name): getattr(m, name)
        for m in (spaneg, cli, measures, shotsim, spa, states)
        for name in ("spa_pt_affine", "partial_transpose_b", "kron", "validate", "run")
        if hasattr(m, name)
    }
    with Tracer(bench.TRACED) as tracer:
        for (m, name), original in originals.items():
            assert getattr(m, name) is not original, f"{m.__name__}.{name} not patched"
        cli.run(["analyze", "--family", "horodecki", "--param", "0.5"])
    for (m, name), original in originals.items():
        assert getattr(m, name) is original, f"{m.__name__}.{name} not restored"
    summary = tracer.summary()
    # full_report reaches spa_pt_affine through measures' own binding.
    assert summary["spa.spa_pt_affine"][0] == 1
    assert summary["measures.full_report"][0] == 1


def test_tracer_lists_targets_the_package_lacks():
    with Tracer(["spa.no_such_function", "spa.spa_pt_affine"]) as tracer:
        spa.spa_pt_affine(states.bell_state(1))
    assert tracer.missing == ["spa.no_such_function"]
    assert tracer.summary()["spa.no_such_function"] == (0, 0.0, 0)


def test_calibration_samples_during_a_block_and_leaves_them_out_of_its_clock():
    calibration = bench.Calibration(reference_s=1.0)
    wall0, clock0 = time.perf_counter(), calibration.clock()
    with calibration.during() as first:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    wall, net = time.perf_counter() - wall0, calibration.clock() - clock0
    assert first == 0 and len(calibration.samples) >= 4  # before, after and timer samples
    assert net == pytest.approx(wall - sum(calibration.samples), abs=1e-3)
    assert calibration.factor(first) == pytest.approx(
        sum(1.0 / c for c in calibration.samples) / len(calibration.samples))


def test_tail_percentile_leaves_ten_samples_beyond():
    rates = list(range(1, 21))
    assert bench.tail_percentile(rates, higher_is_better=True) == (50, 11)
    assert bench.tail_percentile(rates[:10], higher_is_better=True) == (None, None)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name, tmp_path):
    def inputs(seed, sub):
        rep = workloads.build(name, seed, tmp_path / sub, TINY[name])
        files = sorted((tmp_path / sub).glob("*.json"))
        return [inv.argv for inv in rep.invocations if "--state" not in inv.argv], [
            f.read_text() for f in files
        ]

    assert inputs(5, "a") == inputs(5, "b")
    assert inputs(5, "a") != inputs(6, "c")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_small_with_every_check_passing(name, tmp_path):
    rep = workloads.build(name, 3, tmp_path, TINY[name])
    ledger = bench.Ledger()
    _, first, _ = bench.run_repetition(cli, rep, ledger)
    _, second, _ = bench.run_repetition(cli, rep, ledger)
    assert ledger.reasons == []
    assert ledger.failed == 0 and ledger.attempted == 2 * len(rep.invocations)
    assert first == second


def test_checks_reject_wrong_outputs(tmp_path):
    rep = workloads.build("single", 3, tmp_path, 8)
    family, state_file, malformed = rep.invocations[1], rep.invocations[4], rep.invocations[7]
    assert family.check(0, '{"nd": 0.5, "mu_min": 0.2, "nn": 0.5}') is not None
    assert state_file.check(3, "") is not None
    assert malformed.check(0, "{}") is not None
    assert malformed.check(2, "") is None


@pytest.mark.parametrize("name", ["ensemble", "single"])
def test_traced_call_counts_repeat(name, tmp_path):
    rep = workloads.build(name, 4, tmp_path, TINY[name])

    def calls():
        with Tracer(bench.TRACED) as tracer:
            bench.run_repetition(cli, rep, bench.Ledger())
        return {k: (c, r) for k, (c, _, r) in tracer.summary().items()}

    first = calls()
    assert first == calls()
    assert first["cli.run"][0] == len(rep.invocations)
