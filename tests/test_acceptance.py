"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The large random ensemble is generated once and shared.
"""

import time

import numpy as np
import pytest

from spaneg import cli, measures, shotsim, spa, states
from spaneg.linalg import partial_transpose_b

ENSEMBLE_SIZE = 100_000
PURE_ENSEMBLE_SIZE = 10_000
ENSEMBLE_SEED = 20260824
ENSEMBLE_CHUNK = 10_000


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def ensemble():
    """Per-state quantities over the shared random mixed ensemble.

    The batched kernels measure and validate ENSEMBLE_CHUNK states at a time;
    invalid_tilde counts the SPA-PT outputs that fail state validation.
    """
    rng = np.random.default_rng(ENSEMBLE_SEED)
    reports = []
    invalid_tilde = 0
    t0 = time.perf_counter()
    for start in range(0, ENSEMBLE_SIZE, ENSEMBLE_CHUNK):
        rhos = states.random_mixed_batch(rng, min(ENSEMBLE_CHUNK, ENSEMBLE_SIZE - start))
        reports.append(measures.batch_report(rhos))
        valid = states.validate_batch(spa.spa_pt_affine_batch(rhos)).valid
        invalid_tilde += int(np.count_nonzero(~valid))
    elapsed = time.perf_counter() - t0

    def joined(field):
        return np.concatenate([getattr(r, field) for r in reports])

    return dict(
        nd=joined("nd"), mu=joined("mu_min"), nn=joined("nn"), conc=joined("concurrence"),
        neg_count=joined("neg_count"), invalid_tilde=invalid_tilde, elapsed=elapsed,
    )


@pytest.fixture(scope="module")
def pure_ensemble():
    """(N^D, C) of PURE_ENSEMBLE_SIZE random pure states, drawn and measured
    as one stack: the states of that many sequential random_pure draws."""
    rhos = states.random_pure_batch(np.random.default_rng(ENSEMBLE_SEED + 1), PURE_ENSEMBLE_SIZE)
    return measures.pt_spectrum_batch(rhos)[0], measures.concurrence_wootters_batch(rhos)


def test_criterion_1_figure1_pure_family():
    t0 = time.perf_counter()
    rows = [row for chunk in cli.sweep_rows("pure_m", 101) for row in chunk]
    elapsed = time.perf_counter() - t0
    max_nd = max(abs(r[1] - r[2]) for r in rows)
    max_nn = max(abs(r[4] - r[5]) for r in rows)
    max_gap = max(r[6] for r in rows)
    ok = max_nd <= 1e-12 and max_nn <= 1e-12 and max_gap <= 7.4e-4 and elapsed < 1.0
    report(
        1, ok,
        f"pure_m sweep: |nd-closed|={max_nd:.2e}, |nn-closed|={max_nn:.2e}, "
        f"max gap={max_gap:.2e} (<=7.4e-4), {elapsed:.2f}s",
    )


def test_criterion_2_figure2_horodecki_family():
    t0 = time.perf_counter()
    rows = [row for chunk in cli.sweep_rows("horodecki", 101) for row in chunk]
    elapsed = time.perf_counter() - t0
    max_nd = max(abs(r[1] - r[2]) for r in rows)
    max_nn = max(abs(r[4] - r[5]) for r in rows)
    max_mu = max(
        abs(r[3] - (5 / 18 - r[0] / 18 - np.sqrt(1 - 2 * r[0] + 2 * r[0] ** 2) / 18))
        for r in rows
    )
    ok = max_nd <= 1e-12 and max_nn <= 1e-12 and max_mu <= 1e-12 and elapsed < 1.0
    report(
        2, ok,
        f"horodecki sweep: |nd-closed|={max_nd:.2e}, |nn-closed|={max_nn:.2e}, "
        f"|mu-closed|={max_mu:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_endpoint_calibration():
    bell = measures.full_report(states.bell_state(0))
    mixed = measures.full_report(states.validate(np.eye(4) / 4))
    ok = (
        abs(bell.mu_min - 1 / 6) <= 1e-12
        and abs(bell.nn - 1) <= 1e-12
        and abs(bell.nd - 1) <= 1e-12
        and abs(bell.concurrence - 1) <= 1e-12
        and abs(mixed.mu_min - 0.25) <= 1e-12
        and mixed.nd == 0 and mixed.nn == 0 and mixed.concurrence == 0
    )
    report(
        3, ok,
        f"bell mu={bell.mu_min:.15f} nn={bell.nn:.15f} C={bell.concurrence:.15f}; "
        f"mixed mu={mixed.mu_min:.15f} all-zero={mixed.nd == mixed.nn == mixed.concurrence == 0}",
    )


def test_criterion_4_tightness_identity(ensemble):
    viol = np.abs(ensemble["nd"] - np.maximum(0.0, 4.0 - 18.0 * ensemble["mu"])).max()
    max_neg = int(ensemble["neg_count"].max())
    ok = viol <= 1e-10 and max_neg <= 1 and ensemble["elapsed"] < 60.0
    report(
        4, ok,
        f"{ENSEMBLE_SIZE} states: max tightness violation {viol:.2e}, "
        f"max PT negatives {max_neg}, ensemble pass {ensemble['elapsed']:.1f}s",
    )


def test_criterion_5_universal_estimator_relation(ensemble):
    nd = ensemble["nd"]
    viol = np.abs(ensemble["nn"] - nd * (338.0 + nd) / 339.0).max()
    report(5, viol <= 1e-10, f"max |nn - nd(338+nd)/339| = {viol:.2e}")


def test_criterion_6_spa_channel_integrity(ensemble):
    rng = np.random.default_rng(99)
    max_trace = 0.0
    for _ in range(1000):
        rho = states.random_mixed(rng)
        p = states.random_pure(rng).mat
        lhs = np.trace(p @ partial_transpose_b(rho.mat)).real
        rhs = 9 * np.trace(p @ spa.spa_pt_affine(rho).rho_tilde.mat).real - 2
        max_trace = max(max_trace, abs(lhs - rhs))
    _, affine_cp, affine_min = spa.choi_matrix("affine")
    _, pt_cp, pt_min = spa.choi_matrix("pt")
    ok = (
        ensemble["invalid_tilde"] == 0
        and max_trace <= 1e-10
        and affine_min >= -1e-12
        and not pt_cp
    )
    report(
        6, ok,
        f"invalid rho_tilde {ensemble['invalid_tilde']}/{ENSEMBLE_SIZE}, "
        f"trace relation {max_trace:.2e}, affine Choi min {affine_min:.2e}, "
        f"PT Choi min {pt_min:.2e} (non-PSD)",
    )


def test_criterion_7_compositional_cross_check():
    text1, ok1 = cli.spa_verify_report(seed=1, n_states=200)
    text2, ok2 = cli.spa_verify_report(seed=2, n_states=200)
    dev1 = float(text1.split("max deviation (200 random states): ")[1].split("\n")[0])
    dev2 = float(text2.split("max deviation (200 random states): ")[1].split("\n")[0])
    povm = spa.COMPLETENESS_RESIDUAL
    ok = ok1 and ok2 and dev1 <= 1e-10 and dev2 <= 1e-10
    report(
        7, ok,
        f"compositional-vs-affine deviation {max(dev1, dev2):.2e} <= 1e-10 "
        f"(tetrahedral constants verified, POVM residual {povm:.2e}), stable across seeds",
    )


def test_criterion_8_concurrence_suite(ensemble, pure_ensemble):
    grid = np.linspace(0, 1, 11)
    quasi_dev = max(
        abs(measures.concurrence_wootters(states.family_quasi(float(c))) - c) for c in grid
    )
    pure_nd, pure_conc = pure_ensemble
    pure_dev = np.abs(pure_conc - pure_nd).max()
    verstraete_viol = max(
        0.0,
        float(
            np.max(
                [measures.verstraete_rhs(c) - n for c, n in zip(ensemble["conc"], ensemble["nd"])]
            )
        ),
    )
    quasi_eq_dev = max(
        abs(
            measures.negativity_exact(states.family_quasi(float(c)))
            - measures.verstraete_rhs(float(c))
        )
        for c in grid
    )
    round_trip = max(
        abs(measures.concurrence_quasi(measures.verstraete_rhs(float(c))) - c) for c in grid
    )
    ok = (
        quasi_dev <= 1e-10
        and pure_dev <= 1e-9
        and verstraete_viol <= 1e-10
        and quasi_eq_dev <= 1e-10
        and round_trip <= 1e-12
    )
    report(
        8, ok,
        f"quasi grid C dev {quasi_dev:.2e}, pure C=N dev {pure_dev:.2e}, "
        f"Verstraete violation {verstraete_viol:.2e}, quasi equality {quasi_eq_dev:.2e}, "
        f"round-trip {round_trip:.2e}",
    )


def test_criterion_9_shot_noise_protocol():
    t0 = time.perf_counter()
    rho = states.family_horodecki(0.8)
    exact = measures.negativity_normalized(spa.spa_pt_affine(rho).mu_min)
    est = shotsim.estimate_negativity(rho, 10**5, 200, 42)
    est4 = shotsim.estimate_negativity(rho, 4 * 10**5, 200, 1042)
    elapsed = time.perf_counter() - t0
    dev = abs(est.mean_nn - exact)
    bound = 3 * est.std_nn / np.sqrt(200)
    ratio = est.std_nn / est4.std_nn
    ok = dev <= bound and 1.5 <= ratio <= 2.5 and elapsed < 10.0
    report(
        9, ok,
        f"|mean-exact|={dev:.2e} <= {bound:.2e}, std ratio 1x/4x shots {ratio:.2f} "
        f"in [1.5, 2.5], {elapsed:.2f}s",
    )


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        files = {
            "sweep": tmp_path / f"sweep_{tag}.csv",
            "study": tmp_path / f"study_{tag}.csv",
            "sim": tmp_path / f"sim_{tag}.json",
        }
        assert cli.run(["sweep", "--family", "pure_m", "--points", "51",
                        "--out", str(files["sweep"])]) == 0
        assert cli.run(["random-study", "--count", "200", "--seed", "7",
                        "--out", str(files["study"])]) == 0
        assert cli.run(["simulate", "--family", "horodecki", "--param", "0.8",
                        "--shots", "10000", "--trials", "50", "--seed", "7",
                        "--out", str(files["sim"])]) == 0
        outputs.append({k: p.read_bytes() for k, p in files.items()})
    ok = outputs[0] == outputs[1]
    report(10, ok, "sweep/random-study/simulate outputs byte-identical across reruns")
