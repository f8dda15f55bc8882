"""The stacked (N, 4, 4) kernels: position independence, the paper's
invariants over generated states, the boundary checks of the batched path, and
agreement of the chunked random study and SPA cross-check with their per-state
forms.

The property tests draw Ginibre stacks from hypothesis-generated seeds, sizes
and ranks (requires the `test` extra: pip install -e '.[test]'); their
settings are the profile loaded in conftest.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spaneg import cli, curves, linalg, measures, shotsim, spa, states
from spaneg.linalg import DimensionError, NotHermitianError, NotPsdError

SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.integers(1, 9)
RANKS = st.integers(1, 4)

KERNELS = {
    "partial_transpose_batch": linalg.partial_transpose_batch,
    "herm_eigen_batch": linalg.herm_eigen_batch,
    "psd_sqrt_batch": linalg.psd_sqrt_batch,
    "spa_pt_affine_batch": spa.spa_pt_affine_batch,
    "mu_min_batch": lambda s: spa.mu_min_batch(spa.spa_pt_affine_batch(s)),
    "pt_spectrum_batch": measures.pt_spectrum_batch,
    "negativity_normalized_batch": lambda s: measures.negativity_normalized_batch(
        spa.mu_min_batch(spa.spa_pt_affine_batch(s))
    ),
    "concurrence_wootters_batch": measures.concurrence_wootters_batch,
}


def ginibre(seed, n, rank=4):
    return states.random_mixed_batch(np.random.default_rng(seed), n, rank)


def as_tuple(out):
    return out if isinstance(out, tuple) else (out,)


def haar_unitary(rng):
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("name", sorted(KERNELS))
@given(seed=SEEDS, n=SIZES, rank=RANKS)
def test_kernel_output_does_not_depend_on_batch_position(name, seed, n, rank):
    kernel = KERNELS[name]
    stack = ginibre(seed, n, rank)
    full = as_tuple(kernel(stack))
    for i in range(n):
        one = as_tuple(kernel(stack[i : i + 1]))
        for f, o in zip(full, one):
            assert np.array_equal(f[i], o[0]), (name, i)


@given(seed=SEEDS, n=SIZES, rank=RANKS)
def test_batch_draw_matches_sequential_draws(seed, n, rank):
    stack = ginibre(seed, n, rank)
    rng = np.random.default_rng(seed)
    for i in range(n):
        assert np.array_equal(stack[i], states.random_mixed(rng, rank=rank).mat)


@given(seed=SEEDS, n=SIZES, rank=RANKS)
def test_nd_and_concurrence_invariant_under_local_unitaries(seed, n, rank):
    rng = np.random.default_rng(seed)
    rhos = states.random_mixed_batch(rng, n, rank)
    u = np.stack([np.kron(haar_unitary(rng), haar_unitary(rng)) for _ in range(n)])
    rotated = u @ rhos @ u.conj().swapaxes(1, 2)
    nd, _ = measures.pt_spectrum_batch(rhos)
    nd_rot, _ = measures.pt_spectrum_batch(rotated)
    assert np.abs(nd - nd_rot).max() <= 1e-12
    conc = measures.concurrence_wootters_batch(rhos)
    conc_rot = measures.concurrence_wootters_batch(rotated)
    assert np.abs(conc - conc_rot).max() <= 1e-12


@given(seed=SEEDS, n=SIZES, rank=RANKS)
def test_partial_transpose_is_a_trace_preserving_involution(seed, n, rank):
    stack = ginibre(seed, n, rank)
    pt = linalg.partial_transpose_batch(stack)
    assert np.array_equal(linalg.partial_transpose_batch(pt), stack)
    assert np.array_equal(np.trace(pt, axis1=1, axis2=2), np.trace(stack, axis1=1, axis2=2))


@given(seed=SEEDS, n=SIZES, rank=RANKS)
def test_tightness_with_at_most_one_negative_pt_eigenvalue(seed, n, rank):
    rep = measures.batch_report(ginibre(seed, n, rank))
    assert np.abs(rep.nd - np.maximum(0.0, 4.0 - 18.0 * rep.mu_min)).max() <= 1e-10
    assert rep.neg_count.max() <= 1


@given(seed=SEEDS, n=SIZES, rank=RANKS)
def test_universal_curve_and_bias_bound(seed, n, rank):
    rep = measures.batch_report(ginibre(seed, n, rank))
    assert np.abs(rep.nn - curves.nn_from_nd(rep.nd)).max() <= 1e-10
    bias = rep.nd - rep.nn
    assert np.abs(bias - measures.estimator_bias(rep.nd)).max() <= 1e-10
    assert -1e-10 <= bias.min() and bias.max() <= 1.0 / 1356.0 + 1e-10


@given(seed=SEEDS, n=SIZES, rank=RANKS)
def test_verstraete_inequality(seed, n, rank):
    rep = measures.batch_report(ginibre(seed, n, rank))
    for conc, nd in zip(rep.concurrence, rep.nd):
        assert measures.verstraete_rhs(conc) <= nd + 1e-10


@pytest.mark.parametrize("method", spa.CHOI_METHODS)
@given(seed=SEEDS, n=SIZES, rank=RANKS)
def test_superoperator_preserves_trace(method, seed, n, rank):
    stack = ginibre(seed, n, rank)
    out = (spa.superoperator(method) @ stack.reshape(-1, 16, 1)).reshape(-1, 4, 4)
    trace_in = np.trace(stack, axis1=1, axis2=2)
    assert np.abs(np.trace(out, axis1=1, axis2=2) - trace_in).max() <= 1e-12


@given(seed=SEEDS, n=SIZES, rank=RANKS)
def test_spa_channels_map_states_to_states(seed, n, rank):
    stack = ginibre(seed, n, rank)
    for out in (spa.spa_pt_affine_batch(stack), spa.spa_pt_compositional_batch(stack)):
        assert states.validate_batch(out).valid.all()


class TestBoundary:
    def test_non_hermitian_matrix_is_named(self):
        stack = ginibre(1, 5)
        stack[3, 0, 1] += 1e-3
        with pytest.raises(NotHermitianError, match="matrix 3 of 5 is not Hermitian"):
            linalg.herm_eigen_batch(stack)
        with pytest.raises(NotHermitianError, match="matrix 3 of 5"):
            measures.concurrence_wootters_batch(stack)
        with pytest.raises(NotHermitianError, match="matrix 3 of 5"):
            measures.batch_report(stack)

    def test_first_offending_index_is_named(self):
        stack = ginibre(2, 6)
        stack[4, 1, 2] += 1e-3
        stack[2, 0, 3] += 1e-3
        with pytest.raises(NotHermitianError, match="matrix 2 of 6"):
            linalg.herm_eigen_batch(stack)

    def test_non_psd_matrix_is_named(self):
        stack = ginibre(3, 5)
        stack[2] = np.diag([0.5, 0.3, 0.2 + 1e-6, -1e-6])
        with pytest.raises(NotPsdError, match="matrix 2 of 5 is not PSD"):
            linalg.psd_sqrt_batch(stack)
        with pytest.raises(NotPsdError, match="matrix 2 of 5"):
            measures.concurrence_wootters_batch(stack)

    def test_random_study_reports_the_index_and_exits_2(self, monkeypatch, capsys):
        real_draw = states.random_mixed_batch

        def draw(rng, count, rank=4):
            stack = real_draw(rng, count, rank)
            stack[1] = np.diag([0.5, 0.3, 0.2 + 1e-6, -1e-6])
            return stack

        monkeypatch.setattr(states, "random_mixed_batch", draw)
        assert cli.run(["random-study", "--count", "3"]) == 2
        assert "matrix 1 of 3 is not PSD" in capsys.readouterr().err

    def test_clamped_eigenvalue_passes(self):
        stack = ginibre(3, 2)
        stack[1] = np.diag([0.5, 0.3, 0.2 + 1e-11, -1e-11])
        root = linalg.psd_sqrt_batch(stack)
        assert root[1, 3, 3] == 0.0

    @pytest.mark.parametrize("bad", [0.3, 0.1, np.nan])
    def test_out_of_range_mu_is_named(self, bad):
        mu = np.full(6, 0.2)
        mu[4] = bad
        with pytest.raises(ValueError, match="at index 4 outside"):
            measures.negativity_normalized_batch(mu)

    def test_scalar_mu_message_has_no_index(self):
        with pytest.raises(ValueError, match=r"^mu_min 0.3 outside \[1/6, 1/4\]$"):
            measures.negativity_normalized(0.3)

    def test_invalid_compositional_output_is_named(self, monkeypatch):
        real = spa.superoperator("compositional")
        monkeypatch.setattr(spa, "superoperator", lambda method: 1.01 * real)
        with pytest.raises(spa.ConstructionInconsistencyError,
                           match="compositional SPA output 0 of 3 is not a valid state"):
            spa.spa_pt_compositional_batch(ginibre(4, 3))

    def test_spa_verify_exits_3_on_invalid_compositional_output(self, monkeypatch, capsys):
        real = spa.superoperator("compositional")
        monkeypatch.setattr(spa, "superoperator", lambda method: 1.01 * real)
        assert cli.run(["spa-verify"]) == 3
        err = capsys.readouterr().err
        assert "compositional SPA output 0 of 256" in err
        assert "trace deviates from 1 by 1.000e-02" in err

    def test_per_state_dimension_errors_unchanged(self):
        with pytest.raises(DimensionError, match="expected dimension in \\(4,\\), got 3"):
            linalg.partial_transpose_b(np.eye(3))
        with pytest.raises(DimensionError, match="expected a square matrix, got shape \\(4, 3\\)"):
            linalg.herm_eigen(np.ones((4, 3)))
        with pytest.raises(DimensionError, match="expected a square matrix"):
            linalg.psd_sqrt(np.eye(4)[None])

    def test_batch_dimension_errors(self):
        with pytest.raises(DimensionError, match="stack of square matrices"):
            linalg.partial_transpose_batch(np.eye(4))
        with pytest.raises(DimensionError, match="expected dimension in \\(4,\\), got 3"):
            linalg.partial_transpose_batch(np.zeros((2, 3, 3)))
        with pytest.raises(DimensionError):
            measures.concurrence_wootters_batch(np.zeros((2, 4, 3)))


def test_random_study_rows_match_per_state_reports():
    count = cli.STUDY_CHUNK + 7
    rows, summary = cli.random_study_rows(count, seed=13, rank=3)
    rng = np.random.default_rng(13)
    for i, row in enumerate(rows):
        rho = states.random_mixed(rng, rank=3)
        rep = measures.full_report(rho)
        expected = (i, 3, rep.nd, rep.nn, rep.mu_min, rep.concurrence, rep.ppt,
                    measures.pt_negative_count(rho))
        assert row == expected
        assert [type(x) for x in row] == [type(x) for x in expected]
    assert summary["max_neg_pt_eigs"] <= 1


def per_state_residuals(seed, n_states):
    """The per-state loop spa-verify ran before it was chunked: alternating
    random_mixed / random_pure draws, the partial transpose built twice."""
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    max_trace_rel = 0.0
    for _ in range(n_states):
        rho = states.random_mixed(rng)
        affine = spa.spa_pt_affine(rho)
        comp = spa.spa_pt_compositional(rho)
        max_dev = max(max_dev, float(np.abs(affine.rho_tilde.mat - comp.rho_tilde.mat).max()))
        phi = states.random_pure(rng).mat
        lhs = np.trace(phi @ np.asarray(spa.partial_transpose_b(rho.mat))).real
        rhs = 9.0 * np.trace(phi @ affine.rho_tilde.mat).real - 2.0
        max_trace_rel = max(max_trace_rel, abs(lhs - rhs))
    return max_dev, max_trace_rel


@pytest.mark.parametrize("n_states", [1, cli.STUDY_CHUNK - 1, cli.STUDY_CHUNK,
                                      cli.STUDY_CHUNK + 1, 1000])
@settings(max_examples=4)
@given(seed=SEEDS)
def test_spa_verify_matches_per_state_loop(n_states, seed):
    expected = per_state_residuals(seed, n_states)
    assert cli.random_pair_residuals(seed, n_states) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "random_pair_residuals", lambda seed, n: expected)
        oracle = cli.spa_verify_report(seed=seed, n_states=n_states)
    assert cli.spa_verify_report(seed=seed, n_states=n_states) == oracle


@pytest.mark.parametrize("shots", [1, 1000])
def test_estimate_matches_per_trial_scalar_path(shots):
    rho = states.family_horodecki(0.8)
    trials = 40
    est = shotsim.estimate_negativity(rho, shots, trials, 5)
    f_true = measures.favg_from_mu(spa.spa_pt_affine(rho).mu_min)
    nn, clamped = [], 0
    for i in range(trials):
        favg = float(np.random.default_rng(5 + i).binomial(shots, f_true)) / shots
        mu_raw = 15.0 * favg / 8.0 - 47.0 / 72.0
        mu = min(max(mu_raw, spa.MU_MIN_LO), spa.MU_MIN_HI)
        clamped += mu != mu_raw
        nn.append(measures.negativity_normalized(mu))
    assert est.clamp_count == clamped
    assert est.mean_nn == float(np.mean(nn))
    assert est.nn_hat == nn[0]
    if shots == 1:
        # One shot gives F_avg in {0, 1}, far outside the range: every trial clamps.
        assert est.clamp_count == trials
