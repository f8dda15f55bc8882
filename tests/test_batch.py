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
# Stacks of one row and around one STUDY_CHUNK.
ROWS = st.sampled_from([1, 255, 256, 257])
SCALES = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)

KERNELS = {
    "partial_transpose_batch": linalg.partial_transpose_batch,
    "herm_eigen_batch": linalg.herm_eigen_batch,
    "psd_sqrt_batch": linalg.psd_sqrt_batch,
    "spa_pt_affine_batch": spa.spa_pt_affine_batch,
    "spa_pt_paper_entries_batch": spa.spa_pt_paper_entries_batch,
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


def inline_pure(v):
    """|w><w| with w = v / |v| renormalised, as random_pure built it per state."""
    w = v / np.linalg.norm(v)
    w = w / np.linalg.norm(w)
    return np.outer(w, w.conj())


@given(seed=SEEDS, n=ROWS, scale=SCALES)
def test_pure_from_vectors_matches_per_vector_formula(seed, n, scale):
    x = np.random.default_rng(seed).standard_normal((n, 2, 4)) * scale
    v = x[:, 0] + 1j * x[:, 1]
    norms = states.row_norm(v)
    phis = states.pure_from_vectors(v / norms[:, None])
    for i in range(n):
        assert norms[i] == np.linalg.norm(v[i])
        assert np.array_equal(phis[i], inline_pure(v[i]))


@given(seed=SEEDS, n=ROWS)
def test_random_pure_batch_matches_sequential_draws(seed, n):
    stack = states.random_pure_batch(np.random.default_rng(seed), n)
    rng = np.random.default_rng(seed)
    for i in range(n):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.array_equal(stack[i], inline_pure(v))


def inline_paper_entries(t):
    """The published per-entry SPA-PT formulas, entry by entry for one matrix."""
    e = np.zeros((4, 4), dtype=complex)
    e[0, 0] = (2 + t[0, 0]) / 9
    e[0, 1] = (-1j * t[0, 1] + np.conj(t[0, 1])) / 9
    e[0, 2] = (t[0, 2] - 1j * (np.conj(t[0, 2]) + np.conj(t[1, 3]))) / 9
    e[0, 3] = (-1j * t[0, 3] + t[1, 2]) / 9
    e[1, 1] = (2 + t[1, 1]) / 9
    e[1, 2] = (t[0, 3] + 1j * t[1, 2]) / 9
    e[1, 3] = -1j * (np.conj(t[0, 2]) + np.conj(t[1, 3])) / 9
    e[2, 2] = (2 + t[2, 2]) / 9
    e[2, 3] = (-1j * t[2, 3] + np.conj(t[2, 3])) / 9
    e[3, 3] = (2 + t[3, 3]) / 9
    for i in range(4):
        for j in range(i):
            e[i, j] = np.conj(e[j, i])
    return e


@given(seed=SEEDS, n=SIZES, rank=RANKS)
def test_paper_entries_batch_matches_per_state_formulas(seed, n, rank):
    stack = ginibre(seed, n, rank)
    batch = spa.spa_pt_paper_entries_batch(stack)
    for i in range(n):
        one = spa.spa_pt_paper_entries(states.DensityMatrix(mat=stack[i])).rho_tilde.mat
        assert batch[i].tobytes() == one.tobytes() == inline_paper_entries(stack[i]).tobytes()


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

    def test_hermiticity_guard_keeps_its_message(self):
        # The text herm_eigen_batch raised when it carried the check itself.
        stack = ginibre(4, 3)
        stack[1, 2, 0] += 1e-6
        defect = float(np.abs(stack[1] - stack[1].conj().T).max())
        message = f"matrix 1 of 3 is not Hermitian: max asymmetry {defect:.3e} exceeds 1e-09"
        for check in (linalg.check_hermitian, linalg.herm_eigen_batch):
            with pytest.raises(NotHermitianError) as raised:
                check(stack)
            assert str(raised.value) == message
        linalg.check_hermitian(ginibre(4, 3))

    def test_literal_grid_guards_the_affine_outputs(self, monkeypatch):
        affine_batch = spa.spa_pt_affine_batch

        def skewed(rhos):
            out = affine_batch(rhos)
            out[7, 0, 3] += 1e-6
            return out

        monkeypatch.setattr(spa, "spa_pt_affine_batch", skewed)
        monkeypatch.setattr(spa, "mu_min_batch", None)  # the guard needs no eigensolve
        with pytest.raises(NotHermitianError, match="matrix 7 of 21 is not Hermitian"):
            cli._literal_grid_deviations("horodecki", curves.mu_horodecki, 21)

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

    def test_first_bad_vector_is_named(self):
        v = np.tile(np.eye(4, dtype=complex)[0], (5, 1))
        v[3] *= 2.0
        with pytest.raises(ValueError, match=r"^vector 3 of 5: vector norm 2.000000 deviates"):
            states.pure_from_vectors(v)
        v[1] = 0.0
        with pytest.raises(ValueError, match=r"^vector 1 of 5: zero vector"):
            states.pure_from_vectors(v)
        with pytest.raises(ValueError, match=r"^zero vector cannot define a pure state$"):
            states.pure_from_vector(np.zeros(4))
        with pytest.raises(ValueError, match=r"^vector norm nan deviates"):
            states.pure_from_vector([np.nan, 0, 0, 0])
        assert states.pure_from_vectors(np.zeros((0, 4))).shape == (0, 4, 4)
        with pytest.raises(ValueError, match=r"is not \(N, 4\)"):
            states.pure_from_vectors(np.ones(4))

    def test_per_state_dimension_errors_unchanged(self):
        with pytest.raises(DimensionError, match="expected dimension in \\(4,\\), got 3"):
            linalg.partial_transpose_b(np.eye(3))
        with pytest.raises(DimensionError, match="expected a square matrix, got shape \\(4, 3\\)"):
            linalg.partial_transpose_b(np.ones((4, 3)))
        with pytest.raises(DimensionError, match="expected a square matrix"):
            linalg.partial_transpose_b(np.eye(4)[None])

    def test_batch_dimension_errors(self):
        with pytest.raises(DimensionError, match="stack of square matrices"):
            linalg.partial_transpose_batch(np.eye(4))
        with pytest.raises(DimensionError, match="expected dimension in \\(4,\\), got 3"):
            linalg.partial_transpose_batch(np.zeros((2, 3, 3)))
        with pytest.raises(DimensionError):
            measures.concurrence_wootters_batch(np.zeros((2, 4, 3)))


def test_random_study_rows_match_per_state_reports():
    count = cli.STUDY_CHUNK + 7
    chunks = list(cli.random_study_rows(count, seed=13, rank=3))
    assert [len(rows) for rows, _ in chunks] == [cli.STUDY_CHUNK, 7]
    rows = [row for chunk, _ in chunks for row in chunk]
    summary = chunks[-1][1]
    rng = np.random.default_rng(13)
    for i, row in enumerate(rows):
        rho = states.random_mixed(rng, rank=3)
        rep = measures.full_report(rho)
        lam = np.linalg.eigvalsh(linalg.partial_transpose_b(rho.mat))
        neg = int((lam < -linalg.RESIDUAL_TOL).sum())
        expected = (i, 3, rep.nd, rep.nn, rep.mu_min, rep.concurrence, rep.ppt, neg)
        assert row == expected
        assert [type(x) for x in row] == [type(x) for x in expected]
    assert summary["max_neg_pt_eigs"] <= 1


@pytest.mark.parametrize("family", sorted(curves.ND_CLOSED))
def test_sweep_rows_match_per_state_loop(family):
    # Two full chunks and a partial one; the per-point loop sweep_rows ran
    # before it was stacked is the oracle, types included.
    points = 2 * cli.STUDY_CHUNK + 5
    rows = [row for chunk in cli.sweep_rows(family, points) for row in chunk]
    assert len(rows) == points
    for row, value in zip(rows, np.linspace(0.0, 1.0, points)):
        rho = states.from_spec(family, float(value))
        nd = measures.negativity_exact(rho)
        mu = spa.spa_pt_affine(rho).mu_min
        nn = measures.negativity_normalized(mu)
        nd_cf = curves.ND_CLOSED[family](float(value))
        expected = (float(value), nd, nd_cf, mu, nn, curves.NN_CLOSED[family](nd_cf), abs(nn - nd))
        assert row == expected
        assert [type(x) for x in row] == [type(x) for x in expected]


def per_state_residuals(seed, n_states):
    """The per-state loop spa-verify ran before it was chunked: alternating
    random_mixed / random_pure draws, the partial transpose built twice.  The
    pure state is built inline, independent of the stacked states code."""
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    max_trace_rel = 0.0
    for _ in range(n_states):
        rho = states.random_mixed(rng)
        affine = spa.spa_pt_affine(rho)
        comp = spa.spa_pt_compositional(rho)
        max_dev = max(max_dev, float(np.abs(affine.rho_tilde.mat - comp.rho_tilde.mat).max()))
        phi = inline_pure(rng.standard_normal(4) + 1j * rng.standard_normal(4))
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


def per_point_literal_grid(family, mu_cf, grid):
    """The per-point family loop spa-verify ran before its grids were stacked."""
    max_lit = 0.0
    max_mu = 0.0
    for value in np.linspace(0.0, 1.0, grid):
        rho = states.from_spec(family, float(value))
        literal = spa.spa_pt_paper_entries(rho)
        affine = spa.spa_pt_affine(rho)
        max_lit = max(max_lit, float(np.abs(literal.rho_tilde.mat - affine.rho_tilde.mat).max()))
        max_mu = max(max_mu, abs(literal.mu_min - mu_cf(float(value))))
    return max_lit, max_mu


@pytest.mark.parametrize("grid", [2, 21, 101])
def test_spa_verify_grids_match_per_point_loop(grid):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "random_pair_residuals", lambda seed, n: (0.0, 0.0))
        stacked = cli.spa_verify_report(grid=grid)
        mp.setattr(cli, "_literal_grid_deviations", per_point_literal_grid)
        assert cli.spa_verify_report(grid=grid) == stacked


def test_spa_verify_runs_no_per_state_path(monkeypatch):
    expected = cli.spa_verify_report(seed=1)

    def refuse(*args, **kwargs):
        raise AssertionError("spa-verify reached a per-state function")

    for module, name in [(states, "pure_from_vector"), (states, "random_pure"),
                         (states, "validate"), (states, "from_spec"),
                         (spa, "spa_pt_paper_entries"), (spa, "spa_pt_affine")]:
        monkeypatch.setattr(module, name, refuse)
    assert cli.spa_verify_report(seed=1) == expected


def test_spa_verify_makes_no_validation_eigensolve(monkeypatch):
    # Every compositional output is cleared by its Gershgorin discs; the only
    # eigvalsh calls are the four 16x16 Choi matrices, and those are cached.
    spa.choi_matrix.cache_clear()
    shapes = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(np.shape(m)) or real(m))
    cold = cli.spa_verify_report(seed=1)
    assert shapes == [(16, 16)] * 4
    shapes.clear()
    assert cli.spa_verify_report(seed=1) == cold
    assert shapes == []


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
