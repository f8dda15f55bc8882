import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spaneg import linalg, measures, spa, states
from spaneg.linalg import PSD_CLAMP, VALIDATE_TOL, first_index
from spaneg.states import (
    FAMILIES,
    StateValidationError,
    bell_state,
    family_batch,
    from_spec,
    load_state,
    pure_from_vectors,
    random_mixed_batch,
    random_pure_batch,
    save_state,
    validate,
    validate_batch,
)

# The three parametric families, with test ids named after the per-family
# constructors they replaced.
KINDS = [kind for kind in FAMILIES if kind != "bell"]
KIND_IDS = [f"family_{kind}" for kind in KINDS]


class TestValidate:
    def test_accepts_maximally_mixed(self):
        validate(np.eye(4) / 4)

    def test_rejects_with_all_violations_listed(self):
        with pytest.raises(StateValidationError) as exc:
            validate(np.diag([0.5, 0.6, 0.0, -0.2]))
        msgs = exc.value.violations
        assert any("trace" in v for v in msgs)
        assert any("PSD" in v for v in msgs)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(StateValidationError, match="Hermitian"):
            validate(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_before_eigensolve(self, bad):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = bad
        with pytest.raises(StateValidationError, match="non-finite entries: 1 of 16") as exc:
            validate(m)
        assert len(exc.value.violations) == 1

    @pytest.mark.filterwarnings("error")
    def test_batch_flags_each_matrix(self):
        stack = np.stack([np.eye(4) / 4] * 5).astype(complex)
        stack[1, 0, 1] = 0.1
        stack[2] = np.diag([0.5, 0.6, 0.0, -0.2])
        stack[3, 2, 2] = np.inf
        check = states.validate_batch(stack)
        assert check.valid.tolist() == [True, False, False, False, True]
        assert check.violations(0) == [] and check.violations(4) == []
        for i in (1, 2):
            with pytest.raises(StateValidationError) as exc:
                validate(stack[i])
            assert check.violations(i) == exc.value.violations
        assert check.violations(3) == ["non-finite entries: 1 of 16"]

    def test_batch_skips_the_eigensolve_of_non_finite_matrices(self, monkeypatch):
        solved = []
        real = linalg.eigvalsh
        monkeypatch.setattr(linalg, "eigvalsh", lambda m: solved.append(len(m)) or real(m))
        # I/4 is cleared by its Gershgorin discs, so nothing is diagonalized.
        stack = np.stack([np.eye(4) / 4] * 3).astype(complex)
        stack[1, 0, 0] = np.nan
        check = states.validate_batch(stack)
        assert solved == []
        assert np.isnan(check.min_eigenvalue[1]) and check.min_eigenvalue[0] == 0.25
        # Pure projectors with spread amplitudes are not cleared: the finite
        # two are diagonalized together, the NaN one is not.
        vectors = np.array([[1, 1, 1, 1], [1, 1j, -1, 0], [1, 0, 0, 0]]) / [[2], [np.sqrt(3)], [1]]
        stack = vectors[:, :, None] * vectors.conj()[:, None, :]
        stack[2, 3, 1] = np.nan
        check = states.validate_batch(stack)
        assert solved == [2]
        assert np.isnan(check.min_eigenvalue[2])
        assert np.abs(check.min_eigenvalue[:2]).max() <= 1e-15

    def test_single_matrix_gets_its_eigvalsh_value(self, monkeypatch):
        # One matrix is diagonalized, not screened; in a stack, I/4 is cleared
        # by its discs.  The verdict, the texts and the 0.25 agree.
        solved = []
        real = linalg.eigvalsh
        monkeypatch.setattr(linalg, "eigvalsh", lambda m: solved.append(len(m)) or real(m))
        quarter = np.eye(4, dtype=complex) / 4
        alone = states.validate_batch(quarter[None])
        assert solved == [1]
        stacked = states.validate_batch(np.stack([quarter, 2 * quarter, quarter]))
        assert solved == [1]
        for i, check in [(0, alone), (0, stacked), (2, stacked)]:
            assert check.valid[i] and check.violations(i) == []
            assert check.min_eigenvalue[i] == 0.25
        assert stacked.violations(1) == ["trace deviates from 1 by 1.000e+00"]
        # A single non-finite matrix is flagged by its count, without an eigensolve.
        quarter[0, 0] = np.nan
        check = states.validate_batch(quarter[None])
        assert solved == [1]
        assert np.isnan(check.min_eigenvalue[0]) and not check.valid[0]
        assert check.violations(0) == ["non-finite entries: 1 of 16"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_hermitian_part_is_named(self, monkeypatch):
        # Finite entries past ~9e307 overflow (M + M^dag) / 2; such a matrix
        # gets no eigensolve, and no warning is raised.
        solved = []
        real = linalg.eigvalsh
        monkeypatch.setattr(linalg, "eigvalsh", lambda m: solved.append(len(m)) or real(m))
        diagonal = np.diag([1.5e308, -1.5e308, 0.5, 0.5]).astype(complex)
        pair = np.eye(4, dtype=complex) / 4
        pair[0, 1] = pair[1, 0] = 1.5e308
        imaginary = np.eye(4, dtype=complex) / 4
        imaginary[2, 2] = complex(0.25, 5e307)
        one = np.eye(4, dtype=complex) / 4
        one[0, 0] = 1.5e308
        text = "entries too large: (M + M^dag) / 2 overflows in {} of 16"
        for mat, count in [(diagonal, 2), (pair, 2), (one, 1)]:
            check = states.validate_batch(mat[None])
            assert check.violations(0) == [text.format(count)] and not check.valid[0]
            assert check.nonfinite[0] == 0 and np.isnan(check.min_eigenvalue[0])
            with pytest.raises(StateValidationError) as exc:
                validate(mat)
            assert exc.value.violations == [text.format(count)]
        # In a stack, beside a valid and a non-finite matrix; an imaginary
        # diagonal entry of 5e307 is not Hermitian but does not overflow.
        nan = np.eye(4, dtype=complex) / 4
        nan[3, 0] = np.nan
        stack = np.stack([np.eye(4) / 4, diagonal, nan, pair, imaginary]).astype(complex)
        check = states.validate_batch(stack)
        assert check.valid.tolist() == [True, False, False, False, False]
        assert check.overflow.tolist() == [0, 2, 0, 2, 0]
        assert check.nonfinite.tolist() == [0, 0, 1, 0, 0]
        assert check.violations(1) == check.violations(3) == [text.format(2)]
        assert check.violations(2) == ["non-finite entries: 1 of 16"]
        assert check.violations(4) == [
            "not Hermitian: max asymmetry 1.000e+308", "trace deviates from 1 by 5.000e+307",
        ]
        # The two finite Hermitian parts, I/4 each, are cleared by their discs.
        assert solved == []

    def test_violations_are_empty_exactly_when_valid(self):
        # A NaN measure is a violation, as it is in valid.
        nan = np.array([np.nan])
        zero = np.zeros(1, dtype=int)
        for field in ("hermiticity_defect", "trace_deviation", "min_eigenvalue"):
            values = {"hermiticity_defect": np.zeros(1), "trace_deviation": np.zeros(1),
                      "min_eigenvalue": np.full(1, 0.25), field: nan}
            check = states.StackValidity(nonfinite=zero, overflow=zero, **values)
            assert not check.valid[0]
            assert len(check.violations(0)) == 1 and "nan" in check.violations(0)[0]

    def test_empty_stack_has_empty_measures(self):
        check = states.validate_batch(np.zeros((0, 4, 4)))
        assert [getattr(check, f).shape for f in ("valid", "hermiticity_defect", "min_eigenvalue")] == [(0,)] * 3
        assert linalg.check_hermitian(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    def test_batch_rejects_wrong_shape(self):
        with pytest.raises(StateValidationError, match=r"shape \(4, 4\) is not \(N, 4, 4\)"):
            states.validate_batch(np.eye(4))

    def test_load_rejects_nan_file(self, tmp_path):
        path = tmp_path / "nan.json"
        re = (np.eye(4) / 4).tolist()
        re[2][2] = float("nan")
        path.write_text(json.dumps({"re": re, "im": np.zeros((4, 4)).tolist()}))
        assert "NaN" in path.read_text()
        with pytest.raises(StateValidationError, match="non-finite entries"):
            load_state(path)

    def test_file_round_trip(self, tmp_path):
        rho = from_spec("pure_m", 0.3)
        path = tmp_path / "state.json"
        save_state(rho, path)
        loaded = load_state(path)
        assert np.abs(loaded.mat - rho.mat).max() <= 1e-15

    def test_load_takes_json_numbers_only(self, tmp_path):
        # Integers are numbers; true, a string and null are not, wherever they stand.
        path = tmp_path / "state.json"
        re = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        path.write_text(json.dumps({"re": re, "im": [[0] * 4] * 4}))
        assert np.array_equal(load_state(path).mat, np.diag([1.0, 0, 0, 0]).astype(complex))
        for literal, shown in (("true", "a boolean"), ('"1"', "a string"), ("null", "null")):
            for key, i, j in (("re", 0, 0), ("im", 2, 1)):
                rows = {"re": [row[:] for row in re], "im": [[0] * 4 for _ in range(4)]}
                rows[key][i][j] = "LITERAL"
                path.write_text(json.dumps(rows).replace('"LITERAL"', literal))
                with pytest.raises(StateValidationError) as info:
                    load_state(path)
                assert info.value.violations == [
                    f"unreadable state file {path}: {key}[{i}][{j}] is {shown}, not a number"
                ]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StateValidationError):
            load_state(path)


def eigvalsh_only_verdicts(stack):
    """(valid, violations) of each matrix by the rule validate_batch applied
    before its Gershgorin screen: an eigvalsh of every finite matrix whose
    Hermitian part does not overflow."""
    m = np.asarray(stack, dtype=complex)
    nonfinite = 16 - np.isfinite(m).sum(axis=(1, 2))
    min_eig = np.full(len(m), np.nan)
    with np.errstate(invalid="ignore", over="ignore"):
        defect = np.abs(m - m.conj().swapaxes(1, 2)).max(axis=(1, 2))
        trace_dev = np.abs(np.trace(m, axis1=1, axis2=2) - 1.0)
        h = (m + m.conj().swapaxes(1, 2)) / 2
    overflow = np.where(nonfinite == 0, 16 - np.isfinite(h).sum(axis=(1, 2)), 0)
    finite = (nonfinite == 0) & (overflow == 0)
    min_eig[finite] = np.linalg.eigvalsh(h[finite])[:, 0]
    valid = finite & (defect <= VALIDATE_TOL) & (trace_dev <= VALIDATE_TOL) & (min_eig >= -PSD_CLAMP)
    texts = []
    for i in range(len(m)):
        out = []
        if nonfinite[i]:
            out.append(f"non-finite entries: {nonfinite[i]} of 16")
        elif overflow[i]:
            out.append(f"entries too large: (M + M^dag) / 2 overflows in {overflow[i]} of 16")
        else:
            if defect[i] > VALIDATE_TOL:
                out.append(f"not Hermitian: max asymmetry {defect[i]:.3e}")
            if trace_dev[i] > VALIDATE_TOL:
                out.append(f"trace deviates from 1 by {trace_dev[i]:.3e}")
            if min_eig[i] < -PSD_CLAMP:
                out.append(f"not PSD: minimum eigenvalue {min_eig[i]:.3e}")
        texts.append(out)
    return valid.tolist(), texts


def screen_matrix(kind, seed, k, scale, corrupt):
    """One matrix of a mixed stack.  diag, perturbed and rotated have their
    least diagonal entry or eigenvalue k * 1e-14 from -PSD_CLAMP, before the
    scale.  perturbed couples that entry to another by (|k| + 1..9) * 1e-14,
    which puts its disc edge 1 to 9 units below min(-PSD_CLAMP, the entry)
    but moves its eigenvalue by ~1e-25."""
    rng = np.random.default_rng(seed)
    if kind == "ginibre":
        mat = states.random_mixed_batch(rng, 1)[0]
    elif kind == "pure":
        mat = states.random_pure_batch(rng, 1)[0]
    elif kind == "spa":
        mat = spa.spa_pt_affine_batch(states.random_mixed_batch(rng, 1))[0]
    else:
        lam = rng.permutation(np.append(rng.random(3), -PSD_CLAMP + k * 1e-14))
        mat = np.diag(lam).astype(complex)
        if kind == "perturbed":
            i = int(np.argmin(lam))
            j = (i + 1 + rng.integers(3)) % 4
            mat[i, j] = (abs(k) + rng.integers(1, 10)) * 1e-14 * np.exp(2j * np.pi * rng.random())
            mat[j, i] = mat[i, j].conjugate()
        elif kind == "rotated":
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u = np.linalg.qr(z)[0]
            mat = u @ mat @ u.conj().T
    mat = scale * mat
    if corrupt is not None:
        mat[rng.integers(4), rng.integers(4)] = corrupt
    return mat


SCREEN_MATRICES = st.tuples(
    st.sampled_from(["ginibre", "pure", "spa", "diag", "perturbed", "rotated"]),
    st.integers(0, 2**32 - 1),
    st.one_of(st.integers(-200, 200), st.integers(-5, 5)),
    st.one_of(st.just(1.0), st.floats(0.0, 6.0).map(lambda e: 10.0**e)),
    st.sampled_from([None, None, None, np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                     1.5e308, complex(0.0, -1.7e308)]),
)


@given(matrices=st.lists(SCREEN_MATRICES, min_size=1, max_size=12))
def test_screen_keeps_the_eigvalsh_verdicts(matrices):
    stack = np.stack([screen_matrix(*spec) for spec in matrices])
    valid, texts = eigvalsh_only_verdicts(stack)
    check = states.validate_batch(stack)
    assert check.valid.tolist() == valid
    assert [check.violations(i) for i in range(len(stack))] == texts


@given(matrices=st.lists(SCREEN_MATRICES, min_size=1, max_size=12))
def test_check_hermitian_agrees_with_validate_batch(matrices):
    # The kernels' guard and the input boundary share one Hermitian split, so
    # they name the same first matrix, for the same reason.  The Hermitian
    # matrices of a stack are checked again on their own, where an
    # overflowing one is not hidden behind a non-Hermitian one.
    stack = np.stack([screen_matrix(*spec) for spec in matrices])
    for part in (stack, stack[states.validate_batch(stack).hermiticity_defect <= VALIDATE_TOL]):
        if not len(part):
            continue
        check = states.validate_batch(part)
        not_hermitian = first_index(~(check.hermiticity_defect <= VALIDATE_TOL))  # NaN included
        overflowing = first_index(check.overflow > 0)
        if not_hermitian is not None:
            with pytest.raises(linalg.NotHermitianError, match=rf"^matrix {not_hermitian} of {len(part)} is not "):
                linalg.check_hermitian(part)
        elif overflowing is not None:
            count = check.overflow[overflowing]
            with pytest.raises(linalg.HermitianOverflowError,
                               match=rf"^matrix {overflowing} of {len(part)}: .* overflows in {count} of 16$"):
                linalg.check_hermitian(part)
        else:
            hermitian = (part + part.conj().swapaxes(1, 2)) / 2
            assert linalg.check_hermitian(part).tobytes() == hermitian.tobytes()


class TestPureFromVector:
    def test_basis_state(self):
        mat = pure_from_vectors([[1, 0, 0, 0]])[0]
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        assert np.array_equal(mat, expected)

    def test_bell_entries(self):
        mat = pure_from_vectors([np.array([1, 0, 0, 1]) / np.sqrt(2)])[0]
        assert np.isclose(mat[0, 0], 0.5)
        assert np.isclose(mat[0, 3], 0.5)
        assert np.isclose(mat[3, 3], 0.5)

    def test_schmidt_concurrence(self):
        # |v> = a|00> + b|11> has concurrence 2|ab|.
        a, b = 0.6, 0.8
        conc = measures.concurrence_wootters_batch(pure_from_vectors([[a, 0, 0, b]]))[0]
        assert abs(conc - 2 * a * b) < 1e-12

    def test_rejects_zero_and_unnormalized(self):
        with pytest.raises(ValueError):
            pure_from_vectors([[0, 0, 0, 0]])
        with pytest.raises(ValueError):
            pure_from_vectors([[1, 1, 0, 0]])

    def test_renormalizes_small_deviation(self):
        v = np.array([1 + 5e-7, 0, 0, 0])
        mat = pure_from_vectors([v])[0]
        assert abs(np.trace(mat) - 1) < 1e-12


class TestFamilies:
    def test_pure_m_endpoints(self):
        assert np.isclose(from_spec("pure_m", 0).mat[2, 2], 1.0)
        nd = measures.pt_spectrum_batch(family_batch("pure_m", [0.5]))[0][0]
        assert nd == pytest.approx(1.0, abs=1e-12)

    def test_pure_m_offdiagonal(self):
        rho = from_spec("pure_m", 0.25)
        assert rho.mat[1, 2] == pytest.approx(np.sqrt(0.1875), abs=1e-15)

    def test_horodecki_endpoints(self):
        assert np.isclose(from_spec("horodecki", 0).mat[0, 0], 1.0)
        nd = measures.pt_spectrum_batch(family_batch("horodecki", [1]))[0][0]
        assert nd == pytest.approx(1.0, abs=1e-12)

    def test_horodecki_half(self):
        nd = measures.pt_spectrum_batch(family_batch("horodecki", [0.5]))[0][0]
        assert nd == pytest.approx(np.sqrt(0.5) - 0.5, abs=1e-12)

    def test_quasi_endpoints(self):
        assert np.isclose(from_spec("quasi", 0).mat[1, 1], 1.0)
        bell = bell_state(0)
        assert np.abs(from_spec("quasi", 1).mat - bell.mat).max() < 1e-15

    def test_quasi_concurrence(self):
        conc = measures.concurrence_wootters_batch(family_batch("quasi", [0.5]))[0]
        assert conc == pytest.approx(0.5, abs=1e-10)

    def test_horodecki_one_is_maximally_entangled(self):
        conc = measures.concurrence_wootters_batch(family_batch("horodecki", [1]))[0]
        assert conc == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    def test_grid_all_valid(self, kind):
        for value in np.linspace(0, 1, 101):
            validate(from_spec(kind, float(value)).mat)

    def test_pure_m_is_rank_one(self):
        lam = np.linalg.eigvalsh(family_batch("pure_m", np.linspace(0, 1, 11)))
        assert lam[:, -2].max() <= 1e-10

    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_out_of_range_rejected(self, kind, bad):
        with pytest.raises(ValueError):
            from_spec(kind, bad)

    def test_bell_projectors_are_built_once(self):
        for i in range(4):
            mat = bell_state(i).mat
            expected = pure_from_vectors(states._BELL_VECTORS[i][None])[0]
            assert mat.tobytes() == expected.tobytes() and mat.dtype == expected.dtype
            assert np.shares_memory(mat, states._BELL_PROJECTORS)
            assert not mat.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                mat[0, 0] = 0.0

    def test_bell_index_range(self):
        for i in range(4):
            validate(bell_state(i).mat)
        with pytest.raises(ValueError):
            bell_state(4)


def per_point_family(family, x):
    """The per-point family constructors that preceded family_batch."""
    if family == "pure_m":
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = x
        mat[2, 2] = 1.0 - x
        mat[1, 2] = mat[2, 1] = np.sqrt(x * (1.0 - x))
    elif family == "horodecki":
        mat = x * np.outer(states.PSI_PLUS, states.PSI_PLUS.conj())
        mat[0, 0] += 1.0 - x
    else:
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = mat[3, 3] = mat[0, 3] = mat[3, 0] = x / 2.0
        mat[1, 1] = 1.0 - x
    return mat


FAMILY_PARAMS = st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                         min_size=1, max_size=300)


@pytest.mark.parametrize("family", ["pure_m", "horodecki", "quasi"])
@given(params=FAMILY_PARAMS)
def test_family_batch_is_bitwise_the_per_point_states(family, params):
    params = [0.0, 1.0] + params
    expected = np.stack([per_point_family(family, x) for x in params])
    batch = states.family_batch(family, params)
    assert batch.dtype == expected.dtype and batch.tobytes() == expected.tobytes()
    single = np.stack([states.from_spec(family, x).mat for x in params])
    assert single.tobytes() == expected.tobytes()


class TestFamilyBatchRange:
    @pytest.mark.parametrize("family, name", [("pure_m", "M"), ("horodecki", "p"), ("quasi", "C")])
    def test_first_bad_index_is_named(self, family, name):
        with pytest.raises(ValueError, match=rf"^param 2 of 4: {name} must lie in \[0, 1\], got nan$"):
            states.family_batch(family, [0.0, 0.5, np.nan, 2.0])

    @pytest.mark.parametrize("kind, name", [("pure_m", "M"), ("horodecki", "p"), ("quasi", "C")],
                             ids=["family_pure_m-M", "family_horodecki-p", "family_quasi-C"])
    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2, float("nan")])
    def test_single_state_message_is_unchanged(self, kind, name, bad):
        with pytest.raises(ValueError) as exc:
            from_spec(kind, bad)
        assert str(exc.value) == f"{name} must lie in [0, 1], got {bad}"

    def test_unsupported_family(self):
        with pytest.raises(ValueError, match="family_batch supports"):
            states.family_batch("bell", [0.0])


class TestRandomStates:
    def test_outputs_valid(self):
        rng = np.random.default_rng(0)
        assert validate_batch(random_pure_batch(rng, 50)).valid.all()
        for rank in (1, 2, 3, 4):
            assert validate_batch(random_mixed_batch(rng, 50, rank=rank)).valid.all()

    def test_determinism(self):
        a = random_mixed_batch(np.random.default_rng(123), 3)
        b = random_mixed_batch(np.random.default_rng(123), 3)
        assert np.array_equal(a, b)
        c = random_pure_batch(np.random.default_rng(123), 3)
        d = random_pure_batch(np.random.default_rng(123), 3)
        assert np.array_equal(c, d)

    def test_batch_matches_sequential(self):
        batch = random_mixed_batch(np.random.default_rng(7), 5)
        rng = np.random.default_rng(7)
        for i in range(5):
            assert np.array_equal(batch[i], random_mixed_batch(rng, 1)[0])

    def test_mean_eigenvalue_full_rank(self):
        batch = random_mixed_batch(np.random.default_rng(1), 10000)
        lam = np.linalg.eigvalsh(batch)
        assert abs(lam.mean() - 0.25) < 0.01

    def test_rank_rejected(self):
        with pytest.raises(ValueError):
            random_mixed_batch(np.random.default_rng(0), 1, rank=5)


def test_from_spec_dispatch():
    assert np.array_equal(states.from_spec("bell", 2).mat, bell_state(2).mat)
    assert np.array_equal(states.from_spec("quasi", 0.4).mat, per_point_family("quasi", 0.4))
    with pytest.raises(ValueError):
        states.from_spec("pure_m")
    with pytest.raises(ValueError):
        states.from_spec("nope", 0.5)


def test_from_spec_bell_index_must_be_integral():
    assert np.array_equal(states.from_spec("bell").mat, bell_state(0).mat)
    assert np.array_equal(states.from_spec("bell", 2.0).mat, bell_state(2).mat)
    for bad in (1.9, 0.5, -0.1, np.nan, np.inf, 4.0, -1.0, 1e300, -1e300):
        with pytest.raises(ValueError, match="bell index") as info:
            states.from_spec("bell", bad)
        assert str(info.value) == f"bell index must be an integer 0..3, got {bad}"
