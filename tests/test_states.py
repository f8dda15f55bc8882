import json

import numpy as np
import pytest

from spaneg import measures, states
from spaneg.states import (
    StateValidationError,
    bell_state,
    family_horodecki,
    family_pure_m,
    family_quasi,
    load_state,
    pure_from_vector,
    random_mixed,
    random_mixed_batch,
    random_pure,
    save_state,
    validate,
)


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

    def test_load_rejects_nan_file(self, tmp_path):
        path = tmp_path / "nan.json"
        re = (np.eye(4) / 4).tolist()
        re[2][2] = float("nan")
        path.write_text(json.dumps({"re": re, "im": np.zeros((4, 4)).tolist()}))
        assert "NaN" in path.read_text()
        with pytest.raises(StateValidationError, match="non-finite entries"):
            load_state(path)

    def test_file_round_trip(self, tmp_path):
        rho = family_pure_m(0.3)
        path = tmp_path / "state.json"
        save_state(rho, path)
        loaded = load_state(path)
        assert np.abs(loaded.mat - rho.mat).max() <= 1e-15

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StateValidationError):
            load_state(path)


class TestPureFromVector:
    def test_basis_state(self):
        rho = pure_from_vector([1, 0, 0, 0])
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        assert np.array_equal(rho.mat, expected)

    def test_bell_entries(self):
        rho = pure_from_vector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert np.isclose(rho.mat[0, 0], 0.5)
        assert np.isclose(rho.mat[0, 3], 0.5)
        assert np.isclose(rho.mat[3, 3], 0.5)

    def test_schmidt_concurrence(self):
        # |v> = a|00> + b|11> has concurrence 2|ab|.
        a, b = 0.6, 0.8
        rho = pure_from_vector([a, 0, 0, b])
        assert abs(measures.concurrence_wootters(rho) - 2 * a * b) < 1e-12

    def test_rejects_zero_and_unnormalized(self):
        with pytest.raises(ValueError):
            pure_from_vector([0, 0, 0, 0])
        with pytest.raises(ValueError):
            pure_from_vector([1, 1, 0, 0])

    def test_renormalizes_small_deviation(self):
        v = np.array([1 + 5e-7, 0, 0, 0])
        rho = pure_from_vector(v)
        assert abs(np.trace(rho.mat) - 1) < 1e-12


class TestFamilies:
    def test_pure_m_endpoints(self):
        assert np.isclose(family_pure_m(0).mat[2, 2], 1.0)
        assert measures.negativity_exact(family_pure_m(0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_pure_m_offdiagonal(self):
        rho = family_pure_m(0.25)
        assert rho.mat[1, 2] == pytest.approx(np.sqrt(0.1875), abs=1e-15)

    def test_horodecki_endpoints(self):
        assert np.isclose(family_horodecki(0).mat[0, 0], 1.0)
        assert measures.negativity_exact(family_horodecki(1)) == pytest.approx(1.0, abs=1e-12)

    def test_horodecki_half(self):
        nd = measures.negativity_exact(family_horodecki(0.5))
        assert nd == pytest.approx(np.sqrt(0.5) - 0.5, abs=1e-12)

    def test_quasi_endpoints(self):
        assert np.isclose(family_quasi(0).mat[1, 1], 1.0)
        bell = bell_state(0)
        assert np.abs(family_quasi(1).mat - bell.mat).max() < 1e-15

    def test_quasi_concurrence(self):
        assert measures.concurrence_wootters(family_quasi(0.5)) == pytest.approx(0.5, abs=1e-10)

    def test_horodecki_one_is_maximally_entangled(self):
        assert measures.concurrence_wootters(family_horodecki(1)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("family", [family_pure_m, family_horodecki, family_quasi])
    def test_grid_all_valid(self, family):
        for value in np.linspace(0, 1, 101):
            validate(family(float(value)).mat)

    def test_pure_m_is_rank_one(self):
        for value in np.linspace(0, 1, 11):
            lam = np.linalg.eigvalsh(family_pure_m(float(value)).mat)
            assert lam[-2] <= 1e-10

    @pytest.mark.parametrize("family", [family_pure_m, family_horodecki, family_quasi])
    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_out_of_range_rejected(self, family, bad):
        with pytest.raises(ValueError):
            family(bad)

    def test_bell_index_range(self):
        for i in range(4):
            validate(bell_state(i).mat)
        with pytest.raises(ValueError):
            bell_state(4)


class TestRandomStates:
    def test_outputs_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            validate(random_pure(rng).mat)
            for rank in (1, 2, 3, 4):
                validate(random_mixed(rng, rank=rank).mat)

    def test_determinism(self):
        a = random_mixed(np.random.default_rng(123)).mat
        b = random_mixed(np.random.default_rng(123)).mat
        assert np.array_equal(a, b)
        c = random_pure(np.random.default_rng(123)).mat
        d = random_pure(np.random.default_rng(123)).mat
        assert np.array_equal(c, d)

    def test_batch_matches_sequential(self):
        batch = random_mixed_batch(np.random.default_rng(7), 5)
        rng = np.random.default_rng(7)
        for i in range(5):
            assert np.array_equal(batch[i], random_mixed(rng).mat)

    def test_mean_eigenvalue_full_rank(self):
        batch = random_mixed_batch(np.random.default_rng(1), 10000)
        lam = np.linalg.eigvalsh(batch)
        assert abs(lam.mean() - 0.25) < 0.01

    def test_rank_rejected(self):
        with pytest.raises(ValueError):
            random_mixed(np.random.default_rng(0), rank=5)


def test_from_spec_dispatch():
    assert np.array_equal(states.from_spec("bell", 2).mat, bell_state(2).mat)
    assert np.array_equal(states.from_spec("quasi", 0.4).mat, family_quasi(0.4).mat)
    with pytest.raises(ValueError):
        states.from_spec("pure_m")
    with pytest.raises(ValueError):
        states.from_spec("nope", 0.5)


def test_from_spec_bell_index_must_be_integral():
    assert np.array_equal(states.from_spec("bell").mat, bell_state(0).mat)
    assert np.array_equal(states.from_spec("bell", 2.0).mat, bell_state(2).mat)
    for bad in (1.9, 0.5, -0.1, np.nan, np.inf, 4.0):
        with pytest.raises(ValueError, match="bell index"):
            states.from_spec("bell", bad)
