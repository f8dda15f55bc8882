import numpy as np
import pytest

from spaneg import measures
from spaneg.linalg import SIGMA_Y, kron
from spaneg.measures import (
    concurrence_quasi,
    concurrence_wootters,
    estimator_bias,
    favg_from_mu,
    full_report,
    ls_upper_bound,
    mu_from_favg,
    negativity_exact,
    negativity_lower_bound,
    negativity_normalized,
    verstraete_rhs,
    witness_pair,
)
from spaneg.spa import spa_pt_affine
from spaneg.states import (
    DensityMatrix,
    bell_state,
    family_horodecki,
    family_pure_m,
    family_quasi,
    pure_from_vector,
    random_mixed,
    random_pure,
    validate,
)

# Frozen oracle values for the Horodecki state at p = 0.5, computed from the
# closed forms: nd = sqrt(1/2) - 1/2, mu = (9/2 - sqrt(1/2))/18,
# nn = nd (338 + nd) / 339.
ND_H05 = 0.20710678118654746
MU_H05 = 0.21071628993408070
NN_H05 = 0.20662237539783593


class TestNegativityExact:
    def test_bell(self):
        assert negativity_exact(bell_state(0)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert negativity_exact(validate(np.eye(4) / 4)) == 0.0

    @pytest.mark.parametrize("m,expected", [(0.5, 1.0), (0.2, 0.8)])
    def test_pure_m_closed_form(self, m, expected):
        assert negativity_exact(family_pure_m(m)) == pytest.approx(expected, abs=1e-12)


class TestLowerBound:
    @pytest.mark.parametrize("mu,expected", [(1 / 6, 1.0), (2 / 9, 0.0), (0.25, -0.5)])
    def test_values(self, mu, expected):
        assert negativity_lower_bound(mu) == pytest.approx(expected, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            negativity_lower_bound(0.1)


class TestNormalizedNegativity:
    def test_maximal(self):
        assert negativity_normalized(1 / 6) == pytest.approx(1.0, abs=1e-15)

    def test_threshold(self):
        assert negativity_normalized(2 / 9) == 0.0

    def test_horodecki_half(self):
        assert negativity_normalized(MU_H05) == pytest.approx(NN_H05, abs=1e-14)

    def test_strictly_decreasing(self):
        grid = np.linspace(1 / 6, 2 / 9, 200)
        vals = [negativity_normalized(float(mu)) for mu in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            negativity_normalized(0.3)


class TestConcurrence:
    def test_bell(self):
        assert concurrence_wootters(bell_state(0)) == pytest.approx(1.0, abs=1e-10)

    def test_product_state(self):
        a = np.array([0.6, 0.8], dtype=complex)
        b = np.array([1 / np.sqrt(2), 1j / np.sqrt(2)])
        rho = pure_from_vector(np.kron(a, b))
        # square roots amplify ~1e-16 eigenvalue noise to ~1e-10
        assert concurrence_wootters(rho) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("c", [round(0.1 * k, 1) for k in range(1, 11)])
    def test_quasi_family(self, c):
        assert concurrence_wootters(family_quasi(c)) == pytest.approx(c, abs=1e-10)

    def test_matches_nonhermitian_product_oracle(self):
        # Same spectrum as rho (sy x sy) rho* (sy x sy) diagonalized directly.
        syy = kron(SIGMA_Y, SIGMA_Y)
        rng = np.random.default_rng(31)
        for _ in range(100):
            rho = random_mixed(rng)
            lam = np.sort(np.linalg.eigvals(rho.mat @ syy @ rho.mat.conj() @ syy).real)
            l = np.sqrt(np.maximum(lam, 0.0))[::-1]
            oracle = max(0.0, l[0] - l[1] - l[2] - l[3])
            assert concurrence_wootters(rho) == pytest.approx(oracle, abs=1e-9)

    def test_pure_state_specialization(self):
        mu = spa_pt_affine(family_pure_m(0.25)).mu_min
        assert full_report(family_pure_m(0.25)).concurrence_pure_est == negativity_normalized(mu)
        assert full_report(bell_state(0)).concurrence_pure_est == pytest.approx(1.0, abs=1e-12)
        assert full_report(family_horodecki(0.5)).concurrence_pure_est is None


class TestQuasiRelations:
    @pytest.mark.parametrize("n,expected", [(0.0, 0.0), (1.0, 1.0)])
    def test_endpoints(self, n, expected):
        assert concurrence_quasi(n) == pytest.approx(expected, abs=1e-12)

    def test_round_trip_inverse(self):
        for c0 in np.linspace(0, 1, 21):
            n = verstraete_rhs(float(c0))
            assert concurrence_quasi(n) == pytest.approx(c0, abs=1e-12)

    def test_half(self):
        assert concurrence_quasi(np.sqrt(0.5) - 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_monotone(self):
        vals = [concurrence_quasi(float(n)) for n in np.linspace(0, 1, 50)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestVerstraete:
    @pytest.mark.parametrize("c,expected", [(0.0, 0.0), (1.0, 1.0), (0.5, np.sqrt(0.5) - 0.5)])
    def test_values(self, c, expected):
        assert verstraete_rhs(c) == pytest.approx(expected, abs=1e-9)

    def test_inequality_on_random_states(self):
        rng = np.random.default_rng(32)
        for _ in range(2000):
            rho = random_mixed(rng)
            assert negativity_exact(rho) >= verstraete_rhs(concurrence_wootters(rho)) - 1e-10


class TestWitness:
    def test_structure(self):
        pair = witness_pair(np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert np.abs(pair.w - (np.outer(pair.phi, pair.phi.conj()) - 2 / 9 * np.eye(4))).max() < 1e-14
        assert np.abs(pair.w_tilde - (2 / 9 * pair.w + 7 / 36 * np.eye(4))).max() < 1e-14
        assert np.trace(pair.w_tilde).real == pytest.approx(65 / 81, abs=1e-12)

    def test_bell_spectrum(self):
        pair = witness_pair(np.array([1, 0, 0, 1]) / np.sqrt(2))
        lam = np.sort(np.linalg.eigvalsh(pair.w_tilde))
        expected = np.sort([119 / 324, 47 / 324, 47 / 324, 47 / 324])
        assert np.abs(lam - expected).max() < 1e-12

    def test_overlap_linearity(self):
        rng = np.random.default_rng(33)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        pair = witness_pair(v / np.linalg.norm(v))
        rho = random_mixed(rng).mat
        lhs = np.trace(pair.w_tilde @ rho).real
        rhs = 2 / 9 * np.trace(np.outer(pair.phi, pair.phi.conj()) @ rho).real + (7 / 36 - 4 / 81)
        assert abs(lhs - rhs) < 1e-12

    def test_witness_nonnegative_on_separable_spa_states(self):
        # For separable sigma the partial transpose stays PSD, so
        # Tr(W rho_tilde) = (1/9) Tr(|phi><phi| sigma^{T_B}) >= 0; checked on
        # random convex mixtures of product states against the Bell witness.
        pair = witness_pair(np.array([1, 0, 0, 1]) / np.sqrt(2))
        rng = np.random.default_rng(34)
        for _ in range(200):
            weights = rng.dirichlet(np.ones(4))
            sigma = np.zeros((4, 4), dtype=complex)
            for w in weights:
                a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
                sigma += w * np.outer(v, v.conj())
            rho_tilde = spa_pt_affine(validate(sigma)).rho_tilde.mat
            assert np.trace(pair.w @ rho_tilde).real >= -1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            witness_pair([1, 1, 0, 0])


class TestFidelityLink:
    @pytest.mark.parametrize("mu,f", [(1 / 6, 59 / 135), (2 / 9, 7 / 15), (0.25, 65 / 135)])
    def test_values(self, mu, f):
        assert favg_from_mu(mu) == pytest.approx(f, abs=1e-15)

    def test_round_trip(self):
        for mu in np.linspace(1 / 6, 0.25, 50):
            assert mu_from_favg(favg_from_mu(float(mu))) == pytest.approx(mu, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mu_from_favg(0.5)


class TestLsUpperBound:
    def test_full_separable_weight(self):
        assert ls_upper_bound(1.0, 1 / 6) == 0.0

    def test_pure_limit(self):
        assert ls_upper_bound(0.0, 1 / 6) == pytest.approx(1.0, abs=1e-12)

    def test_half_weight(self):
        assert ls_upper_bound(0.5, 1 / 6) == pytest.approx(0.5, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ls_upper_bound(-0.1, 1 / 6)
        with pytest.raises(ValueError):
            ls_upper_bound(0.5, 0.24)


def reference_only_quasi_match(rho, tol=1e-9):
    """The quasi-family match as it was before its entry-(1, 1) shortcut."""
    c = 2.0 * float(rho.mat[0, 0].real)
    if not -tol <= c <= 1.0 + tol:
        return False
    ref = family_quasi(min(max(c, 0.0), 1.0)).mat
    return bool(np.abs(rho.mat - ref).max() <= tol)


def test_quasi_match_shortcut_keeps_the_verdict():
    rng = np.random.default_rng(31)
    mats = [random_mixed(rng).mat for _ in range(20)]
    mats += [family_horodecki(p).mat for p in np.linspace(0, 1, 13)]
    mats += [family_pure_m(m).mat for m in np.linspace(0, 1, 13)]
    for c in (0.0, 0.3, 1.0):
        base = family_quasi(c).mat
        mats.append(base)
        # Off by less and by more than the tolerance, at (1, 1) and elsewhere;
        # c = 0 and 1 put 2 * rho[0, 0] just outside [0, 1].
        for i, j in ((1, 1), (0, 3), (0, 0)):
            for delta in (-2e-9, -0.4e-9, 0.4e-9, 2e-9):
                m = base.copy()
                m[i, j] += delta
                mats.append(m)
        # 2 * rho[0, 0] past an end of [0, 1] together with a shifted (1, 1).
        for d00, d11 in ((0.45e-9, 0.6e-9), (-0.45e-9, -0.6e-9), (0.45e-9, -0.6e-9)):
            m = base.copy()
            m[0, 0] += d00
            m[1, 1] += d11
            mats.append(m)
    verdicts = [measures._matches_quasi(DensityMatrix(mat=m)) for m in mats]
    assert verdicts == [reference_only_quasi_match(DensityMatrix(mat=m)) for m in mats]
    assert any(verdicts) and not all(verdicts)


class TestFullReport:
    def test_bell(self):
        rep = full_report(bell_state(0))
        assert rep.nd == pytest.approx(1.0, abs=1e-12)
        assert rep.nn == pytest.approx(1.0, abs=1e-12)
        assert rep.concurrence == pytest.approx(1.0, abs=1e-10)
        assert rep.mu_min == pytest.approx(1 / 6, abs=1e-12)
        assert not rep.ppt
        assert rep.concurrence_pure_est == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rep = full_report(validate(np.eye(4) / 4))
        assert rep.nd == 0.0 and rep.nn == 0.0 and rep.concurrence == 0.0
        assert rep.ppt
        assert rep.mu_min == pytest.approx(0.25, abs=1e-12)

    def test_horodecki_half(self):
        rep = full_report(family_horodecki(0.5))
        assert rep.nd == pytest.approx(ND_H05, abs=1e-12)
        assert rep.nn == pytest.approx(NN_H05, abs=1e-12)
        assert rep.mu_min == pytest.approx(MU_H05, abs=1e-12)
        assert rep.bias == pytest.approx(ND_H05 * (1 - ND_H05) / 339, abs=1e-15)

    def test_quasi_specialization(self):
        rep = full_report(family_quasi(0.6))
        assert rep.concurrence_quasi_est == pytest.approx(0.6, abs=1e-10)

    def test_universal_relation_sample(self):
        rng = np.random.default_rng(35)
        for _ in range(500):
            rep = full_report(random_mixed(rng))
            assert abs(rep.nn - rep.nd * (338 + rep.nd) / 339) <= 1e-10
            assert 0.0 <= rep.nd - rep.nn + 1e-12
            assert rep.nd - rep.nn <= 1 / 1356 + 1e-12

    def test_pure_equality(self):
        rng = np.random.default_rng(36)
        for _ in range(500):
            rho = random_pure(rng)
            assert concurrence_wootters(rho) == pytest.approx(negativity_exact(rho), abs=1e-9)


def test_estimator_bias_formula():
    assert estimator_bias(0.5) == pytest.approx(1 / 1356, abs=1e-15)
    assert estimator_bias(0.0) == 0.0
    assert estimator_bias(1.0) == 0.0
