import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spaneg import cli, linalg, measures, spa, states
from spaneg.linalg import SIGMA_Y
from spaneg.measures import (
    concurrence_quasi,
    concurrence_wootters_batch,
    estimator_bias,
    favg_from_mu,
    fidelity_link,
    full_report,
    ls_upper_bound,
    negativity_normalized_batch,
    pt_spectrum_batch,
    verstraete_rhs,
    witness_pair,
)
from spaneg.spa import mu_min_batch, spa_pt_affine_batch
from spaneg.states import (
    DensityMatrix,
    bell_state,
    family_batch,
    from_spec,
    pure_from_vectors,
    random_mixed_batch,
    random_pure_batch,
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
        assert pt_spectrum_batch(bell_state(0).mat[None])[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert pt_spectrum_batch(validate(np.eye(4) / 4).mat[None])[0][0] == 0.0

    @pytest.mark.parametrize("m,expected", [(0.5, 1.0), (0.2, 0.8)])
    def test_pure_m_closed_form(self, m, expected):
        assert pt_spectrum_batch(family_batch("pure_m", [m]))[0][0] == pytest.approx(expected, abs=1e-12)


class TestNormalizedNegativity:
    def test_maximal(self):
        assert negativity_normalized_batch(1 / 6) == pytest.approx(1.0, abs=1e-15)

    def test_threshold(self):
        assert negativity_normalized_batch(2 / 9) == 0.0

    def test_horodecki_half(self):
        assert negativity_normalized_batch(MU_H05) == pytest.approx(NN_H05, abs=1e-14)

    def test_strictly_decreasing(self):
        vals = negativity_normalized_batch(np.linspace(1 / 6, 2 / 9, 200))
        assert (np.diff(vals) < 0).all()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            negativity_normalized_batch(0.3)


class TestMuRange:
    # _check_mu accepts [MU_MIN_LO - slack, MU_MIN_HI + slack], ends included,
    # on its float path and on its array path alike.
    LOW = measures.MU_MIN_LO - measures._RANGE_SLACK
    HIGH = measures.MU_MIN_HI + measures._RANGE_SLACK

    @pytest.mark.parametrize("end", [LOW, HIGH], ids=["low", "high"])
    def test_the_ends_are_accepted(self, end):
        out = measures._check_mu(end)
        assert type(out) is float and out == end  # the float path returns its argument
        assert measures._check_mu(np.array([end, end])).tolist() == [end, end]

    @pytest.mark.parametrize("end, outward", [(LOW, -1.0), (HIGH, 1.0)], ids=["low", "high"])
    def test_the_next_float_out_is_rejected(self, end, outward):
        beyond = float(np.nextafter(end, outward))
        with pytest.raises(ValueError, match=f"^mu_min {re.escape(repr(beyond))} outside"):
            measures._check_mu(beyond)
        with pytest.raises(ValueError, match=f"^mu_min {re.escape(repr(beyond))} at index 1 outside"):
            measures._check_mu(np.array([end, beyond]))


class TestConcurrence:
    def test_bell(self):
        assert concurrence_wootters_batch(bell_state(0).mat[None])[0] == pytest.approx(1.0, abs=1e-10)

    def test_product_state(self):
        a = np.array([0.6, 0.8], dtype=complex)
        b = np.array([1 / np.sqrt(2), 1j / np.sqrt(2)])
        rhos = pure_from_vectors([np.kron(a, b)])
        # square roots amplify ~1e-16 eigenvalue noise to ~1e-10
        assert concurrence_wootters_batch(rhos)[0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("c", [round(0.1 * k, 1) for k in range(1, 11)])
    def test_quasi_family(self, c):
        assert concurrence_wootters_batch(family_batch("quasi", [c]))[0] == pytest.approx(c, abs=1e-10)

    def test_matches_nonhermitian_product_oracle(self):
        # Same spectrum as rho (sy x sy) rho* (sy x sy) diagonalized directly.
        syy = np.kron(SIGMA_Y, SIGMA_Y)
        rhos = random_mixed_batch(np.random.default_rng(31), 100)
        for rho, conc in zip(rhos, concurrence_wootters_batch(rhos)):
            lam = np.sort(np.linalg.eigvals(rho @ syy @ rho.conj() @ syy).real)
            l = np.sqrt(np.maximum(lam, 0.0))[::-1]
            oracle = max(0.0, l[0] - l[1] - l[2] - l[3])
            assert conc == pytest.approx(oracle, abs=1e-9)

    def test_pure_state_specialization(self):
        rho = from_spec("pure_m", 0.25)
        mu = mu_min_batch(spa_pt_affine_batch(rho.mat[None]))
        assert full_report(rho).concurrence_pure_est == negativity_normalized_batch(mu)[0]
        assert full_report(bell_state(0)).concurrence_pure_est == pytest.approx(1.0, abs=1e-12)
        assert full_report(from_spec("horodecki", 0.5)).concurrence_pure_est is None


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

    @pytest.mark.parametrize("n,expected", [(-5e-10, 0.0), (1.0 + 5e-10, 1.0)])
    def test_slack_outside_the_range_clamps_to_its_end(self, n, expected):
        # Below 0 the root was NaN with a RuntimeWarning, above 1 C exceeded 1.
        assert concurrence_quasi(n) == expected

    @pytest.mark.parametrize("n", [0.0, 5e-10, 0.25, 1.0 - 5e-10, 1.0])
    def test_in_range_keeps_the_formula_bits(self, n):
        assert concurrence_quasi(n) == -n + np.sqrt(2.0 * n * (n + 1.0))

    @pytest.mark.parametrize("n", [-2e-9, 1.0 + 2e-9, float("nan")])
    def test_outside_the_slack_raises(self, n):
        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            concurrence_quasi(n)


class TestVerstraete:
    @pytest.mark.parametrize("c,expected", [(0.0, 0.0), (1.0, 1.0), (0.5, np.sqrt(0.5) - 0.5)])
    def test_values(self, c, expected):
        assert verstraete_rhs(c) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("c,expected", [(-5e-10, 0.0), (1.0 + 5e-10, 1.0)])
    def test_slack_outside_the_range_clamps_to_its_end(self, c, expected):
        assert verstraete_rhs(c) == expected

    @pytest.mark.parametrize("c", [0.0, 5e-10, 0.5, 1.0 - 5e-10, 1.0])
    def test_in_range_keeps_the_formula_bits(self, c):
        assert verstraete_rhs(c) == np.sqrt((1.0 - c) ** 2 + c**2) - (1.0 - c)

    # The range [-slack, 1 + slack], ends included, clamps to [0, 1].
    @pytest.mark.parametrize("end, outward, value", [
        (-measures._RANGE_SLACK, -1.0, 0.0), (1.0 + measures._RANGE_SLACK, 2.0, 1.0),
    ], ids=["low", "high"])
    def test_the_ends_are_accepted_and_the_next_float_out_is_not(self, end, outward, value):
        assert verstraete_rhs(end) == value
        beyond = float(np.nextafter(end, outward))
        with pytest.raises(ValueError, match=f"^concurrence {re.escape(repr(beyond))} outside"):
            verstraete_rhs(beyond)

    def test_inequality_on_random_states(self):
        rhos = random_mixed_batch(np.random.default_rng(32), 2000)
        nd = pt_spectrum_batch(rhos)[0]
        for n, c in zip(nd.tolist(), concurrence_wootters_batch(rhos).tolist()):
            assert n >= verstraete_rhs(c) - 1e-10


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
        rho = random_mixed_batch(rng, 1)[0]
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
            rho_tilde = spa_pt_affine_batch(validate(sigma).mat[None])[0]
            assert np.trace(pair.w @ rho_tilde).real >= -1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            witness_pair([1, 1, 0, 0])

    @pytest.mark.parametrize("outward", [2.0, 0.0], ids=["above", "below"])
    def test_the_nearest_norms_on_each_side_of_the_slack(self, outward):
        # |norm - 1| is exact near 1 and a multiple of 2**-53, so no norm is
        # off 1 by exactly the slack: take the last float within it on this
        # side of 1 and the next one out.  For [x, 0, 0, 0] the norm is x.
        inside = 1.0 + np.sign(outward - 1.0) * measures._RANGE_SLACK
        while abs(inside - 1.0) > measures._RANGE_SLACK:
            inside = float(np.nextafter(inside, 1.0))
        beyond = float(np.nextafter(inside, outward))
        assert abs(beyond - 1.0) > measures._RANGE_SLACK
        assert witness_pair([inside, 0, 0, 0]).phi[0] == inside
        with pytest.raises(ValueError, match="^witness vector norm "):
            witness_pair([beyond, 0, 0, 0])

    @pytest.mark.parametrize("first, shown", [(np.nan, "nan"), (np.inf, "inf"), (1.1, "1.100000000")])
    def test_rejects_a_norm_off_one_or_non_finite(self, first, shown):
        # A NaN norm fails every comparison; the check must still reject it.
        with pytest.raises(ValueError, match=rf"^witness vector norm {shown} deviates from 1$"):
            witness_pair([first, 0, 0, 0])


class TestFidelityLink:
    @pytest.mark.parametrize("mu,f", [(1 / 6, 59 / 135), (2 / 9, 7 / 15), (0.25, 65 / 135)])
    def test_values(self, mu, f):
        assert favg_from_mu(mu) == pytest.approx(f, abs=1e-15)

    def test_round_trip(self):
        for mu in np.linspace(1 / 6, 0.25, 50):
            assert fidelity_link(favg_from_mu(float(mu))) == pytest.approx(mu, abs=1e-15)


class TestLsUpperBound:
    def test_full_separable_weight(self):
        assert ls_upper_bound(1.0, 1 / 6) == 0.0

    def test_pure_limit(self):
        assert ls_upper_bound(0.0, 1 / 6) == pytest.approx(1.0, abs=1e-12)

    def test_half_weight(self):
        assert ls_upper_bound(0.5, 1 / 6) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("end, outward", [(0.0, -1.0), (1.0, 2.0)], ids=["low", "high"])
    def test_the_weight_ends_are_accepted_and_the_next_float_out_is_not(self, end, outward):
        mu = measures.MU_MIN_LO
        assert ls_upper_bound(end, mu) == (1.0 - end) * max(0.0, 4.0 - 18.0 * mu)
        beyond = float(np.nextafter(end, outward))
        with pytest.raises(ValueError, match=f"^lambda {re.escape(repr(beyond))} outside"):
            ls_upper_bound(beyond, mu)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ls_upper_bound(-0.1, 1 / 6)
        with pytest.raises(ValueError):
            ls_upper_bound(0.5, 0.24)

    @given(
        lam=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        products=st.integers(1, 4),
    )
    def test_bounds_the_concurrence_of_separable_plus_pure(self, lam, seed, products):
        # rho = lam sigma + (1 - lam) |psi><psi|, sigma a mixture of product
        # states and psi a Haar pure state: Wootters' C(rho) never exceeds the
        # bound read from psi's mu_min, and meets it at lam = 0.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((products, 2, 2, 2))
        qubits = x[..., 0] + 1j * x[..., 1]  # (product, factor, amplitude)
        qubits /= np.linalg.norm(qubits, axis=-1, keepdims=True)
        ab = np.einsum("ki,kj->kij", qubits[:, 0], qubits[:, 1]).reshape(products, 4)
        sigma = np.einsum("k,ki,kj->ij", rng.dirichlet(np.ones(products)), ab, ab.conj())
        psi = random_pure_batch(rng, 1)
        mu = float(spa.mu_min_batch(spa.spa_pt_affine_batch(psi))[0])
        rho = lam * sigma + (1.0 - lam) * psi[0]
        concurrence = float(concurrence_wootters_batch(rho[None])[0])
        bound = ls_upper_bound(lam, mu)
        assert concurrence <= bound + 1e-12
        if lam == 0.0:
            assert concurrence == pytest.approx(bound, abs=1e-9)


def reference_only_quasi_match(rho, tol=1e-9):
    """The quasi-family match as it was before its entry-(1, 1) shortcut."""
    c = 2.0 * float(rho.mat[0, 0].real)
    if not -tol <= c <= 1.0 + tol:
        return False
    ref = family_batch("quasi", [min(max(c, 0.0), 1.0)])[0]
    return bool(np.abs(rho.mat - ref).max() <= tol)


def test_quasi_match_shortcut_keeps_the_verdict():
    rng = np.random.default_rng(31)
    mats = list(random_mixed_batch(rng, 20))
    mats += list(family_batch("horodecki", np.linspace(0, 1, 13)))
    mats += list(family_batch("pure_m", np.linspace(0, 1, 13)))
    for c in (0.0, 0.3, 1.0):
        base = family_batch("quasi", [c])[0]
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


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
def test_quasi_entry_test_at_the_tolerance(monkeypatch, sign):
    # At C = 1 the reference's entry (1, 1) is 0, so rho[1, 1] is the
    # deviation itself and lands exactly on the tolerance.  There the state
    # matches; one float further out, the entry test alone rejects it,
    # before any reference is built.
    def with_11(x):
        m = family_batch("quasi", [1.0])[0]
        m[1, 1] = x
        return DensityMatrix(mat=m)

    at = sign * measures._MATCH_TOL
    assert measures._matches_quasi(with_11(at))

    def refuse(*args):
        raise AssertionError("the reference was built")

    monkeypatch.setattr(measures, "family_batch", refuse)
    assert not measures._matches_quasi(with_11(float(np.nextafter(at, 2.0 * sign))))


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
        rep = full_report(from_spec("horodecki", 0.5))
        assert rep.nd == pytest.approx(ND_H05, abs=1e-12)
        assert rep.nn == pytest.approx(NN_H05, abs=1e-12)
        assert rep.mu_min == pytest.approx(MU_H05, abs=1e-12)
        assert rep.bias == pytest.approx(ND_H05 * (1 - ND_H05) / 339, abs=1e-15)

    def test_quasi_specialization(self):
        rep = full_report(from_spec("quasi", 0.6))
        assert rep.concurrence_quasi_est == pytest.approx(0.6, abs=1e-10)

    def test_universal_relation_sample(self):
        for mat in random_mixed_batch(np.random.default_rng(35), 500):
            rep = full_report(DensityMatrix(mat=mat))
            assert abs(rep.nn - rep.nd * (338 + rep.nd) / 339) <= 1e-10
            assert 0.0 <= rep.nd - rep.nn + 1e-12
            assert rep.nd - rep.nn <= 1 / 1356 + 1e-12

    def test_pure_equality(self):
        rhos = random_pure_batch(np.random.default_rng(36), 500)
        assert np.abs(concurrence_wootters_batch(rhos) - pt_spectrum_batch(rhos)[0]).max() <= 1e-9


class TestPurity:
    # full_report gives concurrence_pure_est exactly when Tr rho^2 >= 1 - 1e-9;
    # the oracle is the trace of rho @ rho, the report reads its own spectrum.
    @staticmethod
    def oracle(rho: DensityMatrix) -> bool:
        return float(np.trace(rho.mat @ rho.mat).real) >= 1.0 - 1e-9

    def check(self, rhos) -> list:
        verdicts = []
        for rho in rhos:
            pure = self.oracle(rho)
            assert (full_report(rho).concurrence_pure_est is not None) is pure
            verdicts.append(pure)
        return verdicts

    def test_ginibre_and_haar_states(self):
        rng = np.random.default_rng(42)
        mats = [m for rank in (1, 2, 3, 4) for m in random_mixed_batch(rng, 40, rank)]
        mats += list(random_pure_batch(rng, 40))
        verdicts = self.check(DensityMatrix(mat=m) for m in mats)
        assert verdicts == [True] * 40 + [False] * 120 + [True] * 40

    @pytest.mark.parametrize("family", ["pure_m", "horodecki", "quasi"])
    def test_family_grids(self, family):
        verdicts = self.check(DensityMatrix(mat=m) for m in family_batch(family, np.linspace(0.0, 1.0, 201)))
        assert verdicts[-1] and (family == "pure_m" or not all(verdicts))

    def test_bell_states(self):
        assert self.check(bell_state(index) for index in range(4)) == [True] * 4

    def test_mixtures_on_each_side_of_the_threshold(self):
        # (1 - d) |psi><psi| + d I/4 has Tr rho^2 = 1 - 1.5 d + 0.75 d^2, so
        # d = (1e-9 - gap) / 1.5 puts it `gap` above 1 - 1e-9, to ~1e-18.
        gaps = [sign * g for g in (1e-12, 1e-11, 1e-10) for sign in (1.0, -1.0)]
        rhos = []
        for k, psi in enumerate(random_pure_batch(np.random.default_rng(43), 60)):
            d = (1e-9 - gaps[k % len(gaps)]) / 1.5
            rhos.append(validate((1.0 - d) * psi + d * np.eye(4) / 4))
        for rho in rhos:
            gap = abs(float(np.trace(rho.mat @ rho.mat).real) - (1.0 - 1e-9))
            assert 0.9e-12 <= gap <= 1.1e-10
        verdicts = self.check(rhos)
        assert verdicts.count(True) == verdicts.count(False) == 30


class TestFloatTail:
    # full_report finishes its scalars in Python floats; the batch_report row
    # of its state is the oracle, bit for bit (repr) and type for type.
    FIELDS = ("nd", "nn", "mu_min", "concurrence")

    @staticmethod
    def check(rho: DensityMatrix):
        rep = full_report(rho)
        row = measures.batch_report(rho.mat[None])
        for name in TestFloatTail.FIELDS:
            ours, theirs = getattr(rep, name), getattr(row, name).tolist()[0]
            assert repr(ours) == repr(theirs), name
            assert type(ours) is type(theirs), name
        assert rep.ppt is row.ppt.tolist()[0]
        # cli._analyze_text prints each float field with %r, which would show
        # an np.float64 as "np.float64(...)".
        for field in dataclasses.fields(measures.EntanglementReport):
            value = getattr(rep, field.name)
            assert type(value) is (bool if field.name == "ppt" else float) or value is None, field.name
        # The float and array clamps agree because no -0.0 reaches them.
        gap = measures._wootters_gap(*measures._wootters_values(linalg.psd_sqrt_batch(rho.mat[None]))[0].tolist())
        for value in (gap, measures._estimator(rep.mu_min)):
            assert not (value == 0.0 and math.copysign(1.0, value) < 0.0)
        return rep

    def test_nd_sums_its_terms_in_numpys_order(self, monkeypatch):
        # A two-qubit rho^{T_B} has at most one negative eigenvalue, so on real
        # spectra the order of N^D's four terms rarely shows.  On this one,
        # ((m0 + m1) + m2) + m3 and numpy's reduce differ in the last bit from
        # the pairwise and the reversed orders.
        lam = np.array([[-0.01, -3e-18, -3e-18, -3e-18]])
        monkeypatch.setattr(linalg, "eigvalsh", lambda pts: lam.copy())
        nd = full_report(from_spec("horodecki", 0.5)).nd
        assert nd.hex() == float(measures._negativity(lam)[0]).hex()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_ginibre_states(self, seed, rank):
        self.check(DensityMatrix(mat=random_mixed_batch(np.random.default_rng(seed), 1, rank)[0]))

    @pytest.mark.parametrize("family", ["pure_m", "horodecki", "quasi"])
    def test_family_points(self, family):
        # Each family is separable at param 0, where mu_min sits at 2/9 and nn
        # clamps to +0.0, and entangled just above it.
        for param in (0.0, 1e-17, 1e-12, 1e-9, 0.5, 1.0 - 1e-12, 1.0):
            self.check(from_spec(family, param))

    def test_werner_states_at_the_threshold(self):
        # p |phi+><phi+| + (1 - p) I / 4 is separable exactly for p <= 1/3.
        clamped = 0
        for p in (1 / 3 - 1e-9, 1 / 3 - 1e-15, 1 / 3, 1 / 3 + 1e-15, 1 / 3 + 1e-9):
            rep = self.check(validate(p * bell_state(0).mat + (1 - p) * np.eye(4) / 4))
            clamped += repr(rep.nn) == "0.0"
        assert 0 < clamped < 5

    def test_pure_and_bell_states(self):
        # A pure state's l1..l3 are ~0.
        for mat in random_pure_batch(np.random.default_rng(41), 40):
            assert self.check(DensityMatrix(mat=mat)).concurrence_pure_est is not None
        for index in range(4):
            self.check(bell_state(index))


class TestEachIntermediateOnce:
    # A report transposes its states once.  batch_report forms M^dag once for
    # each eigh input, which is also each input of a Hermiticity check;
    # full_report checks and diagonalizes both of its eigh inputs in one
    # stack.  A single state is validated by one eigvalsh, without the
    # Gershgorin screen.

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = dict.fromkeys(
            ["hermitian_split", "partial_transpose", "eigh", "eigvalsh", "svdvals", "screen"], 0
        )

        def counted(key, f):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return f(*args, **kwargs)
            return wrapper

        split = counted("hermitian_split", linalg.hermitian_split)
        for module in (linalg, states):
            monkeypatch.setattr(module, "hermitian_split", split)
        pt = counted("partial_transpose", linalg.partial_transpose_batch)
        for module in (linalg, spa, measures):
            monkeypatch.setattr(module, "partial_transpose_batch", pt)
        for key in ("eigh", "eigvalsh", "svdvals"):
            monkeypatch.setattr(linalg, key, counted(key, getattr(linalg, key)))
        monkeypatch.setattr(states, "_gershgorin_min", counted("screen", states._gershgorin_min))
        return calls

    # eigh of the SPA-PT output (mu_min) and of rho (its PSD root), eigvalsh
    # of the partial transpose (N^D), svd behind Wootters' concurrence.
    REPORT = {"hermitian_split": 2, "partial_transpose": 1, "eigh": 2, "eigvalsh": 1,
              "svdvals": 1, "screen": 0}
    # The same calls, with both eigh inputs in one (2, 4, 4) stack.
    FULL_REPORT = {"hermitian_split": 1, "partial_transpose": 1, "eigh": 1, "eigvalsh": 1,
                   "svdvals": 1, "screen": 0}
    VALIDATE = {"hermitian_split": 1, "partial_transpose": 0, "eigh": 0, "eigvalsh": 1,
                "svdvals": 0, "screen": 0}

    def test_full_report(self, calls):
        rho = DensityMatrix(mat=random_mixed_batch(np.random.default_rng(37), 1)[0])
        full_report(rho)
        assert calls == self.FULL_REPORT

    def test_batch_report(self, calls):
        measures.batch_report(random_mixed_batch(np.random.default_rng(38), 5))
        assert calls == self.REPORT

    def test_validate(self, calls):
        validate(random_mixed_batch(np.random.default_rng(39), 1)[0])
        assert calls == self.VALIDATE

    @pytest.mark.parametrize("source", ["state", "family"])
    def test_one_analyze_request(self, calls, monkeypatch, tmp_path, capsys, source):
        # The work of one request through cli.run, split where the report starts.
        at_report = []
        report = measures.full_report
        monkeypatch.setattr(measures, "full_report", lambda rho: at_report.append(dict(calls)) or report(rho))
        if source == "state":
            path = tmp_path / "state.json"
            states.save_state(DensityMatrix(mat=random_mixed_batch(np.random.default_rng(40), 1)[0]), path)
            argv, before = ["analyze", "--state", str(path)], self.VALIDATE
        else:
            argv, before = ["analyze", "--family", "horodecki", "--param", "0.5"], dict.fromkeys(calls, 0)
        assert cli.run(argv) == 0
        assert capsys.readouterr().out
        assert at_report == [before]
        assert {key: calls[key] - before[key] for key in calls} == self.FULL_REPORT

    def test_full_report_counts_no_negative_eigenvalues(self, monkeypatch):
        # The count is batch_report's; full_report takes N^D alone.
        def refuse(pts):
            raise AssertionError("full_report counted negative PT eigenvalues")

        monkeypatch.setattr(measures, "_pt_spectrum", refuse)
        assert full_report(from_spec("horodecki", 0.5)).nd == pytest.approx(ND_H05, abs=1e-12)

    def test_full_report_checks_mu_min_once(self, monkeypatch):
        checked = []
        check = measures._check_mu
        monkeypatch.setattr(measures, "_check_mu", lambda mu: checked.append(mu) or check(mu))
        rep = full_report(from_spec("horodecki", 0.5))
        assert checked == [rep.mu_min]
        assert rep.lower_bound == 4.0 - 18.0 * rep.mu_min


class TestStackedEigensolve:
    # spa_pt_affine neither checks nor diagonalizes its output: full_report
    # does both for the state and the output in one stack, and its mu_min is
    # the batch pipeline's outcome, mu_min_batch(spa_pt_affine_batch(...)),
    # bit for bit.

    @staticmethod
    def skewed() -> DensityMatrix:
        mat = from_spec("horodecki", 0.5).mat.copy()
        mat[0, 1] += 1e-3
        return DensityMatrix(mat=mat)

    def test_full_report_names_the_state_before_any_eigensolve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an eigensolve ran before the Hermiticity check")

        for name in ("eigh", "eigvalsh", "svdvals"):
            monkeypatch.setattr(linalg, name, refuse)
        with pytest.raises(linalg.NotHermitianError,
                           match=r"^matrix 0 of 2 is not Hermitian: max asymmetry 1\.000e-03 "):
            full_report(self.skewed())

    @staticmethod
    def same_mu(rho: DensityMatrix):
        ours = mu_min_batch(spa_pt_affine_batch(rho.mat[None])).tolist()[0]
        theirs = full_report(rho).mu_min
        assert type(ours) is type(theirs) is float
        assert ours.hex() == theirs.hex()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_outcome_mu_min_is_the_reports_on_ginibre_states(self, seed, rank):
        self.same_mu(DensityMatrix(mat=random_mixed_batch(np.random.default_rng(seed), 1, rank)[0]))

    @pytest.mark.parametrize("family", ["pure_m", "horodecki", "quasi"])
    def test_outcome_mu_min_is_the_reports_on_family_points(self, family):
        for param in np.linspace(0.0, 1.0, 21).tolist():
            self.same_mu(from_spec(family, param))

    def test_outcome_mu_min_is_the_reports_on_bell_states(self):
        for index in range(4):
            self.same_mu(bell_state(index))


def test_estimator_bias_formula():
    assert estimator_bias(0.5) == pytest.approx(1 / 1356, abs=1e-15)
    assert estimator_bias(0.0) == 0.0
    assert estimator_bias(1.0) == 0.0
