import numpy as np
import pytest

from spaneg import spa
from spaneg.cli import spa_verify_report
from spaneg.linalg import (
    SIGMA_Y,
    SIGMA_Z,
    herm_eigen_batch,
    partial_transpose_batch,
)
from spaneg.spa import (
    CHOI_METHODS,
    COMPLETENESS_RESIDUAL,
    POVM,
    S_VECTORS,
    choi_matrix,
    depol_d,
    mu_min_batch,
    spa_pt_affine,
    spa_pt_affine_batch,
    spa_pt_compositional_batch,
    spa_pt_paper_entries_batch,
    spa_theta,
    spa_transpose_tilde,
    superoperator,
)
from spaneg.states import (
    DensityMatrix,
    bell_state,
    family_batch,
    from_spec,
    pure_from_vectors,
    random_mixed_batch,
    random_pure_batch,
    validate,
    validate_batch,
)


def partial_transpose(m):
    """rho^{T_B} of one 4x4 matrix through the batched partial transpose."""
    return partial_transpose_batch(np.asarray(m)[None])[0]


def random_qubit_hermitian(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return (g + g.conj().T) / 2


class TestConstants:
    def test_povm_complete(self):
        assert COMPLETENESS_RESIDUAL <= 1e-10
        assert COMPLETENESS_RESIDUAL == float(np.abs(sum(POVM) - np.eye(2)).max())

    def test_vectors_normalized(self):
        for v in S_VECTORS:
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(v.conj()) - 1.0) <= 1e-12

    def test_bloch_vectors_tetrahedral(self):
        # The four outcome directions pairwise overlap at -1/3.
        bloch = []
        for v in (s.conj() for s in S_VECTORS):
            rho = np.outer(v, v.conj())
            bloch.append(
                [np.trace(rho @ s).real for s in (spa.PAULIS[1], spa.PAULIS[2], spa.PAULIS[3])]
            )
        bloch = np.array(bloch)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.dot(bloch[i], bloch[j]) + 1 / 3) < 1e-12


    def test_bitwise_the_tetrahedral_construction(self):
        # The construction from the phases b1, b2 and the s_k* vectors, as
        # spa held it before the POVM became module constants.
        b1 = 1j * np.exp(2j * np.pi / 3) / (1j + np.exp(-2j * np.pi / 3))
        b2 = 1j * np.exp(2j * np.pi / 3) / (1j - np.exp(-2j * np.pi / 3))
        s_star = []
        for b, sign in ((b1, 1), (b1, -1), (b2, 1), (b2, -1)):
            v = np.array([1.0, sign * np.conj(b)], dtype=complex)
            s_star.append(v / np.linalg.norm(v))
        povm = tuple(0.5 * np.outer(v, v.conj()) for v in s_star)
        s_vecs = tuple(v.conj() for v in s_star)
        assert len(POVM) == len(S_VECTORS) == 4
        for got, want in zip(POVM + S_VECTORS, povm + s_vecs):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert COMPLETENESS_RESIDUAL == float(np.abs(sum(povm) - np.eye(2)).max())


class TestTransposeTilde:
    def test_trace_preserved(self):
        # POVM completeness makes the map trace-preserving.
        assert abs(np.trace(spa_transpose_tilde(np.eye(2) / 2)) - 1.0) < 1e-12
        assert abs(np.trace(spa_transpose_tilde(np.diag([0.3, 0.2]))) - 0.5) < 1e-12

    def test_closed_form_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = random_qubit_hermitian(rng)
            ref = (x.T + np.trace(x) * np.eye(2)) / 3
            assert np.abs(spa_transpose_tilde(x) - ref).max() < 1e-12

    def test_cp_on_states(self):
        out = spa_transpose_tilde(np.diag([1.0, 0.0]))
        assert np.abs(out - out.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(out)[0] > -1e-12


class TestTheta:
    def test_linearity(self):
        rng = np.random.default_rng(22)
        x, y = random_qubit_hermitian(rng), random_qubit_hermitian(rng)
        lhs = spa_theta(0.3 * x + 0.7 * y)
        rhs = 0.3 * spa_theta(x) + 0.7 * spa_theta(y)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_trace_preserved(self):
        x = random_qubit_hermitian(np.random.default_rng(23))
        assert abs(np.trace(spa_theta(x)) - np.trace(x)) < 1e-12

    def test_involution_recovers_transpose_tilde(self):
        x = random_qubit_hermitian(np.random.default_rng(24))
        back = SIGMA_Y @ spa_theta(x) @ SIGMA_Y
        assert np.abs(back - spa_transpose_tilde(x)).max() < 1e-13


class TestDepol:
    def test_traceless_to_zero(self):
        assert np.abs(depol_d(SIGMA_Z)).max() < 1e-14

    def test_pure_to_maximally_mixed(self):
        assert np.abs(depol_d(np.diag([1.0, 0.0])) - np.eye(2) / 2).max() < 1e-14

    def test_closed_form(self):
        x = np.random.default_rng(25).standard_normal((2, 2)) + 0j
        assert np.abs(depol_d(x) - np.trace(x) * np.eye(2) / 2).max() <= 1e-14


def mu_min_of(rho: DensityMatrix) -> float:
    """mu_min of one state, through the batch pipeline."""
    return float(mu_min_batch(spa_pt_affine_batch(rho.mat[None]))[0])


class TestAffine:
    def test_bell_mu_min(self):
        assert mu_min_of(bell_state(0)) == pytest.approx(1 / 6, abs=1e-12)

    def test_separable_pure(self):
        rho = validate(pure_from_vectors([[1, 0, 0, 0]])[0])
        assert mu_min_of(rho) == pytest.approx(2 / 9, abs=1e-12)

    def test_pure_m_closed_form(self):
        for m in np.linspace(0, 1, 21):
            mu = mu_min_of(from_spec("pure_m", float(m)))
            assert mu == pytest.approx(2 / 9 - np.sqrt(m * (1 - m)) / 9, abs=1e-12)

    def test_outcome_fields_consistent(self):
        rho = from_spec("horodecki", 0.7)
        pt, tilde = spa_pt_affine(rho)
        assert pt.shape == tilde.shape == (1, 4, 4)
        assert pt.tobytes() == partial_transpose_batch(rho.mat[None]).tobytes()
        assert tilde.tobytes() == spa_pt_affine_batch(rho.mat[None]).tobytes()
        w, vecs = herm_eigen_batch(tilde)
        v = vecs[0][:, 0]
        resid = np.abs(tilde[0] @ v - w[0, 0] * v).max()
        assert resid < 1e-10
        validate(tilde[0])

    def test_spectrum_mapping(self):
        for mat in random_mixed_batch(np.random.default_rng(26), 100):
            rho = DensityMatrix(mat=mat)
            lam = np.linalg.eigvalsh(partial_transpose(rho.mat))
            mu = herm_eigen_batch(spa_pt_affine_batch(rho.mat[None]))[0][0]
            assert np.abs(mu - (lam / 9 + 2 / 9)).max() <= 1e-10

    def test_mu_range_and_npt_equivalence(self):
        mats = random_mixed_batch(np.random.default_rng(27), 500)
        for mat, mu in zip(mats, mu_min_batch(spa_pt_affine_batch(mats))):
            assert 1 / 6 - 1e-10 <= mu <= 0.25 + 1e-10
            npt = np.linalg.eigvalsh(partial_transpose(mat))[0] < -1e-10
            assert npt == (mu < 2 / 9 - 1e-10 / 9)

    def test_trace_relation(self):
        rng = np.random.default_rng(28)
        for _ in range(1000):
            rho = DensityMatrix(mat=random_mixed_batch(rng, 1)[0])
            p = random_pure_batch(rng, 1)[0]
            lhs = np.trace(p @ partial_transpose(rho.mat)).real
            rhs = 9 * np.trace(p @ spa_pt_affine_batch(rho.mat[None])[0]).real - 2
            assert abs(lhs - rhs) <= 1e-10


class TestCompositional:
    def test_bell_matches_affine(self):
        c_mu = mu_min_batch(spa_pt_compositional_batch(bell_state(0).mat[None]))[0]
        assert abs(mu_min_of(bell_state(0)) - c_mu) < 1e-10
        assert c_mu == pytest.approx(1 / 6, abs=1e-12)

    def test_horodecki_closed_form(self):
        ps = np.linspace(0, 1, 11)
        mus = mu_min_batch(spa_pt_compositional_batch(family_batch("horodecki", ps)))
        for p, mu in zip(ps, mus):
            expected = 5 / 18 - p / 18 - np.sqrt(1 - 2 * p + 2 * p**2) / 18
            assert mu == pytest.approx(expected, abs=1e-12)

    def test_matches_affine_on_random_states(self):
        rhos = random_mixed_batch(np.random.default_rng(29), 100)
        dev = np.abs(spa_pt_compositional_batch(rhos) - spa_pt_affine_batch(rhos)).max()
        assert dev <= 1e-10


def literal_of(family, param):
    """The paper-literal SPA-PT output of one family state, and the least
    eigenvalue of its Hermitian part."""
    e = spa_pt_paper_entries_batch(family_batch(family, [param]))
    return e[0], mu_min_batch((e + e.conj().swapaxes(1, 2)) / 2)[0]


class TestPaperLiteral:
    def test_pure_m_matrix(self):
        m = 0.3
        a = np.sqrt(m * (1 - m)) / 9
        expected = np.array(
            [
                [2 / 9, 0, 0, a],
                [0, (2 + m) / 9, 1j * a, 0],
                [0, -1j * a, (3 - m) / 9, 0],
                [a, 0, 0, 2 / 9],
            ]
        )
        out, mu = literal_of("pure_m", m)
        assert np.abs(out - expected).max() < 1e-14
        assert mu == pytest.approx(2 / 9 - a, abs=1e-12)

    def test_horodecki_matrix(self):
        p = 0.5
        expected = np.array(
            [
                [(3 - p) / 9, 0, 0, p / 18],
                [0, (2 + p / 2) / 9, 1j * p / 18, 0],
                [0, -1j * p / 18, (2 + p / 2) / 9, 0],
                [p / 18, 0, 0, 2 / 9],
            ]
        )
        out, mu = literal_of("horodecki", p)
        assert np.abs(out - expected).max() < 1e-14
        mu_cf = 5 / 18 - p / 18 - np.sqrt(1 - 2 * p + 2 * p**2) / 18
        assert mu == pytest.approx(mu_cf, abs=1e-12)

    def test_diagonal_state_matches_affine(self):
        rho = validate(np.diag([0.4, 0.3, 0.2, 0.1]))
        lit = spa_pt_paper_entries_batch(rho.mat[None])[0]
        aff = spa_pt_affine_batch(rho.mat[None])[0]
        assert np.abs(lit - aff).max() < 1e-14

    def test_output_on_its_family_is_a_valid_state(self):
        out, _ = literal_of("pure_m", 0.5)
        check = validate_batch(out[None])
        assert check.valid[0] and check.violations(0) == []


class TestChoi:
    def test_affine_is_cp(self):
        _, is_cp, min_eig = choi_matrix("affine")
        assert is_cp and min_eig >= -1e-12

    def test_compositional_is_cp(self):
        _, is_cp, _ = choi_matrix("compositional")
        assert is_cp

    def test_raw_pt_not_cp(self):
        _, is_cp, min_eig = choi_matrix("pt")
        assert not is_cp and min_eig < -0.5

    def test_identity_is_cp(self):
        _, is_cp, _ = choi_matrix("identity")
        assert is_cp

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            choi_matrix("bogus")

    def test_cached_and_read_only(self):
        assert choi_matrix("affine") is choi_matrix("affine")
        with pytest.raises(ValueError):
            choi_matrix("affine")[0][0, 0] = 1.0


def _affine_closed_form(x):
    return partial_transpose(x) / 9 + (2 / 9) * np.trace(x) * np.eye(4)


# Closed forms of each map; compositional is checked against the affine one,
# its independent oracle.
CLOSED_FORMS = {
    "affine": _affine_closed_form,
    "compositional": _affine_closed_form,
    "pt": partial_transpose,
    "identity": lambda x: x,
}


class TestSuperoperator:
    @pytest.mark.parametrize("method", CHOI_METHODS)
    def test_action_matches_closed_form(self, method):
        rng = np.random.default_rng(41)
        s = superoperator(method)
        assert s.shape == (16, 16)
        for _ in range(20):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            out = (s @ x.reshape(16)).reshape(4, 4)
            assert np.abs(out - CLOSED_FORMS[method](x)).max() < 1e-12

    @pytest.mark.parametrize("method", ["affine", "compositional", "identity"])
    def test_trace_preserving(self, method):
        # Tr(Phi(X)) = Tr(X) for all X iff the diagonal rows of S sum to vec(I).
        s = superoperator(method)
        assert np.abs(s[[0, 5, 10, 15]].sum(axis=0) - np.eye(4).reshape(16)).max() < 1e-12

    @pytest.mark.parametrize("method", CHOI_METHODS)
    def test_choi_blocks_are_columns(self, method):
        choi, _, _ = choi_matrix(method)
        s = superoperator(method)
        for i in range(4):
            for j in range(4):
                block = choi[4 * i : 4 * i + 4, 4 * j : 4 * j + 4]
                assert np.array_equal(block, s[:, 4 * i + j].reshape(4, 4))

    def test_cached_and_read_only(self):
        assert superoperator("compositional") is superoperator("compositional")
        with pytest.raises(ValueError):
            superoperator("compositional")[0, 0] = 1.0

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown map method"):
            superoperator("paper_literal")


def test_verify_report_same_text_on_cold_and_warm_cache():
    superoperator.cache_clear()
    choi_matrix.cache_clear()
    first = spa_verify_report(seed=1)
    assert superoperator.cache_info().currsize == len(CHOI_METHODS)
    second = spa_verify_report(seed=1)
    assert first == second
    assert superoperator.cache_info().hits > 0
