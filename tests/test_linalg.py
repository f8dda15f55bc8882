import numpy as np
import pytest

from spaneg import linalg
from spaneg.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    herm_eigen_batch,
    partial_transpose_b,
    psd_sqrt_batch,
)


def random_hermitian(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def eigen(m):
    """(w, v) of one Hermitian matrix through the batched eigensolve."""
    w, v = herm_eigen_batch(np.asarray(m)[None])
    return w[0], v[0]


def kron_by_hand(a, b):
    # Independent multiply-out oracle for the Kronecker product.
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
    return out


class TestKron:
    # numpy's Kronecker product, which spa and measures use for two-qubit
    # operators, checked in the |00>,|01>,|10>,|11> basis.
    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_pair(self):
        assert np.allclose(np.kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]), atol=0)

    def test_matches_multiply_out_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert np.abs(np.kron(a, b) - kron_by_hand(a, b)).max() < 1e-14
            assert abs(np.trace(np.kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


class TestPartialTranspose:
    def test_diagonal_invariant(self):
        d = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        assert np.array_equal(partial_transpose_b(d), d)

    def test_bell_spectrum(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        lam = np.linalg.eigvalsh(partial_transpose_b(np.outer(v, v.conj())))
        assert np.allclose(lam, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_pure_m_entry_relocation(self):
        # t_23 lives on |01><10|; the B-transpose carries it to |00><11|.
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1], m[2, 2] = 0.3, 0.7
        m[1, 2] = m[2, 1] = 0.458
        pt = partial_transpose_b(m)
        assert pt[0, 3] == 0.458 and pt[3, 0] == 0.458
        assert pt[1, 2] == 0 and pt[2, 1] == 0
        assert np.array_equal(np.diag(pt), np.diag(m))

    def test_involution_bitwise(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(partial_transpose_b(partial_transpose_b(m)), m)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng)
        pt = partial_transpose_b(h)
        assert abs(np.trace(pt) - np.trace(h)) < 1e-14
        assert linalg.hermiticity_defect(pt) < 1e-14


class TestHermEigen:
    def test_diagonal(self):
        w, _ = eigen(np.diag([3.0, 1.0, 2.0, 0.0]))
        assert np.allclose(w, [0, 1, 2, 3], atol=0)

    def test_pauli_x(self):
        w, _ = eigen(SIGMA_X)
        assert np.allclose(w, [-1, 1], atol=1e-14)

    def test_char_poly_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_hermitian(rng)
            got, _ = eigen(m)
            oracle = np.sort(np.roots(np.poly(m)).real)
            assert np.abs(got - oracle).max() < 1e-9

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-3
        with pytest.raises(linalg.NotHermitianError, match="asymmetry"):
            eigen(m)

    def test_residuals_and_trace_over_ensemble(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            m = random_hermitian(rng)
            w, v = eigen(m)
            res = np.abs(m @ v - v * w).max()
            assert res <= 1e-10
            assert abs(w.sum() - np.trace(m).real) <= 1e-10
            gram = v.conj().T @ v
            assert np.abs(gram - np.eye(4)).max() <= 1e-10


class TestPsdSqrt:
    def test_identity(self):
        assert np.abs(psd_sqrt_batch(np.eye(4)[None])[0] - np.eye(4)).max() < 1e-14

    def test_diagonal(self):
        s = psd_sqrt_batch(np.diag([4.0, 1.0, 0.0, 9.0])[None])[0]
        assert np.abs(s - np.diag([2.0, 1.0, 0.0, 3.0])).max() < 1e-14

    def test_ginibre_reconstruction(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            s = psd_sqrt_batch(m[None])[0]
            assert np.abs(s @ s - m).max() <= 1e-9 * max(1.0, np.abs(m).max())
            assert linalg.hermiticity_defect(s) < 1e-12

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(linalg.NotPsdError):
            psd_sqrt_batch(np.diag([1.0, 1.0, 1.0, -1e-6])[None])


def test_trace_product_eigenvalue_inequality():
    # For Hermitian F1, F2: sum_i l_i(F1) l_{n+1-i}(F2) <= Tr(F1 F2)
    #                       <= sum_i l_i(F1) l_i(F2).
    rng = np.random.default_rng(10)
    for _ in range(1000):
        f1 = random_hermitian(rng)
        f2 = random_hermitian(rng)
        l1, _ = eigen(f1)
        l2, _ = eigen(f2)
        tr = np.trace(f1 @ f2).real
        lower = float(np.dot(l1, l2[::-1]))
        upper = float(np.dot(l1, l2))
        assert lower <= tr + 1e-10
        assert tr <= upper + 1e-10
