"""Dense complex linear algebra helpers for 2x2 and 4x4 operators.

Everything here is a pure function of its arguments.  Matrices are plain
complex numpy arrays; the basis order for 4x4 operators is
|00>, |01>, |10>, |11>.

The partial transpose, the Hermitian eigensolve and the PSD root each have
one implementation over (N, d, d) stacks (the *_batch functions); the
per-matrix functions are N = 1 wrappers around them.  A batch error names the
index of the first offending matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Centralized tolerance constants.
VALIDATE_TOL = 1e-9
RESIDUAL_TOL = 1e-10
PSD_CLAMP = 1e-10

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)


class DimensionError(ValueError):
    """Input matrix has the wrong shape for the requested operation."""


class NotHermitianError(ValueError):
    """Input matrix deviates from Hermitian beyond tolerance."""


class NotPsdError(ValueError):
    """Input matrix has an eigenvalue below the PSD clamp tolerance."""


def _as_square(m, dims=(2, 4)) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in dims:
        raise DimensionError(f"expected dimension in {dims}, got {m.shape[0]}")
    return m


def _as_stack(m, dims=(2, 4)) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise DimensionError(
            f"expected a stack of square matrices (N, d, d), got shape {m.shape}"
        )
    if m.shape[1] not in dims:
        raise DimensionError(f"expected dimension in {dims}, got {m.shape[1]}")
    return m


def first_index(bad: np.ndarray) -> int | None:
    """Index of the first true entry of a boolean vector, or None."""
    i = int(bad.argmax())
    return i if bad[i] else None


def hermiticity_defect(m):
    """Max-entry deviation from Hermitian symmetry, ||M - M^dag||_max, of a
    matrix (a float) or of each matrix of an (N, d, d) stack (an array)."""
    m = np.asarray(m, dtype=complex)
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


@dataclass(frozen=True)
class Spectrum:
    """Full eigensystem of a Hermitian matrix.

    eigenvalues are real and sorted ascending; eigenvectors[:, i] is the
    orthonormal eigenvector paired with eigenvalues[i].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def min_eigenvector(self) -> np.ndarray:
        return self.eigenvectors[:, 0]


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 operators in the |00>,|01>,|10>,|11> basis."""
    a = _as_square(a, dims=(2,))
    b = _as_square(b, dims=(2,))
    return np.kron(a, b)


def partial_transpose_batch(m) -> np.ndarray:
    """Transpose the B-subsystem indices of each operator in an (N, 4, 4) stack."""
    m = _as_stack(m, dims=(4,))
    return m.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)


def partial_transpose_b(m) -> np.ndarray:
    """Transpose the B-subsystem indices of a 4x4 bipartite operator.

    Involutive and trace-preserving; maps Hermitian to Hermitian.  Positive
    but not completely positive as a map, hence the need for its structural
    physical approximation downstream.
    """
    return partial_transpose_batch(_as_square(m, dims=(4,))[None])[0]


def partial_trace(m, subsystem: str) -> np.ndarray:
    """Trace out one qubit of a 4x4 operator; subsystem is "A" or "B"."""
    m = _as_square(m, dims=(4,))
    t = m.reshape(2, 2, 2, 2)
    if subsystem == "A":
        return np.einsum("ijik->jk", t)
    if subsystem == "B":
        return np.einsum("ijkj->ik", t)
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def herm_eigen_batch(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of each matrix in a Hermitian (N, d, d) stack.

    w[n] is ascending and v[n][:, i] pairs with w[n, i].  Raises
    NotHermitianError naming the first matrix whose ||M - M^dag||_max exceeds
    VALIDATE_TOL.  The strictly Hermitian part is diagonalized, so residuals
    stay at machine precision.
    """
    m = _as_stack(m)
    mh = m.conj().swapaxes(1, 2)
    asym = np.abs(m - mh)
    if asym.max(initial=0.0) > VALIDATE_TOL:
        defect = asym.max(axis=(1, 2))
        i = first_index(defect > VALIDATE_TOL)
        raise NotHermitianError(
            f"matrix {i} of {len(m)} is not Hermitian: max asymmetry {defect[i]:.3e} "
            f"exceeds {VALIDATE_TOL:.0e}"
        )
    return np.linalg.eigh((m + mh) / 2)


def herm_eigen(m) -> Spectrum:
    """Eigendecomposition of one Hermitian matrix; see herm_eigen_batch."""
    w, v = herm_eigen_batch(_as_square(m)[None])
    return Spectrum(eigenvalues=w[0], eigenvectors=v[0])


def psd_sqrt_batch(m) -> np.ndarray:
    """Hermitian PSD square root of each matrix in an (N, d, d) stack.

    Eigenvalues in [-PSD_CLAMP, 0) are clamped to zero; a lower one raises
    NotPsdError naming the first such matrix.
    """
    w, v = herm_eigen_batch(m)
    i = first_index(w[:, 0] < -PSD_CLAMP)
    if i is not None:
        raise NotPsdError(
            f"matrix {i} of {len(w)} is not PSD: minimum eigenvalue {w[i, 0]:.3e} "
            f"below -{PSD_CLAMP:.0e}"
        )
    s = np.sqrt(np.maximum(w, 0.0))
    return (v * s[:, None, :]) @ v.conj().swapaxes(1, 2)


def psd_sqrt(m) -> np.ndarray:
    """Hermitian PSD square root S of one matrix, S @ S == M up to 1e-9;
    see psd_sqrt_batch."""
    return psd_sqrt_batch(_as_square(m)[None])[0]
