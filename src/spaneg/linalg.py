"""Dense complex linear algebra helpers for 2x2 and 4x4 operators.

Everything here is a pure function of its arguments.  Matrices are plain
complex numpy arrays; the basis order for 4x4 operators is
|00>, |01>, |10>, |11>.

The partial transpose, the Hermitian eigensolve and the PSD root each have
one implementation over (N, d, d) stacks (the *_batch functions); only the
partial transpose keeps a per-matrix N = 1 wrapper.  A batch error names the
index of the first offending matrix.
"""

from __future__ import annotations

import numpy as np

# Centralized tolerance constants.
VALIDATE_TOL = 1e-9
RESIDUAL_TOL = 1e-10
PSD_CLAMP = 1e-10

# Items per stacked chunk wherever many states or shot trials are processed:
# cli's random_study_rows, random_pair_residuals and sweep_rows, and the seed
# hashing of shotsim.trial_counts.  Peak memory grows with the chunk faster
# than speed does: for a 10 000-state study, peak RSS over the per-state loop
# was +1-3 % at 256, +2-4 % at 1024 (for ~5 % more throughput) and +30 %
# unchunked.
STUDY_CHUNK = 256

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


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] != 4:
        raise DimensionError(f"expected dimension in (4,), got {m.shape[0]}")
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
    asym = np.abs(m - m.conj().swapaxes(-1, -2))
    flat = asym.reshape(asym.shape[:-2] + (asym.shape[-1] ** 2,))
    # Reduce a contiguous (d*d, N) copy: at N = 256 this is ~3x faster than a
    # max over each matrix's trailing (d, d) axes, and it is on the eigh path.
    return np.ascontiguousarray(flat.T).max(axis=0)


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
    return partial_transpose_batch(_as_square(m)[None])[0]


def check_hermitian(m) -> None:
    """Raise NotHermitianError naming the first matrix of an (N, d, d) stack
    whose ||M - M^dag||_max exceeds VALIDATE_TOL."""
    m = _as_stack(m)
    defect = hermiticity_defect(m)
    if defect.max(initial=0.0) > VALIDATE_TOL:
        i = first_index(defect > VALIDATE_TOL)
        raise NotHermitianError(
            f"matrix {i} of {len(m)} is not Hermitian: max asymmetry {defect[i]:.3e} "
            f"exceeds {VALIDATE_TOL:.0e}"
        )


def herm_eigen_batch(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of each matrix in a Hermitian (N, d, d) stack.

    w[n] is ascending and v[n][:, i] pairs with w[n, i].  Raises
    NotHermitianError naming the first matrix whose ||M - M^dag||_max exceeds
    VALIDATE_TOL.  The strictly Hermitian part is diagonalized, so residuals
    stay at machine precision.
    """
    m = _as_stack(m)
    check_hermitian(m)
    return np.linalg.eigh((m + m.conj().swapaxes(1, 2)) / 2)


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
