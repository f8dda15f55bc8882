"""Dense complex linear algebra helpers for 2x2 and 4x4 operators.

Everything here is a pure function of its arguments.  Matrices are plain
complex numpy arrays; the basis order for 4x4 operators is
|00>, |01>, |10>, |11>.

The partial transpose, the Hermitian eigensolve and the PSD root each have
one implementation over (N, d, d) stacks (the *_batch functions); only the
partial transpose keeps a per-matrix N = 1 wrapper.  A batch error names the
index of the first offending matrix.

Each Hermiticity check forms M^dag once: _hermitian_parts returns the
entrywise asymmetry |M - M^dag| with the M^dag it came from, and the
Hermitian part (M + M^dag) / 2 reuses that M^dag.  check_hermitian decides a
whole stack with one reduce, the largest entry of |M - M^dag|, and forms the
Hermitian part only once the check passes; per-matrix defects are reduced
only to name the first bad matrix.  A non-finite entry fails the check (its
asymmetry is NaN or inf), so the eigensolve behind a check never sees one.

Every eigensolve and SVD of the package goes through `lapack`
(lapack.eigh, lapack.eigvalsh, lapack.svdvals).  It calls numpy's LAPACK
gufuncs in numpy.linalg._umath_linalg (eigh_lo, eigvalsh_lo and the
values-only svd) with numpy's complex128 signatures, D->dD and D->d, under
the error state np.linalg sets, so a run that does not converge raises
LinAlgError with numpy's message.  At N = 1, np.linalg's Python wrappers
cost about as much as LAPACK itself.  The module is private, so the first
call in a process (not the import) checks the gufuncs bitwise against
np.linalg on a fixed stack.  On a mismatch or a missing module or name, and
for any input that is not a complex128 ndarray stack of square matrices,
`lapack` calls np.linalg instead.

Every trace of an (N, 4, 4) stack goes through `trace_batch`, bitwise
np.trace(m, axis1=1, axis2=2): numpy sums each diagonal of a C-contiguous
complex128 stack pairwise, as 0 + ((d0 + d1) + (d2 + d3)), and trace_batch
does the same with four elementwise adds.  Right after a BLAS matmul,
np.trace of a 256-stack costs several times the adds.  The order is a numpy
internal, so trace_batch keeps the guarantees of `lapack`: the first call
that may take the adds checks them bitwise against np.trace on a fixed
stack, and on a mismatch, for a stack of fewer than 8 matrices and for any
other input, trace_batch calls np.trace.
"""

from __future__ import annotations

import numpy as np

try:
    from numpy.linalg import _umath_linalg
except ImportError:  # a numpy that moved its gufuncs: np.linalg throughout
    _umath_linalg = None

# Centralized tolerance constants.
VALIDATE_TOL = 1e-9
RESIDUAL_TOL = 1e-10
PSD_CLAMP = 1e-10

# Items per stacked chunk wherever many states are processed: cli's
# random_study_rows, random_pair_residuals and sweep_rows.  Peak memory grows
# with the chunk faster than speed does: for a 10 000-state study, peak RSS
# over the per-state loop was +1-3 % at 256, +2-4 % at 1024 (for ~5 % more
# throughput) and +30 % unchunked.
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


def _hermitian_parts(m) -> tuple[np.ndarray, np.ndarray]:
    """(|M - M^dag|, M^dag) of a matrix or an (N, d, d) stack: the entrywise
    asymmetry and the one M^dag it came from.  An infinite entry gives a NaN
    or infinite asymmetry; a caller that takes such input ignores the
    invalid-value warning of inf - inf (and, for entries past ~9e307, the
    overflow warning)."""
    m = np.asarray(m, dtype=complex)
    mh = m.conj().swapaxes(-1, -2)
    return np.abs(m - mh), mh


def _by_entry(a) -> np.ndarray:
    """Contiguous (d*d, N) copy of an (N, d, d) stack (of a matrix: (d*d,)).

    A reduce over its axis 0 is a per-matrix reduce: at N = 256 it is ~3x
    faster than one over each matrix's trailing (d, d) axes.
    """
    flat = a.reshape(a.shape[:-2] + (a.shape[-1] ** 2,))
    return np.ascontiguousarray(flat.T)


def _matrix_max(a) -> np.ndarray:
    """Largest entry of each matrix of an (N, d, d) stack (of a matrix: a float)."""
    return _by_entry(a).max(axis=0)


def _matrix_count(b) -> np.ndarray:
    """Number of true entries of each matrix of a bool (N, 4, 4) stack, as uint8."""
    # A uint8 sum of the bool bytes adds rows without a cast; 16 fits.
    return np.add.reduce(_by_entry(b).view(np.uint8), axis=0, dtype=np.uint8)


def hermiticity_defect(m):
    """Max-entry deviation from Hermitian symmetry, ||M - M^dag||_max, of a
    matrix (a float) or of each matrix of an (N, d, d) stack (an array)."""
    return _matrix_max(_hermitian_parts(m)[0])


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


@np.errstate(invalid="ignore")  # inf - inf; as a decorator, see _eig_call
def check_hermitian(m) -> np.ndarray:
    """Hermitian part (M + M^dag) / 2 of each matrix of an (N, d, d) stack.

    Raises NotHermitianError naming the first matrix whose ||M - M^dag||_max
    exceeds VALIDATE_TOL or is NaN, as it is for a matrix with a non-finite
    entry.
    """
    m = _as_stack(m)
    asym, mh = _hermitian_parts(m)
    if not asym.max(initial=0.0) <= VALIDATE_TOL:  # true for NaN
        defect = _matrix_max(asym)
        i = first_index(~(defect <= VALIDATE_TOL))
        raise NotHermitianError(
            f"matrix {i} of {len(m)} is not Hermitian: max asymmetry {defect[i]:.3e} "
            f"exceeds {VALIDATE_TOL:.0e}"
        )
    return (m + mh) / 2


def _eig_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _svd_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


# np.linalg's error state around these gufuncs.  As a decorator, errstate
# costs about half of what entering a new errstate on each call does.
@np.errstate(call=_eig_nonconvergence, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _eig_call(gufunc, a, signature):
    return gufunc(a, signature=signature)


@np.errstate(call=_svd_nonconvergence, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _svd_call(gufunc, a):
    return gufunc(a, signature="D->d")


class _Lapack:
    """np.linalg.eigh, eigvalsh and values-only svd through numpy's gufuncs.

    Each call returns np.linalg's bits.  The first call checks the gufuncs
    against np.linalg; if that check fails, and for input other than a
    complex128 ndarray stack of square matrices, the calls go to np.linalg.
    """

    def __init__(self, module):
        self.module = module
        self.verified = None  # the check's verdict; None until the first call

    def _fast(self, a) -> bool:
        if self.verified is None:
            self.verified = self._matches_numpy()
        return (
            self.verified
            and type(a) is np.ndarray
            and a.dtype == np.complex128
            and a.ndim >= 2
            and a.shape[-1] == a.shape[-2]
        )

    def _matches_numpy(self) -> bool:
        """True iff each gufunc gives np.linalg's bits on a fixed stack."""
        # Fixed, generic entries; np.random is not imported for the check.
        z = np.sin(np.arange(1.0, 257.0) ** 2).reshape(8, 4, 4, 2) @ [1, 1j]
        h = z @ z.conj().swapaxes(1, 2)
        try:
            ours = [
                *_eig_call(self.module.eigh_lo, h, "D->dD"),
                _eig_call(self.module.eigvalsh_lo, h, "D->d"),
                _svd_call(self.module.svd, z),
            ]
        except (AttributeError, TypeError, ValueError):  # no such name, or a refused call
            return False
        theirs = [*np.linalg.eigh(h), np.linalg.eigvalsh(h), np.linalg.svd(z, compute_uv=False)]
        return all(
            x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in zip(ours, theirs)
        )

    def eigh(self, a):
        """np.linalg.eigh(a): ascending eigenvalues w and eigenvectors v."""
        if self._fast(a):
            return _eig_call(self.module.eigh_lo, a, "D->dD")
        return np.linalg.eigh(a)

    def eigvalsh(self, a):
        """np.linalg.eigvalsh(a): ascending eigenvalues."""
        if self._fast(a):
            return _eig_call(self.module.eigvalsh_lo, a, "D->d")
        return np.linalg.eigvalsh(a)

    def svdvals(self, a):
        """np.linalg.svd(a, compute_uv=False): descending singular values."""
        if self._fast(a):
            return _svd_call(self.module.svd, a)
        return np.linalg.svd(a, compute_uv=False)


lapack = _Lapack(_umath_linalg)


# Stacks of fewer matrices are summed by np.trace's one reduce.  Alone, that
# reduce costs ~1.6 us at N = 1 against ~3.5 us for the four adds; right
# after a BLAS matmul the adds are cheaper from N = 8 on (timeit, 1 thread).
_ADDS_MIN = 8


class _Trace:
    """np.trace(m, axis1=1, axis2=2) of an (N, 4, 4) stack, bit for bit.

    numpy 2.4.6 sums the 8 doubles of a complex diagonal pairwise and adds
    the result to the sum's +0 start, so each trace is 0 + ((d0 + d1) +
    (d2 + d3)): +0, not -0, for a diagonal of signed zeros.  That holds when
    the diagonal is the inner loop of the reduce, as it is for a C-contiguous
    stack; on a Fortran-ordered one numpy sums in sequence.  The first call
    checks the adds against np.trace on a fixed stack; if that check fails,
    and for input other than a C-contiguous complex128 (N, 4, 4) ndarray of
    at least _ADDS_MIN matrices, the call goes to np.trace.
    """

    def __init__(self):
        self.verified = None  # the check's verdict; None until the first call

    def __call__(self, m) -> np.ndarray:
        if type(m) is not np.ndarray:
            return np.trace(m, axis1=1, axis2=2)
        if m.ndim == 3 and len(m) >= _ADDS_MIN and self._fast(m):
            return self._adds(m)
        return m.trace(axis1=1, axis2=2)  # np.trace's own call on an ndarray

    def _fast(self, m) -> bool:
        if self.verified is None:
            self.verified = self._matches_numpy()
        return (
            self.verified
            and m.dtype == np.complex128
            and m.shape[1:] == (4, 4)
            and m.flags.c_contiguous
        )

    @staticmethod
    def _adds(m) -> np.ndarray:
        d = m.reshape(len(m), 16)  # diagonal entries at columns 0, 5, 10, 15
        t = (d[:, 0] + d[:, 5]) + (d[:, 10] + d[:, 15])
        t += 0.0
        return t

    def _matches_numpy(self) -> bool:
        """True iff the adds give np.trace's bits on a fixed stack."""
        # Fixed entries whose magnitudes span 1e-8..1e8, so that another order
        # rounds differently; np.random is not imported for the check.  The
        # last matrix is all -0, where the +0 start shows.
        k = np.arange(1.0, 1025.0)
        z = (np.sin(k ** 2) * 10.0 ** (8 * np.sin(k))).reshape(32, 4, 4, 2) @ [1, 1j]
        z[-1] = complex(-0.0, -0.0)
        ours = self._adds(z)
        theirs = np.trace(z, axis1=1, axis2=2)
        return ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


trace_batch = _Trace()


def herm_eigen_batch(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of each matrix in a Hermitian (N, d, d) stack.

    w[n] is ascending and v[n][:, i] pairs with w[n, i].  Raises
    NotHermitianError naming the first matrix whose ||M - M^dag||_max exceeds
    VALIDATE_TOL.  The strictly Hermitian part is diagonalized, so residuals
    stay at machine precision.
    """
    return lapack.eigh(check_hermitian(m))


def psd_sqrt_batch(m) -> np.ndarray:
    """Hermitian PSD square root of each matrix in an (N, d, d) stack.

    Eigenvalues in [-PSD_CLAMP, 0) are clamped to zero; a lower one raises
    NotPsdError naming the first such matrix.
    """
    w, v = herm_eigen_batch(m)
    if w[:, 0].min(initial=0.0) < -PSD_CLAMP:
        i = first_index(w[:, 0] < -PSD_CLAMP)
        raise NotPsdError(
            f"matrix {i} of {len(w)} is not PSD: minimum eigenvalue {w[i, 0]:.3e} "
            f"below -{PSD_CLAMP:.0e}"
        )
    s = np.sqrt(np.maximum(w, 0.0))
    return (v * s[:, None, :]) @ v.conj().swapaxes(1, 2)
