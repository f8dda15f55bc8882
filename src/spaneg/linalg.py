"""Dense complex linear algebra helpers for stacks of 4x4 two-qubit operators.

Everything here is a pure function of its arguments.  Matrices are plain
complex numpy arrays; the basis order for 4x4 operators is
|00>, |01>, |10>, |11>.

The partial transpose, the Hermitian eigensolve and the PSD root each have
one implementation over (N, 4, 4) stacks (the *_batch functions), and no
per-matrix wrapper.  The PSD root's tail after the eigensolve is
psd_sqrt_from_eigen, for a caller that already holds the eigendecomposition.
A batch error names the index of the first offending matrix.

Each Hermiticity check goes through hermitian_split, which forms M^dag once
and returns the Hermitian part (M + M^dag) / 2, the entrywise asymmetry
|M - M^dag| and whether M + M^dag overflowed float64, found by an error
state in which overflow raises, so a stack that does not overflow pays
nothing for it.  check_hermitian and states.validate_batch both take it.
check_hermitian decides a whole stack with one reduce, the largest entry of
|M - M^dag|; per-matrix defects are reduced only to name the first bad
matrix.  A non-finite entry fails the check (its asymmetry is NaN or inf),
and a Hermitian part that overflows, from finite entries near float64's
maximum, raises HermitianOverflowError, so the eigensolve behind a check
never sees a non-finite entry.

Every eigensolve and SVD of the package goes through eigh, eigvalsh and
svdvals, called as linalg.<name>.  Each calls numpy's LAPACK gufunc in
numpy.linalg._umath_linalg (eigh_lo, eigvalsh_lo and the values-only svd)
with numpy's complex128 signature, D->dD or D->d, under the error state
np.linalg sets, so a run that does not converge raises LinAlgError with
numpy's message.  At N = 1, np.linalg's Python wrappers cost about as much
as LAPACK itself.  The module is private, so the first call in a process
(not the import) checks the gufuncs bitwise against np.linalg on a fixed
stack, through _gufuncs_match.  On a mismatch or a missing module or name,
each function calls np.linalg instead.  Each takes complex128 ndarray
stacks of square matrices, which every caller passes, and does not test its
input.

Every trace of an (N, 4, 4) stack goes through `trace_batch`, bitwise
np.trace(m, axis1=1, axis2=2): numpy sums each diagonal of a C-contiguous
complex128 stack pairwise, as 0 + ((d0 + d1) + (d2 + d3)), and trace_batch
does the same with four elementwise adds.  Right after a BLAS matmul,
np.trace of a 256-stack costs several times the adds.  The order is a numpy
internal, so trace_batch keeps the same guarantees: the first call
that may take the adds checks them bitwise against np.trace on a fixed
stack, through _adds_match, and on a mismatch, for a stack of fewer than 8
matrices and for any other input, trace_batch calls np.trace.

Each check is a zero-argument functools.cache predicate, so it runs once
per process.
"""

from __future__ import annotations

import functools
import math

import numpy as np

try:
    from numpy.linalg import _umath_linalg
except ImportError:  # a numpy that moved its gufuncs: np.linalg throughout
    _umath_linalg = None

# Centralized tolerance constants.
VALIDATE_TOL = 1e-9
RESIDUAL_TOL = 1e-10
PSD_CLAMP = 1e-10

# The violation of a matrix whose Hermitian part overflows, by its count of
# non-finite entries; check_hermitian and states.validate_batch both name it.
OVERFLOW_VIOLATION = "entries too large: (M + M^dag) / 2 overflows in {} of 16"

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


class HermitianOverflowError(ValueError):
    """Input matrix is Hermitian, but its Hermitian part (M + M^dag) / 2 overflows."""


def as_stack(m) -> np.ndarray:
    """m as a complex (N, 4, 4) stack; DimensionError for any other shape."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise DimensionError(f"expected a stack of square matrices (N, 4, 4), got shape {m.shape}")
    return m


def first_index(bad: np.ndarray) -> int | None:
    """Index of the first true entry of a boolean vector, or None."""
    i = int(bad.argmax())
    return i if bad[i] else None


def per_matrix(reduce, a, **kwargs) -> np.ndarray:
    """reduce over each matrix of an (N, ...) stack, through a contiguous
    (K, N) copy of its N matrices of K entries.

    A reduce over that copy's axis 0 is ~3x faster at N = 256 than one over
    each matrix's trailing axes.
    """
    k = math.prod(a.shape[1:])  # not -1, which an empty stack cannot take
    return reduce(np.ascontiguousarray(a.reshape(len(a), k).T), axis=0, **kwargs)


def matrix_count(b) -> np.ndarray:
    """Number of true entries of each matrix of a bool (N, 4, 4) stack, as uint8."""
    # A uint8 sum of the bool bytes adds rows without a cast; 16 fits.
    return per_matrix(np.add.reduce, b.view(np.uint8), dtype=np.uint8)


def partial_transpose_batch(m) -> np.ndarray:
    """Transpose the B-subsystem indices of each operator in an (N, 4, 4) stack.

    Involutive and trace-preserving, but not completely positive: hence its
    structural physical approximation downstream.
    """
    m = as_stack(m)
    return m.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)


# inf - inf is ignored.  Overflow raises, so that a Hermitian part past
# float64's maximum is found at no cost to a stack that does not overflow.  As
# a decorator, errstate costs about half of what entering a new errstate on
# each call does.
@np.errstate(invalid="ignore", over="raise")
def hermitian_split(m) -> tuple[np.ndarray, np.ndarray, bool]:
    """(H, |M - M^dag|, overflowed) of a complex (N, 4, 4) stack M.

    H = (M + M^dag) / 2 is the Hermitian part and |M - M^dag| the entrywise
    asymmetry, both from one M^dag; overflowed is true iff M + M^dag
    overflowed float64 in some entry, which H then holds as inf.  A
    non-finite entry of M makes its entries of H and of the asymmetry
    non-finite.  No warning is emitted.
    """
    mh = m.conj().swapaxes(-1, -2)
    try:
        asym = np.abs(m - mh)
    except FloatingPointError:  # an asymmetry past float64's maximum
        with np.errstate(over="ignore"):
            asym = np.abs(m - mh)
    try:
        h, overflowed = m + mh, False
    except FloatingPointError:
        with np.errstate(over="ignore"):
            h, overflowed = m + mh, True
    return np.divide(h, 2, out=h), asym, overflowed


def check_hermitian(m) -> np.ndarray:
    """Hermitian part (M + M^dag) / 2 of each matrix of an (N, 4, 4) stack.

    Raises NotHermitianError naming the first matrix whose ||M - M^dag||_max
    exceeds VALIDATE_TOL or is NaN, as it is for a matrix with a non-finite
    entry, and HermitianOverflowError naming the first Hermitian matrix with
    an entry near float64's maximum that makes its Hermitian part overflow.
    """
    m = as_stack(m)
    h, asym, overflowed = hermitian_split(m)
    if not np.maximum.reduce(asym, axis=None, initial=0.0) <= VALIDATE_TOL:  # true for NaN
        defect = per_matrix(np.maximum.reduce, asym)
        i = first_index(~(defect <= VALIDATE_TOL))
        raise NotHermitianError(
            f"matrix {i} of {len(m)} is not Hermitian: max asymmetry {defect[i]:.3e} "
            f"exceeds {VALIDATE_TOL:.0e}"
        )
    if overflowed:
        bad = matrix_count(~np.isfinite(h))
        i = first_index(bad > 0)
        raise HermitianOverflowError(f"matrix {i} of {len(m)}: " + OVERFLOW_VIOLATION.format(bad[i]))
    return h


def _eig_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _svd_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


# np.linalg's error state around its LAPACK gufuncs.
_EIG_STATE = np.errstate(call=_eig_nonconvergence, invalid="call", over="ignore", divide="ignore",
                         under="ignore")


@_EIG_STATE
def eigh(a):
    """np.linalg.eigh(a): ascending eigenvalues w and eigenvectors v."""
    if _gufuncs_match():
        return _umath_linalg.eigh_lo(a, signature="D->dD")
    return np.linalg.eigh(a)


@_EIG_STATE
def eigvalsh(a):
    """np.linalg.eigvalsh(a): ascending eigenvalues."""
    if _gufuncs_match():
        return _umath_linalg.eigvalsh_lo(a, signature="D->d")
    return np.linalg.eigvalsh(a)


@np.errstate(call=_svd_nonconvergence, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def svdvals(a):
    """np.linalg.svd(a, compute_uv=False): descending singular values."""
    if _gufuncs_match():
        return _umath_linalg.svd(a, signature="D->d")
    return np.linalg.svd(a, compute_uv=False)


@functools.cache
def _gufuncs_match() -> bool:
    """True iff each gufunc gives np.linalg's bits on a fixed stack; taken once,
    by the first call of eigh, eigvalsh or svdvals in the process, under its
    error state."""
    # Fixed, generic entries; np.random is not imported for the check.
    z = np.sin(np.arange(1.0, 257.0) ** 2).reshape(8, 4, 4, 2) @ [1, 1j]
    h = z @ z.conj().swapaxes(1, 2)
    try:
        ours = [
            *_umath_linalg.eigh_lo(h, signature="D->dD"),
            _umath_linalg.eigvalsh_lo(h, signature="D->d"),
            _umath_linalg.svd(z, signature="D->d"),
        ]
    except (AttributeError, TypeError, ValueError):  # no such name, or a refused call
        return False
    theirs = [*np.linalg.eigh(h), np.linalg.eigvalsh(h), np.linalg.svd(z, compute_uv=False)]
    return all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(ours, theirs)
    )


# Stacks of fewer matrices are summed by np.trace's one reduce.  Alone, that
# reduce costs ~1.6 us at N = 1 against ~3.5 us for the four adds; right
# after a BLAS matmul the adds are cheaper from N = 8 on (timeit, 1 thread).
_ADDS_MIN = 8


def trace_batch(m) -> np.ndarray:
    """np.trace(m, axis1=1, axis2=2) of an (N, 4, 4) stack, bit for bit.

    numpy 2.4.6 sums the 8 doubles of a complex diagonal pairwise and adds
    the result to the sum's +0 start, so each trace is 0 + ((d0 + d1) +
    (d2 + d3)): +0, not -0, for a diagonal of signed zeros.  That holds when
    the diagonal is the inner loop of the reduce, as it is for a C-contiguous
    stack; on a Fortran-ordered one numpy sums in sequence.  A C-contiguous
    complex128 (N, 4, 4) ndarray of at least _ADDS_MIN matrices takes _adds
    if _adds_match holds; any other input, and every input if it fails, goes
    to np.trace.
    """
    if type(m) is not np.ndarray:
        return np.trace(m, axis1=1, axis2=2)
    if (m.ndim == 3 and len(m) >= _ADDS_MIN and m.dtype == np.complex128
            and m.shape[1:] == (4, 4) and m.flags.c_contiguous and _adds_match()):
        return _adds(m)
    return m.trace(axis1=1, axis2=2)  # np.trace's own call on an ndarray


def _adds(m) -> np.ndarray:
    d = m.reshape(len(m), 16)  # diagonal entries at columns 0, 5, 10, 15
    t = (d[:, 0] + d[:, 5]) + (d[:, 10] + d[:, 15])
    t += 0.0
    return t


@functools.cache
def _adds_match() -> bool:
    """True iff _adds gives np.trace's bits on a fixed stack; taken once, by
    the first call of trace_batch in the process that may take the adds."""
    # Fixed entries whose magnitudes span 1e-8..1e8, so that another order
    # rounds differently; np.random is not imported for the check.  The last
    # matrix is all -0, where the +0 start shows.
    k = np.arange(1.0, 1025.0)
    z = (np.sin(k ** 2) * 10.0 ** (8 * np.sin(k))).reshape(32, 4, 4, 2) @ [1, 1j]
    z[-1] = complex(-0.0, -0.0)
    ours, theirs = _adds(z), np.trace(z, axis1=1, axis2=2)
    return ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


def herm_eigen_batch(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of each matrix in a Hermitian (N, 4, 4) stack.

    w[n] is ascending and v[n][:, i] pairs with w[n, i].  Raises
    NotHermitianError naming the first matrix whose ||M - M^dag||_max exceeds
    VALIDATE_TOL.  The strictly Hermitian part is diagonalized, so residuals
    stay at machine precision.
    """
    return eigh(check_hermitian(m))


def psd_sqrt_batch(m) -> np.ndarray:
    """Hermitian PSD square root of each matrix in an (N, 4, 4) stack.

    Eigenvalues in [-PSD_CLAMP, 0) are clamped to zero; a lower one raises
    NotPsdError naming the first such matrix.
    """
    return psd_sqrt_from_eigen(*herm_eigen_batch(m))


def psd_sqrt_from_eigen(w, v) -> np.ndarray:
    """Hermitian PSD square root v diag(sqrt(w)) v^dag of each eigendecomposition
    (w, v) of an (N, 4) and (N, 4, 4) pair, as herm_eigen_batch returns it.

    Eigenvalues in [-PSD_CLAMP, 0) are clamped to zero, in w itself; a lower
    one raises NotPsdError naming the first such matrix of the N.
    """
    if np.minimum.reduce(w[:, 0], initial=0.0) < -PSD_CLAMP:
        i = first_index(w[:, 0] < -PSD_CLAMP)
        raise NotPsdError(
            f"matrix {i} of {len(w)} is not PSD: minimum eigenvalue {w[i, 0]:.3e} "
            f"below -{PSD_CLAMP:.0e}"
        )
    s = np.sqrt(np.maximum(w, 0.0, out=w), out=w)
    return (v * s[:, None, :]) @ v.conj().swapaxes(1, 2)
