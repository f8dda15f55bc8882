"""Validated two-qubit density matrices: parametric families, Bell states,
file I/O, and seeded random ensembles."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg
from .linalg import (
    OVERFLOW_VIOLATION, PSD_CLAMP, VALIDATE_TOL, first_index, hermitian_split, matrix_count,
    per_matrix, trace_batch,
)

FAMILIES = ("pure_m", "horodecki", "quasi", "bell")

# Fixed convention: |psi+> = (|01> + |10>)/sqrt(2).  This is the choice that
# reproduces the published SPA-PT entry pattern for the Horodecki family
# (entry (1,1) = (3-p)/9, entry (1,4) = p/18); the alternative
# (|00>+|11>)/sqrt(2) would leave mu_min unchanged but relocate entries.
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
_PSI_PLUS_PROJECTOR = np.outer(PSI_PLUS, PSI_PLUS.conj())

_BELL_VECTORS = (
    np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),   # phi+
    np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),  # phi-
    np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),   # psi+
    np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),  # psi-
)


class StateValidationError(ValueError):
    """Raised when a candidate matrix fails density-matrix validation.

    Carries the full list of violations, each with its measured magnitude.
    """

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid density matrix: " + "; ".join(violations))


@dataclass(frozen=True)
class DensityMatrix:
    """A validated 4x4 two-qubit density operator.

    Construct via validate(), from_spec(), bell_state() or load_state() rather
    than directly; mat is Hermitian within 1e-9, unit trace within 1e-9, and
    PSD within the clamp tolerance.
    """

    mat: np.ndarray


@dataclass(frozen=True)
class StackValidity:
    """Per-matrix validity measures of an (N, 4, 4) stack; see validate_batch.

    min_eigenvalue is a lower bound on the least eigenvalue of each matrix's
    Hermitian part, exact where an eigensolve ran.  In a stack of more than
    one, for a matrix its Gershgorin discs clear, it is the least disc edge,
    which equals the least eigenvalue for a diagonal matrix; for any other
    finite matrix, and always for a single finite matrix, it is the least
    eigenvalue from eigvalsh.  It is NaN for a matrix with non-finite
    entries, and for a finite one whose Hermitian part (M + M^dag) / 2
    overflows; each is flagged by its count alone (nonfinite, overflow),
    without an eigensolve.  overflow counts the non-finite entries of that
    part, and is 0 for a matrix with non-finite entries of its own.
    """

    nonfinite: np.ndarray
    overflow: np.ndarray
    hermiticity_defect: np.ndarray
    trace_deviation: np.ndarray
    min_eigenvalue: np.ndarray

    @property
    def valid(self) -> np.ndarray:
        # NaN comparisons are false, so a non-finite matrix fails here too.
        return (
            (self.nonfinite == 0)
            & (self.overflow == 0)
            & (self.hermiticity_defect <= VALIDATE_TOL)
            & (self.trace_deviation <= VALIDATE_TOL)
            & (self.min_eigenvalue >= -PSD_CLAMP)
        )

    def violations(self, i: int) -> list[str]:
        """Every violated invariant of matrix i, each with its magnitude; the
        list is empty exactly when valid[i] is true (a NaN measure is a
        violation, as it is in valid)."""
        if self.nonfinite[i]:
            return [f"non-finite entries: {self.nonfinite[i]} of 16"]
        if self.overflow[i]:
            return [OVERFLOW_VIOLATION.format(self.overflow[i])]
        out = []
        if not self.hermiticity_defect[i] <= VALIDATE_TOL:
            out.append(f"not Hermitian: max asymmetry {self.hermiticity_defect[i]:.3e}")
        if not self.trace_deviation[i] <= VALIDATE_TOL:
            out.append(f"trace deviates from 1 by {self.trace_deviation[i]:.3e}")
        if not self.min_eigenvalue[i] >= -PSD_CLAMP:
            out.append(f"not PSD: minimum eigenvalue {self.min_eigenvalue[i]:.3e}")
        return out


@np.errstate(invalid="ignore", over="ignore")  # inf - inf, and entries past ~9e307
def validate_batch(raw) -> StackValidity:
    """Check Hermiticity, unit trace and positivity of each matrix of an
    (N, 4, 4) stack, with the tolerances of validate; nothing is raised.

    A single finite matrix is diagonalized by eigvalsh: at N = 1 the screen
    would cost more than the eigvalsh it can skip, and it clears few single
    states.  A stack of more than one is screened first (_gershgorin_min),
    and eigvalsh decides the matrices the screen does not clear.  Either way
    the flags and violation texts are those of an eigensolve of every finite
    matrix.  A finite matrix whose Hermitian part overflows (an entry past
    ~9e307) gets no eigensolve and is named by its overflow count; no
    warning is emitted.  The Hermitian part, the asymmetry and the overflow
    verdict come from linalg.hermitian_split, as in linalg.check_hermitian.
    """
    m = np.asarray(raw, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise StateValidationError([f"shape {m.shape} is not (N, 4, 4)"])
    h, asym, overflowed = hermitian_split(m)
    defect = per_matrix(np.maximum.reduce, asym)
    # A non-finite entry of M leaves its entries of asym non-finite, so a
    # finite defect and no overflow leave nothing to count: the common case.
    if not overflowed and np.isfinite(defect).all():
        nonfinite = overflow = np.zeros(len(m), dtype=np.uint8)
        finite = overflow == 0
    else:
        # Likewise for h, so the matrices with a finite h are the finite ones
        # that do not overflow.
        bad_h = 16 - matrix_count(np.isfinite(h))
        finite = bad_h == 0
        nonfinite = 16 - matrix_count(np.isfinite(m))
        overflow = np.where(nonfinite == 0, bad_h, 0)
    if len(m) == 1:
        min_eig = linalg.eigvalsh(h)[:, 0] if finite[0] else np.full(1, np.nan)
    else:
        min_eig = _gershgorin_min(h, finite)
    return StackValidity(
        nonfinite=nonfinite,
        overflow=overflow,
        hermiticity_defect=defect,
        trace_deviation=np.abs(trace_batch(m) - 1.0),
        min_eigenvalue=min_eig,
    )


# Rounding margin of the Gershgorin screen, relative to a matrix's largest
# absolute row sum (which bounds its 2-norm).  It covers the rounding of the
# disc edge (a few eps) and of eigvalsh's backward-stable 4x4 solve (a small
# multiple of eps times the 2-norm), so a cleared matrix is one whose eigvalsh
# minimum would also be >= -PSD_CLAMP.
_DISC_MARGIN = 64 * np.finfo(float).eps


def _gershgorin_min(h, finite) -> np.ndarray:
    """validate_batch's min_eigenvalue of a stack of Hermitian parts h.

    Every eigenvalue of h lies in a Gershgorin disc, so
    min_i (h_ii - sum_{j != i} |h_ij|) bounds the least one from below.  A
    finite matrix whose bound is >= -PSD_CLAMP plus a rounding margin is PSD
    as validate counts it, and gets that bound; an SPA-PT output's bound is
    >= 1/18.  eigvalsh gives the other finite matrices their least
    eigenvalue, and the non-finite ones get NaN.
    """
    rows = np.einsum("nij->ni", np.abs(h))
    d = h.diagonal(axis1=1, axis2=2).real
    edge = per_matrix(np.minimum.reduce, d - (rows - np.abs(d)))
    margin = _DISC_MARGIN * per_matrix(np.maximum.reduce, rows)
    cleared = finite & (edge >= margin - PSD_CLAMP)
    min_eig = np.where(cleared, edge, np.nan)
    todo = finite & ~cleared
    if todo.all():
        min_eig = linalg.eigvalsh(h)[:, 0]
    elif todo.any():
        min_eig[todo] = linalg.eigvalsh(h[todo])[:, 0]
    return min_eig


def validate(raw) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity; return the state.

    Every violated invariant is reported, not just the first.
    """
    m = np.asarray(raw, dtype=complex)
    if m.shape != (4, 4):
        raise StateValidationError([f"shape {m.shape} is not (4, 4)"])
    violations = validate_batch(m[None]).violations(0)
    if violations:
        raise StateValidationError(violations)
    return DensityMatrix(mat=m)


def row_norm(v) -> np.ndarray:
    """Euclidean norm of each row of an (N, 4) complex stack, bitwise np.linalg.norm(v[i]).

    np.linalg.norm of a complex vector is sqrt(re . re + im . im), two strided
    BLAS ddot calls; OpenBLAS 0.3.31 sums a 4-element strided ddot as
    (x0 + x2) + (x1 + x3).  A sequential sum, einsum or norm(v, axis=1) round
    differently on 14-29 % of Gaussian vectors.
    """
    q = np.ascontiguousarray(v, dtype=complex).view(float).reshape(-1, 4, 2)
    q = q * q  # q[n, k] = (re_k^2, im_k^2)
    s = (q[:, 0] + q[:, 2]) + (q[:, 1] + q[:, 3])
    return np.sqrt(s[:, 0] + s[:, 1])


def pure_from_vectors(v) -> np.ndarray:
    """Rank-1 projectors |v><v| of each row of an (N, 4) amplitude stack, shape (N, 4, 4).

    Norm deviations up to 1e-6 are silently renormalized.  A zero, larger or
    non-finite deviation raises ValueError, naming the first offending row of
    a stack of more than one.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[1] != 4:
        raise ValueError(f"shape {v.shape} is not (N, 4)")
    norm = row_norm(v)
    ok = np.abs(norm - 1.0) <= 1e-6  # false for a NaN norm
    if not ok.all():
        i = first_index(~ok)
        where = f"vector {i} of {len(v)}: " if len(v) > 1 else ""
        if norm[i] == 0.0:
            raise ValueError(f"{where}zero vector cannot define a pure state")
        raise ValueError(f"{where}vector norm {norm[i]:.6f} deviates from 1 beyond 1e-6")
    v = v / norm[:, None]
    return v[:, :, None] * v.conj()[:, None, :]


# The four Bell projectors, built once; read-only, so every state shares them.
_BELL_PROJECTORS = pure_from_vectors(np.stack(_BELL_VECTORS))
_BELL_PROJECTORS.flags.writeable = False


def bell_state(index: int) -> DensityMatrix:
    """One of the four Bell-state projectors; index 0..3 is phi+, phi-, psi+, psi-."""
    if index not in (0, 1, 2, 3):
        raise ValueError(f"bell index must be 0..3, got {index}")
    return DensityMatrix(mat=_BELL_PROJECTORS[index])


# Each family's parameter name, as its range errors print it.
_FAMILY_PARAM = {"pure_m": "M", "horodecki": "p", "quasi": "C"}


def family_batch(family: str, params) -> np.ndarray:
    """Stack of a parametric family's states, one per parameter, shape (N, 4, 4).

    family is "pure_m", "horodecki" or "quasi".  Each entry is the family's
    formula applied elementwise, so state i does not depend on the other
    parameters; from_spec builds one state as the stack of one parameter.  A
    parameter outside [0, 1] raises ValueError, naming the first such index
    of a stack of more than one.
    """
    if family not in _FAMILY_PARAM:
        raise ValueError(f"family_batch supports {sorted(_FAMILY_PARAM)}, got {family!r}")
    x = np.asarray(params, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"params shape {x.shape} is not (N,)")
    # A Python loop: at N = 1, the analyze path, it costs a fifth of a
    # vectorized check, and at ~50 ns a point it is noise beside a sweep.
    for i, value in enumerate(x.tolist()):
        if not 0.0 <= value <= 1.0:  # true for NaN
            where = f"param {i} of {len(x)}: " if len(x) > 1 else ""
            raise ValueError(f"{where}{_FAMILY_PARAM[family]} must lie in [0, 1], got {params[i]}")
    if family == "horodecki":
        # p|psi+><psi+| + (1-p)|00><00|
        mat = x[:, None, None] * _PSI_PLUS_PROJECTOR
        mat[:, 0, 0] += 1.0 - x
        return mat
    mat = np.zeros((len(x), 4, 4), dtype=complex)
    if family == "pure_m":
        # M|01><01| + sqrt(M(1-M))(|01><10| + h.c.) + (1-M)|10><10|
        c = np.sqrt(x * (1.0 - x))
        mat[:, 1, 1] = x
        mat[:, 2, 2] = 1.0 - x
        mat[:, 1, 2] = mat[:, 2, 1] = c
    else:
        # quasi: (C/2)(|00> + |11>)(<00| + <11|) + (1-C)|01><01|, concurrence C
        mat[:, 0, 0] = mat[:, 3, 3] = mat[:, 0, 3] = mat[:, 3, 0] = x / 2.0
        mat[:, 1, 1] = 1.0 - x
    return mat


def random_pure_batch(rng, count: int) -> np.ndarray:
    """Stack of `count` Haar-random pure states, shape (count, 4, 4).

    rng is a numpy Generator (or a seed acceptable to default_rng).  One
    standard-normal draw of shape (count, 2, 4) holds the 4 real and then the
    4 imaginary parts of each vector, each normalized on its own, so state i
    is bitwise the state of the i-th of `count` sequential
    random_pure_batch(rng, 1) draws.
    """
    rng = np.random.default_rng(rng)
    return pure_from_normals(rng.standard_normal((count, 2, 4)))


def pure_from_normals(x) -> np.ndarray:
    """|w><w| for each v = x[n, 0] + i x[n, 1], x of shape (N, 2, 4), w = v / |v|."""
    v = x[:, 0] + 1j * x[:, 1]
    return pure_from_vectors(v / row_norm(v)[:, None])


def random_mixed_batch(rng, count: int, rank: int = 4) -> np.ndarray:
    """Stack of `count` Ginibre random density matrices G G^dag / Tr(G G^dag),
    G 4 x rank, shape (count, 4, 4).

    One standard-normal draw of shape (count, 2, 4, rank) holds the real and
    imaginary parts of each G in turn, so matrix i is bitwise identical to the
    i-th of `count` sequential random_mixed_batch(rng, 1, rank) draws from the
    same generator.
    """
    if rank not in (1, 2, 3, 4):
        raise ValueError(f"rank must be 1..4, got {rank}")
    rng = np.random.default_rng(rng)
    return ginibre_from_normals(rng.standard_normal((count, 2, 4, rank)))


def ginibre_from_normals(x) -> np.ndarray:
    """G G^dag / Tr(G G^dag) for each G = x[n, 0] + i x[n, 1], x of shape (N, 2, 4, rank)."""
    g = x[:, 0] + 1j * x[:, 1]
    m = g @ g.conj().swapaxes(1, 2)
    return m / trace_batch(m).real[:, None, None]


def save_state(state: DensityMatrix, path) -> None:
    """Write a state as JSON {"re": [[..]], "im": [[..]]}, row-major."""
    payload = {"re": state.mat.real.tolist(), "im": state.mat.imag.tolist()}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


# Bytes a state file may hold.  A valid one is under 2 KB (32 floats of at
# most 17 digits), so a larger file is unreadable; reading it whole before
# parsing would let a huge file or an endless one (a FIFO, a device) take any
# amount of time and memory.
MAX_STATE_BYTES = 1 << 20
# One read of the whole cap would allocate 1 MB for every file: ~20 us more
# per load_state than a 64 KB read.
_READ_CHUNK = 1 << 16


def _read_capped(path) -> bytes:
    """The bytes of the file at `path`; ValueError if it holds more than
    MAX_STATE_BYTES, found by reading at most one byte past them."""
    chunks, left = [], MAX_STATE_BYTES + 1
    with open(path, "rb") as f:
        while left and (chunk := f.read(min(left, _READ_CHUNK))):
            chunks.append(chunk)
            left -= len(chunk)
    if not left:
        raise ValueError(f"larger than {MAX_STATE_BYTES} bytes")
    return b"".join(chunks)


def path_text(path) -> str:
    """str(path) for a message; its repr if any character of it does not print."""
    text = str(path)
    return text if text.isprintable() else repr(text)


# The JSON numbers, and every other value np.asarray(dtype=float) takes as an
# entry: it parses "0.25" and true.
_NUMBERS = {int, float}
_NOT_NUMBER = {str: "a string", bool: "a boolean", type(None): "null"}


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; ValueError naming the
    first key given twice, where json.loads alone would keep the last value."""
    out = dict(pairs)
    if len(out) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return out


# One decoder for every state file, as json.loads keeps one for calls
# without hooks; json.loads(text, object_pairs_hook=...) builds a new one
# each call.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_state(path) -> DensityMatrix:
    """Load and validate a state from the JSON file format of save_state; an
    entry that is not a JSON number, or a key given twice, makes the file
    unreadable, named."""
    try:
        text = _read_capped(path).decode("utf-8")
        if text.startswith("\ufeff"):  # json.loads's own check, with its text
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        payload = _DECODER.decode(text)
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
        if re.shape == im.shape == (4, 4):  # then each is a list of 4 lists of 4 values
            entries = [*itertools.chain(*payload["re"], *payload["im"])]
            if not {*map(type, entries)} <= _NUMBERS:  # one pass in C: half a loop's cost
                k = next(k for k, x in enumerate(entries) if type(x) not in _NUMBERS)
                key, (i, j) = ("re", "im")[k // 16], divmod(k % 16, 4)
                raise ValueError(f"{key}[{i}][{j}] is {_NOT_NUMBER[type(entries[k])]}, not a number")
    # json.loads raises RecursionError on a deeply nested file, and float()
    # OverflowError on an integer literal past float64's range.
    except (OSError, json.JSONDecodeError, RecursionError, OverflowError, KeyError, TypeError, ValueError) as exc:
        raise StateValidationError([f"unreadable state file {path_text(path)}: {exc}"]) from exc
    if re.shape != (4, 4) or im.shape != (4, 4):
        raise StateValidationError(
            [f"state file arrays must be 4x4, got re {re.shape}, im {im.shape}"]
        )
    # An infinite imaginary entry makes 1j * im NaN with a RuntimeWarning;
    # validate rejects the state as non-finite either way.
    with np.errstate(invalid="ignore"):
        mat = re + 1j * im
    return validate(mat)


def from_spec(kind: str, param: float | None = None) -> DensityMatrix:
    """Resolve a family and its parameter to a state; a bell index (default 0)
    must be an integer 0..3, so 2.0 is accepted and 1.9 or 1e300 rejected."""
    if kind == "bell":
        index = 0.0 if param is None else float(param)
        if not (index.is_integer() and 0.0 <= index <= 3.0):
            raise ValueError(f"bell index must be an integer 0..3, got {param}")
        return bell_state(int(index))
    if param is None:
        raise ValueError(f"family {kind!r} requires a parameter")
    if kind not in _FAMILY_PARAM:
        raise ValueError(f"unknown state family {kind!r}")
    return DensityMatrix(mat=family_batch(kind, [param])[0])
