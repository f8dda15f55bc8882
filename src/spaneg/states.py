"""Validated two-qubit density matrices: parametric families, Bell states,
file I/O, and seeded random ensembles."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import PSD_CLAMP, VALIDATE_TOL, hermiticity_defect

FAMILIES = ("pure_m", "horodecki", "quasi", "bell")

# Fixed convention: |psi+> = (|01> + |10>)/sqrt(2).  This is the choice that
# reproduces the published SPA-PT entry pattern for the Horodecki family
# (entry (1,1) = (3-p)/9, entry (1,4) = p/18); the alternative
# (|00>+|11>)/sqrt(2) would leave mu_min unchanged but relocate entries.
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)

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

    Construct via validate() / the family constructors rather than directly;
    mat is Hermitian within 1e-9, unit trace within 1e-9, and PSD within
    the clamp tolerance.
    """

    mat: np.ndarray


@dataclass(frozen=True)
class StackValidity:
    """Per-matrix validity measures of an (N, 4, 4) stack; see validate_batch.

    min_eigenvalue is NaN for a matrix with non-finite entries, which is
    flagged by its count alone, without an eigensolve.
    """

    nonfinite: np.ndarray
    hermiticity_defect: np.ndarray
    trace_deviation: np.ndarray
    min_eigenvalue: np.ndarray

    @property
    def valid(self) -> np.ndarray:
        # NaN comparisons are false, so a non-finite matrix fails here too.
        return (
            (self.nonfinite == 0)
            & (self.hermiticity_defect <= VALIDATE_TOL)
            & (self.trace_deviation <= VALIDATE_TOL)
            & (self.min_eigenvalue >= -PSD_CLAMP)
        )

    def violations(self, i: int) -> list[str]:
        """Every violated invariant of matrix i, each with its magnitude."""
        if self.nonfinite[i]:
            return [f"non-finite entries: {self.nonfinite[i]} of 16"]
        out = []
        if self.hermiticity_defect[i] > VALIDATE_TOL:
            out.append(f"not Hermitian: max asymmetry {self.hermiticity_defect[i]:.3e}")
        if self.trace_deviation[i] > VALIDATE_TOL:
            out.append(f"trace deviates from 1 by {self.trace_deviation[i]:.3e}")
        if self.min_eigenvalue[i] < -PSD_CLAMP:
            out.append(f"not PSD: minimum eigenvalue {self.min_eigenvalue[i]:.3e}")
        return out


def validate_batch(raw) -> StackValidity:
    """Check Hermiticity, unit trace and positivity of each matrix of an
    (N, 4, 4) stack, with the tolerances of validate; nothing is raised."""
    m = np.asarray(raw, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise StateValidationError([f"shape {m.shape} is not (N, 4, 4)"])
    nonfinite = 16 - np.isfinite(m).sum(axis=(1, 2))
    finite = nonfinite == 0
    min_eig = np.full(len(m), np.nan)
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite matrix
        defect = hermiticity_defect(m)
        trace_dev = np.abs(np.trace(m, axis1=1, axis2=2) - 1.0)
        h = (m + m.conj().swapaxes(1, 2)) / 2
    min_eig[finite] = np.linalg.eigvalsh(h if finite.all() else h[finite])[:, 0]
    return StackValidity(
        nonfinite=nonfinite,
        hermiticity_defect=defect,
        trace_deviation=trace_dev,
        min_eigenvalue=min_eig,
    )


def validate(raw) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity; return the state.

    Every violated invariant is reported, not just the first.
    """
    m = np.asarray(raw, dtype=complex)
    if m.shape != (4, 4):
        raise StateValidationError([f"shape {m.shape} is not (4, 4)"])
    check = validate_batch(m[None])
    if not check.valid[0]:
        raise StateValidationError(check.violations(0))
    return DensityMatrix(mat=m)


def pure_from_vector(v) -> DensityMatrix:
    """Rank-1 projector |v><v| from a normalized 4-amplitude vector.

    Norm deviations up to 1e-6 are silently renormalized; larger ones are
    rejected.
    """
    v = np.asarray(v, dtype=complex).reshape(4)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("zero vector cannot define a pure state")
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"vector norm {norm:.6f} deviates from 1 beyond 1e-6")
    v = v / norm
    return DensityMatrix(mat=np.outer(v, v.conj()))


def bell_state(index: int) -> DensityMatrix:
    """One of the four Bell-state projectors; index 0..3 is phi+, phi-, psi+, psi-."""
    if index not in (0, 1, 2, 3):
        raise ValueError(f"bell index must be 0..3, got {index}")
    return pure_from_vector(_BELL_VECTORS[index])


def family_pure_m(m_param: float) -> DensityMatrix:
    """Pure entangled family: M|01><01| + sqrt(M(1-M))(|01><10| + h.c.) + (1-M)|10><10|."""
    if not 0.0 <= m_param <= 1.0:
        raise ValueError(f"M must lie in [0, 1], got {m_param}")
    c = np.sqrt(m_param * (1.0 - m_param))
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 1] = m_param
    mat[2, 2] = 1.0 - m_param
    mat[1, 2] = mat[2, 1] = c
    return DensityMatrix(mat=mat)


def family_horodecki(p: float) -> DensityMatrix:
    """Horodecki mixed family: p|psi+><psi+| + (1-p)|00><00|."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    mat = p * np.outer(PSI_PLUS, PSI_PLUS.conj())
    mat[0, 0] += 1.0 - p
    return DensityMatrix(mat=mat)


def family_quasi(c: float) -> DensityMatrix:
    """Rank-2 quasi-distillable family; the parameter equals the state's concurrence."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"C must lie in [0, 1], got {c}")
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[3, 3] = mat[0, 3] = mat[3, 0] = c / 2.0
    mat[1, 1] = 1.0 - c
    return DensityMatrix(mat=mat)


def random_pure(rng) -> DensityMatrix:
    """Haar-random pure state: 4 complex standard normals, normalized, projected.

    rng is a numpy Generator (or a seed acceptable to default_rng); the
    output is deterministic per generator state.
    """
    rng = np.random.default_rng(rng)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return pure_from_vector(v / np.linalg.norm(v))


def random_mixed(rng, rank: int = 4) -> DensityMatrix:
    """Ginibre-induced random mixed state G G^dag / Tr(G G^dag), G 4 x rank."""
    return DensityMatrix(mat=random_mixed_batch(rng, 1, rank)[0])


def random_mixed_batch(rng, count: int, rank: int = 4) -> np.ndarray:
    """Stack of `count` Ginibre random density matrices, shape (count, 4, 4).

    One standard-normal draw of shape (count, 2, 4, rank) holds the real and
    imaginary parts of each G in turn, so matrix i is bitwise identical to the
    i-th of `count` sequential random_mixed draws from the same generator.
    """
    if rank not in (1, 2, 3, 4):
        raise ValueError(f"rank must be 1..4, got {rank}")
    rng = np.random.default_rng(rng)
    return ginibre_from_normals(rng.standard_normal((count, 2, 4, rank)))


def ginibre_from_normals(x) -> np.ndarray:
    """G G^dag / Tr(G G^dag) for each G = x[n, 0] + i x[n, 1], x of shape (N, 2, 4, rank)."""
    g = x[:, 0] + 1j * x[:, 1]
    m = g @ g.conj().swapaxes(1, 2)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def save_state(state: DensityMatrix, path) -> None:
    """Write a state as JSON {"re": [[..]], "im": [[..]]}, row-major."""
    payload = {"re": state.mat.real.tolist(), "im": state.mat.imag.tolist()}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_state(path) -> DensityMatrix:
    """Load and validate a state from the JSON file format of save_state."""
    try:
        payload = json.loads(Path(path).read_text())
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise StateValidationError([f"unreadable state file {path}: {exc}"]) from exc
    if re.shape != (4, 4) or im.shape != (4, 4):
        raise StateValidationError(
            [f"state file arrays must be 4x4, got re {re.shape}, im {im.shape}"]
        )
    return validate(re + 1j * im)


def from_spec(kind: str, param: float | None = None) -> DensityMatrix:
    """Resolve a family and its parameter to a state; a bell index (default 0)
    must be integral, so 2.0 is accepted and 1.9 rejected."""
    if kind == "bell":
        index = 0.0 if param is None else float(param)
        if not index.is_integer():
            raise ValueError(f"bell index must be an integer 0..3, got {param}")
        return bell_state(int(index))
    if param is None:
        raise ValueError(f"family {kind!r} requires a parameter")
    if kind == "pure_m":
        return family_pure_m(param)
    if kind == "horodecki":
        return family_horodecki(param)
    if kind == "quasi":
        return family_quasi(param)
    raise ValueError(f"unknown state family {kind!r}")
