"""Structural physical approximation of the partial-transpose map (SPA-PT).

Three independent constructions of the same channel:

* affine        -- rho_tilde = (1/9) rho^{T_B} + (2/9) I, the canonical form
                   forced by the trace relation Tr(P rho^{T_B}) = 9 Tr(P rho_tilde) - 2.
* compositional -- (1/3)(I x T~) + (2/3)(Theta~ x D) built from the
                   four-outcome tetrahedral measurement; agrees with affine
                   to machine precision (checked by spa-verify).
* paper_literal -- the published per-entry formulas, reproduced verbatim
                   including their off-diagonal phase terms.  Kept as a
                   diagnostic variant; it is NOT required to match the
                   affine map off the families it was published for.

Each linear map (affine, compositional, raw PT, identity) is one cached 16x16
superoperator; both its action and its Choi matrix are read from that array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    PAULIS,
    RESIDUAL_TOL,
    SIGMA_Y,
    _as_stack,
    first_index,
    herm_eigen_batch,
    partial_transpose_b,
    partial_transpose_batch,
)
from .states import DensityMatrix, StateValidationError, validate_batch

MU_MIN_LO = 1.0 / 6.0
MU_MIN_HI = 0.25
SEPARABILITY_THRESHOLD = 2.0 / 9.0

CHOI_METHODS = ("affine", "compositional", "pt", "identity")


class ConstructionInconsistencyError(RuntimeError):
    """Compositional SPA output failed state validation; carries its spectrum."""

    def __init__(self, message: str, eigenvalues: np.ndarray):
        self.eigenvalues = eigenvalues
        super().__init__(f"{message}; spectrum {np.array2string(eigenvalues)}")


@dataclass(frozen=True)
class SpaOutcome:
    """SPA-PT output state, its minimum eigenvalue mu_min, and the partial
    transpose rho^{T_B} it was built from."""

    rho_tilde: DensityMatrix
    mu_min: float
    rho_pt: np.ndarray


def _tetrahedral_povm() -> tuple[tuple, tuple]:
    """Effects M_k and vectors s_k of the four-outcome measurement.

    M_k = (1/2)|s_k*><s_k*|.  The Bloch vectors of the four s_k form a
    regular tetrahedron; the effects sum to the identity, which makes the
    approximated transpose trace-preserving.
    """
    b1 = 1j * np.exp(2j * np.pi / 3) / (1j + np.exp(-2j * np.pi / 3))
    b2 = 1j * np.exp(2j * np.pi / 3) / (1j - np.exp(-2j * np.pi / 3))
    s_star = []
    for b, sign in ((b1, 1), (b1, -1), (b2, 1), (b2, -1)):
        v = np.array([1.0, sign * np.conj(b)], dtype=complex)
        s_star.append(v / np.linalg.norm(v))
    return tuple(0.5 * np.outer(v, v.conj()) for v in s_star), tuple(v.conj() for v in s_star)


POVM, S_VECTORS = _tetrahedral_povm()
COMPLETENESS_RESIDUAL = float(np.abs(sum(POVM) - np.eye(2)).max())
assert COMPLETENESS_RESIDUAL <= RESIDUAL_TOL, (
    f"tetrahedral POVM lost completeness: residual {COMPLETENESS_RESIDUAL:.3e}"
)


def spa_transpose_tilde(x) -> np.ndarray:
    """Approximated transpose of a qubit operator: sum_k Tr(M_k x)|s_k><s_k|.

    Equals (X^T + Tr(X) I)/3 by the tetrahedral symmetry of the s_k.
    """
    x = np.asarray(x, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for m_k, s_k in zip(POVM, S_VECTORS):
        out += np.trace(m_k @ x) * np.outer(s_k, s_k.conj())
    return out


def spa_theta(x) -> np.ndarray:
    """Conjugated approximated transpose: sigma_y T~(x) sigma_y."""
    return SIGMA_Y @ spa_transpose_tilde(x) @ SIGMA_Y


def depol_d(x) -> np.ndarray:
    """Complete depolarization (1/4) sum_i sigma_i x sigma_i = Tr(x) I/2."""
    x = np.asarray(x, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for sigma in PAULIS:
        out += sigma @ x @ sigma
    return out / 4.0


_AFFINE_SHIFT = (2.0 / 9.0) * np.eye(4)
_AFFINE_SHIFT.flags.writeable = False


def affine_from_pt(pts) -> np.ndarray:
    """Canonical SPA-PT (1/9) rho^{T_B} + (2/9) I from a stack of partial transposes."""
    return pts / 9.0 + _AFFINE_SHIFT


def spa_pt_affine_batch(rhos) -> np.ndarray:
    """Canonical SPA-PT of each state in an (N, 4, 4) stack: (1/9) rho^{T_B} + (2/9) I."""
    return affine_from_pt(partial_transpose_batch(rhos))


def mu_min_batch(rho_tildes) -> np.ndarray:
    """Minimum eigenvalue of each SPA-PT output in an (N, 4, 4) stack."""
    # eigh, not eigvalsh: eigvalsh's last bit differs on ~half of states, changing output bytes.
    return herm_eigen_batch(rho_tildes)[0][:, 0]


def spa_pt_affine(rho: DensityMatrix) -> SpaOutcome:
    """Canonical SPA-PT of one state: rho_tilde = (1/9) rho^{T_B} + (2/9) I."""
    pt = partial_transpose_batch(rho.mat[None])
    mat = affine_from_pt(pt)
    return SpaOutcome(
        rho_tilde=DensityMatrix(mat=mat[0]), mu_min=float(mu_min_batch(mat)[0]), rho_pt=pt[0]
    )


def _apply_product_map(rho_mat: np.ndarray, map_a, map_b) -> np.ndarray:
    # Factorwise action via the 16-element Pauli product basis:
    # rho = sum_ij c_ij sigma_i x sigma_j with c_ij = Tr((sigma_i x sigma_j) rho)/4.
    out = np.zeros((4, 4), dtype=complex)
    for sig_a in PAULIS:
        fa = map_a(sig_a)
        for sig_b in PAULIS:
            c = np.trace(np.kron(sig_a, sig_b).conj().T @ rho_mat) / 4.0
            out += c * np.kron(fa, map_b(sig_b))
    return out


_ACTIONS = {
    "affine": lambda x: partial_transpose_b(x) / 9.0 + (2.0 / 9.0) * np.trace(x) * np.eye(4),
    # Built from the tetrahedral POVM maps only, never from the affine form,
    # so that the two stay independent oracles for each other.
    "compositional": lambda x: (
        _apply_product_map(x, lambda y: y, spa_transpose_tilde) / 3.0
        + 2.0 * _apply_product_map(x, spa_theta, depol_d) / 3.0
    ),
    "pt": partial_transpose_b,
    "identity": lambda x: x,
}


@functools.cache
def superoperator(method: str) -> np.ndarray:
    """16x16 S with vec(Phi(X)) = S vec(X), row-major vec; built on first use.

    Column 4i+j is the map applied to the matrix unit |i><j|.  Read-only.
    """
    if method not in _ACTIONS:
        raise ValueError(f"unknown map method {method!r}; expected one of {CHOI_METHODS}")
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    s = np.stack([_ACTIONS[method](unit).reshape(16) for unit in units], axis=1)
    s.flags.writeable = False
    return s


def spa_pt_compositional_batch(rhos) -> np.ndarray:
    """SPA-PT of each state in an (N, 4, 4) stack via the measurement-based
    maps (1/3)(I x T~) + (2/3)(Theta~ x D).

    Each output is validated as a state; ConstructionInconsistencyError names
    the first that fails.
    """
    rhos = _as_stack(rhos, dims=(4,))
    # One matrix-vector product per state, bitwise the per-state S @ vec(rho);
    # a single (N, 16) x (16, 16) product rounds differently.
    out = (superoperator("compositional") @ rhos.reshape(-1, 16, 1)).reshape(-1, 4, 4)
    check = validate_batch(out)
    i = first_index(~check.valid)
    if i is not None:
        bad = out[i]
        raise ConstructionInconsistencyError(
            f"compositional SPA output {i} of {len(out)} is not a valid state "
            f"({StateValidationError(check.violations(i))})",
            np.linalg.eigvalsh((bad + bad.conj().T) / 2),
        )
    return out


def spa_pt_paper_entries_batch(rhos) -> np.ndarray:
    """SPA-PT of each state in an (N, 4, 4) stack, built verbatim from the
    published per-entry formulas.

    The off-diagonal phase terms are reproduced as printed, without any
    repair, so an output need not be Hermitian-positive off the families the
    formulas were published for.  The formulas fix the upper triangle; the
    lower one is its conjugate by construction.  Entrywise, not a 16x16
    superoperator: a matrix product rounds the entries differently.
    """
    t = _as_stack(rhos, dims=(4,))
    e = np.empty_like(t)
    tc = t.conj()
    e[:, 0, 0] = (2 + t[:, 0, 0]) / 9
    e[:, 0, 1] = (-1j * t[:, 0, 1] + tc[:, 0, 1]) / 9
    e[:, 0, 2] = (t[:, 0, 2] - 1j * (tc[:, 0, 2] + tc[:, 1, 3])) / 9
    e[:, 0, 3] = (-1j * t[:, 0, 3] + t[:, 1, 2]) / 9
    e[:, 1, 1] = (2 + t[:, 1, 1]) / 9
    e[:, 1, 2] = (t[:, 0, 3] + 1j * t[:, 1, 2]) / 9
    e[:, 1, 3] = -1j * (tc[:, 0, 2] + tc[:, 1, 3]) / 9
    e[:, 2, 2] = (2 + t[:, 2, 2]) / 9
    e[:, 2, 3] = (-1j * t[:, 2, 3] + tc[:, 2, 3]) / 9
    e[:, 3, 3] = (2 + t[:, 3, 3]) / 9
    i, j = np.tril_indices(4, -1)
    e[:, i, j] = e[:, j, i].conj()
    return e


@functools.cache
def choi_matrix(method: str) -> tuple[np.ndarray, bool, float]:
    """Choi operator of the two-qubit map; (choi, is_cp, min_eigenvalue).

    A reshuffle of the map's superoperator: Choi block (i, j) is the map's
    image of |i><j|.  is_cp is true iff the minimum Choi eigenvalue is
    >= -1e-10.  Computed on first use; the Choi array is read-only.
    """
    choi = superoperator(method).reshape(4, 4, 4, 4).transpose(2, 0, 3, 1).reshape(16, 16)
    choi.flags.writeable = False
    min_eig = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0])
    return choi, min_eig >= -RESIDUAL_TOL, min_eig
