"""Entanglement quantifiers for two-qubit states.

Exact quantities (negativity from the partial-transpose spectrum, Wootters
concurrence) sit next to the measurement-friendly estimators that depend
only on mu_min, the smallest eigenvalue of the SPA-PT output state:

* lower bound        4 - 18 mu_min
* normalized
  negativity         (108/113)(2/9 - mu_min)(19 - mu_min)   for mu_min < 2/9
* fidelity link      mu_min = (15/8) F_avg - 47/72

For two qubits the lower bound is tight, which collapses the estimator to
the single curve N^N = N^D (338 + N^D) / 339.

Negativity, the estimator and Wootters concurrence are computed over
(N, 4, 4) stacks of states (or (N,) arrays of mu_min) by the *_batch
functions; the per-state functions are N = 1 wrappers around them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    RESIDUAL_TOL,
    SIGMA_Y,
    first_index,
    partial_transpose_batch,
    psd_sqrt_batch,
)
from .spa import (
    MU_MIN_HI,
    MU_MIN_LO,
    SEPARABILITY_THRESHOLD,
    mu_min_batch,
    spa_pt_affine,
    spa_pt_affine_batch,
)
from .states import DensityMatrix, family_quasi

PPT_TOL = 1e-10

FAVG_LO = 59.0 / 135.0
FAVG_HI = 65.0 / 135.0

SIGMA_YY = np.kron(SIGMA_Y, SIGMA_Y)

_RANGE_SLACK = 1e-9


@dataclass(frozen=True)
class EntanglementReport:
    """All quantifiers of one state, exact and estimated side by side."""

    nd: float
    nn: float
    lower_bound: float
    concurrence: float
    ppt: bool
    mu_min: float
    bias: float
    concurrence_pure_est: float | None = None
    concurrence_quasi_est: float | None = None


@dataclass(frozen=True)
class BatchReport:
    """Per-state quantifiers of an (N, 4, 4) stack, one length-N array each.

    nd and neg_count come from the partial-transpose spectrum, mu_min from
    the separate SPA-PT output matrix, nn from mu_min.
    """

    nd: np.ndarray
    neg_count: np.ndarray
    mu_min: np.ndarray
    nn: np.ndarray
    concurrence: np.ndarray
    ppt: np.ndarray


@dataclass(frozen=True)
class WitnessPair:
    """Entanglement witness W = |phi><phi| - (2/9)I and its SPA image."""

    w: np.ndarray
    w_tilde: np.ndarray
    phi: np.ndarray


def _check_mu(mu) -> np.ndarray:
    """mu_min value(s) as a float array; ValueError names the first outside [1/6, 1/4]."""
    mu = np.asarray(mu, dtype=float)
    ok = (MU_MIN_LO - _RANGE_SLACK <= mu) & (mu <= MU_MIN_HI + _RANGE_SLACK)
    if np.count_nonzero(ok) < mu.size:
        i = first_index(~ok.reshape(-1))
        where = f" at index {i}" if mu.ndim else ""
        raise ValueError(f"mu_min {mu.reshape(-1)[i]}{where} outside [1/6, 1/4]")
    return mu


def pt_spectrum_batch(rhos) -> tuple[np.ndarray, np.ndarray]:
    """(N^D, negative count) of each state of an (N, 4, 4) stack.

    N^D = 2 sum_i max(0, -lambda_i(rho^{T_B})) and the count of eigenvalues
    below -RESIDUAL_TOL, both from one partial-transpose spectrum.
    """
    lam = np.linalg.eigvalsh(partial_transpose_batch(rhos))
    return 2.0 * np.maximum(0.0, -lam).sum(axis=1), (lam < -RESIDUAL_TOL).sum(axis=1)


def negativity_exact(rho: DensityMatrix) -> float:
    """Negativity by definition: 2 sum_i max(0, -lambda_i(rho^{T_B}))."""
    return float(pt_spectrum_batch(rho.mat[None])[0][0])


def negativity_lower_bound(mu_min: float) -> float:
    """Lower bound 4 - 18 mu_min; negative values quantify separability margin."""
    return 4.0 - 18.0 * float(_check_mu(mu_min))


def negativity_normalized_batch(mu_min) -> np.ndarray:
    """Normalized negativity estimator of each mu_min in an array.

    (108/113)(2/9 - mu)(19 - mu) for mu < 2/9, clamped to 0 at and above
    the separability threshold, matching N^D = 0 there.
    """
    mu = _check_mu(mu_min)
    # In range, mu >= 2/9 gives val <= 0, which the clamp maps to +0.0.
    val = (108.0 / 113.0) * (SEPARABILITY_THRESHOLD - mu) * (19.0 - mu)
    return np.minimum(np.maximum(val, 0.0), 1.0)


def negativity_normalized(mu_min: float) -> float:
    """Normalized negativity estimator of one mu_min; see negativity_normalized_batch."""
    return float(negativity_normalized_batch(mu_min))


def estimator_bias(nd: float) -> float:
    """Systematic gap N^D - N^N = N^D (1 - N^D) / 339, at most 1/1356."""
    return nd * (1.0 - nd) / 339.0


def concurrence_wootters_batch(rhos) -> np.ndarray:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of each state of a stack.

    The l_i are the descending square roots of the spectrum of
    rho (sy x sy) rho* (sy x sy).  That spectrum equals the squared singular
    values of A = sqrt(rho) (sy x sy) sqrt(rho)*, a factorization of the
    Hermitized conjugation form sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho)
    = A A^dag; taking singular values directly keeps the small l_i at
    absolute machine precision instead of sqrt-amplifying eigenvalue noise.
    """
    root = psd_sqrt_batch(rhos)
    a = root @ SIGMA_YY @ root.conj()
    l = np.linalg.svd(a, compute_uv=False)
    return np.maximum(0.0, l[:, 0] - l[:, 1] - l[:, 2] - l[:, 3])


def concurrence_wootters(rho: DensityMatrix) -> float:
    """Wootters concurrence of one state; see concurrence_wootters_batch."""
    return float(concurrence_wootters_batch(rho.mat[None])[0])


def concurrence_quasi(n: float) -> float:
    """Concurrence of a rank-2 quasi-distillable state from its negativity:
    C = -N + sqrt(2 N (N + 1)); exact inverse of verstraete_rhs."""
    if not -_RANGE_SLACK <= n <= 1.0 + _RANGE_SLACK:
        raise ValueError(f"negativity {n} outside [0, 1]")
    # Within the slack, clamp: below 0 the root would be NaN, above 1 C > 1.
    n = min(max(float(n), 0.0), 1.0)
    return -n + np.sqrt(2.0 * n * (n + 1.0))


def verstraete_rhs(c: float) -> float:
    """Negativity-concurrence bound: sqrt((1-C)^2 + C^2) - (1-C)."""
    if not -_RANGE_SLACK <= c <= 1.0 + _RANGE_SLACK:
        raise ValueError(f"concurrence {c} outside [0, 1]")
    c = min(max(float(c), 0.0), 1.0)
    return np.sqrt((1.0 - c) ** 2 + c**2) - (1.0 - c)


def witness_pair(phi) -> WitnessPair:
    """Witness W = |phi><phi| - (2/9)I and its SPA image W~ = (2/9)W + (7/36)I."""
    phi = np.asarray(phi, dtype=complex).reshape(4)
    norm = float(np.linalg.norm(phi))
    if abs(norm - 1.0) > _RANGE_SLACK:
        raise ValueError(f"witness vector norm {norm:.9f} deviates from 1")
    w = np.outer(phi, phi.conj()) - (2.0 / 9.0) * np.eye(4)
    w_tilde = (2.0 / 9.0) * w + (7.0 / 36.0) * np.eye(4)
    return WitnessPair(w=w, w_tilde=w_tilde, phi=phi)


def favg_from_mu(mu: float) -> float:
    """Average fidelity that yields a given mu_min: F = (8 mu)/15 + 47/135."""
    return 8.0 * float(_check_mu(mu)) / 15.0 + 47.0 / 135.0


def fidelity_link(f):
    """mu_min = (15/8) F_avg - 47/72 of a float or an array, with no range check.

    Noisy shot estimates of F_avg fall outside [FAVG_LO, FAVG_HI]; their
    callers clamp the result instead.
    """
    return 15.0 * f / 8.0 - 47.0 / 72.0


def mu_from_favg(f: float) -> float:
    """Invert the fidelity link: mu_min = (15/8) F_avg - 47/72."""
    if not FAVG_LO - _RANGE_SLACK <= f <= FAVG_HI + _RANGE_SLACK:
        raise ValueError(f"F_avg {f} outside [{FAVG_LO:.6f}, {FAVG_HI:.6f}]")
    return fidelity_link(float(f))


def ls_upper_bound(lam: float, mu_min_of_pure_part: float) -> float:
    """Concurrence upper bound (1 - lambda) * negativity_normalized(mu) from a
    given separable-plus-pure decomposition weight lambda."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda {lam} outside [0, 1]")
    mu = float(mu_min_of_pure_part)
    if not MU_MIN_LO - _RANGE_SLACK <= mu <= SEPARABILITY_THRESHOLD + _RANGE_SLACK:
        raise ValueError(f"mu_min {mu} outside [1/6, 2/9]")
    return (1.0 - lam) * negativity_normalized(min(mu, MU_MIN_HI))


def _is_pure(rho: DensityMatrix, tol: float = 1e-9) -> bool:
    purity = float(np.trace(rho.mat @ rho.mat).real)
    return purity >= 1.0 - tol


def _matches_quasi(rho: DensityMatrix, tol: float = 1e-9) -> bool:
    c = 2.0 * float(rho.mat[0, 0].real)
    if not -tol <= c <= 1.0 + tol:
        return False
    c = min(max(c, 0.0), 1.0)
    # The reference's entry (1, 1) is 1 - c: testing it first spares most
    # states the construction of the reference, with the same verdict.
    if abs(rho.mat[1, 1] - (1.0 - c)) > tol:
        return False
    ref = family_quasi(c).mat
    return bool(np.abs(rho.mat - ref).max() <= tol)


def batch_report(rhos) -> BatchReport:
    """Quantifiers of each state of an (N, 4, 4) stack via the affine SPA pipeline."""
    nd, neg_count = pt_spectrum_batch(rhos)
    mu = mu_min_batch(spa_pt_affine_batch(rhos))
    return BatchReport(
        nd=nd,
        neg_count=neg_count,
        mu_min=mu,
        nn=negativity_normalized_batch(mu),
        concurrence=concurrence_wootters_batch(rhos),
        ppt=nd <= PPT_TOL,
    )


def full_report(rho: DensityMatrix) -> EntanglementReport:
    """All quantifiers of one state via the affine SPA pipeline.

    The pure-state and quasi-distillable specializations are evaluated only
    when the state matches those families within 1e-9.
    """
    outcome = spa_pt_affine(rho)
    mu = outcome.mu_min
    nd = negativity_exact(rho)
    nn = negativity_normalized(mu)
    return EntanglementReport(
        nd=nd,
        nn=nn,
        lower_bound=negativity_lower_bound(mu),
        concurrence=concurrence_wootters(rho),
        ppt=nd <= PPT_TOL,
        mu_min=mu,
        bias=estimator_bias(nd),
        concurrence_pure_est=nn if _is_pure(rho) else None,
        concurrence_quasi_est=concurrence_quasi(min(nd, 1.0)) if _matches_quasi(rho) else None,
    )
