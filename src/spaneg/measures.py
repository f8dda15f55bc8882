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
functions.  full_report, the one per-state entry, calls their LAPACK steps
on stacks of one or two matrices and finishes in Python floats, through the
same formulas (_estimator, _wootters_gap) with min/max as the clamps.

A report transposes each state once.  That partial transpose feeds two
separate spectra: eigvalsh of rho^{T_B} gives N^D, and eigh of the SPA-PT
output (1/9) rho^{T_B} + (2/9) I gives mu_min, so the tightness identity
N^D = max(0, 4 - 18 mu_min) compares two eigensolves.  full_report takes
rho^{T_B} and the SPA-PT output as the pair of one-state stacks that
spa_pt_affine returns, unchecked, and checks and diagonalizes that output in
one (2, 4, 4) stack with the state itself.  That
one eigh has three uses: mu_min, the state's PSD root behind Wootters'
concurrence, and its purity Tr rho^2 = sum_i lambda_i^2, which decides
concurrence_pure_est.  LAPACK diagonalizes each matrix of a stack on its own,
so each row has the bits of a separate call (tests/test_linalg.py holds this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import (
    RESIDUAL_TOL,
    SIGMA_Y,
    first_index,
    herm_eigen_batch,
    partial_transpose_batch,
    psd_sqrt_batch,
    psd_sqrt_from_eigen,
)
from .spa import (
    MU_MIN_HI,
    MU_MIN_LO,
    SEPARABILITY_THRESHOLD,
    affine_from_pt,
    mu_min_batch,
    spa_pt_affine,
)
from .states import DensityMatrix, family_batch

PPT_TOL = 1e-10

SIGMA_YY = np.kron(SIGMA_Y, SIGMA_Y)

_RANGE_SLACK = 1e-9
# How far a state may sit from purity, or from the quasi family, and still
# get that family's concurrence estimate in full_report.
_MATCH_TOL = 1e-9


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


def _check_mu(mu):
    """mu_min, a float as is or else as a float array; ValueError names the first outside [1/6, 1/4]."""
    if type(mu) is float and MU_MIN_LO - _RANGE_SLACK <= mu <= MU_MIN_HI + _RANGE_SLACK:
        return mu  # a float outside the range, or NaN, is named below
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
    return _pt_spectrum(partial_transpose_batch(rhos))


def _pt_spectrum(pts) -> tuple[np.ndarray, np.ndarray]:
    """(N^D, negative count) of each partial transpose of an (N, 4, 4) stack."""
    lam = linalg.eigvalsh(pts)
    return _negativity(lam), (lam < -RESIDUAL_TOL).sum(axis=1)


def _negativity(lam) -> np.ndarray:
    """N^D = 2 sum_i max(0, -lambda_i) of each row of partial-transpose spectra."""
    return 2.0 * np.add.reduce(np.maximum(0.0, -lam), axis=1)


def _lower_bound(mu: float) -> float:
    """Negativity lower bound 4 - 18 mu_min of a checked mu_min (< 0: separable margin)."""
    return 4.0 - 18.0 * mu


def _estimator(mu):
    """(108/113)(2/9 - mu)(19 - mu) of checked mu_min, a float or an array, before its clamp."""
    # mu >= 2/9 gives a value <= 0 but never -0.0, so either clamp maps it to +0.0.
    return (108.0 / 113.0) * (SEPARABILITY_THRESHOLD - mu) * (19.0 - mu)


def negativity_normalized_batch(mu_min) -> np.ndarray:
    """Normalized negativity estimator of each mu_min in an array.

    (108/113)(2/9 - mu)(19 - mu) for mu < 2/9, clamped to 0 at and above
    the separability threshold, matching N^D = 0 there.
    """
    return np.minimum(np.maximum(_estimator(_check_mu(mu_min)), 0.0), 1.0)


def estimator_bias(nd: float) -> float:
    """Systematic gap N^D - N^N = N^D (1 - N^D) / 339: in [0, 1/1356] for N^D
    in [0, 1], and raw outside it (-6.55e-19 for a Bell state's rounded N^D)."""
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
    return np.maximum(0.0, _wootters_gap(*_wootters_values(psd_sqrt_batch(rhos)).T))


def _wootters_values(roots) -> np.ndarray:
    """Descending singular values l_i of R (sy x sy) R*, one row per PSD root R = sqrt(rho)."""
    return linalg.svdvals(roots @ SIGMA_YY @ roots.conj())


def _wootters_gap(l0, l1, l2, l3):
    """l0 - l1 - l2 - l3, floats or columns; never -0.0, as the l_i are >= +0.0 and sorted."""
    return l0 - l1 - l2 - l3


def concurrence_quasi(n: float) -> float:
    """Concurrence of a rank-2 quasi-distillable state from its negativity:
    C = -N + sqrt(2 N (N + 1)); exact inverse of verstraete_rhs."""
    if not -_RANGE_SLACK <= n <= 1.0 + _RANGE_SLACK:
        raise ValueError(f"negativity {n} outside [0, 1]")
    # Within the slack, clamp: below 0 the root would be NaN, above 1 C > 1.
    n = min(max(float(n), 0.0), 1.0)
    return -n + math.sqrt(2.0 * n * (n + 1.0))


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
    if not abs(norm - 1.0) <= _RANGE_SLACK:  # true for a NaN norm
        raise ValueError(f"witness vector norm {norm:.9f} deviates from 1")
    w = np.outer(phi, phi.conj()) - (2.0 / 9.0) * np.eye(4)
    w_tilde = (2.0 / 9.0) * w + (7.0 / 36.0) * np.eye(4)
    return WitnessPair(w=w, w_tilde=w_tilde, phi=phi)


def favg_from_mu(mu: float) -> float:
    """Average fidelity that yields a given mu_min: F = (8 mu)/15 + 47/135."""
    return 8.0 * float(_check_mu(mu)) / 15.0 + 47.0 / 135.0


def fidelity_link(f):
    """mu_min = (15/8) F_avg - 47/72 of a float or an array, with no range check.

    Noisy shot estimates of F_avg fall outside [59/135, 65/135], the image of
    mu_min's range; their callers clamp the result instead.
    """
    return 15.0 * f / 8.0 - 47.0 / 72.0


def ls_upper_bound(lam: float, mu_min_of_pure_part: float) -> float:
    """Concurrence upper bound (1 - lambda) * max(0, 4 - 18 mu) of
    rho = lambda sigma + (1 - lambda) |psi><psi|, sigma separable, from the
    weight lambda and mu = mu_min of psi's SPA-PT output.

    By convexity C(rho) <= (1 - lambda) C(psi), and for a pure psi C(psi) =
    N^D(psi) = 4 - 18 mu by tightness, so the bound holds, with equality at
    lambda = 0.  (1 - lambda) N^N(mu) would sit up to (1 - lambda) / 1356
    below it, N^N's bias, and is not a bound.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda {lam} outside [0, 1]")
    mu = float(mu_min_of_pure_part)
    if not MU_MIN_LO - _RANGE_SLACK <= mu <= SEPARABILITY_THRESHOLD + _RANGE_SLACK:
        raise ValueError(f"mu_min {mu} outside [1/6, 2/9]")
    return (1.0 - lam) * max(0.0, _lower_bound(mu))


def _matches_quasi(rho: DensityMatrix) -> bool:
    c = 2.0 * float(rho.mat[0, 0].real)
    if not -_MATCH_TOL <= c <= 1.0 + _MATCH_TOL:
        return False
    c = min(max(c, 0.0), 1.0)
    # The reference's entry (1, 1) is 1 - c: testing it first spares most
    # states the construction of the reference, with the same verdict.
    if abs(rho.mat[1, 1] - (1.0 - c)) > _MATCH_TOL:
        return False
    ref = family_batch("quasi", [c])[0]
    return bool(np.abs(rho.mat - ref).max() <= _MATCH_TOL)


def batch_report(rhos) -> BatchReport:
    """Quantifiers of each state of an (N, 4, 4) stack via the affine SPA pipeline."""
    # Wootters first: the Hermiticity check of its PSD root names a state
    # with a non-finite entry before any other kernel meets one.
    concurrence = concurrence_wootters_batch(rhos)
    pts = partial_transpose_batch(rhos)
    nd, neg_count = _pt_spectrum(pts)
    mu = mu_min_batch(affine_from_pt(pts))
    return BatchReport(
        nd=nd,
        neg_count=neg_count,
        mu_min=mu,
        nn=negativity_normalized_batch(mu),
        concurrence=concurrence,
        ppt=nd <= PPT_TOL,
    )


def full_report(rho: DensityMatrix) -> EntanglementReport:
    """All quantifiers of one state via the affine SPA pipeline.

    The pure-state and quasi-distillable specializations are evaluated only
    when the state matches those families within 1e-9.  Purity is Tr rho^2
    summed from the state's spectrum, one row of the stacked eigh.
    """
    pt, rho_tilde = spa_pt_affine(rho)
    # Row 0 is the state, for its PSD root; row 1 the SPA-PT output, for mu_min.
    w, v = herm_eigen_batch(np.concatenate((rho.mat[None], rho_tilde)))
    mu = _check_mu(float(w[1, 0]))  # a float, checked once for nn and the lower bound
    l0, l1, l2, l3 = linalg.eigvalsh(pt)[0].tolist()
    # _negativity's terms, summed in the order of numpy's reduce over 4 entries.
    nd = 2.0 * (((max(0.0, -l0) + max(0.0, -l1)) + max(0.0, -l2)) + max(0.0, -l3))
    nn = min(max(_estimator(mu), 0.0), 1.0)
    # Tr rho^2 = sum_i lambda_i^2, read before psd_sqrt_from_eigen clamps and roots w in place.
    p0, p1, p2, p3 = w[0].tolist()
    pure = ((p0 * p0 + p1 * p1) + p2 * p2) + p3 * p3 >= 1.0 - _MATCH_TOL
    root = psd_sqrt_from_eigen(w[:1], v[:1])
    return EntanglementReport(
        nd=nd,
        nn=nn,
        lower_bound=_lower_bound(mu),
        concurrence=max(0.0, _wootters_gap(*_wootters_values(root)[0].tolist())),
        ppt=nd <= PPT_TOL,
        mu_min=mu,
        bias=estimator_bias(nd),
        concurrence_pure_est=nn if pure else None,
        concurrence_quasi_est=concurrence_quasi(min(nd, 1.0)) if _matches_quasi(rho) else None,
    )
