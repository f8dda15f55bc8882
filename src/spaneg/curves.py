"""Closed-form reference curves for the parametric state families.

These are the analytic expressions the parameter sweeps are checked
against; the pipeline values must reproduce them to ~1e-12.
"""

from __future__ import annotations

import numpy as np

from .measures import verstraete_rhs


def nd_pure_m(m: float) -> float:
    """Exact negativity of the pure family: 2 sqrt(M(1-M))."""
    return 2.0 * np.sqrt(m * (1.0 - m))


def mu_pure_m(m: float) -> float:
    """Minimum SPA-PT eigenvalue of the pure family: 2/9 - sqrt(M(1-M))/9."""
    return 2.0 / 9.0 - np.sqrt(m * (1.0 - m)) / 9.0


def mu_horodecki(p: float) -> float:
    """Minimum SPA-PT eigenvalue of the Horodecki family."""
    return 5.0 / 18.0 - p / 18.0 - np.sqrt(1.0 - 2.0 * p + 2.0 * p**2) / 18.0


def nn_from_nd(nd: float) -> float:
    """Universal estimator curve N^N = N^D (338 + N^D) / 339."""
    return nd * (338.0 + nd) / 339.0


def nn_from_nd_pure(nd: float) -> float:
    """Published pure-family form (54 N / 9153)(169 + N/2); algebraically the
    same curve as nn_from_nd."""
    return 54.0 * nd / 9153.0 * (169.0 + nd / 2.0)


# The Horodecki and quasi-distillable families both saturate the Verstraete
# bound: their exact negativity is verstraete_rhs of the parameter.
ND_CLOSED = {"pure_m": nd_pure_m, "horodecki": verstraete_rhs, "quasi": verstraete_rhs}
NN_CLOSED = {"pure_m": nn_from_nd_pure, "horodecki": nn_from_nd, "quasi": nn_from_nd}
