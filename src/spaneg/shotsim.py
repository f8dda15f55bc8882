"""Finite-shot simulation of the two-measurement estimation protocol.

The interferometric observable is abstracted to a single Bernoulli success
probability equal to the state's average fidelity F_avg; each trial draws
`shots` outcomes, and the empirical mean is pushed through the fidelity
link and the normalized-negativity formula.  This models the estimation
noise of the observable, not photon-level optics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import favg_from_mu, negativity_normalized_batch
from .spa import MU_MIN_HI, MU_MIN_LO, spa_pt_affine
from .states import DensityMatrix


@dataclass(frozen=True)
class ShotEstimate:
    """Aggregate of a finite-shot estimation run.

    favg_hat / mu_hat / nn_hat come from the first trial; mean_nn, std_nn
    and ci95 summarize all trials.  clamp_count is the number of trials
    whose noisy mu estimate fell outside [1/6, 1/4] and was clamped before
    the negativity formula was applied.
    """

    favg_hat: float
    mu_hat: float
    nn_hat: float
    shots: int
    trials: int
    mean_nn: float
    std_nn: float
    ci95: tuple[float, float]
    clamp_count: int


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # Documented splitting rule: trial i uses generator seed (base + i).
    return np.random.default_rng(int(seed) + trial)


def simulate_favg(rho: DensityMatrix, shots: int, rng_seed: int) -> float:
    """Empirical mean of `shots` Bernoulli draws at p = F_avg(rho); deterministic per seed."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    f_true = favg_from_mu(spa_pt_affine(rho).mu_min)
    rng = _trial_rng(rng_seed, 0)
    return float(rng.binomial(shots, f_true)) / shots


def estimate_negativity(
    rho: DensityMatrix, shots: int, trials: int, rng_seed: int
) -> ShotEstimate:
    """Run `trials` independent finite-shot estimates of the normalized negativity.

    Trials use the per-trial seed rule base+i, so they can be evaluated in
    any order (or in parallel) with identical results.  The 95% confidence
    interval of the mean uses the normal approximation; 30+ trials are
    recommended for it to be meaningful.
    """
    if shots < 1 or trials < 1:
        raise ValueError(f"shots and trials must be >= 1, got {shots}, {trials}")
    f_true = favg_from_mu(spa_pt_affine(rho).mu_min)
    favg_hat = np.empty(trials)
    for i in range(trials):
        favg_hat[i] = float(_trial_rng(rng_seed, i).binomial(shots, f_true)) / shots
    # F_avg range maps to mu in [1/6, 1/4]; noisy estimates can land outside.
    mu_raw = 15.0 * favg_hat / 8.0 - 47.0 / 72.0
    mu_hat = np.minimum(np.maximum(mu_raw, MU_MIN_LO), MU_MIN_HI)
    clamp_count = int(np.count_nonzero(mu_hat != mu_raw))
    nn_values = negativity_normalized_batch(mu_hat)
    mean_nn = float(nn_values.mean())
    std_nn = float(nn_values.std(ddof=1)) if trials > 1 else 0.0
    half = 1.959963984540054 * std_nn / np.sqrt(trials)
    return ShotEstimate(
        favg_hat=float(favg_hat[0]),
        mu_hat=float(mu_hat[0]),
        nn_hat=float(nn_values[0]),
        shots=shots,
        trials=trials,
        mean_nn=mean_nn,
        std_nn=std_nn,
        ci95=(mean_nn - half, mean_nn + half),
        clamp_count=clamp_count,
    )

