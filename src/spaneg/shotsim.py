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

from .linalg import STUDY_CHUNK
from .measures import favg_from_mu, fidelity_link, negativity_normalized_batch
from .spa import MU_MIN_HI, MU_MIN_LO, spa_pt_affine
from .states import DensityMatrix


@dataclass(frozen=True)
class ShotEstimate:
    """Aggregate of a finite-shot estimation run.

    favg_hat / mu_hat / nn_hat come from the first trial; mean_nn, std_nn
    and ci95 summarize all trials.  clamp_count is the number of trials
    whose noisy mu estimate fell outside [1/6, 1/4] and was clamped before
    the negativity formula was applied.  exact_nn is the noise-free
    normalized negativity of the state, from the same mu_min that sets F_avg.
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
    exact_nn: float


# numpy's SeedSequence with its default pool of 4 uint32 words
# (numpy/random/bit_generator.pyx, after O'Neill's seed_seq_fe).  Its hash
# constants evolve the same way for every seed: the k-th hashmix XORs with
# chain[k] and multiplies by chain[k + 1] of the _HASH_A chain, and
# generate_state does the same along _HASH_B.  The 4 pool words and 12 mixing
# steps take 16 hashmix calls; generate_state(4, np.uint64) makes 8 words.
_MASK32 = 0xFFFF_FFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _const_chain(init: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(XOR, multiplier) constants of `steps` hashmix calls, each an (steps, 1) uint32 column."""
    chain = [init]
    for _ in range(steps):
        chain.append(chain[-1] * mult & _MASK32)
    chain = np.array(chain, dtype=np.uint32)[:, None]
    return chain[:-1], chain[1:]


_HASH_A = _const_chain(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _const_chain(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier (O'Neill's PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(values: np.ndarray, chain, steps: slice) -> np.ndarray:
    """hashmix of `values` by the calls in `steps`: row r of the result uses call steps.start + r.

    `values` is one row per call, or a single row that every call hashes.
    """
    values = (values ^ chain[0][steps]) * chain[1][steps]
    return values ^ (values >> np.uint32(16))


def _seed_state_words(first: int, count: int) -> np.ndarray:
    """SeedSequence(first + j).generate_state(4, np.uint64) for j < count, as a (count, 4) array.

    Every seed must lie below 2**128: its entropy is then at most 4 uint32
    words, and zero-padding them to the pool size gives the same pool.
    """
    lo0, hi0 = first & _MASK64, first >> 64
    lo = np.uint64(lo0) + np.arange(count, dtype=np.uint64)
    hi = np.uint64(hi0) + (lo < np.uint64(lo0))
    entropy = np.stack([lo, lo >> np.uint64(32), hi, hi >> np.uint64(32)]).astype(np.uint32)
    pool = _hashmix(entropy, _HASH_A, slice(0, 4))
    step = 4
    for src in range(4):
        # pool[src] is mixed into the other three words, each with its own hashmix call.
        dst = [d for d in range(4) if d != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _HASH_A, slice(step, step + 3))
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
        step += 3
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B, slice(0, 8)).astype(np.uint64)
    # Each uint64 word is a pair of uint32 words read little-endian.
    return (out[0::2] | out[1::2] << np.uint64(32)).T


def _pcg64_states(first: int, count: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of np.random.default_rng(first + j) for j < count.

    The words of seeds below 2**128 are hashed in one numpy pass; those of
    larger seeds come from SeedSequence itself.  Each (state, inc) is
    pcg_setseq_128_srandom_r seeded with the words' 128-bit halves.
    """
    below = min(count, max(0, 2**128 - first))
    words = _seed_state_words(first, below).tolist() if below else []
    words += [
        np.random.SeedSequence(first + j).generate_state(4, np.uint64).tolist()
        for j in range(below, count)
    ]
    states = []
    for s_hi, s_lo, i_hi, i_lo in words:
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append(((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def trial_counts(shots: int, p: float, trials: int, seed: int) -> np.ndarray:
    """Successes of `trials` runs of `shots` Bernoulli(p) draws, as an int64 array.

    Trial i is np.random.default_rng(seed + i).binomial(shots, p), bit for
    bit: one PCG64 is reused, set to each trial's seeded state in turn, and
    the seeding is computed STUDY_CHUNK trials at a time.
    """
    bit_gen = np.random.PCG64(0)  # its state is replaced before every draw
    gen = np.random.Generator(bit_gen)
    pcg = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    counts = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, STUDY_CHUNK):
        seeded = _pcg64_states(seed + start, min(STUDY_CHUNK, trials - start))
        for i, (state, inc) in enumerate(seeded, start):
            pcg["state"], pcg["inc"] = state, inc
            bit_gen.state = full_state
            counts[i] = gen.binomial(shots, p)
    return counts


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
    mu_true = spa_pt_affine(rho).mu_min
    f_true = favg_from_mu(mu_true)
    favg_hat = trial_counts(shots, f_true, trials, rng_seed) / shots
    # F_avg range maps to mu in [1/6, 1/4]; noisy estimates can land outside.
    mu_raw = fidelity_link(favg_hat)
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
        exact_nn=float(negativity_normalized_batch(mu_true)),
    )

