"""Finite-shot simulation of the two-measurement estimation protocol.

The interferometric observable is abstracted to a single Bernoulli success
probability equal to the state's average fidelity F_avg; each trial draws
`shots` outcomes, and the empirical mean is pushed through the fidelity
link and the normalized-negativity formula.  This models the estimation
noise of the observable, not photon-level optics.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .linalg import SEED_CHUNK
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
# constants evolve the same way for every seed: the k-th hashmix of the
# entropy XORs with chain[k] and multiplies by chain[k + 1] of the chain that
# starts at _INIT_A and steps by _MULT_A, and generate_state does the same
# along _HASH_B.  The 4 pool words and 12 mixing steps take 16 hashmix calls,
# and each entropy word past the fourth 4 more; generate_state(4, np.uint64)
# makes 8 words.
_MASK32 = 0xFFFF_FFFF


def _const_chain(init: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(XOR, multiplier) constants of `steps` hashmix calls, each an (steps, 1) uint32 column."""
    chain = [init]
    for _ in range(steps):
        chain.append(chain[-1] * mult & _MASK32)
    chain = np.array(chain, dtype=np.uint32)[:, None]
    return chain[:-1], chain[1:]


_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
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


def _mix(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * pool - _MIX_R * hashed
    return mixed ^ (mixed >> np.uint32(16))


def _entropy_words(seed: int) -> int:
    """uint32 words of a seed's SeedSequence entropy, counting fewer than 4 as 4."""
    return max(4, -(-seed.bit_length() // 32))


def _seed_state_words(first: int, count: int) -> np.ndarray:
    """SeedSequence(first + j).generate_state(4, np.uint64) for j < count, as a (count, 4) array.

    Every seed must have first's _entropy_words.  Below 2**128 an entropy of
    fewer words, zero-padded to the pool size, gives the same pool.
    """
    n = _entropy_words(first)
    chain = _const_chain(_INIT_A, _MULT_A, 4 * n)
    # Word k of first + j, least significant first.
    entropy = np.empty((n, count), dtype=np.uint32)
    carry = np.arange(count, dtype=np.uint64)
    for k in range(n):
        word = np.uint64(first >> 32 * k & _MASK32) + carry
        entropy[k] = word & np.uint64(_MASK32)
        carry = word >> np.uint64(32)
    pool = _hashmix(entropy[:4], chain, slice(0, 4))
    step = 4
    for src in range(4):
        # pool[src] is mixed into the other three words, each with its own hashmix call.
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain, slice(step, step + 3)))
        step += 3
    for src in range(4, n):
        # Each further entropy word is mixed into every pool word.
        pool = _mix(pool, _hashmix(entropy[src], chain, slice(step, step + 4)))
        step += 4
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B, slice(0, 8)).astype(np.uint64)
    # Each uint64 word is a pair of uint32 words read little-endian.
    return (out[0::2] | out[1::2] << np.uint64(32)).T


# 128-bit words as four 32-bit limbs, least significant first, each held in a
# uint64 so that sums of limb products and carries do not overflow.
_LIMB = np.uint64(32)
_LIMB_MASK = np.uint64(_MASK32)
_PCG_MULT_LIMBS = [np.uint64(_PCG_MULT >> 32 * k & _MASK32) for k in range(4)]


def _limbs(lo: np.ndarray, hi: np.ndarray) -> list[np.ndarray]:
    """Limbs of the 128-bit words hi << 64 | lo."""
    return [lo & _LIMB_MASK, lo >> _LIMB, hi & _LIMB_MASK, hi >> _LIMB]


def _add(a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
    """Limbs of a + b mod 2**128."""
    return _carry([x + y for x, y in zip(a, b)])


def _carry(columns: list[np.ndarray]) -> list[np.ndarray]:
    """Limbs of sum(columns[k] << 32k) mod 2**128; each column stays below 2**63."""
    out, carry = [], np.uint64(0)
    for column in columns:
        column = column + carry
        out.append(column & _LIMB_MASK)
        carry = column >> _LIMB
    return out


def _mul_pcg(a: list[np.ndarray]) -> list[np.ndarray]:
    """Limbs of a * _PCG_MULT mod 2**128.

    Limb k of the product collects the low halves of the partial products
    a[i] * mult[k - i] and the high halves of those of limb k - 1: at most 7
    terms below 2**32 each.
    """
    columns = [np.zeros_like(a[0]) for _ in range(4)]
    for i in range(4):
        for j in range(4 - i):
            prod = a[i] * _PCG_MULT_LIMBS[j]
            columns[i + j] += prod & _LIMB_MASK
            if i + j < 3:
                columns[i + j + 1] += prod >> _LIMB
    return _carry(columns)


def _pcg64_words(first: int, count: int) -> np.ndarray:
    """PCG64 state of np.random.default_rng(first + j) for j < count, as a (count, 4) uint64 array.

    Row j holds state low, state high, inc low and inc high: the byte layout of
    numpy's pcg64_random_t on a little-endian build with a native 128-bit
    integer.  The SeedSequence words are hashed in one numpy pass per run of
    seeds with the same count of entropy words, so a run is split where that
    count grows, at 2**(32 k) for k >= 4.  From the words' 128-bit halves s and
    i, pcg_setseq_128_srandom_r gives inc = 2 i + 1 and
    state = (s + inc) * _PCG_MULT + inc, mod 2**128.
    """
    seeded = np.empty((count, 4), dtype=np.uint64)  # s hi, s lo, i hi, i lo
    done = 0
    while done < count:
        seed = first + done
        n = min(count - done, 2 ** (32 * _entropy_words(seed)) - seed)
        seeded[done:done + n] = _seed_state_words(seed, n)
        done += n
    s_hi, s_lo, i_hi, i_lo = seeded.T
    one = np.uint64(1)
    inc = _limbs(i_lo << one | one, i_hi << one | i_lo >> np.uint64(63))
    state = _add(_mul_pcg(_add(_limbs(s_lo, s_hi), inc)), inc)
    words = np.empty((count, 4), dtype=np.uint64)
    for col, (lo, hi) in enumerate([state[:2], state[2:], inc[:2], inc[2:]]):
        words[:, col] = lo | hi << _LIMB
    return words


def _state_view(bit_gen: np.random.PCG64) -> memoryview:
    """Writable bytes of bit_gen's pcg64_random_t, its 128-bit state then inc.

    ctypes.state_address points to numpy's pcg64_state struct, whose first
    field is the pcg64_random_t pointer.
    """
    address = ctypes.c_void_p.from_address(bit_gen.ctypes.state_address).value
    return memoryview((ctypes.c_char * 32).from_address(address)).cast("B")


def _dict_state(s_lo: int, s_hi: int, i_lo: int, i_hi: int) -> dict:
    """The bit_generator.state dict of a PCG64 at the given words of _pcg64_words."""
    return {
        "bit_generator": "PCG64",
        "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }


# Four distinct words (inc odd), so that a swapped or shifted layout shows.
_PROBE_WORDS = (0xFEDCBA9876543210, 0x0123456789ABCDEF, 0x99AABBCCDDEEFF01, 0x1122334455667788)


def _view_sets_state(bit_gen: np.random.PCG64, view: memoryview) -> bool:
    """True if writing a row of _pcg64_words through `view` sets bit_gen's whole
    state as the dict setter does.

    The layout is numpy's, not its API: a big-endian build, or one whose
    pcg128_t is a {high, low} struct, fails this check.
    """
    view[:] = np.array(_PROBE_WORDS, dtype=np.uint64).tobytes()
    reference = np.random.PCG64(0)
    reference.state = _dict_state(*_PROBE_WORDS)
    return bit_gen.state == reference.state


# numpy's Generator.binomial (random_binomial, numpy/random/src/distributions)
# draws by BTPE, the sampler of Kachitvichyanukul & Schmeiser (1988), when
# r * n > 30 with r = min(p, 1 - p); it draws for r and flips the count to
# n - count when p > 0.5.  BTPE's first step takes two uniforms u, v of the
# generator, scales u by p4, and accepts floor(xm - p1 * v + u) unless u > p1:
# about 3 draws in 4 at n = 100000.  The setup and the step are scalar SSE2
# arithmetic without FMA in numpy's build, so Python floats and float64 ufuncs
# taken in the same order give the same bits.
_BTPE_MIN_MEAN = 30.0
# Accepted trials of each call that are also drawn by the generator, as a check.
_SELF_CHECKS = 8


def _btpe_setup(shots: int, p: float) -> tuple[float, float, float] | None:
    """(p1, xm, p4) of random_binomial_btpe's setup for binomial(shots, p).

    None where numpy does not draw by BTPE.  The test is written so that a
    NaN p, a p outside [0, 1] or a negative shots also gives None, and such a
    call is left to the generator, which raises.  The constants are computed
    in the order of numpy's setup; those the first step does not use are kept
    because p4 depends on them.
    """
    r = min(p, 1.0 - p)
    if not r * shots > _BTPE_MIN_MEAN:
        return None
    q = 1.0 - r
    fm = shots * r + r
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(shots * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    return p1, xm, p4


_ROT_SHIFT, _ROT_MASK, _DOUBLE_SHIFT = np.uint64(58), np.uint64(63), np.uint64(11)


def _next_doubles(state: list[np.ndarray], inc: list[np.ndarray], count: int) -> list[np.ndarray]:
    """The first `count` next_double outputs of the PCG64s at limbs `state` and `inc`.

    Each step advances the state by the LCG and takes its XSL-RR output: the
    state's two 64-bit halves XORed, rotated right by the top 6 bits; the
    double is the output's top 53 bits times 2**-53.
    """
    out = []
    for _ in range(count):
        state = _add(_mul_pcg(state), inc)
        lo = state[0] | state[1] << _LIMB
        hi = state[2] | state[3] << _LIMB
        rot = hi >> _ROT_SHIFT
        x = hi ^ lo
        x = x >> rot | x << (np.uint64(64) - rot & _ROT_MASK)
        out.append((x >> _DOUBLE_SHIFT) * 2.0**-53)
    return out


def _btpe_first_step(
    words: np.ndarray, shots: int, p: float, setup: tuple[float, float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """(accepted, counts) of BTPE's first step for the generator at each row of _pcg64_words.

    counts holds binomial(shots, p) where accepted is True and is meaningless
    elsewhere.
    """
    p1, xm, p4 = setup
    u, v = _next_doubles(_limbs(words[:, 0], words[:, 1]), _limbs(words[:, 2], words[:, 3]), 2)
    u *= p4
    counts = np.floor(xm - p1 * v + u).astype(np.int64)
    if p > 0.5:
        counts = shots - counts
    return ~(u > p1), counts


def trial_counts(shots: int, p: float, trials: int, seed: int) -> np.ndarray:
    """Successes of `trials` runs of `shots` Bernoulli(p) draws, as an int64 array.

    Trial i is np.random.default_rng(seed + i).binomial(shots, p), bit for
    bit.  The seeded states are computed SEED_CHUNK trials at a time.  Where
    numpy draws by BTPE, its first step is taken for the whole chunk in
    numpy, and the trials it accepts are counted without the generator.  The
    trials it rejects, and every trial when numpy does not use BTPE, are drawn
    by one reused PCG64: each writes its 32 bytes of state straight into the
    generator.  binomial draws only whole 64-bit outputs, so has_uint32 and
    uinteger keep the 0 that the layout check saw.  If that check fails, each
    trial sets the same words through the bit_generator.state dict instead.

    Both shortcuts copy numpy's internals, not its API, so each is checked
    on every call: the layout by _view_sets_state, the step by drawing the
    first _SELF_CHECKS accepted trials through the generator as well.  On a
    mismatch, every trial not yet checked is drawn by the generator.
    """
    bit_gen = np.random.PCG64(0)  # its state is replaced before every draw
    binomial = np.random.Generator(bit_gen).binomial
    view = _state_view(bit_gen)
    fast = _view_sets_state(bit_gen, view)
    # 0-d arrays pass numpy's argument conversion faster than Python scalars.
    n_arr, p_arr = np.array(shots, dtype=np.int64), np.array(p, dtype=np.float64)
    shots, p = int(n_arr), float(p_arr)

    def draw(words: np.ndarray) -> list[int]:
        """binomial(shots, p) of the generator at each row of `words`."""
        out = []
        if not fast:
            for row in words.tolist():
                bit_gen.state = _dict_state(*row)
                out.append(binomial(n_arr, p_arr))
        elif len(words):  # memoryview cannot cast an empty array
            data = memoryview(words).cast("B")
            for off in range(0, data.nbytes, 32):
                view[:] = data[off:off + 32]
                out.append(binomial(n_arr, p_arr))
        return out

    setup = _btpe_setup(shots, p)
    checks = _SELF_CHECKS
    counts = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, SEED_CHUNK):
        words = _pcg64_words(seed + start, min(SEED_CHUNK, trials - start))
        chunk = counts[start:start + len(words)]
        if setup is None:
            chunk[:] = draw(words)
            continue
        accepted, chunk[:] = _btpe_first_step(words, shots, p, setup)
        if checks:
            checked = np.flatnonzero(accepted)[:checks]
            if draw(words[checked]) != chunk[checked].tolist():
                setup = None
                chunk[:] = draw(words)
                continue
            checks -= len(checked)
        rejected = np.flatnonzero(~accepted)
        chunk[rejected] = draw(words[rejected])
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

