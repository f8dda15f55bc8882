"""Finite-shot simulation of the two-measurement estimation protocol.

The interferometric observable is abstracted to a single Bernoulli success
probability equal to the state's average fidelity F_avg; each trial draws
`shots` outcomes, and the empirical mean is pushed through the fidelity
link and the normalized-negativity formula.  This models the estimation
noise of the observable, not photon-level optics.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from . import btpe
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


def _seed_state_words(first: int, count: int) -> tuple[np.ndarray, ...]:
    """SeedSequence(first + j).generate_state(4, np.uint64) for j < count, as four uint64 columns.

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
    # Word k hashes pool[k % 4] by call k; a uint64 is two words read little-endian.
    hashed = [_hashmix(pool, _HASH_B, calls) for calls in (slice(0, 4), slice(4, 8))]
    return tuple(h[k] | h[k + 1].astype(np.uint64) << np.uint64(32) for h in hashed for k in (0, 2))


# A 128-bit word is held as its two uint64 halves (lo, hi), the layout of
# numpy's pcg128_t, and PCG64's LCG step runs on them with native wrapping.
# Only the high half of lo * _MULT_LO needs 32-bit pieces.
_MULT_LO, _MULT_HI = np.uint64(_PCG_MULT & 2**64 - 1), np.uint64(_PCG_MULT >> 64)
_MULT_LO_0, _MULT_LO_1 = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)
_HALF, _HALF_MASK = np.uint64(32), np.uint64(_MASK32)


def _lcg(lo: np.ndarray, hi: np.ndarray, i_lo: np.ndarray, i_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Halves of (hi << 64 | lo) * _PCG_MULT + (i_hi << 64 | i_lo) mod 2**128, PCG64's LCG step.

    mulhi, the high half of lo * _MULT_LO, is built from four 32x32-bit
    products; each of its sums stays below 2**64, as
    (2**32 - 1)**2 + 2 (2**32 - 1) = 2**64 - 1.  The low add carried if its
    sum wrapped below the addend.
    """
    lo_0, lo_1 = lo & _HALF_MASK, lo >> _HALF
    mid = lo_1 * _MULT_LO_0 + (lo_0 * _MULT_LO_0 >> _HALF)
    cross = lo_0 * _MULT_LO_1 + (mid & _HALF_MASK)
    mulhi = lo_1 * _MULT_LO_1 + (mid >> _HALF) + (cross >> _HALF)
    new_lo = lo * _MULT_LO + i_lo
    return new_lo, mulhi + lo * _MULT_HI + hi * _MULT_LO + i_hi + (new_lo < i_lo)


def _pcg64_words(first: int, count: int) -> tuple[np.ndarray, ...]:
    """PCG64 state of np.random.default_rng(first + j) for j < count, as four uint64 columns.

    The columns are state low, state high, inc low and inc high, each 1-D and
    C-contiguous; trial j's row of the four is the byte layout of numpy's
    pcg64_random_t on a little-endian build with a native 128-bit integer.
    The SeedSequence words are hashed in one numpy pass per run of seeds with
    the same count of entropy words, so a run is split where that count
    grows, at 2**(32 k) for k >= 4, and only then are its columns
    concatenated.  From the words' 128-bit halves s and i,
    pcg_setseq_128_srandom_r gives inc = 2 i + 1 and
    state = (s + inc) * _PCG_MULT + inc, mod 2**128, on uint64 halves.
    """
    parts = []
    done = 0
    while done < count:
        seed = first + done
        n = min(count - done, 2 ** (32 * _entropy_words(seed)) - seed)
        parts.append(_seed_state_words(seed, n))
        done += n
    s_hi, s_lo, i_hi, i_lo = parts[0] if len(parts) == 1 else [np.concatenate(c) for c in zip(*parts)]
    one = np.uint64(1)
    inc_lo, inc_hi = i_lo << one | one, i_hi << one | i_lo >> np.uint64(63)
    lo = s_lo + inc_lo
    return (*_lcg(lo, s_hi + inc_hi + (lo < inc_lo), inc_lo, inc_hi), inc_lo, inc_hi)


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
    """True if writing a row that draw stacks from _pcg64_words through `view`
    sets bit_gen's whole state as the dict setter does.

    The layout is numpy's, not its API: a big-endian build, or one whose
    pcg128_t is a {high, low} struct, fails this check.
    """
    view[:] = np.array(_PROBE_WORDS, dtype=np.uint64).tobytes()
    reference = np.random.PCG64(0)
    reference.state = _dict_state(*_PROBE_WORDS)
    return bit_gen.state == reference.state


# Shot trials per chunk of trial_counts' seed hashing.  Its numpy calls cost
# ~1 us per trial at 256 and ~0.25 us at 4096.  At 4096 each array of a
# chunk's numpy work stays below glibc's default mmap threshold of 128 KiB:
# the largest are the hash pool's 64 KiB uint32 rows, and a uint64 column is
# 32 KiB.  Arrays at the threshold get fresh pages from the kernel chunk after
# chunk: (count, 4) uint64 rows, exactly 128 KiB, would cost a 20000-trial run
# ~550 more minor page faults.  Only a chunk that the generator draws whole,
# at ~1 us a trial, stacks 128 KiB of rows.
SEED_CHUNK = 4096

# Accepted trials of each call that are also drawn by the generator, as a
# check: this many of those Step 10 accepts in a trial's first pass, and this
# many of all the others.
_SELF_CHECKS = 8
# The trials sent back to Step 10 are pooled across chunks.  The pool takes at
# most _POOL_PASSES passes in numpy, each only while it holds _POOL_MIN trials
# or more, and the generator draws what is left.  A pass has a fixed cost of
# ~0.45 ms on a 2-core Xeon, a generator draw ~1.2 us: a few hundred trials
# pay for a pass.
_POOL_PASSES = 2
_POOL_MIN = 256

_ROT_SHIFT, _ROT_MASK, _DOUBLE_SHIFT = np.uint64(58), np.uint64(63), np.uint64(11)


def _next_doubles(words: tuple, count: int) -> tuple[list[np.ndarray], tuple]:
    """The first `count` next_double outputs of the PCG64s at the columns
    `words` of _pcg64_words, and the columns of those PCG64s after them.

    Each step advances the state's uint64 halves by _lcg and takes its XSL-RR
    output: the two halves XORed, rotated right by the top 6 bits of the
    high half; the double is the output's top 53 bits times 2**-53.  The
    steps make new arrays, so `words` is left as it was.
    """
    lo, hi, i_lo, i_hi = words
    out = []
    for _ in range(count):
        lo, hi = _lcg(lo, hi, i_lo, i_hi)
        rot = hi >> _ROT_SHIFT
        x = hi ^ lo
        x = x >> rot | x << (np.uint64(64) - rot & _ROT_MASK)
        out.append((x >> _DOUBLE_SHIFT) * 2.0**-53)
    return out, (lo, hi, i_lo, i_hi)


def _btpe_pass(words: tuple, s: btpe.Setup) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(outcome, counts, after) of btpe.one_pass for the generators at the
    columns `words` of _pcg64_words, with their columns past the pass's two
    outputs, where a LOOP trial takes its next pass."""
    (d1, v), after = _next_doubles(words, 2)
    return (*btpe.one_pass(d1, v, s), after)


class _TrialCounts:
    """The counts of one trial_counts call, filled chunk by chunk."""

    def __init__(self, shots: int, p: float, trials: int):
        self.bit_gen = np.random.PCG64(0)  # its state is replaced before every draw
        self.binomial = np.random.Generator(self.bit_gen).binomial
        self.view = _state_view(self.bit_gen)
        self.fast = _view_sets_state(self.bit_gen, self.view)
        # 0-d arrays pass numpy's argument conversion faster than Python scalars.
        self.n_arr, self.p_arr = np.array(shots, dtype=np.int64), np.array(p, dtype=np.float64)
        self.setup = btpe.setup(int(self.n_arr), float(self.p_arr))
        self.counts = np.empty(trials, dtype=np.int64)
        # Self-checks left: Step 10 in a trial's first pass, every other acceptance.
        self.checks = [_SELF_CHECKS, _SELF_CHECKS]
        # (index, seeded columns, current columns) of the trials sent back to Step 10.
        self.pool: list[tuple[np.ndarray, tuple, tuple]] = []
        self.pooled = 0

    def draw(self, words: tuple, index=slice(None)) -> list[int]:
        """binomial(shots, p) of the generator at each trial `index` of the
        columns `words`, whose 32-byte rows are stacked for these trials only."""
        rows = np.stack([column[index] for column in words], axis=1)
        out = []
        binomial, n_arr, p_arr = self.binomial, self.n_arr, self.p_arr
        if not self.fast:
            for row in rows.tolist():
                self.bit_gen.state = _dict_state(*row)
                out.append(binomial(n_arr, p_arr))
        elif len(rows):  # memoryview cannot cast an empty array
            view, data = self.view, memoryview(rows).cast("B")
            for off in range(0, data.nbytes, 32):
                view[:] = data[off:off + 32]
                out.append(binomial(n_arr, p_arr))
        return out

    def add(self, start: int, seeds: tuple) -> None:
        """Count the trials from `start` on, at the seeded columns `seeds`."""
        index = np.arange(start, start + len(seeds[0]))
        if self.setup is None:
            self.counts[index] = self.draw(seeds)
            return
        self._take_pass(index, seeds, seeds, first=True)
        if self.pooled >= SEED_CHUNK:
            self.flush()

    def flush(self) -> None:
        """Take the pool's passes, then draw what is left by the generator."""
        for _ in range(_POOL_PASSES):
            if self.pooled < _POOL_MIN:
                break
            index, seeds, words = zip(*self.pool)
            self.pool, self.pooled = [], 0
            seeds, words = (tuple(np.concatenate(c) for c in zip(*parts)) for parts in (seeds, words))
            self._take_pass(np.concatenate(index), seeds, words, first=False)
        self._draw_pool()

    def _draw_pool(self) -> None:
        for index, seeds, _ in self.pool:
            self.counts[index] = self.draw(seeds)
        self.pool, self.pooled = [], 0

    def _take_pass(self, index: np.ndarray, seeds: tuple, words: tuple, first: bool) -> None:
        """One BTPE pass of the trials at columns `words`, seeded at `seeds`."""
        outcome, counts, after = _btpe_pass(words, self.setup)
        accepted = outcome <= btpe.SQUEEZE
        step10 = outcome == btpe.STEP10 if first else np.zeros_like(accepted)
        for group, mask in enumerate((step10, accepted & ~step10)):
            if not self.checks[group]:
                continue
            checked = np.flatnonzero(mask)[:self.checks[group]]
            if self.draw(seeds, checked) != counts[checked].tolist():
                # Every trial not yet checked goes to the generator.
                self.setup = None
                self.counts[index] = self.draw(seeds)
                self._draw_pool()
                return
            self.checks[group] -= len(checked)
        self.counts[index[accepted]] = counts[accepted]
        deferred = outcome == btpe.DEFER
        self.counts[index[deferred]] = self.draw(seeds, deferred)
        looped = np.flatnonzero(outcome == btpe.LOOP)
        if len(looped):
            seeds, after = (tuple(c[looped] for c in columns) for columns in (seeds, after))
            self.pool.append((index[looped], seeds, after))
            self.pooled += len(looped)


def trial_counts(shots: int, p: float, trials: int, seed: int) -> np.ndarray:
    """Successes of `trials` runs of `shots` Bernoulli(p) draws, as an int64 array.

    Trial i is np.random.default_rng(seed + i).binomial(shots, p), bit for
    bit.  The seeded states are computed SEED_CHUNK trials at a time.  Where
    numpy draws by BTPE, each chunk takes one pass of BTPE in numpy
    (btpe.one_pass): two PCG64 outputs per trial, Step 10, and for the trials
    Step 10 rejects, Steps 20, 30 and 40 and Step 52's squeeze.  A decision
    that reads a log is taken only when np.log's value, widened by a relative
    2**-40 each way, settles it.  Trials sent back to Step 10 join a pool of
    their PCG64 columns after the pass.  Whenever the pool holds SEED_CHUNK
    trials, and at the end, it takes up to _POOL_PASSES passes of its own,
    each while it holds at least _POOL_MIN trials.

    The generator draws the rest: the trials a pass leaves to it (Step 50,
    the full Stirling test, a log decision that the bracket does not settle),
    those the pool still holds after its passes, and every trial where numpy
    does not use BTPE.  At the shots benchmark's inputs (100000 shots, 20000
    trials) that is about 1 trial in 60.  Each is drawn from its seeded state
    by one reused PCG64, whose 32 bytes of state are written straight
    into the generator.  binomial draws only whole 64-bit outputs, so
    has_uint32 and uinteger keep the 0 that the layout check saw.  If that
    check fails, each trial sets the same words through the
    bit_generator.state dict instead.

    Both shortcuts copy numpy's internals, not its API, so each is checked on
    every call: the layout by _view_sets_state, the steps by drawing through
    the generator as well the first _SELF_CHECKS trials that Step 10 accepts
    in their first pass, and the first _SELF_CHECKS that any other step or
    pass accepts.  On a mismatch, every trial not yet checked is drawn by the
    generator.
    """
    run = _TrialCounts(shots, p, trials)
    for start in range(0, trials, SEED_CHUNK):
        run.add(start, _pcg64_words(seed + start, min(SEED_CHUNK, trials - start)))
    run.flush()
    return run.counts


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

