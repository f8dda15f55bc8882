"""Finite-shot simulation of the two-measurement estimation protocol.

The interferometric observable is abstracted to a single Bernoulli success
probability equal to the state's average fidelity F_avg; each trial draws
`shots` outcomes, and the empirical mean is pushed through the fidelity
link and the normalized-negativity formula.  This models the estimation
noise of the observable, not photon-level optics.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from . import btpe
from .measures import favg_from_mu, fidelity_link, negativity_normalized_batch
from .spa import MU_MIN_HI, MU_MIN_LO, mu_min_batch, spa_pt_affine_batch
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
# along the chain from _INIT_B.  The 4 pool words and 12 mixing steps take 16
# hashmix calls, and each entropy word past the fourth 4 more;
# generate_state(4, np.uint64) makes 8 words.
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (O'Neill's PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _chain(init: int, mult: int, calls: int) -> list[tuple[int, int]]:
    """(XOR, multiplier) of each of `calls` hashmix calls along the chain from init by mult."""
    chain = [init]
    for _ in range(calls):
        chain.append(chain[-1] * mult & _MASK32)
    return list(zip(chain[:-1], chain[1:]))


def _column(calls: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The XORs and the multipliers of `calls`, each a (len(calls), 1) uint32 column."""
    columns = tuple(np.array(c, dtype=np.uint32)[:, None] for c in zip(*calls))
    for column in columns:
        column.flags.writeable = False  # _hash_calls hands the same arrays to every call
    return columns


@functools.lru_cache(maxsize=8)
def _hash_calls(n: int) -> tuple:
    """The hashmix calls of a SeedSequence of n entropy words, n >= 4, as
    columns for _seed_state_words: the pool's fill (the columns of entropy
    words 1..3, then those of the lowest word), the 4 mixing rounds, the calls
    of each entropy word past the fourth, and the two halves of
    generate_state's 8 calls.

    Round src hashes pool word src into the other three, by the calls
    4 + 3 src on in ascending order of the word mixed into.  Its three words
    are taken in the order src + 1, src + 2, src + 3 (mod 4), the rows of the
    pool that _seed_state_words mixes, so its calls are permuted to that order.
    Half h of generate_state's calls is shaped (2, 2, 1): entry (k, j) is the
    call of output word 4 h + 2 k + j, uint32 j of uint64 k.
    """
    calls = _chain(_INIT_A, _MULT_A, 4 * n)
    fill = _column(calls[1:4]), _column(calls[:1])
    rounds = []
    for src in range(4):
        others = [d for d in range(4) if d != src]
        rounds.append(_column([calls[4 + 3 * src + others.index((src + k) % 4)] for k in (1, 2, 3)]))
    extra = [_column(calls[4 * src:4 * src + 4]) for src in range(4, n)]
    state = _chain(_INIT_B, _MULT_B, 8)
    generate = [tuple(c.reshape(2, 2, 1) for c in _column(state[h:h + 4])) for h in (0, 4)]
    return fill, rounds, extra, generate


def _hash(src, calls: tuple, out: np.ndarray, scratch: tuple) -> None:
    """SeedSequence's hashmix of `src` by the (XOR, multiplier) columns `calls`
    into `out`, row r by call r.  `scratch` is two arrays of out's shape, the
    first of which may be `out` itself."""
    h, t = scratch
    np.bitwise_xor(src, calls[0], out=h)
    np.multiply(h, calls[1], out=h)
    np.right_shift(h, 16, out=t)
    np.bitwise_xor(h, t, out=out)


def _mix_into(rows: np.ndarray, src, calls: tuple, scratch: tuple) -> None:
    """Mix the _hash of `src`, a row or a scalar, by `calls` into `rows`, in place."""
    h, t = scratch
    _hash(src, calls, h, scratch)
    # mix: L pool - R hash, then the same xorshift.
    np.multiply(h, _MIX_R, out=h)
    np.multiply(rows, _MIX_L, out=rows)
    np.subtract(rows, h, out=rows)
    np.right_shift(rows, 16, out=t)
    np.bitwise_xor(rows, t, out=rows)


def _entropy_words(seed: int) -> int:
    """uint32 words of a seed's SeedSequence entropy, counting fewer than 4 as 4."""
    return max(4, -(-seed.bit_length() // 32))


def _seed_state_words(first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence(first + j).generate_state(4, np.uint64) for j < count, as
    two (2, count) uint64 arrays: words 0 and 1, then words 2 and 3.

    The seeds must differ only in their lowest 32 bits, so that every entropy
    word but the lowest is one constant, hashed once.  Below 2**128 an entropy
    of fewer words, zero-padded to the pool size, gives the same pool.  Each
    hashmix is a _hash over uint32 columns.
    """
    n = _entropy_words(first)
    fill, rounds, extra, generate = _hash_calls(n)
    words = [first >> 32 * k & _MASK32 for k in range(n)]
    # Row r - 1 holds pool word r % 4 for r = 1..7, so that each round's three
    # words, src + 1 .. src + 3 (mod 4), are the contiguous rows src .. src + 2.
    # Row src + 4 holds the same word as row src, which round src has just
    # mixed: copying it there keeps that word current for the later rounds
    # that read it at src + 4.  The pool ends in rows 3..6, in order.
    pool = np.empty((7, count), dtype=np.uint32)
    scratch = np.empty((4, count), dtype=np.uint32), np.empty((4, count), dtype=np.uint32)
    three = tuple(a[:3] for a in scratch)
    head = np.array(words[1:4], dtype=np.uint32)[:, None]
    _hash(head, fill[0], head, (head, np.empty_like(head)))
    pool[:3] = head
    _hash(np.arange(words[0], words[0] + count, dtype=np.uint32), fill[1], pool[3:4],
          tuple(a[:1] for a in scratch))
    for src in range(4):
        _mix_into(pool[src:src + 3], pool[(src + 3) % 4], rounds[src], three)
        if src < 3:
            pool[src + 4] = pool[src]
    for k, calls in enumerate(extra, start=4):
        # Each further entropy word is mixed into every pool word.
        _mix_into(pool[3:], words[k], calls, scratch)
    # Output word w hashes pool word w % 4 by call w; a uint64 is two words read
    # little-endian, so each half's hashes go to alternate uint32s of its words.
    out = []
    final, pair = pool[3:].reshape(2, 2, count), tuple(a.reshape(2, 2, count) for a in scratch)
    for calls in generate:
        halves = np.empty((2, count, 2), dtype=np.uint32)
        _hash(final, calls, halves.transpose(0, 2, 1), pair)
        out.append(halves.view(np.uint64).reshape(2, count))
    return out[0], out[1]


# A 128-bit word is held as its two uint64 halves (lo, hi), the layout of
# numpy's pcg128_t, and PCG64's LCG step runs on them with native wrapping.
# Only the high half of lo * _MULT_LO needs 32-bit pieces.
_MULT_LO, _MULT_HI = np.uint64(_PCG_MULT & 2**64 - 1), np.uint64(_PCG_MULT >> 64)
_MULT_LO_0, _MULT_LO_1 = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)
_HALF, _HALF_MASK = np.uint64(32), np.uint64(_MASK32)


def _lcg(lo: np.ndarray, hi: np.ndarray, i_lo: np.ndarray, i_hi: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Halves of (hi << 64 | lo) * _PCG_MULT + (i_hi << 64 | i_lo) mod 2**128, PCG64's LCG step.

    The halves go to `out`, a pair of arrays that may be lo and hi themselves,
    or to new arrays.  mulhi, the high half of lo * _MULT_LO, is built from
    four 32x32-bit products; each of its sums stays below 2**64, as
    (2**32 - 1)**2 + 2 (2**32 - 1) = 2**64 - 1.  The low add carried if its
    sum wrapped below the addend.
    """
    new_lo, new_hi = out if out is not None else (np.empty_like(lo), np.empty_like(hi))
    t = lo * _MULT_HI
    np.multiply(hi, _MULT_LO, out=new_hi)  # hi is read for the last time
    new_hi += t
    new_hi += i_hi
    lo_0 = np.bitwise_and(lo, _HALF_MASK, out=t)
    lo_1 = lo >> _HALF
    mid = lo_0 * _MULT_LO_0
    mid >>= _HALF
    mid += lo_1 * _MULT_LO_0
    lo_0 *= _MULT_LO_1
    lo_0 += mid & _HALF_MASK  # cross
    lo_0 >>= _HALF
    mid >>= _HALF
    lo_1 *= _MULT_LO_1
    new_hi += lo_1
    new_hi += mid
    new_hi += lo_0  # mulhi added
    np.multiply(lo, _MULT_LO, out=new_lo)  # lo is read for the last time
    new_lo += i_lo
    np.add(new_hi, new_lo < i_lo, out=new_hi)
    return new_lo, new_hi


def _pcg64_words(first: int, count: int) -> tuple[np.ndarray, ...]:
    """PCG64 state of np.random.default_rng(first + j) for j < count, as four uint64 columns.

    The columns are state low, state high, inc low and inc high, each 1-D and
    C-contiguous; trial j's row of the four is the byte layout of numpy's
    pcg64_random_t on a little-endian build with a native 128-bit integer.
    The SeedSequence words are hashed in one numpy pass per run of seeds
    that differ only in their lowest 32 bits, so a run is split at each
    multiple of 2**32 (where the count of entropy words grows, too), and only
    then are its columns concatenated.  From the words' 128-bit halves s
    and i, pcg_setseq_128_srandom_r gives inc = 2 i + 1 and
    state = (s + inc) * _PCG_MULT + inc, mod 2**128, on uint64 halves.
    """
    parts = []
    done = 0
    while done < count:
        seed = first + done
        n = min(count - done, (seed | _MASK32) + 1 - seed)
        parts.append(_seed_state_words(seed, n))
        done += n
    if len(parts) > 1:
        parts = [[np.concatenate(half, axis=1) for half in zip(*parts)]]
    (s_hi, s_lo), (i_hi, i_lo) = parts[0]
    top = i_lo >> np.uint64(63)
    i_hi <<= np.uint64(1)
    i_hi |= top
    i_lo <<= np.uint64(1)
    i_lo |= np.uint64(1)
    s_lo += i_lo
    s_hi += i_hi
    np.add(s_hi, s_lo < i_lo, out=s_hi)
    _lcg(s_lo, s_hi, i_lo, i_hi, out=(s_lo, s_hi))
    return s_lo, s_hi, i_lo, i_hi


def _state_view(bit_gen: np.random.PCG64) -> memoryview:
    """Writable bytes of bit_gen's pcg64_random_t: its 128-bit state, then inc.

    ctypes.state_address points to numpy's pcg64_state struct, whose first
    field is the pcg64_random_t pointer.  The bytes are numpy's, not its API:
    _word_order finds the order of _pcg64_words' columns in them, if any.
    """
    address = ctypes.c_void_p.from_address(bit_gen.ctypes.state_address).value
    return memoryview((ctypes.c_char * 32).from_address(address)).cast("B")


# The orders in which draw may stack _pcg64_words' columns into the bytes of
# _state_view: numpy's pcg128_t as a native 128-bit integer, then as the
# {high, low} struct of numpy/random/src/pcg64/pcg64.h where there is no __int128.
_WORD_ORDERS = ((0, 1, 2, 3), (1, 0, 3, 2))


@functools.cache
def _word_order() -> tuple[int, ...] | None:
    """The first of _WORD_ORDERS whose rows of _pcg64_words, written through
    _state_view, give default_rng's state at seeds on each side of 2**32,
    2**64 and 2**128; None if neither does.

    This checks the seeding copy and the memory layout against the public
    path at once.  It is taken once, by the first trial_counts call of the
    process that does not draw every trial by default_rng.
    """
    bit_gen = np.random.PCG64(0)
    view = _state_view(bit_gen)
    seeds = [edge + side for edge in (2**32, 2**64, 2**128) for side in (-1, 0)]
    rows = [np.concatenate(_pcg64_words(seed, 1)) for seed in seeds]
    states = [np.random.default_rng(seed).bit_generator.state for seed in seeds]
    for order in _WORD_ORDERS:
        for row, state in zip(rows, states):
            view[:] = row[list(order)].tobytes()
            if bit_gen.state != state:
                break
        else:
            return order
    return None


# Trials per chunk of seed hashing, and the most queued before a pass: at
# 4096 a chunk's arrays stay below glibc's 128 KiB mmap threshold (other
# sizes: BENCH_22.json, seed_chunk_us).
SEED_CHUNK = 4096

# Accepted trials of each call that are also drawn by the generator, as a
# check: this many of those Step 10 accepts in a trial's first pass, and this
# many of all the others.
_SELF_CHECKS = 8
# The end of a call takes up to _END_PASSES passes of the later steps, each
# while the queue holds _PASS_MIN or more trials: a pass costs what the
# generator takes for ~300 trials (BENCH_22.json, pool_min_us).
_END_PASSES = 3
_PASS_MIN = 256
# Below _PUBLIC_BELOW trials default_rng draws each trial, below _BTPE_FROM the
# generator draws each from its seeded state, and from there BTPE's steps run
# in numpy: each bound is where the cheaper way changes (BENCH_22.json, ways_table_us).
_PUBLIC_BELOW = 13
_BTPE_FROM = 350

_ROT_SHIFT, _ROT_MASK, _DOUBLE_SHIFT = np.uint64(58), np.uint64(63), np.uint64(11)


def _next_doubles(words: tuple, count: int) -> tuple[np.ndarray, tuple]:
    """The first `count` next_double outputs of the PCG64s at the columns
    `words` of _pcg64_words, as a (count, trials) array, and the columns of
    those PCG64s after them.

    Each step advances the state's uint64 halves by _lcg and takes its XSL-RR
    output: the two halves XORed, rotated right by the top 6 bits of the
    high half; the double is the output's top 53 bits times 2**-53.  `words`
    is left as it was; the later steps work in place in the first step's
    arrays, so that a pass holds few chunk-long temporaries at once.
    """
    lo, hi, i_lo, i_hi = words
    doubles = np.empty((count, len(lo)))
    rot, x, t = (np.empty_like(lo) for _ in range(3))
    for k in range(count):
        lo, hi = _lcg(lo, hi, i_lo, i_hi, out=(lo, hi) if k else None)
        np.right_shift(hi, _ROT_SHIFT, out=rot)
        np.bitwise_xor(hi, lo, out=x)
        np.right_shift(x, rot, out=t)
        np.negative(rot, out=rot)
        rot &= _ROT_MASK  # (64 - rot) mod 64
        x <<= rot
        t |= x
        t >>= _DOUBLE_SHIFT
        np.multiply(t, 2.0**-53, out=doubles[k])
    return doubles, (lo, hi, i_lo, i_hi)


def _rows_at(columns: tuple, index) -> tuple:
    return tuple(c[index] for c in columns)


def _joined(parts: list) -> tuple:
    """The columns of a list of column tuples, each joined across the list."""
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(c) for c in zip(*parts))


def _seeds(batch: tuple) -> tuple:
    """The seeded columns of a batch, in _pcg64_words' order."""
    return batch[1:5]


def _words(batch: tuple) -> tuple:
    """The current columns of a batch, in _pcg64_words' order."""
    return batch[5], batch[6], batch[3], batch[4]


class _TrialCounts:
    """The counts of one trial_counts call, filled chunk by chunk.

    The trials of a pass are a batch of columns: trial index; seeded state
    low and high; inc low and high; current state low and high.  That is,
    the PCG64 each trial was seeded with, and the same PCG64 after the
    passes taken so far.  A count in self.counts is final once its trial is
    no longer queued.
    """

    def __init__(self, shots: int, p: float, trials: int, by_btpe: bool = True):
        self.bit_gen = np.random.PCG64(0)  # its state is replaced before every draw
        self.binomial = np.random.Generator(self.bit_gen).binomial
        self.view = _state_view(self.bit_gen)
        self.order = _word_order()
        # 0-d arrays pass numpy's argument conversion faster than Python scalars.
        self.n_arr, self.p_arr = np.array(shots, dtype=np.int64), np.array(p, dtype=np.float64)
        # None where the generator draws every trial.
        self.setup = btpe.setup(int(self.n_arr), float(self.p_arr)) if by_btpe else None
        self.counts = np.empty(trials, dtype=np.int64)
        # Self-checks left: Step 10 in a trial's first pass, every other acceptance.
        self.checks = [_SELF_CHECKS, _SELF_CHECKS]
        # Batches of the trials Step 10 rejected, each with its uniforms u
        # and v as two more columns, queued for Steps 20 to 52.
        self.queue: list[tuple] = []
        self.queued = 0

    def draw(self, words: tuple, index=slice(None)) -> list[int]:
        """binomial(shots, p) of the generator at each trial `index` of the
        columns `words`, whose 32-byte rows are stacked in _word_order for
        these trials only."""
        rows = np.stack([words[k][index] for k in self.order], axis=1)
        if not len(rows):  # memoryview cannot cast an empty array
            return []
        out = []
        binomial, n_arr, p_arr = self.binomial, self.n_arr, self.p_arr
        view, data = self.view, memoryview(rows).cast("B")
        for off in range(0, data.nbytes, 32):
            view[:] = data[off:off + 32]
            out.append(binomial(n_arr, p_arr))
        return out

    def add(self, seed: int, start: int, count: int) -> None:
        """Count the `count` trials from `start` on, trial i seeded with seed + i."""
        seeds = _pcg64_words(seed + start, count)
        index = np.arange(start, start + count)
        if self.setup is None:
            self.counts[index] = self.draw(seeds)
            return
        self._step_10((index, *seeds, *seeds[:2]), first=True)
        del seeds, index  # the queue keeps the rows it needs
        if self.queued >= SEED_CHUNK:
            self._later_steps()

    def flush(self) -> None:
        """Take up to _END_PASSES passes of the later steps, each while the
        queue holds _PASS_MIN or more trials, then draw what is left by the
        generator."""
        for _ in range(_END_PASSES):
            if self.queued < _PASS_MIN:
                break
            self._later_steps()
        self._draw_left()

    def _draw_left(self) -> None:
        """Draw every queued trial by the generator."""
        for batch in self.queue:
            self.counts[batch[0]] = self.draw(_seeds(batch))
        self.queue, self.queued = [], 0

    def _checked(self, group: int, mask: np.ndarray, seeds: tuple, counts: np.ndarray) -> bool:
        """Draw the first trials at `mask` that self-check `group` has left
        through the generator too; False on a mismatch."""
        if not self.checks[group]:
            return True
        checked = np.flatnonzero(mask)[:self.checks[group]]
        if self.draw(seeds, checked) != counts[checked].tolist():
            return False
        self.checks[group] -= len(checked)
        return True

    def _give_up(self, batch: tuple) -> None:
        """After a failed self-check: every trial not yet counted goes to the generator."""
        self.setup = None
        self.counts[batch[0]] = self.draw(_seeds(batch))
        self._draw_left()

    def _step_10(self, batch: tuple, first: bool) -> None:
        """Step 10 of one pass of a batch; the trials it rejects are queued
        for the later steps."""
        (d1, v), after = _next_doubles(_words(batch), 2)
        u, accepted, counts = btpe.step_10(d1, v, self.setup)
        if not self._checked(0 if first else 1, accepted, _seeds(batch), counts):
            self._give_up(batch)
            return
        self.counts[batch[0]] = counts  # final where accepted, rewritten elsewhere once decided
        rejected = np.flatnonzero(~accepted)
        if len(rejected):
            self.queue.append(_rows_at((*batch[:5], *after[:2], u, v), rejected))
            self.queued += len(rejected)

    def _later_steps(self) -> None:
        """Steps 20 to 52 of every queued trial, in one numpy pass.  The
        trials they send back to Step 10 take it at once, and those it rejects
        make up the new queue."""
        *batch, u, v = _joined(self.queue)
        self.queue, self.queued = [], 0
        outcome, counts = btpe.steps_20_to_52(u, v, self.setup)
        if not self._checked(1, outcome == btpe.SQUEEZE, _seeds(batch), counts):
            self._give_up(batch)
            return
        index = batch[0]
        self.counts[index] = counts
        deferred = outcome == btpe.DEFER
        self.counts[index[deferred]] = self.draw(_seeds(batch), deferred)
        looped = np.flatnonzero(outcome == btpe.LOOP)
        if len(looped):
            self._step_10(_rows_at(batch, looped), first=False)


def trial_counts(shots: int, p: float, trials: int, seed: int) -> np.ndarray:
    """Successes of `trials` runs of `shots` Bernoulli(p) draws, as an int64 array.

    Trial i is np.random.default_rng(seed + i).binomial(shots, p), bit for
    bit, and a negative seed raises its ValueError before any seeding.  Fewer
    than _PUBLIC_BELOW trials are drawn so; otherwise the seeded states are
    computed SEED_CHUNK trials at a time, and fewer than _BTPE_FROM trials
    are each drawn from its seeded state by the generator.

    From _BTPE_FROM trials on, where numpy draws by BTPE, each chunk takes
    Step 10 of a BTPE pass in numpy: two PCG64 outputs per trial.  The
    trials Step 10 rejects are queued across chunks, and whenever the queue
    holds SEED_CHUNK trials they take Steps 20, 30 and 40 and Step 52's
    squeeze in one numpy pass (btpe.steps_20_to_52).  A decision that reads
    a log is taken only when np.log's value, widened by a relative 2**-40
    each way, settles it.  A trial that the pass sends back to Step 10 takes
    it there and then, and joins the queue again if rejected.  At the end,
    the queue takes up to _END_PASSES passes, each while it holds at least
    _PASS_MIN trials.

    The generator draws the rest: the trials a pass leaves to it (Step 50,
    the full Stirling test, a log decision that the bracket does not settle),
    those still queued at the end, and every trial where numpy does not use
    BTPE.  At the shots benchmark's inputs (100000 shots, 20000 trials) that
    is about 1 trial in 55.  Each is drawn from its seeded state by one
    reused PCG64, whose 32 bytes of state are written straight into the
    generator.  binomial draws only whole 64-bit outputs, so
    has_uint32 and uinteger keep the 0 that _word_order saw.

    The seeding, the byte layout and the steps copy numpy's internals, not
    its API, so each is checked against default_rng.  The seeding and the
    layout are checked by _word_order, once per process (the first call of
    _PUBLIC_BELOW trials or more); if it finds no order, every trial is
    drawn by default_rng, as below _PUBLIC_BELOW.  The steps are checked on
    every call, by drawing through the generator as well the first
    _SELF_CHECKS trials that Step 10 accepts in their first pass, and the
    first _SELF_CHECKS that any other step or pass accepts.  On a mismatch,
    every trial not yet checked is drawn by the generator.

    Those 8 + 8 trials per call catch gross drift only.  A BTPE threshold moved
    by a relative 2**-20, a strict comparison made loose, or the log bracket
    collapsed to one side changes only the near-tie trials within that
    margin of a decision, which the self-checks rarely draw; such a drift
    would print wrong counts and exit 0.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if trials < _PUBLIC_BELOW or _word_order() is None:
        return np.array([np.random.default_rng(seed + i).binomial(shots, p) for i in range(trials)], dtype=np.int64)
    run = _TrialCounts(shots, p, trials, by_btpe=trials >= _BTPE_FROM)
    for start in range(0, trials, SEED_CHUNK):
        run.add(seed, start, min(SEED_CHUNK, trials - start))
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
    mu_true = float(mu_min_batch(spa_pt_affine_batch(rho.mat[None]))[0])
    f_true = favg_from_mu(mu_true)
    counts = trial_counts(shots, f_true, trials, rng_seed)
    # Each trial's estimate takes the place of its count, SEED_CHUNK trials at
    # a time, so that no temporary array outgrows a chunk.
    nn_values = counts.view(np.float64)
    clamp_count = 0
    for start in range(0, trials, SEED_CHUNK):
        part = slice(start, start + SEED_CHUNK)
        favg_hat = counts[part] / shots
        # F_avg range maps to mu in [1/6, 1/4]; noisy estimates can land outside.
        mu_raw = fidelity_link(favg_hat)
        mu_hat = np.minimum(np.maximum(mu_raw, MU_MIN_LO), MU_MIN_HI)
        clamp_count += int(np.count_nonzero(mu_hat != mu_raw))
        if not start:
            first = float(favg_hat[0]), float(mu_hat[0])
        nn_values[part] = negativity_normalized_batch(mu_hat)
    mean_nn = float(nn_values.mean())
    std_nn = float(nn_values.std(ddof=1)) if trials > 1 else 0.0
    half = 1.959963984540054 * std_nn / np.sqrt(trials)
    return ShotEstimate(
        favg_hat=first[0],
        mu_hat=first[1],
        nn_hat=float(nn_values[0]),
        shots=shots,
        trials=trials,
        mean_nn=mean_nn,
        std_nn=std_nn,
        ci95=(mean_nn - half, mean_nn + half),
        clamp_count=clamp_count,
        exact_nn=float(negativity_normalized_batch(mu_true)),
    )

