import functools
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spaneg import btpe, shotsim
from spaneg.measures import favg_from_mu, fidelity_link, negativity_normalized_batch
from spaneg.shotsim import SEED_CHUNK, _pcg64_words, estimate_negativity, trial_counts
from spaneg.spa import MU_MIN_HI, MU_MIN_LO, mu_min_batch, spa_pt_affine_batch
from spaneg.states import DensityMatrix, bell_state, from_spec, validate


def mu_min_of(rho: DensityMatrix) -> float:
    """mu_min of one state, through the batch pipeline."""
    return float(mu_min_batch(spa_pt_affine_batch(rho.mat[None]))[0])


def test_determinism():
    rho = from_spec("horodecki", 0.7)
    a = estimate_negativity(rho, 1000, 20, 5)
    b = estimate_negativity(rho, 1000, 20, 5)
    assert a == b


def test_invalid_counts():
    rho = bell_state(0)
    with pytest.raises(ValueError):
        estimate_negativity(rho, 0, 1, 1)
    with pytest.raises(ValueError):
        estimate_negativity(rho, 10, 0, 1)


@pytest.mark.parametrize("seed", [-1, -5])
@pytest.mark.parametrize("trials", [1, 13, 350, 4097])
def test_a_negative_seed_is_rejected_before_any_seeding(monkeypatch, trials, seed):
    # The public path rejects the seed with this error; every way of
    # trial_counts does the same, before it seeds a trial.
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        np.random.default_rng(seed)
    rho = from_spec("horodecki", 0.8)

    def refuse(*args):
        raise AssertionError("a trial was seeded")

    monkeypatch.setattr(shotsim, "_pcg64_words", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        trial_counts(100000, 0.448, trials, seed)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        estimate_negativity(rho, 100000, trials, seed)


def test_favg_concentration_at_large_shots():
    rho = bell_state(0)
    f_true = favg_from_mu(mu_min_of(rho))
    f_hat = estimate_negativity(rho, 10**7, 1, 17).favg_hat
    assert abs(f_hat - f_true) <= 5 * np.sqrt(f_true * (1 - f_true) / 10**7)
    assert 0.0 <= f_hat <= 1.0


def test_unbiased_at_fidelity_level():
    rho = from_spec("horodecki", 0.6)
    f_true = favg_from_mu(mu_min_of(rho))
    shots, trials = 10000, 300
    means = trial_counts(shots, f_true, trials, 0) / shots
    se = np.sqrt(f_true * (1 - f_true) / shots) / np.sqrt(trials)
    assert abs(np.mean(means) - f_true) <= 3 * se


def test_bell_high_shot_estimate():
    est = estimate_negativity(bell_state(0), 10**7, 1, 3)
    assert abs(est.mean_nn - 1.0) <= 0.01


def test_separable_stays_at_zero():
    rho = validate(np.eye(4) / 4)
    est = estimate_negativity(rho, 10**5, 100, 9)
    # mu sits at the top of its range; noise pushing it below 2/9 is a far
    # tail event at 1e5 shots, so >= 99% of trials report nn = 0.  Trial i of
    # the aggregate run is reproducible as a standalone run at seed base+i.
    assert est.mean_nn <= 0.01
    zero_trials = 0
    for i in range(100):
        f_hat = estimate_negativity(rho, 10**5, 1, 9 + i).favg_hat
        mu_hat = min(max(15 / 8 * f_hat - 47 / 72, 1 / 6), 0.25)
        zero_trials += negativity_normalized_batch(mu_hat) == 0.0
    assert zero_trials >= 99


def test_estimate_fields_consistent():
    est = estimate_negativity(from_spec("horodecki", 0.8), 10**4, 50, 2)
    assert est.mu_hat == pytest.approx(
        min(max(15 / 8 * est.favg_hat - 47 / 72, 1 / 6), 0.25), abs=1e-15
    )
    assert est.nn_hat == negativity_normalized_batch(est.mu_hat)
    assert est.ci95[0] <= est.mean_nn <= est.ci95[1]
    assert est.std_nn >= 0.0
    assert est.exact_nn == negativity_normalized_batch(mu_min_of(from_spec("horodecki", 0.8)))


def test_clt_consistency_against_exact():
    rho = from_spec("horodecki", 0.8)
    exact = float(negativity_normalized_batch(mu_min_of(rho)))
    est = estimate_negativity(rho, 10**5, 200, 42)
    assert abs(est.mean_nn - exact) <= 3 * est.std_nn / np.sqrt(200)


def test_variance_scaling():
    rho = from_spec("horodecki", 0.8)
    est1 = estimate_negativity(rho, 10**5, 200, 42)
    est4 = estimate_negativity(rho, 4 * 10**5, 200, 1042)
    ratio = est1.std_nn / est4.std_nn
    assert 1.5 <= ratio <= 2.5


@pytest.mark.parametrize("trials", [1, 2, SEED_CHUNK - 1, SEED_CHUNK + 1, 2 * SEED_CHUNK + 7])
def test_estimate_is_the_whole_array_formulas(trials):
    # estimate_negativity takes its trials SEED_CHUNK at a time, in the
    # buffer of their counts: every field is that of the formulas applied to
    # whole arrays.  The maximally mixed state's mu is the top of its range,
    # so at 100 shots about half the trials clamp.
    rho = validate(np.eye(4) / 4)
    est = estimate_negativity(rho, 100, trials, 3)
    mu_true = mu_min_of(rho)
    favg = trial_counts(100, favg_from_mu(mu_true), trials, 3) / 100
    mu_raw = fidelity_link(favg)
    mu_hat = np.minimum(np.maximum(mu_raw, MU_MIN_LO), MU_MIN_HI)
    nn = negativity_normalized_batch(mu_hat)
    assert est.clamp_count == np.count_nonzero(mu_hat != mu_raw)
    assert trials < 100 or est.clamp_count > trials // 4
    assert (est.favg_hat, est.mu_hat, est.nn_hat) == (favg[0], mu_hat[0], nn[0])
    assert est.mean_nn == float(nn.mean())
    assert est.std_nn == (float(nn.std(ddof=1)) if trials > 1 else 0.0)


def test_noise_free_passthrough_matches_pipeline():
    # The fidelity round trip mu -> F -> mu is exact up to float round-off,
    # amplified by |dN/dmu| ~ 18 in the negativity.
    for p in np.linspace(0, 1, 11):
        rho = from_spec("horodecki", float(p))
        exact = float(negativity_normalized_batch(mu_min_of(rho)))
        mu = fidelity_link(favg_from_mu(mu_min_of(rho)))
        passthrough = float(negativity_normalized_batch(min(max(mu, MU_MIN_LO), MU_MIN_HI)))
        assert passthrough == pytest.approx(exact, abs=1e-12)


# The oracle tests hash in chunks of SMALL_CHUNK, so that a few hundred trials
# cross many chunk edges at the cost of a few default_rng calls.
SMALL_CHUNK = 48
# Seeds where SeedSequence's entropy gains a uint32 word (2**32, 2**64), where
# a chunk carries into the high 64 bits (2**64 - 128: the chunk from trial
# 2 * SMALL_CHUNK = 96 holds seed 2**64), and where a chunk is split because
# the entropy outgrows the 4-word pool (2**128 - 3) or gains a sixth word
# (2**160 - 3).  3**190 is a 302-bit seed of 10 words.
SEED_EDGES = [0, 2**32 - 1, 2**32, 2**64 - 128, 2**64, 2**128 - 3, 2**160 - 3, 3**190]
# 1 and 10 shots draw by inversion, 1000 and 100000 mostly by BTPE; the trial
# counts straddle one chunk edge or run over several.
SHOTS = st.sampled_from([1, 10, 1000, 100000])
TRIALS = st.sampled_from([1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1, 6 * SMALL_CHUNK + 1])


def _default_rng_counts(shots, p, trials, base):
    return [np.random.default_rng(base + i).binomial(shots, p) for i in range(trials)]


def _small_chunk_counts(shots, p, trials, base):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shotsim, "SEED_CHUNK", SMALL_CHUNK)
        # Any queue takes its end passes, so that they too cross the chunk edges.
        mp.setattr(shotsim, "_PASS_MIN", 1)
        return trial_counts(shots, p, trials, base).tolist()


@pytest.mark.parametrize("base", SEED_EDGES)
@settings(max_examples=20)
@given(shots=SHOTS, trials=TRIALS, p=st.floats(0.0, 1.0))
def test_trial_counts_are_default_rng_per_trial_at_seed_edges(base, shots, trials, p):
    assert _small_chunk_counts(shots, p, trials, base) == _default_rng_counts(shots, p, trials, base)


@given(base=st.integers(0, 2**130), shots=SHOTS, trials=TRIALS, p=st.floats(0.0, 1.0))
def test_trial_counts_are_default_rng_per_trial(base, shots, trials, p):
    assert _small_chunk_counts(shots, p, trials, base) == _default_rng_counts(shots, p, trials, base)


@pytest.mark.parametrize("trials", [SEED_CHUNK - 1, SEED_CHUNK + 1])
def test_trial_counts_at_the_real_chunk(trials):
    # The first chunk carries past 2**64 halfway; SEED_CHUNK + 1 adds a second chunk.
    base = 2**64 - SEED_CHUNK // 2
    assert trial_counts(1000, 0.3, trials, base).tolist() == _default_rng_counts(1000, 0.3, trials, base)


@pytest.mark.parametrize("edge", [2**128, 2**160])
def test_trial_counts_at_the_real_chunk_across_an_entropy_word(edge):
    # The one chunk is hashed in two parts, split where the seeds gain a word.
    base = edge - SEED_CHUNK // 2
    assert trial_counts(1000, 0.3, SEED_CHUNK, base).tolist() == _default_rng_counts(1000, 0.3, SEED_CHUNK, base)


def _fresh_word_order(monkeypatch) -> None:
    """A cache of _word_order of its own, so that the check is taken again in
    this process and its verdict goes with the patch."""
    monkeypatch.setattr(shotsim, "_word_order", functools.cache(shotsim._word_order.__wrapped__))


def _refuse_draw(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("a seeded column was drawn by the generator")

    monkeypatch.setattr(shotsim._TrialCounts, "draw", refuse)


def test_failed_word_order_check_falls_back_to_default_rng(monkeypatch):
    # Writes through a view of memory the generator does not read leave its
    # state alone, so no order passes the check and every trial is drawn by
    # default_rng.
    spare = bytearray(32)
    monkeypatch.setattr(shotsim, "_state_view", lambda bit_gen: memoryview(spare))
    _fresh_word_order(monkeypatch)
    _refuse_draw(monkeypatch)
    monkeypatch.setattr(shotsim, "SEED_CHUNK", SMALL_CHUNK)
    for base in (0, 2**64 - 128, 2**128 - 3):
        trials = 2 * SMALL_CHUNK + 1
        assert trial_counts(1000, 0.3, trials, base).tolist() == _default_rng_counts(1000, 0.3, trials, base)
    assert shotsim._word_order.cache_info().currsize == 1 and shotsim._word_order() is None


def _swap_32_bit_halves(words):
    """`words` with the two uint32 halves of every uint64 swapped."""
    return tuple(w << np.uint64(32) | w >> np.uint64(32) for w in words)


@pytest.mark.parametrize("trials", [1, 100, SEED_CHUNK + 1])
def test_a_seeding_that_differs_from_numpys_falls_back_to_default_rng(monkeypatch, trials):
    # A big-endian build would assemble each uint64 of generate_state from
    # its uint32 words the other way round.  Every count drawn from those
    # states would be wrong, and the self-checks draw from the same states,
    # so only the check against default_rng's own seeding can see it.
    seed_words = shotsim._seed_state_words
    monkeypatch.setattr(shotsim, "_seed_state_words", lambda *args: _swap_32_bit_halves(seed_words(*args)))
    _fresh_word_order(monkeypatch)
    _refuse_draw(monkeypatch)
    assert trial_counts(100000, 0.448, trials, 7).tolist() == _default_rng_counts(100000, 0.448, trials, 7)
    assert shotsim._word_order() is None


def test_a_seeding_wrong_only_for_four_word_seeds_falls_back_to_default_rng(monkeypatch):
    # Seeds of four entropy words at or above 2**96 take every hash round
    # of the pool at full width; of the check's seeds only 2**128 - 1 is one.
    seed_words = shotsim._seed_state_words

    def wrong_from_2_96(first, count):
        low, high = seed_words(first, count)
        if 2**96 <= first < 2**128:
            low = low ^ np.uint64(1)
        return low, high

    monkeypatch.setattr(shotsim, "_seed_state_words", wrong_from_2_96)
    _fresh_word_order(monkeypatch)
    _refuse_draw(monkeypatch)
    base = 2**100
    trials = 100
    assert trial_counts(100000, 0.448, trials, base).tolist() == _default_rng_counts(100000, 0.448, trials, base)
    assert shotsim._word_order() is None


class _HighLowView:
    """The bytes of a _state_view as a build whose pcg128_t is a {high, low}
    struct lays them out: each 16-byte word is written high half first."""

    def __init__(self, view):
        self.view = view

    def __setitem__(self, key, data):
        data = bytes(data)
        self.view[key] = data[8:16] + data[:8] + data[24:32] + data[16:24]


@pytest.mark.parametrize("trials", [100, SEED_CHUNK + 1])
def test_a_high_low_layout_stacks_the_halves_swapped(monkeypatch, trials):
    state_view = shotsim._state_view
    monkeypatch.setattr(shotsim, "_state_view", lambda bit_gen: _HighLowView(state_view(bit_gen)))
    _fresh_word_order(monkeypatch)
    assert shotsim._word_order() == (1, 0, 3, 2)
    base = 2**64 - 300
    draws = _count_draws(monkeypatch)
    assert trial_counts(100000, 0.448, trials, base).tolist() == _default_rng_counts(100000, 0.448, trials, base)
    assert draws[0] > 0  # the self-checks, at least, were drawn through the wrapped view


def test_word_order_check_passes_on_this_build():
    assert shotsim._word_order.__wrapped__() == (0, 1, 2, 3)
    assert shotsim._word_order() == (0, 1, 2, 3)


def test_word_order_check_runs_once_per_process(monkeypatch):
    # The first call takes the check, whatever its trial count, and no later
    # call takes it again.
    checks = []
    check = shotsim._word_order.__wrapped__
    monkeypatch.setattr(shotsim, "_word_order", functools.cache(lambda: checks.append(1) or check()))
    for trials, taken in ((1, [1]), (100, [1]), (5000, [1])):
        assert trial_counts(1000, 0.3, trials, 11).tolist() == _default_rng_counts(1000, 0.3, trials, 11)
        assert checks == taken
    assert shotsim._word_order() == (0, 1, 2, 3)


def test_word_order_check_waits_for_the_first_call():
    # Importing the CLI runs no check; the first simulation runs it, even one
    # of a single trial.
    code = (
        "import os\n"
        "from spaneg import cli, shotsim\n"
        "before = shotsim._word_order.cache_info().currsize\n"
        "cli.run(['simulate', '--family', 'bell', '--trials', '1', '--shots', '100', '--out', os.devnull])\n"
        "print(before, shotsim._word_order.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["0", "1"]


def test_pcg64_seeding_is_pinned():
    # PCG64(2**32)'s state under numpy 2.4.  If a numpy release seeds PCG64
    # differently, the first assert fails and the bulk seeding must be redone.
    pinned = (48934169112922715694246890610800379348, 159503441853545908714793740543692941767)
    numpy_state = np.random.PCG64(2**32).state["state"]
    assert (numpy_state["state"], numpy_state["inc"]) == pinned, "numpy changed PCG64 seeding"
    s_lo, s_hi, i_lo, i_hi = _rows(_pcg64_words(2**32, 1))[0].tolist()
    assert (s_hi << 64 | s_lo, i_hi << 64 | i_lo) == pinned


def test_binomial_sampler_is_pinned():
    # default_rng(2**32).binomial(100000, 0.47) under numpy 2.4, which draws
    # by BTPE there.  If a numpy release changes the sampler, this fails by
    # name, besides trial_counts' own check against the generator.
    pinned = [47115, 46945, 46770, 47118, 46965, 46798]
    rng = np.random.default_rng(2**32)
    assert [int(rng.binomial(100000, 0.47)) for _ in pinned] == pinned, "numpy changed binomial"
    per_seed = [47115, 46941, 46762, 46975, 47404, 47036]
    assert _default_rng_counts(100000, 0.47, 6, 2**32) == per_seed
    assert trial_counts(100000, 0.47, 6, 2**32).tolist() == per_seed


_MASK64 = 2**64 - 1


def _btpe_pass(words, s):
    """(outcome, counts, after) of one BTPE pass from Step 10 for the generators
    at the columns `words`, with their columns past the pass's two outputs:
    Step 10 on every trial, then the later steps on those it rejects, as
    trial_counts takes them."""
    (d1, v), after = shotsim._next_doubles(words, 2)
    u, accepted, counts = btpe.step_10(d1, v, s)
    outcome = np.full(len(u), btpe.STEP10, dtype=np.int8)
    later = np.flatnonzero(~accepted)
    if len(later):
        outcome[later], counts[later] = btpe.steps_20_to_52(u[later], v[later], s)
    return outcome, counts, after
_PCG_MULT_INV = pow(shotsim._PCG_MULT, -1, 2**128)


def _rows(columns) -> np.ndarray:
    """The (n, 4) rows of PCG64 columns (lo, hi, inc lo, inc hi), one per generator."""
    return np.stack(columns, axis=1)


def _row_before(state: int, inc: int) -> list[int]:
    """The _pcg64_words row of a PCG64 whose next step lands on `state`."""
    before = (state - inc) * _PCG_MULT_INV % 2**128
    return [before & _MASK64, before >> 64, inc & _MASK64, inc >> 64]


def _lcg_by_int(rows: list[list[int]]) -> list[list[int]]:
    """_lcg's halves of each (lo, hi, i_lo, i_hi) row, by Python-int arithmetic mod 2**128."""
    out = []
    for lo, hi, i_lo, i_hi in rows:
        word = ((hi << 64 | lo) * shotsim._PCG_MULT + (i_hi << 64 | i_lo)) % 2**128
        out.append([word & _MASK64, word >> 64])
    return out


def _lcg_rows(rows: list[list[int]]) -> list[list[int]]:
    lo, hi = shotsim._lcg(*np.array(rows, dtype=np.uint64).T)
    return np.stack([lo, hi], axis=1).tolist()


@given(state=st.integers(0, 2**128 - 1), inc=st.integers(0, 2**127 - 1))
def test_lcg_step_is_128_bit_arithmetic(state, inc):
    inc = 2 * inc + 1
    rows = [[state & _MASK64, state >> 64, inc & _MASK64, inc >> 64]]
    assert _lcg_rows(rows) == _lcg_by_int(rows)


def test_lcg_step_reaches_every_carry():
    # Each half at 0, 1, 2**32 - 1, 2**32, 2**63 and 2**64 - 1 reaches every
    # carry into and out of the 32-bit pieces of mulhi and of the low add.
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, _MASK64]
    rows = [list(row) for row in itertools.product(edges, repeat=4)]
    assert _lcg_rows(rows) == _lcg_by_int(rows)


def _bit_gen_at(row: list[int]) -> np.random.PCG64:
    """A PCG64 at the _pcg64_words row (state lo, state hi, inc lo, inc hi)."""
    s_lo, s_hi, i_lo, i_hi = row
    bit_gen = np.random.PCG64(0)
    bit_gen.state = {
        "bit_generator": "PCG64",
        "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bit_gen


def _generator_draw(row: list[int], shots: int, p: float) -> int:
    return int(np.random.Generator(_bit_gen_at(row)).binomial(shots, p))


@given(
    state=st.integers(0, 2**128 - 1),
    inc=st.integers(0, 2**127 - 1),
    shots=st.integers(31, 2**53),
    p=st.floats(0.0, 0.5),
)
def test_btpe_first_step_is_the_generators_where_it_accepts(state, inc, shots, p):
    setup = btpe.setup(shots, p)
    assume(setup is not None)
    # 32 generators on states spread over all 128 bits, so that every
    # rotation and both halves of the output are reached.
    rows = [_row_before((state + j * 0x9E3779B97F4A7C15F39CC0605CEDC835) % 2**128, 2 * inc + 1) for j in range(32)]
    words = np.array(rows, dtype=np.uint64)
    outcome, counts, _ = _btpe_pass(words.T, setup)
    accepted = outcome == btpe.STEP10
    for row, count in zip(words[accepted].tolist(), counts[accepted].tolist()):
        assert count == _generator_draw(row, shots, p)


# numpy draws p = 0.7 by BTPE for 1 - 0.7 = 0.30000000000000004 and flips it.
@pytest.mark.parametrize("p", [0.3, 1 - 0.7])
def test_btpe_first_step_accepts_u_equal_to_p1(p):
    # numpy rejects only u > p1.  At 1000 shots p1 = 28.5, and the first
    # double k * 2**-53 of this k makes u = d1 * p4 exactly p1.  The state
    # after the first step has a zero high half: no rotation, output hi ^ lo = lo.
    shots, k = 1000, 5998927691899537
    setup = btpe.setup(shots, p)
    assert setup.p1 == 28.5 and (k * 2.0**-53) * setup.p4 == setup.p1
    for d in (0, 1):
        row = _row_before((k + d) << 11, 0x0123456789ABCDEF0123456789ABCDEF)
        outcome, counts, _ = _btpe_pass(np.array([row], dtype=np.uint64).T, setup)
        assert (outcome[0] == btpe.STEP10) == (d == 0)
        if d == 0:
            assert counts[0] == _generator_draw(row, shots, p)


def _count_draws(monkeypatch) -> list[int]:
    """A one-item list counting the generator's binomial calls from now on."""
    draws = [0]
    generator = np.random.Generator

    def counting(bit_gen):
        binomial = generator(bit_gen).binomial

        def counted(n, p):
            draws[0] += 1
            return binomial(n, p)

        return SimpleNamespace(binomial=counted)

    monkeypatch.setattr(np.random, "Generator", counting)
    return draws


def _count_step_10(monkeypatch) -> list[int]:
    """A one-item list counting btpe.step_10's calls from now on."""
    calls = [0]
    step = btpe.step_10

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(btpe, "step_10", counted)
    return calls


# (shots, p, whether trial_counts takes BTPE's steps in numpy): numpy draws by
# BTPE where min(p, 1 - p) * shots > 30, and for p > 0.5 it draws for 1 - p
# and flips the count, which btpe.setup leaves to the generator.  0.3 * 100 is
# 30.0, so 100 shots draw by inversion at p = 0.3; 1 - 0.7 is
# 0.30000000000000004, so numpy draws by BTPE at p = 0.7, flipped.  Past 2**53
# shots the later steps leave every trial that Step 10 rejects to the generator.
BTPE_EDGES = [
    (60, 0.5, False),
    (61, 0.5, True),
    (100, 0.3, False),
    (100, 0.7, False),
    (1000, 0.7, False),
    (1000, 0.5, True),
    (2**53, 0.47, True),
    (2**62, 0.47, True),
]


@pytest.mark.parametrize("shots, p, stepped", BTPE_EDGES)
def test_trial_counts_at_the_real_chunk_around_btpe(monkeypatch, shots, p, stepped):
    trials, base = SEED_CHUNK + 1, 2**64 - SEED_CHUNK // 2
    expected = _default_rng_counts(shots, p, trials, base)
    draws = _count_draws(monkeypatch)
    assert trial_counts(shots, p, trials, base).tolist() == expected
    assert (btpe.setup(shots, p) is not None) == stepped
    if stepped:
        # The step accepted its share (p1 / p4 >= 0.38 here): no fallback.
        assert draws[0] < 0.7 * trials
    else:
        assert draws[0] == trials


# The shortest runs, and both sides of a chunk.
WAY_EDGES = [1, 2, 19, SEED_CHUNK - 1, SEED_CHUNK + 1]


@pytest.mark.parametrize("trials", WAY_EDGES)
@pytest.mark.parametrize("base", [0, 2**64 - 300])
def test_each_way_draws_default_rngs_counts(monkeypatch, trials, base):
    # At every trial count BTPE's steps run in numpy and leave the generator
    # the self-checks and a few trials: below _PASS_MIN queued, every trial
    # Step 10 rejects.
    draws = _count_draws(monkeypatch)
    steps = _count_step_10(monkeypatch)
    assert trial_counts(100000, 0.448, trials, base).tolist() == _default_rng_counts(100000, 0.448, trials, base)
    assert steps[0] > 0 and 0 < draws[0] < max(trials / 2, 2 * shotsim._SELF_CHECKS)


@pytest.mark.parametrize("trials", [1, SEED_CHUNK + 1])
def test_the_generator_alone_draws_default_rngs_counts(monkeypatch, trials):
    # Where btpe.setup gives None, the generator draws every trial from its
    # seeded columns.
    base = 2**64 - 300
    monkeypatch.setattr(btpe, "setup", lambda shots, p: None)
    draws = _count_draws(monkeypatch)
    steps = _count_step_10(monkeypatch)
    assert trial_counts(100000, 0.448, trials, base).tolist() == _default_rng_counts(100000, 0.448, trials, base)
    assert draws[0] == trials and steps[0] == 0


# The paper's link maps mu_min in [1/6, 1/4] onto F_avg in [59/135, 65/135],
# the p of every simulate call.  Each run takes BTPE's steps, from a single
# trial on, past ~200 trials, where drawing every trial by the generator stops
# being cheaper, and on both sides of the former switch at 350.
@pytest.mark.parametrize("p", [59 / 135, 65 / 135])
@pytest.mark.parametrize("trials", [1, 19, 100, 200, 349, 350])
def test_every_seeded_run_in_the_papers_range_takes_btpes_steps(monkeypatch, trials, p):
    base = 2**64 - 100
    steps = _count_step_10(monkeypatch)
    assert trial_counts(100000, p, trials, base).tolist() == _default_rng_counts(100000, p, trials, base)
    assert steps[0] > 0


@pytest.mark.parametrize("shots, p", [(100000, 0.552), (1000, 0.7), (10**9, 0.999)])
@pytest.mark.parametrize("trials", [1, 350])
def test_p_above_one_half_is_drawn_by_the_generator(monkeypatch, shots, p, trials):
    # numpy draws such a call by BTPE for 1 - p and flips the count; btpe.setup
    # leaves it to the generator, which draws every trial from its seeded state.
    assert btpe.setup(shots, p) is None and btpe.setup(shots, 1 - p) is not None
    base = 2**64 - 100
    draws = _count_draws(monkeypatch)
    steps = _count_step_10(monkeypatch)
    assert trial_counts(shots, p, trials, base).tolist() == _default_rng_counts(shots, p, trials, base)
    assert draws[0] == trials and steps[0] == 0


@pytest.mark.parametrize("p", [float("nan"), 1.5, -0.5])
def test_invalid_p_still_raises(p):
    with pytest.raises(ValueError):
        trial_counts(100000, p, 3, 0)


@pytest.mark.parametrize("trials", [1, 100])
def test_negative_shots_and_p_are_left_to_the_generators_error(monkeypatch, trials):
    # (-0.5)(-100) = 50 is past BTPE's mean of 30, but numpy draws no such
    # call: btpe.setup leaves it to the generator, which raises numpy's error.
    assert btpe.setup(-100, -0.5) is None
    with pytest.raises(ValueError) as public:
        np.random.default_rng(0).binomial(-100, -0.5)
    steps = _count_step_10(monkeypatch)
    with pytest.raises(ValueError, match=f"^{re.escape(str(public.value))}$"):
        trial_counts(-100, -0.5, trials, 0)
    assert steps[0] == 0


def test_the_step_draws_three_in_four_workload_trials(monkeypatch):
    # The shots benchmark: Horodecki p = 0.8, 100000 shots, 20000 trials.
    # Step 10 accepts p1 / p4 = 0.7544 of the passes there.  The later steps
    # and the passes after a loop count most of the rest, so at most 3 % of the
    # trials call the generator (about 1 in 55, with the 16 self-checks).
    f = favg_from_mu(mu_min_of(from_spec("horodecki", 0.8)))
    setup = btpe.setup(100000, f)
    assert setup.p1 / setup.p4 == pytest.approx(0.7544, abs=1e-4)
    trials = 20000
    draws = _count_draws(monkeypatch)
    trial_counts(100000, f, trials, 1401)
    assert draws[0] / trials <= 0.03
    assert draws[0] / trials == pytest.approx(0.0166, abs=0.003)


def test_a_long_run_draws_what_is_left_once_at_the_end(monkeypatch):
    # The shots benchmark's inputs at 100000 trials: the trials that a pass
    # sends back to Step 10 take it in that pass, so nothing is left to the
    # generator before the end of the call.
    f = favg_from_mu(mu_min_of(from_spec("horodecki", 0.8)))
    trials, base = 100000, 1401
    calls = []

    def record(name):
        method = getattr(shotsim._TrialCounts, name)

        def recorded(run, *args):
            calls.append(name)
            return method(run, *args)

        monkeypatch.setattr(shotsim._TrialCounts, name, recorded)

    record("add")
    record("_draw_left")
    counts = trial_counts(100000, f, trials, base)
    assert calls.count("_draw_left") == 1 and calls[-1] == "_draw_left"
    assert calls.count("add") == -(-trials // SEED_CHUNK)
    sample = np.random.default_rng(7).choice(trials, 200, replace=False).tolist()
    assert counts[sample].tolist() == [np.random.default_rng(base + i).binomial(100000, f) for i in sample]


def test_the_end_of_a_call_takes_passes_until_the_queue_is_short(monkeypatch):
    # At 62 shots one chunk of 4096 trials leaves ~1000 queued at the end of
    # the call, and a few of them are still queued after three passes.  With
    # _PASS_MIN = 1 the end passes go on until none is, so that the
    # generator draws no queued trial.
    shots, p, trials, base = 62, 0.5, SEED_CHUNK, 0
    monkeypatch.setattr(shotsim, "_PASS_MIN", 1)
    left, passes = [], [0]
    draw_left, later_steps = shotsim._TrialCounts._draw_left, shotsim._TrialCounts._later_steps

    def recorded_draw_left(run):
        left.append(run.queued)
        draw_left(run)

    def counted_later_steps(run):
        passes[0] += 1
        later_steps(run)

    monkeypatch.setattr(shotsim._TrialCounts, "_draw_left", recorded_draw_left)
    monkeypatch.setattr(shotsim._TrialCounts, "_later_steps", counted_later_steps)
    assert trial_counts(shots, p, trials, base).tolist() == _default_rng_counts(shots, p, trials, base)
    assert left == [0] and passes[0] > 3


def _record_stacks(monkeypatch) -> list[np.ndarray]:
    """A list of every array np.stack returns from now on."""
    stacked = []
    stack = np.stack

    def recording(*args, **kwargs):
        stacked.append(stack(*args, **kwargs))
        return stacked[-1]

    monkeypatch.setattr(np, "stack", recording)
    return stacked


@pytest.mark.parametrize("edge", [2**32, 2**64, 2**128])
def test_pcg64_words_are_columns_that_draw_stacks_into_numpys_states(monkeypatch, edge):
    # One chunk across the edge where the seeds gain an entropy word, carry
    # into the high 64 bits, or outgrow the pool (hashed in two parts there).
    first = edge - SEED_CHUNK // 2
    words = _pcg64_words(first, SEED_CHUNK)
    assert len(words) == 4
    for column in words:
        assert column.dtype == np.uint64 and column.shape == (SEED_CHUNK,) and column.flags.c_contiguous
    expected = []
    for j in range(SEED_CHUNK):
        state = np.random.default_rng(first + j).bit_generator.state["state"]
        expected.append([state["state"] & _MASK64, state["state"] >> 64, state["inc"] & _MASK64, state["inc"] >> 64])
    stacked = _record_stacks(monkeypatch)
    shotsim._TrialCounts(1000, 0.3, SEED_CHUNK).draw(words)
    assert [rows.tolist() for rows in stacked] == [expected]


@pytest.mark.parametrize("index", [np.array([3, 17, 39]), np.arange(40) % 7 == 2, np.array([], dtype=np.intp)])
def test_draw_stacks_only_the_indices_it_is_given(monkeypatch, index):
    base = 5
    words = _pcg64_words(base, 40)
    chosen = np.arange(40)[index].tolist()
    expected = _rows(words)[chosen].tolist()
    stacked = _record_stacks(monkeypatch)
    drawn = shotsim._TrialCounts(1000, 0.3, 40).draw(words, index)
    assert [rows.tolist() for rows in stacked] == [expected]
    assert drawn == [np.random.default_rng(base + j).binomial(1000, 0.3) for j in chosen]


def test_a_run_stacks_rows_only_for_the_trials_the_generator_draws(monkeypatch):
    # The self-checks, the deferred trials and what the queue leaves: about
    # 1 trial in 55 at the shots benchmark's inputs.
    trials = 20000
    draws = _count_draws(monkeypatch)
    stacked = _record_stacks(monkeypatch)
    trial_counts(100000, 0.448, trials, 1401)
    assert sum(len(rows) for rows in stacked) == draws[0]
    assert 0 < draws[0] <= 0.03 * trials


@pytest.mark.parametrize("chunk, trials", [(SEED_CHUNK, SEED_CHUNK + 1), (4, 25)])
@pytest.mark.parametrize("wrong", ["every", "last checked"])
def test_a_failed_self_check_leaves_the_draws_to_the_generator(monkeypatch, chunk, trials, wrong):
    # A step that miscounts every accepted trial, or only the last one the
    # self-check draws (in the third chunk or later when chunks are 4
    # trials), must not reach the output.
    step = btpe.step_10
    seen = [0]

    def wrong_step(d1, v, setup):
        u, accepted, counts = step(d1, v, setup)
        for j in np.flatnonzero(accepted):
            seen[0] += 1
            if wrong == "every" or seen[0] == shotsim._SELF_CHECKS:
                counts[j] += 1
        return u, accepted, counts

    base = 2**64 - chunk
    expected = _default_rng_counts(1000, 0.3, trials, base)
    monkeypatch.setattr(btpe, "step_10", wrong_step)
    monkeypatch.setattr(shotsim, "SEED_CHUNK", chunk)
    assert trial_counts(1000, 0.3, trials, base).tolist() == expected
    assert seen[0] >= (shotsim._SELF_CHECKS if wrong == "last checked" else 1)


def _row_with_doubles(k1: int, k2: int) -> list[int]:
    """A _pcg64_words row whose first two doubles are k1 * 2**-53 and k2 * 2**-53.

    Both states have a zero high half, so XSL-RR outputs their low half
    unrotated.  The increment is whatever takes the first state to the
    second, and it is odd because the second state's low bit is set.
    """
    first, second = k1 << 11, k2 << 11 | 1
    return _row_before(first, (second - first * shotsim._PCG_MULT) % 2**128)


def _btpe_path(row: list[int], shots: int, p: float) -> list[str]:
    """The steps numpy's BTPE takes for the generator at `row`, one per pass.

    A scalar transcription of random_binomial_btpe with math.log, the C
    library's log that numpy calls.  It only names the path a trial takes;
    the generator gives the count.  A pass ends in its count, in Step 50 or
    the full Stirling test, or in a loop back to Step 10.
    """
    bit_gen = _bit_gen_at(row)
    s = btpe.setup(shots, p)

    def double():
        return (int(bit_gen.random_raw()) >> 11) * 2.0**-53

    path = []
    while True:
        u, v = double() * s.p4, double()
        if not u > s.p1:
            return path + ["10"]
        if not u > s.p2:
            x = s.xl + (u - s.p1) / s.c
            v = v * s.c + 1.0 - abs(s.m - x + 0.5) / s.p1
            if v > 1.0:
                path.append("20 loops")
                continue
            y, step = math.floor(x), "20"
        elif v == 0.0:
            path.append("30 v = 0" if not u > s.p3 else "40 v = 0")
            continue
        elif not u > s.p3:
            y, step = math.floor(s.xl + math.log(v) / s.laml), "30"
            if y < 0:
                path.append("30 y < 0")
                continue
            v = v * (u - s.p2) * s.laml
        else:
            y, step = math.floor(s.xr - math.log(v) / s.lamr), "40"
            if y > shots:
                path.append("40 y > n")
                continue
            v = v * (u - s.p3) * s.lamr
        k = abs(y - s.m)
        if not (k > 20 and k < s.nrq / 2.0 - 1):
            return path + [step + " 50"]
        rho = (k / s.nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / s.nrq + 0.5)
        t = -k * k / (2 * s.nrq)
        a = math.log(v) if v > 0.0 else -math.inf
        if a < t - rho:
            return path + [step + " 52 accepts"]
        if a > t + rho:
            path.append(step + " 52 loops")
            continue
        return path + [step + " stirling"]


# Seeds whose default_rng(seed).binomial(shots, p) takes each path through
# BTPE's later steps, as _btpe_path names it, found by a search over the first
# seeds.  A tail's y leaves [0, n] only at small n.
LATER_PATHS = [
    (100000, 0.448, 9, ["20 52 accepts"]),
    (100000, 0.448, 13, ["20 loops", "20 52 accepts"]),
    (100000, 0.448, 108, ["20 loops", "10"]),
    (100000, 0.448, 5, ["20 52 loops", "10"]),
    (100000, 0.448, 134, ["30 52 accepts"]),
    (100000, 0.448, 93, ["40 52 accepts"]),
    (100000, 0.448, 133, ["30 52 loops", "10"]),
    (100000, 0.448, 316, ["40 52 loops", "30 52 accepts"]),
    (62, 0.5, 64649, ["30 y < 0", "10"]),
    (62, 0.5, 409060, ["40 y > n", "10"]),
    (100000, 0.448, 120, ["20 50"]),
    (100000, 0.448, 206, ["20 stirling"]),
    (100000, 0.448, 439, ["30 stirling"]),
    (100000, 0.448, 1602, ["40 stirling"]),
]


@pytest.mark.parametrize("shots, p, seed, path", LATER_PATHS)
def test_each_later_step_path_is_default_rngs(monkeypatch, shots, p, seed, path):
    assert _btpe_path(_rows(_pcg64_words(seed, 1))[0].tolist(), shots, p) == path
    expected = _default_rng_counts(shots, p, 1, seed)
    # A queue of one trial takes its end passes, and no self-check draws.
    monkeypatch.setattr(shotsim, "_PASS_MIN", 1)
    monkeypatch.setattr(shotsim, "_SELF_CHECKS", 0)
    draws = _count_draws(monkeypatch)
    assert trial_counts(shots, p, 1, seed).tolist() == expected
    # Only Step 50 and the full Stirling test are left to the generator.
    assert draws[0] == path[-1].endswith(("50", "stirling"))


@pytest.mark.parametrize("tail", ["30", "40"])
def test_v_zero_in_a_tail_loops_back(tail):
    # numpy loops on v == 0.0 in Steps 30 and 40, where log(v) is -inf; the
    # numpy steps must too, without a RuntimeWarning (which fails the test).
    shots, p = 100000, 0.448
    s = btpe.setup(shots, p)
    u = (s.p2 + s.p3) / 2 if tail == "30" else (s.p3 + s.p4) / 2
    row = _row_with_doubles(int(u / s.p4 * 2**53), 0)
    assert _btpe_path(row, shots, p)[0] == f"{tail} v = 0"
    outcome, _, after = _btpe_pass(np.array([row], dtype=np.uint64).T, s)
    assert outcome[0] == btpe.LOOP
    assert _generator_draw(_rows(after)[0].tolist(), shots, p) == _generator_draw(row, shots, p)


def test_step_20_goes_on_at_v_equal_to_one():
    # numpy loops on v > 1.0 only.  This u puts x at the mode, so that with
    # v == 0 the new v is exactly 1.0: numpy goes on to Step 50, whose product
    # test accepts m, and the numpy steps must leave the trial to it.
    shots, p = 100000, 0.448
    s = btpe.setup(shots, p)
    row = _row_with_doubles(7708371503708794, 0)
    assert _btpe_path(row, shots, p) == ["20 50"]
    outcome, _, _ = _btpe_pass(np.array([row], dtype=np.uint64).T, s)
    assert outcome[0] == btpe.DEFER
    assert _generator_draw(row, shots, p) == s.m


@given(
    shots=st.integers(31, 2**53),
    p=st.floats(0.0, 0.5),
    doubles=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 2**53 - 1)), min_size=1, max_size=8),
)
def test_btpe_later_steps_are_the_generators_where_they_decide(shots, p, doubles):
    # Crafted first doubles put u past p1, at a share `at` of the way to p4:
    # each count the later steps accept is the generator's, and a trial they
    # send back to Step 10 draws the same from its next pass's state.
    s = btpe.setup(shots, p)
    assume(s is not None)
    least = math.floor(s.p1 / s.p4 * 2**53) + 1
    rows = [_row_with_doubles(min(least + int(at * (2**53 - least)), 2**53 - 1), k2) for at, k2 in doubles]
    outcome, counts, after = _btpe_pass(np.array(rows, dtype=np.uint64).T, s)
    for row, o, count, next_row in zip(rows, outcome.tolist(), counts.tolist(), _rows(after).tolist()):
        if o in (btpe.STEP10, btpe.SQUEEZE):
            assert count == _generator_draw(row, shots, p)
        elif o == btpe.LOOP:
            assert _generator_draw(next_row, shots, p) == _generator_draw(row, shots, p)


def test_a_wide_log_bracket_leaves_every_log_decision_to_the_generator(monkeypatch):
    # A bracket of (-inf, inf) settles no tail's y and no squeeze test: numpy
    # then counts only what Step 10 accepts and loops only on Step 20's v > 1.
    shots, p, base = 100000, 0.448, 2**64 - 300
    monkeypatch.setattr(btpe, "_log_bracket", lambda v: (np.full_like(v, -np.inf), np.full_like(v, np.inf)))
    s = btpe.setup(shots, p)
    words = _pcg64_words(base, 600)
    outcome, _, _ = _btpe_pass(words, s)
    (u, _), _ = shotsim._next_doubles(words, 2)
    u *= s.p4
    assert not np.any(outcome == btpe.SQUEEZE)
    for row in _rows(words)[outcome == btpe.LOOP].tolist():
        assert _btpe_path(row, shots, p)[0] == "20 loops"
    assert np.count_nonzero(outcome == btpe.DEFER) > 100
    monkeypatch.setattr(shotsim, "_PASS_MIN", 1)
    assert trial_counts(shots, p, 600, base).tolist() == _default_rng_counts(shots, p, 600, base)


@pytest.mark.parametrize("chunk, trials", [(SEED_CHUNK, SEED_CHUNK + 1), (16, 161)])
@pytest.mark.parametrize("wrong", ["every", "last checked", "loops"])
def test_a_failed_later_step_self_check_leaves_the_draws_to_the_generator(monkeypatch, chunk, trials, wrong):
    # Later steps that miscount every squeeze acceptance, or only the last one
    # the self-check draws, must not reach the output.  Nor may steps that send
    # back to Step 10 what numpy accepts: their next passes then count what the
    # generator would not, and the self-check of their acceptances draws each
    # trial from its seeded state.
    steps = btpe._later_steps
    seen = [0]

    def wrong_steps(u, v, setup):
        outcome, counts = steps(u, v, setup)
        for j in np.flatnonzero(outcome == btpe.SQUEEZE):
            seen[0] += 1
            if wrong == "loops":
                outcome[j] = btpe.LOOP
            elif wrong == "every" or seen[0] == shotsim._SELF_CHECKS:
                counts[j] += 1
        return outcome, counts

    base = 2**64 - chunk
    expected = _default_rng_counts(100000, 0.448, trials, base)
    monkeypatch.setattr(btpe, "_later_steps", wrong_steps)
    # Blocks of one row, so that the wrong steps see each trial once.
    monkeypatch.setattr(btpe, "_BLOCK", 1)
    monkeypatch.setattr(shotsim, "SEED_CHUNK", chunk)
    monkeypatch.setattr(shotsim, "_PASS_MIN", 1)
    assert trial_counts(100000, 0.448, trials, base).tolist() == expected
    assert seen[0] >= (shotsim._SELF_CHECKS if wrong == "last checked" else 1)


def test_np_log_stays_far_inside_the_log_bracket():
    # The later steps take a decision that reads a log only when it holds
    # across a relative _LOG_SLACK of np.log's value, because np.log is
    # within an ulp of the C library's log, which numpy's BTPE calls and
    # math.log calls too.  If a numpy release's log drifts further from it,
    # this fails by name.
    x = np.random.default_rng(2**32).random(100_000)
    x = x[x > 0.0]
    c_log = np.array([math.log(t) for t in x.tolist()])
    gap = np.abs(np.log(x) - c_log) / -c_log
    assert gap.max() <= btpe._LOG_SLACK * 2.0**-8, "numpy's log drifted from the C library's"


# (shots, p) where the later steps meet each of their cases often: the tails'
# y leaves [0, n] at 62 shots, Step 50 takes most trials at 1000 shots and few
# at 10**9, and 65/135 is the top of the paper's F_avg range.
ROUND_CASES = [(62, 0.5), (1000, 0.3), (100000, 0.448), (100000, 65 / 135), (10**9, 0.001), (2**53, 0.47)]


@pytest.mark.parametrize("shots, p", ROUND_CASES)
def test_btpe_pass_is_the_generators_on_a_chunk(shots, p):
    # Every count a pass accepts is the generator's, and every trial it sends
    # back to Step 10 draws the same from its next pass's state.  The tails
    # are ~1 trial in 10, so 2000 trials reach rare cases that the hypothesis
    # tests' few rows per example seldom do.
    s = btpe.setup(shots, p)
    words = _pcg64_words(2**64 - 1000, 2000)
    outcome, counts, after = _btpe_pass(words, s)
    assert np.count_nonzero(outcome == btpe.SQUEEZE) + np.count_nonzero(outcome == btpe.LOOP) > 0
    for row, o, count, next_row in zip(_rows(words).tolist(), outcome.tolist(), counts.tolist(), _rows(after).tolist()):
        if o in (btpe.STEP10, btpe.SQUEEZE):
            assert count == _generator_draw(row, shots, p)
        elif o == btpe.LOOP:
            assert _generator_draw(next_row, shots, p) == _generator_draw(row, shots, p)


def test_later_steps_leave_shots_past_2_53_to_the_generator():
    # Past 2**53 a float64 no longer holds every count, so the steps after
    # Step 10 decide nothing there.
    s = btpe.setup(2**62, 0.47)
    outcome, _, _ = _btpe_pass(_pcg64_words(7, 400), s)
    assert set(np.unique(outcome).tolist()) == {btpe.STEP10, btpe.DEFER}

