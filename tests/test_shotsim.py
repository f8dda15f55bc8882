from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spaneg import shotsim
from spaneg.measures import favg_from_mu, mu_from_favg, negativity_normalized_batch
from spaneg.shotsim import SEED_CHUNK, _pcg64_words, estimate_negativity, trial_counts
from spaneg.spa import MU_MIN_HI, MU_MIN_LO, spa_pt_affine
from spaneg.states import bell_state, from_spec, validate


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


def test_favg_concentration_at_large_shots():
    rho = bell_state(0)
    f_true = favg_from_mu(spa_pt_affine(rho).mu_min)
    f_hat = estimate_negativity(rho, 10**7, 1, 17).favg_hat
    assert abs(f_hat - f_true) <= 5 * np.sqrt(f_true * (1 - f_true) / 10**7)
    assert 0.0 <= f_hat <= 1.0


def test_unbiased_at_fidelity_level():
    rho = from_spec("horodecki", 0.6)
    f_true = favg_from_mu(spa_pt_affine(rho).mu_min)
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
    assert est.exact_nn == negativity_normalized_batch(spa_pt_affine(from_spec("horodecki", 0.8)).mu_min)


def test_clt_consistency_against_exact():
    rho = from_spec("horodecki", 0.8)
    exact = float(negativity_normalized_batch(spa_pt_affine(rho).mu_min))
    est = estimate_negativity(rho, 10**5, 200, 42)
    assert abs(est.mean_nn - exact) <= 3 * est.std_nn / np.sqrt(200)


def test_variance_scaling():
    rho = from_spec("horodecki", 0.8)
    est1 = estimate_negativity(rho, 10**5, 200, 42)
    est4 = estimate_negativity(rho, 4 * 10**5, 200, 1042)
    ratio = est1.std_nn / est4.std_nn
    assert 1.5 <= ratio <= 2.5


def test_noise_free_passthrough_matches_pipeline():
    # The fidelity round trip mu -> F -> mu is exact up to float round-off,
    # amplified by |dN/dmu| ~ 18 in the negativity.
    for p in np.linspace(0, 1, 11):
        rho = from_spec("horodecki", float(p))
        exact = float(negativity_normalized_batch(spa_pt_affine(rho).mu_min))
        mu = mu_from_favg(favg_from_mu(spa_pt_affine(rho).mu_min))
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


def test_failed_layout_check_falls_back_to_the_state_dict(monkeypatch):
    # Writes through a view of memory the generator does not read leave its
    # state alone, so the layout check fails and every trial must go through
    # bit_generator.state: the draws are still default_rng's.
    spare = bytearray(32)
    monkeypatch.setattr(shotsim, "_state_view", lambda bit_gen: memoryview(spare))
    monkeypatch.setattr(shotsim, "SEED_CHUNK", SMALL_CHUNK)
    assert not shotsim._view_sets_state(np.random.PCG64(0), memoryview(spare))
    for base in (0, 2**64 - 128, 2**128 - 3):
        trials = 2 * SMALL_CHUNK + 1
        assert trial_counts(1000, 0.3, trials, base).tolist() == _default_rng_counts(1000, 0.3, trials, base)


def test_layout_check_passes_on_this_build():
    bit_gen = np.random.PCG64(0)
    assert shotsim._view_sets_state(bit_gen, shotsim._state_view(bit_gen))


def test_pcg64_seeding_is_pinned():
    # PCG64(2**32)'s state under numpy 2.4.  If a numpy release seeds PCG64
    # differently, the first assert fails and the bulk seeding must be redone.
    pinned = (48934169112922715694246890610800379348, 159503441853545908714793740543692941767)
    numpy_state = np.random.PCG64(2**32).state["state"]
    assert (numpy_state["state"], numpy_state["inc"]) == pinned, "numpy changed PCG64 seeding"
    s_lo, s_hi, i_lo, i_hi = _pcg64_words(2**32, 1)[0].tolist()
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
_PCG_MULT_INV = pow(shotsim._PCG_MULT, -1, 2**128)


def _row_before(state: int, inc: int) -> list[int]:
    """The _pcg64_words row of a PCG64 whose next step lands on `state`."""
    before = (state - inc) * _PCG_MULT_INV % 2**128
    return [before & _MASK64, before >> 64, inc & _MASK64, inc >> 64]


def _generator_draw(row: list[int], shots: int, p: float) -> int:
    bit_gen = np.random.PCG64(0)
    bit_gen.state = shotsim._dict_state(*row)
    return int(np.random.Generator(bit_gen).binomial(shots, p))


@given(
    state=st.integers(0, 2**128 - 1),
    inc=st.integers(0, 2**127 - 1),
    shots=st.integers(31, 2**53),
    p=st.floats(0.0, 1.0),
)
def test_btpe_first_step_is_the_generators_where_it_accepts(state, inc, shots, p):
    setup = shotsim._btpe_setup(shots, p)
    assume(setup is not None)
    # 32 generators on states spread over all 128 bits, so that every
    # rotation and both halves of the output are reached.
    rows = [_row_before((state + j * 0x9E3779B97F4A7C15F39CC0605CEDC835) % 2**128, 2 * inc + 1) for j in range(32)]
    words = np.array(rows, dtype=np.uint64)
    accepted, counts = shotsim._btpe_first_step(words, shots, p, setup)
    for row, count in zip(words[accepted].tolist(), counts[accepted].tolist()):
        assert count == _generator_draw(row, shots, p)


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_btpe_first_step_accepts_u_equal_to_p1(p):
    # numpy rejects only u > p1.  At 1000 shots p1 = 28.5, and the first
    # double k * 2**-53 of this k makes u = d1 * p4 exactly p1.  The state
    # after the first step has a zero high half: no rotation, output hi ^ lo = lo.
    shots, k = 1000, 5998927691899537
    setup = shotsim._btpe_setup(shots, p)
    p1, _, p4 = setup
    assert p1 == 28.5 and (k * 2.0**-53) * p4 == p1
    for d in (0, 1):
        row = _row_before((k + d) << 11, 0x0123456789ABCDEF0123456789ABCDEF)
        accepted, counts = shotsim._btpe_first_step(np.array([row], dtype=np.uint64), shots, p, setup)
        assert accepted[0] == (d == 0)
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


# (shots, p, whether numpy draws by BTPE): it does where min(p, 1 - p) * shots
# > 30.  0.3 * 100 is 30.0, but 1 - 0.7 is 0.30000000000000004, so 100 shots
# draw by inversion at p = 0.3 and by BTPE at p = 0.7.  p > 0.5 draws for
# 1 - p and flips the count.
BTPE_EDGES = [
    (60, 0.5, False),
    (61, 0.5, True),
    (100, 0.3, False),
    (100, 0.7, True),
    (1000, 0.7, True),
    (1000, 0.5, True),
    (2**53, 0.47, True),
]


@pytest.mark.parametrize("shots, p, btpe", BTPE_EDGES)
def test_trial_counts_at_the_real_chunk_around_btpe(monkeypatch, shots, p, btpe):
    trials, base = SEED_CHUNK + 1, 2**64 - SEED_CHUNK // 2
    expected = _default_rng_counts(shots, p, trials, base)
    draws = _count_draws(monkeypatch)
    assert trial_counts(shots, p, trials, base).tolist() == expected
    assert (shotsim._btpe_setup(shots, p) is not None) == btpe
    if btpe:
        # The step accepted its share (p1 / p4 >= 0.38 here): no fallback.
        assert draws[0] < 0.7 * trials
    else:
        assert draws[0] == trials


@pytest.mark.parametrize("p", [float("nan"), 1.5, -0.5])
def test_invalid_p_still_raises(p):
    with pytest.raises(ValueError):
        trial_counts(100000, p, 3, 0)


def test_the_step_draws_three_in_four_workload_trials(monkeypatch):
    # The shots benchmark: Horodecki p = 0.8 at 100000 shots.  numpy's first
    # step rejects 1 - p1 / p4 = 0.2456 of its draws there; only those, and
    # the self-check, call the generator.
    f = favg_from_mu(spa_pt_affine(from_spec("horodecki", 0.8)).mu_min)
    trials = 2 * SEED_CHUNK
    draws = _count_draws(monkeypatch)
    trial_counts(100000, f, trials, 1401)
    assert draws[0] / trials == pytest.approx(0.2456, abs=0.02)


@pytest.mark.parametrize("chunk, trials", [(SEED_CHUNK, SEED_CHUNK + 1), (4, 25)])
@pytest.mark.parametrize("wrong", ["every", "last checked"])
def test_a_failed_self_check_leaves_the_draws_to_the_generator(monkeypatch, chunk, trials, wrong):
    # A step that miscounts every accepted trial, or only the last one the
    # self-check draws (in the third chunk or later when chunks are 4
    # trials), must not reach the output.
    step = shotsim._btpe_first_step
    seen = [0]

    def wrong_step(words, shots, p, setup):
        accepted, counts = step(words, shots, p, setup)
        for j in np.flatnonzero(accepted):
            seen[0] += 1
            if wrong == "every" or seen[0] == shotsim._SELF_CHECKS:
                counts[j] += 1
        return accepted, counts

    base = 2**64 - chunk
    expected = _default_rng_counts(1000, 0.3, trials, base)
    monkeypatch.setattr(shotsim, "_btpe_first_step", wrong_step)
    monkeypatch.setattr(shotsim, "SEED_CHUNK", chunk)
    assert trial_counts(1000, 0.3, trials, base).tolist() == expected
    assert seen[0] >= (shotsim._SELF_CHECKS if wrong == "last checked" else 1)
