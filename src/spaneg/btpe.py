"""numpy's BTPE binomial sampler, one pass at a time, on given uniforms.

numpy's Generator.binomial (random_binomial, numpy/random/src/distributions)
draws by BTPE, the sampler of Kachitvichyanukul & Schmeiser (1988), when
r * n > 30 with r = min(p, 1 - p), and flips a draw for 1 - p when p > 0.5.
shotsim leaves the flipped calls to the generator, so here r = p.  Each pass
from Step 10 takes two uniforms u, v of the generator and scales u by p4.
Step 10 accepts floor(xm - p1 * v + u) unless u > p1: about 3 draws in 4 at
n = 100000.  Steps 20, 30 and 40 place the other draws on a parallelogram or
one of two exponential tails, and Step 52's squeeze accepts them, sends them
back to Step 10 for two fresh uniforms, or leaves them to a full Stirling
test.

The setup and the steps are scalar SSE2 arithmetic without FMA in numpy's
build, so Python floats and float64 ufuncs taken in the same order give the
same bits.  Only the C library's log, which numpy calls, differs from np.log
(see _LOG_SLACK).  What this module cannot decide, shotsim leaves to the
generator.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_MIN_MEAN = 30.0
# Outcomes of a pass: accepted by Step 10, accepted by Step 52's squeeze, sent
# back to Step 10, or left to the generator.
STEP10, SQUEEZE, LOOP, DEFER = 0, 1, 2, 3
# The later steps compare counts with n and m in float64, which holds every
# integer up to 2**53 exactly; past it they leave each trial to the generator.
_EXACT_INT = 2**53
# np.log is numpy's SIMD log, which differs by 1 ulp from the C library's log
# on a few doubles in a thousand.  A decision that reads a log is taken only
# when it comes out the same for every value within a relative _LOG_SLACK of
# np.log's.  +, -, *, / and floor round monotonically, so that bracket holds
# the C log's decision too.
_LOG_SLACK = 2.0**-40
# The later steps take rows in whole blocks of this many, the last filled up
# with repeated rows whose results are dropped, so that the allocator reuses
# their temporaries: subsets of every size grew a long run's resident memory
# by ~1 MB over 2000 simulate calls.
_BLOCK = 256


class Setup(NamedTuple):
    """Constants of random_binomial_btpe's setup for binomial(n, p)."""

    n: int
    m: int
    nrq: float
    p1: float
    p2: float
    p3: float
    p4: float
    xm: float
    xl: float
    xr: float
    c: float
    laml: float
    lamr: float


def setup(shots: int, p: float) -> Setup | None:
    """The constants of random_binomial_btpe's setup for binomial(shots, p).

    None where numpy does not draw by BTPE, where it draws for 1 - p and
    flips the count (p > 0.5), and for a NaN p or, at shots >= 0, a negative
    one; the generator then draws the call, and raises if it is invalid.
    The constants follow numpy's setup in its order, with r = min(p, 1 - p) = p.
    """
    if not (p <= 0.5 and p * shots > _MIN_MEAN):
        return None
    q = 1.0 - p
    fm = shots * p + p
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(shots * p * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * p)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    return Setup(shots, m, shots * p * q, p1, p2, p3, p4, xm, xl, xr, c, laml, lamr)


# As a decorator, errstate costs about half of what entering one on each call does.
@np.errstate(divide="ignore", invalid="ignore")
def _log_bracket(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) around log(v) for v <= 1: np.log(v) widened by _LOG_SLACK.

    log(0) is -inf at both ends; a negative v gives NaN, which passes no
    comparison, so its decision is left to the generator.
    """
    a = np.log(v)
    return a * (1.0 + _LOG_SLACK), a * (1.0 - _LOG_SLACK)


def _later_steps(u: np.ndarray, v: np.ndarray, s: Setup) -> tuple[np.ndarray, np.ndarray]:
    """(outcome, y) of BTPE's Steps 20 to 52 at uniforms u > p1 (scaled) and v.

    y is the count where outcome is SQUEEZE, and 0 elsewhere.
    Step 50 (a count within 20 of the mode, or far in the tail) and the full
    Stirling test are left to the generator, as is a log decision that the
    bracket does not settle.
    """
    if s.n > _EXACT_INT:
        return np.full(len(u), DEFER, dtype=np.int8), np.zeros(len(u), dtype=np.int64)
    # Steps 30 (p2 < u <= p3) and 40 (p3 < u): the tails, y = floor(xl + log(v)
    # / laml) and floor(xr - log(v) / lamr), the same bits as xr + log(v) /
    # -lamr.  They take v on to v (u - p2) laml and v (u - p3) lamr.
    left = u <= s.p3
    lam = np.where(left, s.laml, -s.lamr)
    lo, hi = _log_bracket(v)
    lo /= lam
    hi /= lam
    base = np.where(left, s.xl, s.xr)
    y = np.floor(np.add(base, lo, out=lo), out=lo)
    known = y == np.floor(np.add(base, hi, out=hi), out=hi)
    w = np.subtract(u, np.where(left, s.p2, s.p3), out=base)
    w *= v
    w *= np.abs(lam, out=lam)
    # Step 30 loops on y < 0 and Step 40 on y > n; neither y can leave [0, n]
    # on the other side (log(v) <= 0).  v == 0 gives an infinite y, which
    # loops, as numpy's v == 0.0 test does.
    loop = y < 0
    loop |= y > s.n
    # Step 20 (u <= p2): the parallelogram, y = floor(x) with no log.
    mid = u <= s.p2
    x = np.subtract(u, s.p1, out=hi)
    x /= s.c
    x += s.xl
    w20 = np.subtract(s.m, x)
    w20 += 0.5
    np.abs(w20, out=w20)
    w20 /= s.p1
    w20 = np.subtract(v * s.c + 1.0, w20, out=w20)
    np.copyto(y, np.floor(x, out=x), where=mid)
    np.copyto(w, w20, where=mid)
    known |= mid
    np.copyto(loop, w20 > 1.0, where=mid)
    loop &= known
    del lam, hi, x, w20  # their memory serves the squeeze's arrays
    # Step 50 takes k = |y - m| <= 20 or k >= nrq / 2 - 1; Step 52 the rest.
    # t = -k*k / (2 nrq) keeps numpy's int64 product.  w <= 1 on these rows, so
    # its log is <= 0 and the bracket is ordered.
    go = ~loop
    go &= known
    k = np.where(go, y, s.m)
    k -= s.m
    np.abs(k, out=k)
    squeeze = k > 20
    squeeze &= go
    squeeze &= k < s.nrq / 2.0 - 1
    rho = k / 3.0
    rho += 0.625
    rho *= k
    rho += 0.16666666666666666
    rho /= s.nrq
    rho += 0.5
    rho *= k / s.nrq
    k = k.astype(np.int64)
    k *= k
    t = np.negative(k, out=k) / (2 * s.nrq)
    lo, hi = _log_bracket(w)
    accept = hi < t - rho
    accept &= squeeze
    t += rho
    squeeze &= lo > t
    loop |= squeeze
    outcome = np.where(accept, SQUEEZE, np.where(loop, LOOP, DEFER)).astype(np.int8)
    return outcome, np.where(accept, y, 0.0).astype(np.int64)


def step_10(d1: np.ndarray, v: np.ndarray, s: Setup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, accepted, counts) of Step 10 of a pass at each pair of uniforms d1, v
    of the generator: u = d1 * p4, accepted where not u > p1, and there
    binomial(n, p) = floor(xm - p1 * v + u)."""
    u = d1 * s.p4
    return u, ~(u > s.p1), np.floor(s.xm - s.p1 * v + u).astype(np.int64)


def steps_20_to_52(u: np.ndarray, v: np.ndarray, s: Setup) -> tuple[np.ndarray, np.ndarray]:
    """(outcome, counts) of the passes that Step 10 rejected, at their u and v.

    outcome is SQUEEZE, LOOP or DEFER, and counts holds binomial(n, p) where
    it is SQUEEZE.  The rows are taken in whole blocks of _BLOCK, the last
    filled up with copies of the first row.
    """
    count = len(u)
    if count % _BLOCK:
        size = count + _BLOCK - count % _BLOCK
        u, v = (np.concatenate((a, np.full(size - count, a[0]))) for a in (u, v))
    outcome, counts = _later_steps(u, v, s)
    return outcome[:count], counts[:count]
