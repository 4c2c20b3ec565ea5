"""Ground truth by direct summation of the defining series.

This module never looks at the closed forms.  Every family is Re or Im
of pref * sum_{k >= k0} u**k * g(k), with g(k) = (pi*(c*k + d))**-p and
|u| = |pref| = 1: c, d = 1, 0 for the k families and 2, 1 for the 2k+1
and modified P/Q ones, and k0 = 1 - d.  u turns z for the k and P/Q
families and 2z for the other 2k+1 ones, whose phase (2k+1)z leaves pref
turning z; pref is 1 elsewhere.  An alternating family's (-1)**k is half
a turn more in u.  _series reads this shape from z = m/q into a _Series
record of exact integers, u turning step/den and pref pref_num/den with
den = 2q, so the phase step is delta = min(step, den - step)/den turns
from a whole turn, exactly.  Its scale = pi**-p, 0.0 where it
underflows, is the one place a kernel's pi**-p is formed: the kernels
raise only the exact integer denominators, (c*k + d)**-p, which cannot
overflow, and multiply by scale once.

Routes.  At p >= 2 the integral-comparison tail needs some number of
terms, need, for tol.  Off resonance, a point whose need passes the tail
by parts' first head N, below, by _SHORT terms or more takes that head
and the tail by parts, N at most the cap.  Every other point is summed
directly, need terms but at most the cap, 10^6 at p = 2 and 10^4 above,
whose tail bound may then exceed tol: near resonance the partial sums
drift one way.  A direct head of _SHORT terms or more whose phase step
is so near a whole turn that its drift D, below, is within the head's
charge is read as a whole-turn sum at the phase of its first term, and
D joins its bound.  _plan keeps the direct route's z-free numbers.  At
p = 1, where the series converges only conditionally, every point takes
the tail by parts, its head at most _MAX_TERMS terms.  Both routes report
the absolute mode, and both bounds charge the head's rounding besides
the tail.  At p = 0 (only Abel values A) the partial sums
S_n = A - pref*u**(n+1)/(1 - u) oscillate about A with the amplitude
1/(2 sin(pi delta)) at every n, so a longer sum gains only rounding: the
averaged mode averages the first _WINDOW partial sums down the depths
_DEPTHS, each pass multiplying the oscillation by |cos(pi delta)|, and
reports an envelope, twice the spread of the trailing averaged sums,
which is an estimate, not a bound.

Near a whole turn.  |u**j - 1| <= 2 pi j delta, so reading the n terms
from k0 all at the phase of term k0 moves their sum by at most
2 pi delta * sum_{j<n} j*g(k0 + j).  As j <= (c*(k0 + j) + d)/c and
c*k0 + d = 1, that is at most 2 pi delta * pi**-p/c * S, with
S = 1 + ln(c*n + 1)/c at p = 2, the integral comparison of
sum 1/(1 + c*j), and S = 1 + 1/(c(p - 2)) above.  _drift takes twice
that, D, for its own rounding.

The tail by parts.  From K = k0 + N on, J = _PARTS steps of summation by
parts give, with r = -u/(u - 1),

    T = sum_{j<J} r**j * (-u**K * Delta^j g(K) / (u - 1)) + R,
    |R| <= 2 |Delta^J g(K)| |r|**J / |u - 1|,

since Delta^J g is sign-definite and shrinks monotonically in size, at
p = 1 too; |r| = 1/|u - 1| = 1/(2 sin(pi delta)).  _differences takes
Delta^j (c*k + d)**-p exactly in integers, each rounded once.  The bound
adds R, the tail's rounding, (p + 16J)u of the size of its terms, and
the head's charge, below.  g(x) = (pi*(c*x + d))**-p is completely
monotone, so |Delta^J g(K)| <= |g^(J)(K)|, which is
(p)_J c**J pi**-p (c*K + d)**-(p+J).  The first head is N = K - k0 for
the least K where 2|g^(J)(K)| |r|**(J+1) is at most tol/2, taken up to a
power of two and at least 4, and at p = 1 at most the cap.  N doubles
while the bound exceeds tol, never past the cap.

Kernels.  _sum takes a range of fewer than _SHORT terms in plain Python,
by the recurrence of _head_terms, and splits a longer one into chunks of
at most _CHUNK terms, added by exact fsum.  At a whole-turn phase step,
where every term's phase is pref's, a chunk is pref's part times
_weight_sum's cached sum of g(k), which adds its weights by numpy's
pairwise sum in pieces of at most _BLOCK and the pieces by fsum.  The
numpy kernels take every phase from the exact integers through _turns,
which rounds it once.  A chunk of fewer than _TABLE_MIN terms builds its
terms and adds them pairwise.  A longer one, a block sum, writes
k = k_lo + r*w + j with w = _width(n, p), the n mod w last terms a short
last row, and takes sin and cos once each of the row phases,
(k_row*step + pref_num/2)/den, and the column phases,
(j*step + pref_num/2)/den.  By angle addition row r
sums to a_r*X_r0 +- b_r*X_r1, where X_r is the row's sum of
denom**-p * [cos_col, sin_col].  Row r's weights are
e**-p * (1 - x*t_j)**-p, with e the row's last denominator,
x = c*(w-1)/e and t_j = (w-1-j)/(w-1) in [0, 1].  The near rows, where x
passes _reach(p)[-1], and the short last row build their weights, at
most _BLOCK a block, for one BLAS product.  A far row takes the binomial
series, X_r = e**-p * sum_m x**m * K_m, from the column moments
K_m = C(p+m-1, m) * sum_j t_j**m * [cos_col, sin_col] for m < _SERIES.
The series' terms are positive and fall at least by the factor
(p+m)/(m+1)*x from m on, so a cut after m terms drops at most
C(p+m-1, m)*x**m / (1 - (p+m)/(m+1)*x) of a sum of at least 1;
_reach(p)[m-1] is the x where that is u/8, and each block of far rows
cuts after the fewest m whose reach holds its first, largest, x.  From
k = 1, row r has x near 1/(r+1) whatever w, and a row's phases and
series cost some 8 built weights: _width balances the two.

Rounding.  A term is within (16 + 0.36p)u*g(k) of the exact term at the
float z, plus 2^-1074 where it is subnormal, with u = 2^-53: float pi**-p
carries p times float pi's 0.351u.  _unit rounds its turns once into
[-1, 1] half turns, which polylog._cis_pi reduces exactly, so a unit is
within 3.8u: 2.4u along the circle and u in each part.  A complex product
adds sqrt(5)u, so step j of the short kernel is within (3.8 + 6j)u, and
its term, with the weight's and product's 3u, within
(16 + 0.36p + 6j)u*g(k).  At a whole-turn step pref's part, the products
by it and by scale and each weight's rounding stay within the per-term
error.  A block sum adds at most (w + 1 + _pairwise_depth(rows))*u*sum g(k):
the w products of a row's dot product and its angle addition, then the
pairwise sum of the rows.  A far row's weights are e**-p times a sum of
positive terms, so they round as a dot product with the exact weights
would, give or take the 2m or so roundings of the series' terms past the
first, whose sum, (1 - x)**-p - 1, is below half the first; the cut adds
u/8*g(k) a term.  _head_charge(c, p, n), the charge for a head of n terms
on both routes, is the per-term error over sum g(k), plus 2^-1074 a term,
and what the kernel adds: 7n*u*sum g(k) below _SHORT terms, for the drift
of 6u a step, the sum's n - 1 roundings and the product by scale;
_pairwise_depth(n)u*sum g(k) for numpy's pairwise sum, at most 24
roundings in a run of 128 terms and one more for each halving; and the
block sum's charge, with one more rounding for the fsum of chunks.  A
weight sum meets _pairwise_depth(n) roundings below _BLOCK weights and
_pairwise_depth(_BLOCK) + 1 from there on: within the charge of the
pairwise sum, and of the block sum, whose w is at least 64.  At p >= 2
sum g(k) runs from k0 on, at most scale*(1 + 1/(c(p - 1))); at p = 1 it
is the head's own, at most scale*(1/(c*k0 + d) + ln(c*K + d)/c + 1),
charged anew as N grows.  A head read at its first term's phase takes
the whole-turn kernel, within the charge, and D besides.  BLAS gives the
same digits on one thread as on several, and calls share only the
lru_caches of pure functions and the read-only _LADDER, so oracle_eval
may run on several threads.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ToleranceNotReachedError, check_int
from .polylog import _cis_pi
from .sums import SumFamily, _checked_z, _finite_z, _require_family

__all__ = [
    "ArbitrationReport",
    "ArbitrationRow",
    "OracleReport",
    "arbitrate",
    "oracle_eval",
    "partial_sum",
]

TWO_PI = 2.0 * math.pi

_CHUNK = 1 << 20
_SHORT = 64
_BLOCK = 1 << 14
_TABLE_MIN = 4096
_SERIES = 14
_U = 2.0**-53
_MAX_TERMS = 100_000_000
_CAP_P2 = 1_000_000
_CAP_P3 = 10_000
_DEPTHS = (4, 16, 64, 256, 1024)
_WINDOW = 1600
# J: steps of summation by parts in the tail
_PARTS = 12


class OracleReport(NamedTuple):
    """A named tuple: it unpacks and has _replace, not dataclasses.replace/asdict/fields."""

    value: float
    terms_used: int
    tail_bound: float
    mode: str  # absolute | averaged-conditional


@dataclass(frozen=True)
class ArbitrationRow:
    z: float
    value_a: float
    value_b: float
    oracle_value: float
    diff_a: float
    diff_b: float
    a_ok: bool
    b_ok: bool


@dataclass(frozen=True)
class ArbitrationReport:
    family: SumFamily
    rows: tuple
    a_pass: int
    b_pass: int
    winner: str  # a | b | both | neither


# a family at one z as Re (sin false) or Im (sin true) of pref *
# sum_{k >= k0} u**k * (c*k + d)**-p * scale, u turning step/den and pref
# pref_num/den, both in [0, 1), in exact integers; k0 = 1 - d and
# scale = pi**-p, 0.0 where it underflows
_Series = collections.namedtuple("_Series", "c d step den pref_num p sin k0 scale")


def _series(f, zf):
    """The _Series of the family f at zf = m/q: the one place that reads
    f's index pattern, sign, trig and power, and that forms pi**-p."""
    m, q = zf.as_integer_ratio()
    den = 2 * q
    c, d = (2, 1) if f.index_kind == "2k+1" else (1, 0)
    doubled = c == 2 and f.modified == "none"
    step = ((4 if doubled else 2) * m + (q if f.alternating else 0)) % den
    pref_num = 2 * m % den if doubled else 0
    p = f.power
    return _Series(c, d, step, den, pref_num, p, f.trig == "sin", 1 - d, math.pi**-p)


def _split(num, den):
    """num/den turns as head + mid + low: head a multiple of 2**-25, mid
    one of 2**-50 below 2**-25, and low, below 2**-50, rounded once."""
    hm, rest = divmod(num << 50, den)
    return (hm >> 25) * 2.0**-25, (hm & 0x1FFFFFF) * 2.0**-50, rest / (den << 50)


def _turns(k, step, den, pref_num):
    """The phases (k*step + pref_num)/den in turns for the array k >= 0,
    moved to [-1/2, 1/2] before the last and only rounding step adds the
    low parts, below 2**-22.

    x - floor(x) and x - rint(x) are exact.  For k below 2**27, k*head is
    a multiple of 2**-25 below 2**27 and frac(k*head) + k*mid plus pref's
    head and mid one of 2**-50 below 8, so both are exact.  An angle of at
    most pi in size rounds with half the error of one up to 2 pi.
    """
    head, mid, low = _split(step, den)
    turns = k * head
    turns -= np.floor(turns)
    turns += k * mid
    low = k * low
    if pref_num:
        p_head, p_mid, p_low = _split(pref_num, den)
        turns += p_head + p_mid
        low += p_low
    turns -= np.rint(turns)
    turns += low
    return turns


@functools.cache
def _reach(p):
    """For m = 1.._SERIES, an x within 1% of the largest at which the
    bound on the remainder of the binomial series of (1 - x)**-p cut
    after m terms is u/8 (module docstring), and so on all of [0, x]."""
    reach = []
    for m in range(1, _SERIES + 1):
        lead = math.comb(p + m - 1, m)
        # start 1% inside where the first dropped term is u/8, as the check rounds
        x = 0.99 * (_U / 8.0 / lead) ** (1.0 / m) if lead else 1.0  # p = 0: the sum is 1
        while lead * x**m > _U / 8.0 * (1.0 - (p + m) / (m + 1) * x):
            x *= 0.99
        reach.append(x)
    return tuple(reach)


@functools.lru_cache(maxsize=256)
def _width(n, p):
    """The row width of a block sum of n terms at power p."""
    return min(512, math.isqrt(n), max(64, math.isqrt(int(8 * n * _reach(p)[-1]))))


def _power_rows(base, out):
    """out[m] = base**m for each row m of out, by repeated products."""
    out[0] = 1.0
    for m in range(1, len(out)):
        np.multiply(out[m - 1], base, out=out[m])
    return out


def _terms(s, k_lo, k_hi):
    """Terms of s for index k in [k_lo, k_hi) as a float64 array: sin or
    cos of 2*pi*(k*step + pref_num)/den times (c*k + d)**-p, then scale."""
    c, d, step, den, pref_num, p, sin, _, scale = s
    k = np.arange(k_lo, k_hi, dtype=np.float64)
    vals = _turns(k, step, den, pref_num)
    vals *= TWO_PI
    (np.sin if sin else np.cos)(vals, out=vals)
    # the denominators c*k + d, k itself for the k families
    denom = k if c == 1 else np.arange(c * k_lo + d, c * k_hi + d, c, dtype=np.float64)
    denom **= -p
    vals *= denom
    vals *= scale
    return vals


def _unit(num, den):
    """exp(2 pi i num/den) for integers num and den > 0: num mod den taken
    in [-den/2, den/2] and num/den rounded once, in half turns."""
    num %= den
    if 2 * num > den:
        num -= den
    return _cis_pi(2 * num / den)


@functools.lru_cache(maxsize=1024)
def _weights(c, d, p, k_lo, n):
    """float(c*k + d)**-p for k in [k_lo, k_lo + n), as a tuple."""
    return tuple(float(c * k + d) ** -p for k in range(k_lo, k_lo + n))


# a pure function of integers: the resonant heads of a verify pass read few
@functools.lru_cache(maxsize=256)
def _weight_sum(c, d, p, k_lo, n):
    """The sum of float(c*k + d)**-p for k in [k_lo, k_lo + n): numpy's
    pairwise sum of each piece of at most _BLOCK weights, and the exact
    fsum of the pieces."""
    pieces = []
    for lo in range(k_lo, k_lo + n, _BLOCK):
        g = np.arange(c * lo + d, c * min(lo + _BLOCK, k_lo + n) + d, c, dtype=np.float64)
        g **= -p
        pieces.append(float(g.sum()))
    return math.fsum(pieces)


def _head_terms(s, k_lo, k_hi):
    """pref*u**k * (c*k + d)**-p for k in [k_lo, k_hi), complex, before
    scale, lazily: pref*u**k_lo and u read from the exact integer turns,
    then the recurrence w *= u."""
    c, d, step, den, pref_num, p, _, _, _ = s
    n = k_hi - k_lo
    u = _unit(step, den)
    t = (k_lo * step + pref_num) % den
    # from k = 1 a k family's pref*u**k_lo is u itself
    w0 = u if t == step else _unit(t, den)
    w = itertools.accumulate(itertools.repeat(u, n - 1), operator.mul, initial=w0)
    return map(operator.mul, w, _weights(c, d, p, k_lo, n))


def _sum(s, k_lo, k_hi):
    """Sum of the terms of s for k in [k_lo, k_hi), by the kernels of the
    module docstring."""
    n = k_hi - k_lo
    if n < _SHORT:
        total = sum(_head_terms(s, k_lo, k_hi))
        return (total.imag if s.sin else total.real) * s.scale
    if n > _CHUNK:
        return math.fsum(_sum(s, lo, min(lo + _CHUNK, k_hi)) for lo in range(k_lo, k_hi, _CHUNK))
    c, d, step, den, pref_num, p, _, _, _ = s
    if not step:
        # a whole-turn phase step: every term's phase is pref's
        unit = _unit(pref_num, den)
        return (unit.imag if s.sin else unit.real) * _weight_sum(c, d, p, k_lo, n) * s.scale
    if n < _TABLE_MIN:
        return float(_terms(s, k_lo, k_hi).sum())
    width = _width(n, p)
    rows, rest = divmod(n, width)
    # the rest terms are a short last row
    k_row = np.arange(rows + (rest > 0), dtype=np.float64) * width + k_lo
    col = np.arange(width, dtype=np.float64)
    d_row = c * k_row + d
    # rows and columns take half of pref each, so that their phases add up
    # to (k*step + pref_num)/den
    angle = _turns(np.concatenate((k_row, col)), 2 * step, 2 * den, pref_num)
    angle *= TWO_PI
    sin, cos = np.sin(angle), np.cos(angle, out=angle)
    n_row = k_row.size
    cols = np.stack((cos[n_row:], sin[n_row:]), axis=1)
    if s.sin:  # sin(A + B) = sin A cos B + cos A sin B
        a, b, combine = sin[:n_row], cos[:n_row], np.add
    else:  # cos(A + B) = cos A cos B - sin A sin B
        a, b, combine = cos[:n_row], sin[:n_row], np.subtract
    parts = np.zeros(n_row)
    # a whole row's weights, before scale, are d_end**-p * (1 - ratio*t_j)**-p
    # with d_end its last denominator, ratio = span/d_end, t_j = (w-1-j)/(w-1)
    span = c * (width - 1)
    d_end = d_row[:rows] + span
    ratio = span / d_end
    reach = _reach(p)
    # from the denominator 2**(1076/p) on every weight rounds to 0.0
    live = int(np.searchsorted(d_row[:rows], 2.0 ** min(1023, 1076 / p))) if p else rows
    near = min(live, int(np.count_nonzero(ratio > reach[-1])))
    per = max(1, _BLOCK // width)  # near rows per block
    for r0 in range(0, near, per):
        r = slice(r0, min(r0 + per, near))
        # the block's denominators, exact integers
        g = np.arange(d_row[r0], d_row[r0] + c * (r.stop - r0) * width, c)
        g **= -p
        x = g.reshape(-1, width) @ cols
        combine(a[r] * x[:, 0], b[r] * x[:, 1], out=parts[r])
    if near < live:
        # far rows: the series of (1 - ratio*t_j)**-p, whose column moments
        # K_m = C(p+m-1, m) * sum_j t_j**m * col_j are taken once, and each
        # block cut after the fewest terms that pass at its first, largest,
        # ratio; row r sums to d_end**-p * sum_m ratio_r**m * K_m
        t = (width - 1.0 - col) / (width - 1)
        moments = (_power_rows(t, np.empty((_SERIES, width))) @ cols).T
        moments *= [1.0] + [float(math.comb(p + m - 1, m)) for m in range(1, _SERIES)]
        per = _BLOCK // _SERIES  # far rows per block
        for r0 in range(near, live, per):
            r = slice(r0, min(r0 + per, live))
            terms = bisect.bisect_left(reach, ratio[r0]) + 1
            xt = moments[:, :terms] @ _power_rows(ratio[r], np.empty((terms, r.stop - r0)))  # X.T
            xt *= d_end[r] ** -p
            combine(a[r] * xt[0], b[r] * xt[1], out=parts[r])
    if rest:
        g = d_row[rows] + c * col[:rest]
        g **= -p
        x = g @ cols[:rest]
        parts[rows] = combine(a[rows] * x[0], b[rows] * x[1])
    return float(parts.sum()) * s.scale


def partial_sum(f, z, n_terms):
    """Sum of the first n_terms terms of the defining series at z.

    k-indexed families count k = 1..n_terms, 2k+1 and modified families
    count k = 0..n_terms-1.
    """
    _require_family(f)
    zf = _finite_z(z)
    check_int(n_terms, "n_terms", 1, _MAX_TERMS)
    s = _series(f, zf)
    return _sum(s, s.k0, s.k0 + n_terms)


def _tail_bound(c, p, n_terms):
    """Integral comparison: past the first n_terms terms, whose
    denominators run from 1 in steps of c, the tail is below the integral
    of (pi*x)**-p from the last denominator on, over c."""
    return float(1 + c * (n_terms - 1)) ** (1 - p) / (c * (p - 1)) * math.pi**-p


def _pairwise_depth(n):
    """At least the most roundings a term meets in numpy's sum of n terms,
    n >= 8: a run of up to 128 terms is added through 8 running sums of
    up to 16 terms, which add as a tree of depth 3, and then one at a time
    the n mod 8 left over, at most 24 roundings; a longer run splits in two
    halves, the first a multiple of 8, each summed alike and then added."""
    return 24 + ((n - 1) // 128).bit_length()


# a pure function of integers, called at few distinct arguments
@functools.lru_cache(maxsize=1024)
def _head_charge(c, p, n):
    """The charge for the rounding of an n-term head of a series with c
    and p, per term and for the kernel that sums it, over the head's sum
    of g(k); see the module docstring.  The denominators start at
    c*k0 + d = 1, so that c*(k0 + n) + d = c*n + 1."""
    scale = math.pi**-p
    if p == 1:
        sum_g = scale * (1.0 + math.log(c * n + 1) / c + 1.0)
    else:
        sum_g = scale * (1.0 + 1.0 / (c * (p - 1)))
    if n < _SHORT:
        kernel = 7 * n
    elif n < _TABLE_MIN:
        kernel = _pairwise_depth(n)
    else:
        # a chunk is at most _CHUNK terms, and fsum adds the chunks
        m = min(n, _CHUNK)
        width = _width(m, p)
        kernel = width + 1 + _pairwise_depth(-(-m // width)) + (n > _CHUNK)
    return (16 + 0.36 * p + kernel) * _U * sum_g + n * 2.0**-1074


def _drift(s, n):
    """D, a bound on how far reading the n terms of s from k0 at the phase
    of the first moves their sum, p >= 2: 2 pi delta times
    sum_{j<n} j*g(k0 + j), bounded in the module docstring, twice over for
    its own rounding."""
    c, p = s.c, s.p
    delta = min(s.step, s.den - s.step) / s.den
    spread = 1.0 + (math.log(c * n + 1) / c if p == 2 else 1.0 / (c * (p - 2)))
    return 4.0 * math.pi * delta * s.scale / c * spread


# a pure function, called at one tol per family and order in a verify pass
@functools.lru_cache(maxsize=1024)
def _plan(c, p, tol):
    """The direct route's z-free numbers at p >= 2, as (need, n, bound):
    need, at least 4, the fewest terms whose _tail_bound is at most tol
    less the largest charge of a head up to the cap, so that tail and
    charge meet tol together whatever n is summed; n = min(need, cap); and
    the report's bound at n.  The charge grows with n within each kernel,
    the pairwise sum's at most 12u*sum g(k), below the short kernel's."""
    cap = _CAP_P2 if p == 2 else _CAP_P3
    charge = max(_head_charge(c, p, _SHORT - 1), _head_charge(c, p, cap))
    # the last denominator
    x = (math.pi**-p / (c * (p - 1) * (tol - charge))) ** (1.0 / (p - 1))
    need = max(4, math.ceil((x - 1.0) / c) + 1)
    n = min(need, cap)
    return need, n, _tail_bound(c, p, n) + _head_charge(c, p, n)


# a pure function, called at one tol per family and order in a verify pass
@functools.lru_cache(maxsize=1024)
def _head_factor(c, p, tol):
    """(a, e) such that the remainder's estimate 2|g^(J)(K)| rho**(J+1)
    is at most tol/2 wherever c*K + d >= a * rho**e, with
    |g^(J)(x)| = (p)_J c**J pi**-p (c*x + d)**-(p+J); in logs, where
    pi**-p may underflow."""
    rising = math.prod(range(p, p + _PARTS))  # (p)_J
    log_a = math.log(4.0 / tol) + math.log(rising) + _PARTS * math.log(c) - p * math.log(math.pi)
    return math.exp(log_a / (p + _PARTS)), (_PARTS + 1) / (p + _PARTS)


def _first_head(s, rho, tol):
    """The tail by parts' first head N at rho = 1/|u - 1|: the fewest
    terms whose remainder's estimate meets tol/2, up to a power of two and
    at least 4.  A c*K + d held below 2**62 keeps N an int at any rho."""
    a, e = _head_factor(s.c, s.p, tol)
    k = math.ceil((min(a * rho**e, 2.0**62) - s.d) / s.c)
    return 1 << (max(4, k - s.k0) - 1).bit_length()


def _ratio(s):
    """(r, rho) of s off resonance: r = -u/(u - 1) and rho = |r| = 1/|u - 1|."""
    # u = exp(i pi t)**2 with t = step/den in (0, 1): |u - 1| = 2|sin(pi t)|
    # and r = -1/2 + i cot(pi t)/2, both of period 1 in t, so read at
    # t - 1 past a half turn, nearer to 0
    e = _cis_pi((s.step if 2 * s.step <= s.den else s.step - s.den) / s.den)
    rho = 0.5 / abs(e.imag)
    return complex(-0.5, e.real * math.copysign(rho, e.imag)), rho


# a pure function of integers, called at few distinct arguments
@functools.lru_cache(maxsize=256)
def _differences(c, d, p, k, count):
    """Delta^j of (c*i + d)**-p at i = k for j < count, each correctly
    rounded, as a tuple: the differences of the numerators over the
    common denominator prod_i (c*(k+i) + d)**p are exact integers."""
    dens = [(c * (k + i) + d) ** p for i in range(count)]
    common = math.prod(dens)
    row = [common // e for e in dens]
    out = []
    for _ in range(count):
        out.append(row[0] / common)  # int / int rounds once
        row = list(map(operator.sub, row[1:], row))
    return tuple(out)


def _by_parts(s, ratio, n, tol, cap, strict):
    """Head of n terms, n the first head at most cap, plus the
    summation-by-parts tail of a p >= 1 series off resonance, with
    ratio = _ratio(s), as an absolute report; see the module docstring.
    When the bound at the last n, at most cap, exceeds tol and strict is
    set, the head is not summed: the report holds that n and bound, and
    the value nan."""
    c, d, step, den, pref_num, p, sin, k0, scale = s
    r, rho = ratio
    while True:
        k = k0 + n
        diffs = _differences(c, d, p, k, _PARTS + 1)
        acc, size = 0j, 0.0
        for dj in reversed(diffs[:_PARTS]):
            acc = acc * r + dj
            size = size * rho + abs(dj)
        # -u**k/(u - 1) = rho * i * exp(i pi (2k - 1) t), times pref: its
        # turns over 4*den
        tail = rho * scale * _unit(2 * (2 * k - 1) * step + den + 4 * pref_num, 4 * den) * acc
        # the remainder after J steps, 2|Delta^J g(k)| |r|**J / |u - 1|;
        # the tail's rounding, charged (p + 16J)u of its terms' sizes where
        # its roundings reach some (110 + p/2)u; and the head's.  The
        # bound's own roundings are a few dozen u of the first two charges,
        # far below the head's
        bound = (
            2.0 * abs(diffs[_PARTS]) * rho ** (_PARTS + 1) * scale
            + (p + 16 * _PARTS) * _U * rho * size * scale
            + _head_charge(c, p, n)
        )
        if bound <= tol or 2 * n > cap:
            break
        n *= 2
    part = tail.imag if sin else tail.real
    # a strict caller is refused the head that cannot meet tol
    head = math.nan if strict and bound > tol else _sum(s, k0, k0 + n)
    return OracleReport(head + part, n, bound, "absolute")


def _binomial_weights(d):
    """C(d, j) / 2**d for j = 0..d, each correctly rounded, read-only."""
    weights, c = np.empty(d + 1), 1
    for j in range(d + 1):
        # float(c) rounds once and the scaling by 2**-d is exact
        weights[j] = math.ldexp(float(c), -d)
        c = c * (d - j) // (j + 1)
    weights.flags.writeable = False
    return weights


# d passes of adjacent averaging, s -> (s[1:] + s[:-1]) / 2, are one
# convolution with the weights C(d, j) / 2**d: one per step of the ladder
_LADDER = tuple(_binomial_weights(b - a) for a, b in zip((0,) + _DEPTHS, _DEPTHS))


def _ladder(series):
    """The series averaged down to each depth of _DEPTHS in turn."""
    for weights in _LADDER:
        series = np.convolve(series, weights, "valid")
        yield series


def _averaged(s, tol):
    """The first report of the ladder over the first _WINDOW partial sums
    whose envelope is at most tol, or else the one with the smallest
    envelope."""
    best = None
    for series in _ladder(np.cumsum(_terms(s, s.k0, s.k0 + _WINDOW))):
        trail = series[-512:]
        value = float(series[-1])
        env = 2.0 * float(np.max(trail) - np.min(trail)) + 1e-13 * (1.0 + abs(value))
        report = OracleReport(value, _WINDOW, env, "averaged-conditional")
        if best is None or env < best.tail_bound:
            best = report
        if env <= tol:
            return report
    return best


def oracle_eval(f, z, tol, strict=True):
    """Brute-force value of the family f at z to tolerance tol.

    Returns an OracleReport whose tail_bound is a rigorous bound in
    absolute mode, at p >= 1, and an empirical oscillation envelope in
    averaged mode, at p = 0; the module docstring gives the routes.
    With strict=True a result whose estimate exceeds tol raises
    ToleranceNotReachedError carrying the best report found; by parts,
    whose bound is known before the head is summed, that report's value
    is nan, and its terms and bound are those at the last N tried.
    """
    tol = float(tol)
    if not math.isfinite(tol) or tol < 1e-10:
        raise DomainError(f"tol must be finite and >= 1e-10, got {tol!r}")
    # families with no value (power-zero alternating combinations) raise
    # here too; the power-zero families that remain, the constant cosine
    # and the two tangent/cotangent forms, average to their Abel values
    zf = _checked_z(f, z)
    s = _series(f, zf)
    cap = _CAP_P2 if s.p == 2 else _CAP_P3 if s.p >= 3 else _MAX_TERMS

    if s.p >= 2:
        need, n, bound = _plan(s.c, s.p, tol)
        # off resonance, by parts where its first head saves _SHORT terms
        # or more; the first head is at least 4 terms
        report = None
        if s.step and need >= 4 + _SHORT:
            ratio = _ratio(s)
            head = _first_head(s, ratio[1], tol)
            if head <= cap and head + _SHORT <= need:
                report = _by_parts(s, ratio, head, tol, cap, strict)
        if report is None:
            # the integral tail of a short head, or near resonance, where
            # partial sums move one way, the sum stopped at the cap with
            # its honest tail; a long head whose phase step is within a
            # charge of a whole turn is read at its first term's phase
            head = s
            if n >= _SHORT:
                drift = _drift(s, n)
                if 0 < drift <= _head_charge(s.c, s.p, n):
                    head = s._replace(step=0, pref_num=(s.k0 * s.step + s.pref_num) % s.den)
                    bound += drift
            report = OracleReport(_sum(head, s.k0, s.k0 + n), n, bound, "absolute")
    elif s.p == 1:
        # step > 0: _checked_z refuses every p = 1 family where u = 1
        ratio = _ratio(s)
        report = _by_parts(s, ratio, min(_first_head(s, ratio[1], tol), cap), tol, cap, strict)
    else:
        report = _averaged(s, tol)
    if report.tail_bound <= tol or not strict:
        return report
    what = "tail bound" if s.p else "averaged envelope"
    where = f"at the {cap}-term cap" if s.p >= 2 else f"after {report.terms_used} terms"
    raise ToleranceNotReachedError(
        f"{what} {report.tail_bound:.3e} exceeds tol {tol:.3e} {where} "
        f"for {f.code} order {f.order}",
        best=report,
        error_estimate=report.tail_bound,
    )


def arbitrate(claim_a, claim_b, f, grid):
    """Score two closed-form candidates for f against the oracle.

    claim_a and claim_b map z to a float.  At every power the oracle is
    asked for 1e-8 and each grid point is compared at
    max(1e-8, tail_bound + 1e-12).  The winner is the candidate that
    passes everywhere when the other does not.
    """
    _require_family(f)
    if not callable(claim_a) or not callable(claim_b):
        raise DomainError("claims must be callables of z")
    points = [float(z) for z in grid]
    if not points:
        raise DomainError("arbitration grid must be non-empty")
    rows = []
    for zf in points:
        report = oracle_eval(f, zf, 1e-8, strict=False)
        tol_here = max(1e-8, report.tail_bound + 1e-12)
        va = float(claim_a(zf))
        vb = float(claim_b(zf))
        da = abs(va - report.value)
        db = abs(vb - report.value)
        rows.append(
            ArbitrationRow(
                zf, va, vb, report.value, da, db, da <= tol_here, db <= tol_here
            )
        )
    a_pass = sum(r.a_ok for r in rows)
    b_pass = sum(r.b_ok for r in rows)
    total = len(rows)
    if a_pass == total and b_pass == total:
        winner = "both"
    elif a_pass == total:
        winner = "a"
    elif b_pass == total:
        winner = "b"
    else:
        winner = "neither"
    return ArbitrationReport(f, tuple(rows), a_pass, b_pass, winner)
