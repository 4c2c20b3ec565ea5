"""Ground truth by direct summation of the defining series.

This module never looks at the closed forms.  Every family is Re or Im
of pref * sum_{k >= k_start} u**k * g(k), with g(k) = (pi*(c*k + d))**-p
and |u| = |pref| = 1.  _series reads that shape in exact integers from
z = m/q, once per oracle_eval or partial_sum call, into a _Series record
that every kernel takes in place of the family: u turns step/den and
pref pref_num/den, with den = 2q, and k_start is k0 = 1 - d.  The k
families have c, d = 1, 0 and the 2k+1 and modified P/Q families
c, d = 2, 1.  u turns z for the k and P/Q families and 2z for the other
2k+1 ones, whose phase (2k+1)z leaves pref turning z; pref is 1
elsewhere.  An alternating family's (-1)**k is half a turn more in u.
So term k is the sine or cosine of 2 pi (k*step + pref_num)/den times
g(k), and the phase advance per term is delta = min(step, den - step)/den
turns from the nearest integer, exactly.  The record's scale = pi**-p,
0.0 where it underflows, is the one place pi**-p is formed: the kernels
raise only the exact integer denominators, (c*k + d)**-p, which cannot
overflow, and multiply by scale once, each term, each short sum or each
block sum.  _sum takes a range of fewer than _SHORT = 24 terms in plain
Python, below; a longer one it splits into chunks, and adds their sums
by exact fsum, so the result is independent of chunk boundaries to well
below 1e-13.

Absolutely convergent families (denominator power p >= 2) are summed
directly, need terms for an integral-comparison tail bound of tol, but
at most the mode cap, 10^6 for p = 2 and 10^4 for p >= 3, whose tail
bound may then exceed tol: within _MONOTONE_DELTA = 1/64 of a whole
turn the partial sums drift one way.  Further off, a need past the cap
takes a head of N terms and the tail past it by summation by parts,
below.  Both report the absolute mode, and both bounds charge the
rounding of the head, _head_charge below, besides the tail: from order
9 on the integral tail of the direct route's 4 or so terms falls below
that rounding.  The direct route asks the integral tail for tol less
the charge of a head at the cap, the largest, so that the two meet tol
together; the charge is some 1e-14 at most, and the tol floor 1e-10.
At p = 1, where the series converges only conditionally, every point
takes the tail by parts, with N up to _MAX_TERMS; delta > 0 there, as
_checked_z refuses each of the twelve p = 1 families where u = 1.
Averaging
serves p = 0 alone: the constant cosine and the tangent and cotangent
forms, which have only Abel values A.  Their partial sums are
S_n = A - pref*u**(n+1)/(1 - u), which oscillate about A with the
amplitude 1/(2 sin(pi delta)) at every n, so a longer sum gains only
rounding.  The averaged mode takes the first _WINDOW = 1600 partial
sums, averages them down a fixed depth ladder, each pass multiplying
the oscillation by |cos(pi delta)|, and reports an envelope, twice the
spread of the trailing averaged sums, as the error estimate, with 1600
terms whether or not it meets tol.

The tail by parts.  From K = k_start + N on, J steps of summation by
parts give, with r = -u/(u - 1),

    T = sum_{j<J} r**j * (-u**K * Delta^j g(K) / (u - 1)) + R,
    |R| <= 2 |Delta^J g(K)| |r|**J / |u - 1|,

since Delta^J g is sign-definite and shrinks monotonically in size;
|r| = 1/|u - 1| = 1/(2 sin(pi delta)).  Delta^j (c*k + d)**-p is exact
in integers over one common denominator, each value rounded once and
then multiplied by scale; u**K and pref come from the shape's exact
integer turns, read through polylog's _sin_pi and _cos_pi.  The bound
adds three charges: R, the tail's rounding, (p + 16J)u of the size of
its terms, and the head's, _head_charge below, over the head's sum of
g(k); at p = 1 that sum diverges, so it is charged anew as N grows.
Delta^J (c*k + d)**-1 is sign-definite and monotone too, so R and the
tail's charge hold at p = 1 as they stand.  J = _PARTS = 12 and
N = min(max(40, ceil(3J/(2 pi delta))), cap), doubled while the bound
exceeds tol, never past the cap, where the bound is reported as it is;
the bound needs no term of the head, so a strict call that the bound
there refuses is refused before the head is summed.
Of the default verify's points, 444 at p >= 2 and 444 at p = 1 take 40
or 58 terms, with bounds up to 2.9e-14 and 4.4e-13; at p >= 2 N starts
at 367 at most, just past _MONOTONE_DELTA, while at p = 1 it grows as
1/delta: 57,295,780 terms at Qp order 0, z = 0.4999999.
_differences is cached: the default verify's 888 points by parts call it
at 8 distinct arguments.

The short kernel, _short_terms, builds each term in plain Python from
the integers: t = (k*step + pref_num) mod den, stepped exactly, taken in
[-den/2, den/2], the angle 2 pi * (t/den) with t/den rounded once, its
sine or cosine times float(c*k + d)**-p.  math.fsum adds the terms, and
the sum is multiplied by scale.  Numpy costs some 7.5 us a call whatever
its length, so below _SHORT terms the plain loop, some 0.3 us a term,
is faster; measured (2 vCPU, Python 3.11.7, numpy 2.4.6) at 8 terms
2.9 us against 7.7 us, and the two break even at 26 terms for z = 0.3
(den = 2^55), 34 for bS at 0.3, and 58 for z = 0.5 (den = 4), where the
integers are short.  1476 of the default verify's 2460 direct points
sum fewer than _SHORT terms, 1312 of them 8 or fewer.

The numpy kernels split step/den, from the integers, into a 25-bit
head, a 25-bit middle and a rest rounded once, and pref_num/den the same
way, so that term k's phase mod 1 rounds only in its last step for every
k below 2^27, which covers every k up to _MAX_TERMS.  Each angle is then
taken in [-pi, pi], give or take 2^-20.

Each chunk holds at most _CHUNK terms.  A chunk of fewer than
_TABLE_MIN = 4096 terms builds its terms, each with its own phase and
sine or cosine times denom**-p and scale, and adds them with numpy's
pairwise sum.  A longer chunk of n terms never builds them.  It writes
k = k_lo + r*w + j with w = min(128, isqrt(n)), the n mod w last terms
a short last row, and takes sin and cos once each of the phases of the
rows, (k_row*step + pref_num/2)/den, and of the columns,
(j*step + pref_num/2)/den, each taking half of pref.  By angle addition
row r sums to a_r*X_r0 +- b_r*X_r1, where X_r is the sum over the row
of denom**-p*[cos_col, sin_col], and the sum of the rows is scaled once.

Row r's weights are e**-p * (1 - x*t_j)**-p, with e the row's last
denominator, x = c*(w-1)/e and t_j = (w-1-j)/(w-1) in [0, 1].
The near rows, the first ones, where x is above _far_reach(p), and the
short last row build their weights, at most _BLOCK at a time, and
X = G @ [cos_col, sin_col].  A far row takes the binomial series of
(1 - x*t)**-p cut after M = _SERIES = 14 terms,
X_r = e**-p * sum_m x**m * K_m, from the column moments
K_m = C(p+m-1, m) * sum_j t_j**m * [cos_col, sin_col], taken once per
chunk.  The series' terms are all positive and fall at
least by the factor (p+M)/(M+1)*x from m = M on, so the cut drops at
most C(p+M-1, M)*x**M / (1 - (p+M)/(M+1)*x) of a sum of at least 1;
_far_reach solves for the x where that is u/8, once per chunk from p.
From k = 1, row r has x near 1/(r+1): 19 near rows at p = 2, 125 at
p = 41 and 337 at p = 121, so a sum of 10^6 terms at p = 2 builds
2,500 of its weights.  A far row costs M products instead of w
weights, the moments M*w per chunk.  The tables' fixed cost, some
20 us, is repaid only from 2000 to 4000 terms on; an absolute-mode
point of verify needs 4 to 1270 terms, and those of _SHORT terms or
more build their terms.

A term's error is held to (16 + 0.36p)u*g(k) against the exact term at
the float z, plus 2^-1074 where it is subnormal, where u = 2^-53 and
g(k) bounds the term's size: float pi**-p carries p times float pi's
0.351u, most of the 42u measured at p = 121; a short term, the exact
product of its float and scale, is within (4 + 0.36p)u, measured over
every code at orders up to 120.  A block sum adds at most
(w + log2(rows))*u*sum g(k) to its terms' errors: the w products of a
row's dot product, then the pairwise sum of the rows.  A far row's
weights are e**-p times a sum of positive terms, so its products and
sums round as a dot product with its exact weights would, give or
take the 2M or so roundings of the series' terms past the first, whose
sum, (1 - x)**-p - 1, is below half the first at the cut; the cut adds
u/8*g(k) per term.

_head_charge, the charge for a head of n terms in both routes' bounds,
is the per-term error over sum g(k), plus 2^-1074 a term, and what the
kernel that summed the head adds: 2u*sum g(k) below _SHORT terms, for
the fsum's one rounding and the product by scale; ceil(log2(n))u*sum
g(k) for the pairwise sum; and 129u*sum g(k) more for a block sum, with
w <= 128 and one more for the product by scale.  At p >= 2 sum g(k)
runs from k_start on, at most scale*(1 + 1/(c(p - 1))); at p = 1 it is
the head's own, at most scale*(1/(c*k0 + d) + ln(c*K + d)/c + 1) with
K = k0 + n, as c*k0 + d = 1.
tests/test_oracle_kernel.py checks terms, short sums and block sums
against 40-digit mpmath, out to k = 1e8 and to order 120.

The averaged mode's ladder of depths 4, 16, 64, 256 and 1024 takes each
step, d passes of adjacent averaging, as one convolution with the
binomial weights C(d, j)/2^d, built once from exact integers.  It agrees
with the passes to 1e-14*(1 + |v|) or better.

A call allocates no array of its n terms, but for the short kernel's
list of fewer than _SHORT.  The largest arrays are the weights of a
block of near rows and their offsets, the powers x**m of a
block of far rows, _BLOCK entries each, and the tables and row sums,
n/w entries each: a 10^6-term sum peaks near 0.7 MB, where its terms
alone would take 8 MB.  The averaged mode builds its 1600 terms and
their partial sums and takes no block sum.  Every array a call writes
is its own, the ladder weights are read-only, and the BLAS calls, the
products G @ [cos_col, sin_col], the moments and K @ [x**m], read only
the call's arrays and give the same digits on one BLAS thread as on
several.  So a library caller may run
oracle_eval on several threads at once: the one thing the calls share
and write is the lru_cache of _differences, which is safe under threads
and holds immutable tuples.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceNotReachedError, check_int
from .polylog import _cos_pi, _sin_pi
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
_SHORT = 24
_BLOCK = 1 << 14
_TABLE_MIN = 4096
_SERIES = 14
_U = 2.0**-53
_MAX_TERMS = 100_000_000
_CAP_P2 = 1_000_000
_CAP_P3 = 10_000
_DEPTHS = (4, 16, 64, 256, 1024)
_WINDOW = 1600
# phase step this close to resonance counts as monotone rather than oscillatory
_MONOTONE_DELTA = 1.0 / 64.0
# J: steps of summation by parts in the tail at p = 1, and at p >= 2 past
# the absolute cap
_PARTS = 12


@dataclass(frozen=True)
class OracleReport:
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


def _far_reach(p):
    """An x, within 1% of the largest, at which the first _SERIES terms of
    the binomial series of (1 - x)**-p fall short of it by at most u/8
    relative, and so on all of [0, x].

    The terms C(p+m-1, m)*x**m are positive and, from m = M = _SERIES on,
    shrink at least by the factor (p+M)/(M+1)*x, so the remainder is at
    most C(p+M-1, M)*x**M / (1 - (p+M)/(M+1)*x), and the sum is at least 1.
    """
    m = _SERIES
    lead = math.comb(p + m - 1, m)
    if lead == 0:  # p = 0: the series is the constant 1
        return 1.0
    x = (_U / 8.0 / lead) ** (1.0 / m)
    while lead * x**m > _U / 8.0 * (1.0 - (p + m) / (m + 1) * x):
        x *= 0.99
    return x


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


def _short_terms(s, k_lo, k_hi):
    """Terms of s for k in [k_lo, k_hi) as a list, before scale: sin or cos
    of 2*pi*t/den times (c*k + d)**-p, where t = (k*step + pref_num) mod den,
    stepped exactly in integers, is taken in [-den/2, den/2] and t/den
    rounds once."""
    c, d, step, den, pref_num, p, sin, _, _ = s
    trig = math.sin if sin else math.cos
    half = den >> 1
    t = (k_lo * step + pref_num) % den
    terms = []
    for k in range(k_lo, k_hi):
        angle = TWO_PI * ((t - den if t > half else t) / den)
        terms.append(trig(angle) * float(c * k + d) ** -p)
        t += step
        if t >= den:
            t -= den
    return terms


def _sum(s, k_lo, k_hi):
    """Sum of the terms of s for k in [k_lo, k_hi).  Below _SHORT terms
    the exact fsum of _short_terms, times scale, with no numpy call; from
    there on one sum for each _CHUNK terms from k_lo on, exact fsum across
    them.  A chunk takes the pairwise sum of its terms below _TABLE_MIN of
    them, from there on the block sum of the module docstring, which never
    builds them."""
    n = k_hi - k_lo
    if n < _SHORT:
        return math.fsum(_short_terms(s, k_lo, k_hi)) * s.scale
    if n > _CHUNK:
        return math.fsum(_sum(s, lo, min(lo + _CHUNK, k_hi)) for lo in range(k_lo, k_hi, _CHUNK))
    if n < _TABLE_MIN:
        return float(np.sum(_terms(s, k_lo, k_hi)))
    width = min(128, math.isqrt(n))
    rows, rest = divmod(n, width)
    # the rest terms are a short last row
    k_row = np.arange(rows + (rest > 0), dtype=np.float64) * width + k_lo
    col = np.arange(width, dtype=np.float64)
    c, d, step, den, pref_num, p, _, _, _ = s
    d_row, d_col = c * k_row + d, c * col
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
    parts = np.empty(n_row)
    # a whole row's weights, before scale, are d_end**-p * (1 - ratio*t_j)**-p
    # with d_end its last denominator, ratio = span/d_end, t_j = (w-1-j)/(w-1)
    span = c * (width - 1)
    d_end = d_row[:rows] + span
    ratio = span / d_end
    near = int(np.count_nonzero(ratio > _far_reach(p)))
    per = max(1, min(near, _BLOCK // width))  # near rows per block
    # denominators of a block less the first one's, exact integers
    offsets = c * np.arange(per * width, dtype=np.float64)
    weights = np.empty(per * width)
    for r0 in range(0, near, per):
        r = slice(r0, min(r0 + per, near))
        g = weights[: (r.stop - r0) * width]
        np.add(offsets[: g.size], d_row[r0], out=g)
        g **= -p
        x = g.reshape(-1, width) @ cols
        combine(a[r] * x[:, 0], b[r] * x[:, 1], out=parts[r])
    if near < rows:
        # far rows: the series of (1 - ratio*t_j)**-p cut after `terms`
        # terms; its column moments K_m = C(p+m-1, m) * sum_j t_j**m * col_j
        # are taken once, and row r sums to
        # d_end**-p * sum_m ratio_r**m * K_m
        terms = _SERIES if p else 1
        t = (width - 1.0 - col) / (width - 1)
        moments = (_power_rows(t, np.empty((terms, width))) @ cols).T
        moments *= [1.0] + [float(math.comb(p + m - 1, m)) for m in range(1, terms)]
        per = max(1, _BLOCK // terms)  # far rows per block
        powers = np.empty((terms, min(per, rows - near)))
        for r0 in range(near, rows, per):
            r = slice(r0, min(r0 + per, rows))
            xt = moments @ _power_rows(ratio[r], powers[:, : r.stop - r0])  # X.T
            xt *= d_end[r] ** -p
            combine(a[r] * xt[0], b[r] * xt[1], out=parts[r])
    if rest:
        g = d_row[rows] + d_col[:rest]
        g **= -p
        x = g @ cols[:rest]
        parts[rows] = combine(a[rows] * x[0], b[rows] * x[1])
    return float(np.sum(parts)) * s.scale


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


def _tail_bound(s, n_terms):
    """Integral comparison: past the first n_terms terms, whose
    denominators run from 1 in steps of c, the tail is below the integral
    of (pi*x)**-p from the last denominator on, over c."""
    c, p = s.c, s.p
    return float(1 + c * (n_terms - 1)) ** (1 - p) / (c * (p - 1)) * s.scale


def _head_charge(s, n):
    """The charge for the rounding of the head _sum(s, k0, k0 + n), per
    term and for the kernel that sums it, over the head's sum of g(k); see
    the module docstring."""
    c, d, _, _, _, p, _, k0, scale = s
    if p == 1:
        sum_g = scale * (1.0 / (c * k0 + d) + math.log(c * (k0 + n) + d) / c + 1.0)
    else:
        sum_g = scale * (1.0 + 1.0 / (c * (p - 1)))
    # (n - 1).bit_length() is ceil(log2(n))
    kernel = 2 if n < _SHORT else (n - 1).bit_length() + (129 if n >= _TABLE_MIN else 0)
    return (16 + 0.36 * p + kernel) * _U * sum_g + n * 2.0**-1074


def _n_for_tol(s, tol):
    """The fewest terms whose _tail_bound is at most tol, at least 4."""
    c, p = s.c, s.p
    x = (s.scale / (c * (p - 1) * tol)) ** (1.0 / (p - 1))  # the last denominator
    return max(4, math.ceil((x - 1.0) / c) + 1)


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


def _by_parts(s, tol, cap, strict):
    """Head of n terms plus the summation-by-parts tail of a p >= 1 series
    off resonance, as an absolute report; see the module docstring.  When
    the bound at the last n, at most cap, exceeds tol and strict is set,
    the head is not summed: the report holds that n and bound, and the
    value nan."""
    c, d, step, den, pref_num, p, sin, k0, scale = s
    # u = exp(i pi t)**2 with t = step/den in (0, 1): |u - 1| = 2 sin(pi t),
    # read at the turns nearer to 0 or 1, and r = -u/(u - 1) = -1/2 +
    # i cot(pi t)/2
    delta = min(step, den - step) / den
    rho = 0.5 / _sin_pi(delta)  # |r| = 1/|u - 1|
    r = complex(-0.5, _cos_pi(step / den) * rho)
    n = min(max(40, math.ceil(3 * _PARTS / (TWO_PI * delta))), cap)
    while True:
        k = k0 + n
        diffs = _differences(c, d, p, k, _PARTS + 1)
        acc, size = 0j, 0.0
        for dj in reversed(diffs[:_PARTS]):
            acc = acc * r + dj
            size = size * rho + abs(dj)
        # -u**k/(u - 1) = rho * i * exp(i pi (2k - 1) t), times pref: its
        # turns, over 4*den, reduced exactly and rounded once in half turns
        turns = (2 * (2 * k - 1) * step + den + 4 * pref_num) % (4 * den)
        angle = turns / (2 * den)
        tail = rho * scale * complex(_cos_pi(angle), _sin_pi(angle)) * acc
        # the remainder after J steps, 2|Delta^J g(k)| |r|**J / |u - 1|;
        # the tail's rounding, charged (p + 16J)u of its terms' sizes where
        # its roundings reach some (110 + p/2)u; and the head's.  The
        # bound's own roundings are a few dozen u of the first two charges,
        # far below the head's
        bound = (
            2.0 * abs(diffs[_PARTS]) * rho ** (_PARTS + 1) * scale
            + (p + 16 * _PARTS) * _U * rho * size * scale
            + _head_charge(s, n)
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

    Returns an OracleReport whose tail_bound is a rigorous tail estimate
    in absolute mode and an empirical oscillation envelope in averaged
    mode.  At p >= 2 the mode is absolute: the sum of the terms its
    integral tail needs, stopped at the cap within _MONOTONE_DELTA of
    resonance, with that tail and the head's rounding as bound; further
    off, a need past the cap takes a head of
    N = max(40, ceil(3J/(2 pi delta))) terms and the tail by J = 12 steps
    of summation by parts, whose bound holds the remainder and the
    roundings of the tail and head (module docstring).
    At p = 1 every point takes the tail by parts, its head at most
    _MAX_TERMS terms.  Only p = 0 averages, over the first 1600 partial
    sums, the terms it reports whether or not its envelope meets tol.
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
        # the tail aims at tol less the head's charge, largest at the cap,
        # so that the two meet tol together
        need = _n_for_tol(s, tol - _head_charge(s, cap))
        if need > cap and min(s.step, s.den - s.step) / s.den > _MONOTONE_DELTA:
            report = _by_parts(s, tol, cap, strict)
        else:
            # the integral tail, or near resonance, where partial sums move
            # one way, the sum stopped at the cap with its honest tail
            n = min(need, cap)
            bound = _tail_bound(s, n) + _head_charge(s, n)
            report = OracleReport(_sum(s, s.k0, s.k0 + n), n, bound, "absolute")
    elif s.p == 1:
        # delta > 0: _checked_z refuses every p = 1 family where u = 1
        report = _by_parts(s, tol, cap, strict)
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
