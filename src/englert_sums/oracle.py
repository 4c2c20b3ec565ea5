"""Ground truth by direct summation of the defining series.

This module never looks at the closed forms.  Terms are generated
straight from the family definition and summed in chunks, see below,
with exact fsum across chunks, so the result is independent of chunk
boundaries to well below 1e-13.

Absolutely convergent families (denominator power p >= 2) are summed to
an integral-comparison tail bound when the required term count fits the
mode cap, 10^6 for p = 2 and 10^4 for p >= 3.  When it does not, and at
p <= 1 where the series is only conditionally convergent, the engine
switches on the oscillation structure of the partial sums: the phase
advance per term, delta turns away from the nearest integer, controls
both whether plain partial sums drift (delta near 0, the monotone case,
summed at the cap with the honest integral tail) and how fast repeated
adjacent averaging damps the oscillation (each pass multiplies the
non-decaying mode by |cos(pi delta)|).  The averaged mode keeps a window
of trailing partial sums, averages it down a fixed depth ladder, and
reports an envelope, twice the spread of the trailing averaged window,
as the error estimate.

Phase arithmetic splits frac(z) into a 25-bit head, a 25-bit middle and
a small tail, so that mult*frac(z) mod 1 rounds only in its last step for
every mult below 7*2^25, which covers 2k+1 for every k up to _MAX_TERMS.
Each angle is then taken in [-pi, pi], give or take 2^-19.

Each chunk holds at most _CHUNK terms.  A chunk of fewer than
_TABLE_MIN = 4096 terms builds its terms, each with its own phase and
sine or cosine divided by (pi*denom)**p, and adds them with numpy's
pairwise sum.  A longer chunk of n terms never builds them.  It writes
k = k_lo + r*w + j with w = min(128, isqrt(n)), the n mod w last terms
a short last row, and takes sin and cos once each of the phases of the
rows and of the columns, the alternating sign folded into both.  By
angle addition row r sums to a_r*X_r0 +- c_r*X_r1, where X_r is the sum
over the row of g(k)*[cos_col, sin_col] and g(k) = (pi*denom)**-p.

Row r's weights are g = (pi*e)**-p * (1 - x*t_j)**-p, with e the row's
last denominator, x = s*(w-1)/e for the denominator step s (1, or 2 for
2k+1) and t_j = (w-1-j)/(w-1) in [0, 1].  The near rows, the first ones,
where x is above _far_reach(p), and the short last row build their
weights, at most _BLOCK at a time, and X = G @ [cos_col, sin_col].  A
far row takes the binomial series of (1 - x*t)**-p cut after
M = _SERIES = 14 terms, X_r = (pi*e)**-p * sum_m x**m * K_m, from the
column moments K_m = C(p+m-1, m) * sum_j t_j**m * [cos_col, sin_col],
taken once per chunk.  The series' terms are all positive and fall at
least by the factor (p+M)/(M+1)*x from m = M on, so the cut drops at
most C(p+M-1, M)*x**M / (1 - (p+M)/(M+1)*x) of a sum of at least 1;
_far_reach solves for the x where that is u/8, once per chunk from p.
From k = 1, row r has x near 1/(r+1): 19 near rows at p = 2, 125 at
p = 41 and 337 at p = 121, so a 20,000-term sum at order 60 builds all
its weights, while one of 10^6 terms at p = 2 builds 2,500 of them.  A
far row costs M products instead of w weights, the moments M*w per
chunk.  The tables' fixed cost, some 20 us, is repaid only from 2000
to 4000 terms on; an absolute-mode point of verify needs 4 to 1270
terms and builds its terms.

A term's error is held to 16u*g(k) against the exact term at the float
z, where u = 2^-53 and g(k) bounds the term's size.  A block sum adds at
most (w + log2(rows))*u*sum g(k) to its terms' errors: the w products of
a row's dot product, then the pairwise sum of the rows.  A far row's
weights are (pi*e)**-p times a sum of positive terms, so its products
and sums round as a dot product with its exact weights would, give or
take the 2M or so roundings of the series' terms past the first, whose
sum, (1 - x)**-p - 1, is below half the first at the cut; the cut adds
u/8*g(k) per term.
tests/test_oracle_kernel.py checks terms and block sums against 40-digit
mpmath, out to k = 1e8 and to order 60.

The averaged mode's ladder of depths 4, 16, 64, 256 and 1024 takes each
step, d passes of adjacent averaging, as one convolution with the
binomial weights C(d, j)/2^d, built once from exact integers.  It agrees
with the passes to 1e-14*(1 + |v|) or better.

A call allocates no array of its n terms.  The largest arrays are the
weights of a block of near rows and their offsets, the powers x**m of a
block of far rows, _BLOCK entries each, and the tables and row sums,
n/w entries each: a 10^6-term sum peaks near 0.7 MB, where its terms
alone would take 8 MB.  The averaged mode builds its window of 1600
terms.  Every array a call writes is its own, the ladder weights are
read-only, and the BLAS calls, the products G @ [cos_col, sin_col], the
moments and K @ [x**m], read only the call's arrays and give the same
digits on one BLAS thread as on several.  So a library caller may run
oracle_eval on several threads at once: the calls share nothing they
write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bracket import frac
from .errors import DomainError, ToleranceNotReachedError, check_int
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
_BLOCK = 1 << 14
_TABLE_MIN = 4096
_SERIES = 14
_U = 2.0**-53
_MAX_TERMS = 100_000_000
_CAP_P2 = 1_000_000
_CAP_P3 = 10_000
_STAGES = (20_000, 80_000, 320_000, 1_280_000, 5_120_000, 10_000_000)
_DEPTHS = (4, 16, 64, 256, 1024)
_WINDOW = 1600
# phase step this close to resonance counts as monotone rather than oscillatory
_MONOTONE_DELTA = 1.0 / 64.0


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


def _phase_split(zf):
    """frac(z) as head + mid + low: head a multiple of 2**-25 and mid one
    of 2**-50 below 2**-25, so that mult*head and mult*mid are exact for
    every mult below 2**28."""
    fz = frac(zf)
    head = math.floor(fz * 2.0**25) / 2.0**25
    mid = math.floor((fz - head) * 2.0**50) / 2.0**50
    return head, mid, fz - head - mid


def _turns(mult, head, mid, low):
    """The phase mult*frac(z) in turns, for mult >= 0, moved to
    [-1/2, 1/2] before its last and only rounding step adds mult*low,
    which is below 2**-22.

    x - floor(x) and x - rint(x) are exact, and for mult below 7*2**25,
    which every 2k+1 below 2*_MAX_TERMS is, frac(mult*head) + mult*mid is
    a multiple of 2**-50 below 8 and so exact.  An angle of at most pi in
    size rounds with half the error of one up to 2 pi.
    """
    turns = mult * head
    turns -= np.floor(turns)
    turns += mult * mid
    turns -= np.rint(turns)
    turns += mult * low
    return turns


def _powers(f, denom):
    """(pi*denom)**p in place, for ascending denominators.  A power can
    overflow only where p*log2(pi*denom[-1]) reaches 1023; there the
    denominators that overflow to inf make the term an exact 0.0, what the
    true value rounds to."""
    p = f.power
    denom *= math.pi
    if p * math.log2(denom[-1]) < 1023.0:
        denom **= p
    else:
        with np.errstate(over="ignore"):
            denom **= p
    return denom


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


def _terms(f, zf, k_lo, k_hi):
    """Terms for index k in [k_lo, k_hi) as a float64 array: sin or cos of
    2*pi*mult*frac(z), the alternating sign, divided by (pi*denom)**p."""
    k = np.arange(k_lo, k_hi, dtype=np.float64)
    denom = 2.0 * k + 1.0 if f.index_kind == "2k+1" else k
    vals = _turns(denom if f.modified == "none" else k, *_phase_split(zf))
    vals *= TWO_PI
    (np.sin if f.trig == "sin" else np.cos)(vals, out=vals)
    if f.alternating:
        odd = vals[(k_lo + 1) % 2 :: 2]
        np.negative(odd, out=odd)
    vals /= _powers(f, denom)
    return vals


def _sum(f, zf, k_lo, k_hi):
    """Sum of the terms for k in [k_lo, k_hi): the pairwise sum of the
    terms below _TABLE_MIN of them, from there on the block sum of the
    module docstring, which never builds them."""
    n = k_hi - k_lo
    if n < _TABLE_MIN:
        return float(np.sum(_terms(f, zf, k_lo, k_hi)))
    width = min(128, math.isqrt(n))
    rows, rest = divmod(n, width)
    # the rest terms are a short last row
    k_row = np.arange(rows + (rest > 0), dtype=np.float64) * width + k_lo
    col = np.arange(width, dtype=np.float64)
    step = 2.0 if f.index_kind == "2k+1" else 1.0  # denom = step*k + step - 1
    d_row, d_col = step * k_row + (step - 1.0), step * col
    mult = (d_row, d_col) if f.modified == "none" else (k_row, col)
    angle = _turns(np.concatenate(mult), *_phase_split(zf))
    angle *= TWO_PI
    sin, cos = np.sin(angle), np.cos(angle, out=angle)
    n_row = k_row.size
    if f.alternating:
        # (-1)**k is the sign of the row times the sign of the column: the
        # odd columns, and the rows where k_lo + r*w is odd
        if width % 2:
            odd_rows = slice((k_lo + 1) % 2, n_row, 2)
        else:
            odd_rows = slice(n_row if k_lo % 2 else 0)
        for table in (sin, cos):
            for odd in (table[n_row + 1 :: 2], table[odd_rows]):
                np.negative(odd, out=odd)
    cols = np.stack((cos[n_row:], sin[n_row:]), axis=1)
    if f.trig == "sin":  # sin(a + b) = sin a cos b + cos a sin b
        a, c, combine = sin[:n_row], cos[:n_row], np.add
    else:  # cos(a + b) = cos a cos b - sin a sin b
        a, c, combine = cos[:n_row], sin[:n_row], np.subtract
    parts = np.empty(n_row)
    # a whole row's weights are (pi*d_end)**-p * (1 - ratio*t_j)**-p with
    # d_end its last denominator, ratio = span/d_end, t_j = (w-1-j)/(w-1)
    span = step * (width - 1)
    d_end = d_row[:rows] + span
    ratio = span / d_end
    near = int(np.count_nonzero(ratio > _far_reach(f.power)))
    per = max(1, min(near, _BLOCK // width))  # near rows per block
    # denominators of a block less the first one's, exact integers
    offsets = step * np.arange(per * width, dtype=np.float64)
    weights = np.empty(per * width)
    for r0 in range(0, near, per):
        r = slice(r0, min(r0 + per, near))
        g = weights[: (r.stop - r0) * width]
        np.add(offsets[: g.size], d_row[r0], out=g)
        np.divide(1.0, _powers(f, g), out=g)
        x = g.reshape(-1, width) @ cols
        combine(a[r] * x[:, 0], c[r] * x[:, 1], out=parts[r])
    if near < rows:
        # far rows: the series of (1 - ratio*t_j)**-p cut after `terms`
        # terms; its column moments K_m = C(p+m-1, m) * sum_j t_j**m * col_j
        # are taken once, and row r sums to
        # (pi*d_end)**-p * sum_m ratio_r**m * K_m
        terms = _SERIES if f.power else 1
        t = (width - 1.0 - col) / (width - 1)
        moments = (_power_rows(t, np.empty((terms, width))) @ cols).T
        moments *= [1.0] + [float(math.comb(f.power + m - 1, m)) for m in range(1, terms)]
        per = max(1, _BLOCK // terms)  # far rows per block
        powers = np.empty((terms, min(per, rows - near)))
        for r0 in range(near, rows, per):
            r = slice(r0, min(r0 + per, rows))
            xt = moments @ _power_rows(ratio[r], powers[:, : r.stop - r0])  # X.T
            xt /= _powers(f, d_end[r])
            combine(a[r] * xt[0], c[r] * xt[1], out=parts[r])
    if rest:
        g = d_row[rows] + d_col[:rest]
        np.divide(1.0, _powers(f, g), out=g)
        x = g @ cols[:rest]
        parts[rows] = combine(a[rows] * x[0], c[rows] * x[1])
    return float(np.sum(parts))


def _chunked_sum(f, zf, k_lo, k_hi):
    """Sum of the terms for k in [k_lo, k_hi): one _sum for each _CHUNK
    terms from k_lo on, exact fsum across them."""
    return math.fsum(
        _sum(f, zf, lo, min(lo + _CHUNK, k_hi)) for lo in range(k_lo, k_hi, _CHUNK)
    )


def partial_sum(f, z, n_terms):
    """Sum of the first n_terms terms of the defining series at z.

    k-indexed families count k = 1..n_terms, 2k+1 and modified families
    count k = 0..n_terms-1.
    """
    _require_family(f)
    zf = _finite_z(z)
    check_int(n_terms, "n_terms", 1, _MAX_TERMS)
    return _chunked_sum(f, zf, f.k_start, f.k_start + n_terms)


def _tail_bound(f, n_terms):
    # integral comparison; odd-index sums take half the integral with the
    # lower limit pulled back one spacing
    p = f.power
    if f.index_kind == "2k+1":
        return (2.0 * n_terms - 1.0) ** (1 - p) / (2.0 * (p - 1) * math.pi**p)
    return float(n_terms) ** (1 - p) / ((p - 1) * math.pi**p)


def _n_for_tol(f, tol):
    p = f.power
    scale = (p - 1) * math.pi**p * tol
    if not math.isfinite(scale) or scale <= 0.0:
        return 4
    if f.index_kind == "2k+1":
        x = (1.0 / (2.0 * scale)) ** (1.0 / (p - 1))
        return max(4, math.ceil((x + 1.0) / 2.0))
    return max(4, math.ceil((1.0 / scale) ** (1.0 / (p - 1))))


def _osc_distance(f, zf):
    """Distance of the per-term phase step from the nearest whole turn."""
    fz = frac(zf)
    if f.index_kind == "2k+1" and f.modified == "none":
        u = frac(2.0 * fz)
    else:
        u = fz
    if f.alternating:
        u = frac(u + 0.5)
    return min(u, 1.0 - u)


def _window_sums(f, zf, n_terms, width):
    """Trailing `width` partial sums S_{n_terms-width+1} .. S_{n_terms}."""
    start = f.k_start
    w = min(width, n_terms)
    base_count = n_terms - w
    base = _chunked_sum(f, zf, start, start + base_count)
    window = _terms(f, zf, start + base_count, start + n_terms)
    return base + np.cumsum(window)


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


def _averaged(f, zf, tol):
    best = None
    for n_terms in _STAGES:
        for series in _ladder(_window_sums(f, zf, n_terms, _WINDOW)):
            trail = series[-min(512, series.size):]
            value = float(series[-1])
            env = 2.0 * float(np.max(trail) - np.min(trail)) + 1e-13 * (
                1.0 + abs(value)
            )
            report = OracleReport(value, n_terms, env, "averaged-conditional")
            if best is None or env < best.tail_bound:
                best = report
            if env <= tol:
                return report, True
    return best, False


def oracle_eval(f, z, tol, strict=True):
    """Brute-force value of the family f at z to tolerance tol.

    Returns an OracleReport whose tail_bound is a rigorous tail estimate
    in absolute mode and an empirical oscillation envelope in averaged
    mode.  With strict=True a result whose estimate exceeds tol raises
    ToleranceNotReachedError carrying the best report found.
    """
    tol = float(tol)
    if not math.isfinite(tol) or tol < 1e-10:
        raise DomainError(f"tol must be finite and >= 1e-10, got {tol!r}")
    # families with no value (power-zero alternating combinations) raise
    # here too; the power-zero families that remain, the constant cosine
    # and the two tangent/cotangent forms, average to their Abel values
    zf = _checked_z(f, z)
    p = f.power

    if p >= 2:
        cap = _CAP_P2 if p == 2 else _CAP_P3
        need = _n_for_tol(f, tol)
        if need <= cap:
            value = partial_sum(f, zf, need)
            return OracleReport(value, need, _tail_bound(f, need), "absolute")
        if _osc_distance(f, zf) <= _MONOTONE_DELTA:
            # phase near resonance: partial sums move one way, averaging
            # cannot help, so report the capped absolute sum honestly
            value = partial_sum(f, zf, cap)
            report = OracleReport(value, cap, _tail_bound(f, cap), "absolute")
            if report.tail_bound <= tol:
                return report
            if strict:
                raise ToleranceNotReachedError(
                    f"tail bound {report.tail_bound:.3e} exceeds tol {tol:.3e} "
                    f"at the {cap}-term cap for {f.code} order {f.order}",
                    best=report,
                    error_estimate=report.tail_bound,
                )
            return report

    report, converged = _averaged(f, zf, tol)
    if converged:
        return report
    if strict:
        raise ToleranceNotReachedError(
            f"averaged envelope {report.tail_bound:.3e} exceeds tol {tol:.3e} "
            f"after {report.terms_used} terms for {f.code} order {f.order}",
            best=report,
            error_estimate=report.tail_bound,
        )
    return report


def _point_tols(f, tol):
    """(oracle tol, base tol) of a verify or arbitration point: tol, or at
    least 1e-6 and 1e-5 where power <= 1 and the series converges only
    conditionally."""
    if f.power >= 2:
        return tol, tol
    return max(tol, 1e-6), max(tol, 1e-5)


def arbitrate(claim_a, claim_b, f, grid):
    """Score two closed-form candidates for f against the oracle.

    claim_a and claim_b map z to a float.  Each grid point is compared
    at max(base, tail_bound) where base is 1e-8 for absolutely
    convergent families and 1e-5 otherwise.  The winner is the candidate
    that passes everywhere when the other does not.
    """
    _require_family(f)
    if not callable(claim_a) or not callable(claim_b):
        raise DomainError("claims must be callables of z")
    points = [float(z) for z in grid]
    if not points:
        raise DomainError("arbitration grid must be non-empty")
    oracle_tol, base = _point_tols(f, 1e-8)
    rows = []
    for zf in points:
        report = oracle_eval(f, zf, oracle_tol, strict=False)
        tol_here = max(base, report.tail_bound + 1e-12)
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
