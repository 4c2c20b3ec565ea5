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
k = k_lo + r*w + j with w = min(128, isqrt(n)) and takes sin and cos
once each of the phases of the rows and of the columns, the alternating
sign folded into both.  For each block of at most _BLOCK terms it builds
the weights g(k) = (pi*denom)**-p once, as a matrix G of whole rows, and
by angle addition row r sums to a_r*X_r0 +- c_r*X_r1 with
X = G @ [cos_col, sin_col].  The rows and the n mod w last terms are
added with numpy's pairwise sum.  The tables' fixed cost, some 20 us, is
repaid only from 2000 to 4000 terms on; an absolute-mode point of verify
needs 4 to 1270 terms and builds its terms.

A term's error is held to 16u*g(k) against the exact term at the float
z, where u = 2^-53 and g(k) bounds the term's size.  A block sum adds at
most (w + log2(rows))*u*sum g(k) to its terms' errors: the w products of
a row's dot product, then the pairwise sum of the rows.
tests/test_oracle_kernel.py checks terms and block sums against 40-digit
mpmath, out to k = 1e8.

The averaged mode's ladder of depths 4, 16, 64, 256 and 1024 takes each
step, d passes of adjacent averaging, as one convolution with the
binomial weights C(d, j)/2^d, built once from exact integers.  It agrees
with the passes to 1e-14*(1 + |v|) or better.

A call allocates no array of its n terms.  The largest arrays are the
weights of one block and their offsets, _BLOCK entries each, and the
tables and row sums, n/w entries each: a 10^6-term sum peaks near
0.6 MB, where its terms alone would take 8 MB.  The averaged mode builds
its window of 1600 terms.  Every array a call writes is its own, the
ladder weights are read-only, and the one BLAS call, the product
G @ [cos_col, sin_col], reads only the call's arrays and gives the same
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
    """(pi*denom)**p in place.  Denominators overflowing to inf at very
    high order make the term an exact 0.0, what the true value rounds to."""
    denom *= math.pi
    with np.errstate(over="ignore"):
        denom **= f.power
    return denom


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
    rows = n // width
    k_row = np.arange(rows, dtype=np.float64) * width + k_lo
    col = np.arange(width, dtype=np.float64)
    step = 2.0 if f.index_kind == "2k+1" else 1.0  # denom = step*k + step - 1
    d_row, d_col = step * k_row + (step - 1.0), step * col
    mult = (d_row, d_col) if f.modified == "none" else (k_row, col)
    angle = _turns(np.concatenate(mult), *_phase_split(zf))
    angle *= TWO_PI
    sin, cos = np.sin(angle), np.cos(angle, out=angle)
    if f.alternating:
        # (-1)**k is the sign of the row times the sign of the column
        odd = np.concatenate((k_row, col)) % 2.0 == 1.0
        np.negative(sin, out=sin, where=odd)
        np.negative(cos, out=cos, where=odd)
    cols = np.stack((cos[rows:], sin[rows:]), axis=1)
    if f.trig == "sin":  # sin(a + b) = sin a cos b + cos a sin b
        a, c, combine = sin[:rows], cos[:rows], np.add
    else:  # cos(a + b) = cos a cos b - sin a sin b
        a, c, combine = cos[:rows], sin[:rows], np.subtract
    per = min(rows, _BLOCK // width)  # rows per block
    # denominators of a block less the first one's, exact integers
    span = step * np.arange(per * width, dtype=np.float64)
    weights = np.empty(per * width)
    parts = np.empty(rows + 1)
    for r0 in range(0, rows, per):
        r = slice(r0, min(r0 + per, rows))
        g = weights[: (r.stop - r0) * width]
        np.add(span[: g.size], d_row[r0], out=g)
        np.divide(1.0, _powers(f, g), out=g)
        x = g.reshape(-1, width) @ cols
        combine(a[r] * x[:, 0], c[r] * x[:, 1], out=parts[r])
    parts[rows] = np.sum(_terms(f, zf, k_lo + rows * width, k_hi))
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
