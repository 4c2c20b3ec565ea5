"""Ground truth by direct summation of the defining series.

This module never looks at the closed forms.  Terms are generated
straight from the family definition and accumulated with pairwise
summation inside chunks plus exact fsum across chunks, so the result is
independent of chunk boundaries to well below 1e-13.

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

Phase arithmetic splits frac(z) into a 26-bit head and a small tail so
that k*frac(z) mod 1 is computed without catastrophic rounding out to
k around 3e7.

Two kernels compute the terms, chosen by how many are asked for.  Below
_TABLE_MIN = 4096 terms each term takes its own phase and its own sine
or cosine: frac as x - floor(x), which equals x % 1.0 for x >= 0, times
2 pi.  From 4096 terms on, k is written k_lo + r*w + j with
w = min(128, isqrt(n)), and sin and cos are taken once each of the
phases of the rows, r*w on from k_lo, and of the columns j, the turns
moved to [-1/2, 1/2) first.  The alternating sign is folded into both
tables, and each block of about _BLOCK terms, whole rows, is filled by
angle addition: two outer products of row and column tables, written
into the output.  The tables' fixed cost, some 20 us, is repaid only
from 2000 to 4000 terms on; an absolute-mode point of verify needs 4 to
1270 terms and keeps the per-term kernel.  Both kernels then divide by
(pi*denom)**p the same way.

A term's error is held to 16u*g(k) against the exact term at the float
z, where u = 2^-53 and g(k) = (pi*denom)**-p bounds the term's size:
tests/test_oracle_kernel.py checks both kernels against 40-digit mpmath.
Over all 24 families at orders 0-3, seven z and three ranges of 4100
terms, out to k = 2^20, the worst error measured is 12.1u for the table
kernel and 12.0u for the per-term one.  The two kernels agree to that
accuracy, not bit for bit, so a sum differs between them in its last
digits.

The averaged mode's ladder of depths 4, 16, 64, 256 and 1024 takes each
step, d passes of adjacent averaging, as one convolution with the
binomial weights C(d, j)/2^d, built once from exact integers.  It agrees
with the passes to 1e-14*(1 + |v|) or better.

Memory per call is the output array plus the tables and two scratch
arrays of at most _BLOCK terms.  The scratch belongs to the call and the
weights are read-only, so a library caller may run oracle_eval on
several threads at once: the calls share nothing they write.
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
    # head is a multiple of 2^-26, so k*head is exact for k below 2^25
    fz = frac(zf)
    head = math.floor(fz * 67108864.0) / 67108864.0
    return head, fz - head


def _scale(f, vals, k, tmp):
    """Divide the signed trig values at the indices k by (pi*denom)**p,
    in place; tmp is scratch of the same size."""
    if f.index_kind == "2k+1":
        np.multiply(k, 2.0, out=tmp)
        tmp += 1.0
        np.multiply(tmp, math.pi, out=tmp)
    else:
        np.multiply(k, math.pi, out=tmp)
    # denominators overflowing to inf at very high order turn the term
    # into an exact 0.0, which is what the true value rounds to anyway
    with np.errstate(over="ignore"):
        tmp **= float(f.power)
    vals /= tmp


def _turns(mult, head, low):
    """frac(frac(mult*head) + mult*low) for mult >= 0: the phase in turns.

    x - floor(x) equals x % 1.0 bit for bit because x >= 0 here.
    """
    turns = mult * head
    turns -= np.floor(turns)
    turns += mult * low
    turns -= np.floor(turns)
    return turns


def _terms_per_term(f, zf, k_lo, k_hi):
    k = np.arange(k_lo, k_hi, dtype=np.float64)
    mult = 2.0 * k + 1.0 if f.index_kind == "2k+1" and f.modified == "none" else k
    vals = _turns(mult, *_phase_split(zf))
    vals *= TWO_PI
    (np.sin if f.trig == "sin" else np.cos)(vals, out=vals)
    if f.alternating:
        odd = vals[(k_lo + 1) % 2 :: 2]
        np.negative(odd, out=odd)
    _scale(f, vals, k, np.empty_like(k))
    return vals


def _terms_by_rows(f, zf, k_lo, k_hi):
    n = k_hi - k_lo
    width = min(128, math.isqrt(n))
    rows = -(-n // width)
    # k = k_lo + r*width + j: the angle of row r plus the angle of column j
    k_row = np.arange(rows, dtype=np.float64) * width + k_lo
    col = np.arange(width, dtype=np.float64)
    if f.index_kind == "2k+1" and f.modified == "none":
        mult = np.concatenate((2.0 * k_row + 1.0, 2.0 * col))
    else:
        mult = np.concatenate((k_row, col))
    turns = _turns(mult, *_phase_split(zf))
    # t - 1 is exact for t >= 1/2, and an angle of at most pi in size
    # rounds with half the error of one up to 2 pi
    turns[turns >= 0.5] -= 1.0
    angle = turns * TWO_PI
    sin, cos = np.sin(angle), np.cos(angle)
    if f.alternating:
        # (-1)**k is the sign of the row times the sign of the column
        odd = np.concatenate((k_row, col)) % 2.0 == 1.0
        np.negative(sin, out=sin, where=odd)
        np.negative(cos, out=cos, where=odd)
    sin_row, cos_row, sin_col, cos_col = sin[:rows], cos[:rows], sin[rows:], cos[rows:]
    if f.trig == "sin":  # sin(a + b) = sin a cos b + cos a sin b
        (a, b), (c, d), combine = (sin_row, cos_col), (cos_row, sin_col), np.add
    else:  # cos(a + b) = cos a cos b - sin a sin b
        (a, b), (c, d), combine = (cos_row, cos_col), (sin_row, sin_col), np.subtract
    per = min(rows, _BLOCK // width)  # rows per block of the output
    size = per * width
    out = np.empty(rows * width)
    k = np.arange(k_lo, k_lo + size, dtype=np.float64)
    tmp = np.empty(size)
    for r0 in range(0, rows, per):
        vals = out[r0 * width : (r0 + per) * width]
        if vals.size < size:
            k, tmp = k[: vals.size], tmp[: vals.size]
        grid, scratch = vals.reshape(-1, width), tmp.reshape(-1, width)
        r = slice(r0, r0 + per)
        np.multiply.outer(a[r], b, out=grid)
        np.multiply.outer(c[r], d, out=scratch)
        combine(grid, scratch, out=grid)
        _scale(f, vals, k, tmp)
        k += size
    return out[:n]


def _terms(f, zf, k_lo, k_hi):
    """Terms for index k in [k_lo, k_hi) as a float64 array.

    Each term is sin or cos of 2*pi*frac(mult*z) turns, the alternating
    sign, and the division by (pi*denom)**p; see the module docstring
    for the two kernels and the choice between them.
    """
    if k_hi - k_lo < _TABLE_MIN:
        return _terms_per_term(f, zf, k_lo, k_hi)
    return _terms_by_rows(f, zf, k_lo, k_hi)


def _chunked_sum(f, zf, k_lo, k_hi):
    """Sum of the terms for k in [k_lo, k_hi): numpy's pairwise sum
    inside each _CHUNK terms from k_lo on, exact fsum across them."""
    return math.fsum(
        float(np.sum(_terms(f, zf, lo, min(lo + _CHUNK, k_hi))))
        for lo in range(k_lo, k_hi, _CHUNK)
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
