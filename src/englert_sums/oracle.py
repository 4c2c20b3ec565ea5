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

The term kernel fills each chunk's preallocated output array in blocks
of _BLOCK terms: every step of a block works in place on that block of
the output and on up to three scratch arrays of one block each, so the
block stays in cache from the phase to the division.  Each term goes
through the same float operations in the same order as in a one-pass
numpy kernel: frac as x - floor(x), which equals x % 1.0 for x >= 0,
and the alternating sign as a negation, which equals the product with
-1.0.  Every term, partial sum and report is therefore the same bit for
bit, and the chunk sums keep their boundaries.  Memory per call is the
output array plus 384 KB of scratch, where the one-pass kernel held
about ten temporaries the size of the chunk (8 MB each at 2^20 terms).
The scratch arrays belong to the call, so a library caller may run
oracle_eval on several threads at once: the calls share nothing.
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


def _terms(f, zf, k_lo, k_hi):
    """Terms for index k in [k_lo, k_hi) as a float64 array.

    Each term is frac(frac(mult*head) + mult*low) turns, its sine or
    cosine, the alternating sign, and the division by (pi*denom)**p,
    computed block by block as the module docstring describes.
    """
    n = k_hi - k_lo
    size = min(n, _BLOCK)
    out = np.empty(n)
    odd_index = f.index_kind == "2k+1"
    k = np.arange(k_lo, k_lo + size, dtype=np.float64)
    denom = np.empty(size) if odd_index else k
    mult = denom if odd_index and f.modified == "none" else k
    tmp = np.empty(size)
    trig = np.sin if f.trig == "sin" else np.cos
    power = float(f.power)
    head, low = _phase_split(zf)
    # denominators overflowing to inf at very high order turn the term
    # into an exact 0.0, which is what the true value rounds to anyway
    with np.errstate(over="ignore"):
        for lo in range(0, n, _BLOCK):
            vals = out[lo : lo + _BLOCK]
            m = vals.size
            if m < size:
                k, denom, mult, tmp = (a[:m] for a in (k, denom, mult, tmp))
            if odd_index:
                np.multiply(k, 2.0, out=denom)
                denom += 1.0
            # x - floor(x) equals x % 1.0 bit for bit because x >= 0
            # here: head, low and mult are all non-negative
            np.multiply(mult, head, out=vals)
            vals -= np.floor(vals, out=tmp)
            vals += np.multiply(mult, low, out=tmp)
            vals -= np.floor(vals, out=tmp)
            vals *= TWO_PI
            trig(vals, out=vals)
            if f.alternating:
                odd = vals[(k_lo + lo + 1) % 2 :: 2]
                np.negative(odd, out=odd)
            np.multiply(denom, math.pi, out=tmp)
            tmp **= power
            vals /= tmp
            k += _BLOCK
    return out


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


def _averaged(f, zf, tol):
    best = None
    for n_terms in _STAGES:
        series = _window_sums(f, zf, n_terms, _WINDOW)
        done = 0
        for depth in _DEPTHS:
            for _ in range(depth - done):
                series = 0.5 * (series[1:] + series[:-1])
            done = depth
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
    p = f.power
    base = 1e-8 if p >= 2 else 1e-5
    oracle_tol = 1e-8 if p >= 2 else 1e-6
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
