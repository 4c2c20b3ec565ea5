"""Oracle term kernels and averaging ladder against their references.

Below oracle._TABLE_MIN terms the per-term kernel must equal the one-pass
numpy kernel bit for bit.  Both kernels, the table one adding a row angle
and a column angle, are held to 40-digit mpmath: every term within
16u*g(k) of the exact term at the float z, where u = 2**-53 and
g(k) = (pi*denom)**-p bounds the size of the term.  The convolution
ladder is held to repeated adjacent averaging.
"""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from englert_sums import FAMILY_CODES, SumFamily, oracle, oracle_eval
from englert_sums.oracle import TWO_PI, _phase_split

U = 2.0**-53


def terms_reference(f, zf, k_lo, k_hi):
    """Whole-range kernel: every step is one numpy pass over all terms."""
    k = np.arange(k_lo, k_hi, dtype=np.float64)
    if f.index_kind == "2k+1":
        denom = 2.0 * k + 1.0
    else:
        denom = k
    if f.index_kind == "2k+1" and f.modified == "none":
        mult = denom
    else:
        mult = k
    head, low = _phase_split(zf)
    phase = ((mult * head) % 1.0 + mult * low) % 1.0
    angle = phase * TWO_PI
    vals = np.sin(angle) if f.trig == "sin" else np.cos(angle)
    if f.alternating:
        vals = vals * np.where((k % 2.0) == 0.0, 1.0, -1.0)
    with np.errstate(over="ignore"):
        return vals / (math.pi * denom) ** float(f.power)


def assert_same_bits(a, b, where):
    assert a.dtype == b.dtype and a.shape == b.shape, where
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), where


ZS = (0.5, 1.5000000000000002, -1.3, 0.123456789, 1e3 + 0.1, -1e15 + 0.25)


def ranges(start):
    # both parities of k_lo, a row of the table cut short, and a range
    # across the k = _CHUNK boundary of partial_sum
    return (
        (start, start + 4),
        (start + 1, start + 30),
        (start, start + 40),
        (start + 1, start + 41),
        (oracle._CHUNK - 20, oracle._CHUNK + 23),
    )


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_terms_match_reference_bit_for_bit(code):
    for order in range(4):
        f = SumFamily.from_code(code, order)
        for zf in ZS:
            for lo, hi in ranges(f.k_start) + ((f.k_start, f.k_start + oracle._TABLE_MIN - 1),):
                got = oracle._terms(f, zf, lo, hi)
                assert_same_bits(got, terms_reference(f, zf, lo, hi), (code, order, zf, lo, hi))


@functools.cache
def exact_sin_cos(zf, mult):
    """40-digit sin and cos of 2*pi*mult*zf, the turns reduced exactly."""
    turns = Fraction(zf) * mult % 1
    with mpmath.workdps(40):
        angle = 2 * mpmath.pi * turns.numerator / turns.denominator
        return mpmath.sin(angle), mpmath.cos(angle)


def worst_error(f, zf, k_lo, got):
    """max over k of |term - exact term| / g(k), in units of u."""
    odd_index = f.index_kind == "2k+1"
    worst = 0
    with mpmath.workdps(40):
        pi_p = mpmath.pi**f.power
        for k, term in enumerate(got.tolist(), k_lo):
            denom = 2 * k + 1 if odd_index else k
            sin, cos = exact_sin_cos(zf, denom if odd_index and f.modified == "none" else k)
            exact = sin if f.trig == "sin" else cos
            if f.alternating and k % 2:
                exact = -exact
            # |term - exact / D| * D with D = (pi*denom)**p = 1/g(k)
            worst = max(worst, abs(mpmath.mpf(term) * pi_p * denom**f.power - exact))
    return float(worst) / U


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_terms_within_16u_of_40_digit_terms(code, monkeypatch):
    # small ranges run both kernels directly, the table kernel with blocks
    # of two rows so that it takes several blocks and a short last one; a
    # range of 4100 terms across _CHUNK takes the table kernel through
    # _terms at the real sizes
    real = oracle._CHUNK - 2000
    for order in range(4):
        f = SumFamily.from_code(code, order)
        got = oracle._terms(f, 0.123456789, real, real + 4100)
        assert got.shape == (4100,)
        assert worst_error(f, 0.123456789, real, got) <= 16, order
        with monkeypatch.context() as m:
            m.setattr(oracle, "_BLOCK", 12)
            for zf in (0.123456789, -1.3, 1e3 + 0.1):
                for lo, hi in ranges(f.k_start):
                    for kernel in (oracle._terms_per_term, oracle._terms_by_rows):
                        got = kernel(f, zf, lo, hi)
                        assert got.shape == (hi - lo,)
                        assert worst_error(f, zf, lo, got) <= 16, (kernel, order, zf, lo, hi)


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_terms_match_reference_at_the_real_block_size(code):
    # above _TABLE_MIN the table kernel fills whole blocks of _BLOCK terms
    # and a short last one; each of its terms and each of the reference's
    # is within 16u*g(k) of the exact term, so they differ by at most 32u*g(k)
    f = SumFamily.from_code(code, 1)
    zf = 0.123456789
    block = oracle._BLOCK
    for lo, hi in (
        (f.k_start, f.k_start + oracle._TABLE_MIN),
        (f.k_start + 1, f.k_start + 2 * block + 3),
        (oracle._CHUNK - 5, oracle._CHUNK + block + 6),
    ):
        got = oracle._terms(f, zf, lo, hi)
        want = terms_reference(f, zf, lo, hi)
        k = np.arange(lo, hi, dtype=np.float64)
        denom = 2.0 * k + 1.0 if f.index_kind == "2k+1" else k
        g = (math.pi * denom) ** -float(f.power)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 32 * U * g), (code, lo, hi)


@pytest.mark.parametrize(
    "code,order,z,tol,mode,terms",
    [
        ("C", 1, 0.5, 1e-8, "absolute", 1_000_000),  # capped at resonance
        ("C", 1, 0.3, 1e-8, "averaged-conditional", 20_000),  # p = 2
        ("Qp", 0, 0.3, 1e-6, "averaged-conditional", 20_000),  # p = 1
    ],
)
def test_oracle_reports_match_the_reference_kernel(code, order, z, tol, mode, terms, monkeypatch):
    # the kernels differ by at most 32u*g(k) a term, which over these sums
    # is below 5e-15 in each partial sum; values and envelopes agree to 1e-13
    f = SumFamily.from_code(code, order)
    got = oracle_eval(f, z, tol, strict=False)
    monkeypatch.setattr(oracle, "_terms", terms_reference)
    reference = oracle_eval(f, z, tol, strict=False)
    assert (got.mode, got.terms_used) == (reference.mode, reference.terms_used) == (mode, terms)
    assert got.value == pytest.approx(reference.value, rel=0, abs=1e-13)
    assert got.tail_bound == pytest.approx(reference.tail_bound, rel=0, abs=1e-13)


def averaged_reference(series, passes):
    for _ in range(passes):
        series = 0.5 * (series[1:] + series[:-1])
    return series


@pytest.mark.parametrize(
    "code,order,z",
    [("C", 1, 0.3), ("Qp", 0, 0.3), ("tSp", 0, -0.5), ("S", 0, 0.49)],
)
def test_ladder_matches_repeated_averaging_at_every_checkpoint(code, order, z):
    f = SumFamily.from_code(code, order)
    series = oracle._window_sums(f, z, 20_000, oracle._WINDOW)
    want, done = series, 0
    checkpoints = list(oracle._ladder(series))
    assert len(checkpoints) == len(oracle._DEPTHS)
    for got, depth in zip(checkpoints, oracle._DEPTHS):
        want = averaged_reference(want, depth - done)
        done = depth
        assert got.shape == want.shape == (oracle._WINDOW - depth,)
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want))), depth


def test_ladder_weights_are_read_only_binomials():
    done = 0
    for weights, depth in zip(oracle._LADDER, oracle._DEPTHS):
        d = depth - done
        done = depth
        assert weights.tolist() == [math.comb(d, j) / 2**d for j in range(d + 1)]
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 1.0
