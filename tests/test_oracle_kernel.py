"""Oracle term kernels, block sum and averaging ladder against references.

The per-term numpy kernel must equal a one-pass numpy kernel, whose phase
split comes from Fraction turns, bit for bit.  Its terms, and the short
kernel's plain-Python terms times scale, must each lie within
(16 + 0.36p)u*g(k) of the exact term at the float z, plus 2**-1074 where
it is subnormal, where u = 2**-53 and g(k) = (pi*denom)**-p bounds the
size of the term: float pi**-p, which scales every term, carries p times
float pi's 0.351u.
The block sum, which never builds its terms, must lie within
(16 + w + log2(rows + 1))*u*sum g(k) of the exact partial sum: the
per-term error plus the row dot products of w terms and the pairwise
sum of the rows.  Its far rows' weights, a binomial series cut after
_SERIES terms, must lie within u/8 of the exact weights.  Sums either
side of _SHORT terms must lie within the head's charge the oracle
reports.  The exact values are 40-digit mpmath.  The convolution ladder
is held to repeated adjacent averaging.
"""

import functools
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from englert_sums import FAMILY_CODES, SumFamily, oracle, oracle_eval, partial_sum

U = 2.0**-53


def fraction_split(turns):
    """turns in [0, 1) as head + mid + low: head and mid the first two
    25-bit pieces, low the rest rounded once."""
    head = Fraction(math.floor(turns * 2**25), 2**25)
    mid = Fraction(math.floor((turns - head) * 2**50), 2**50)
    return float(head), float(mid), float(turns - head - mid)


def terms_reference(f, zf, k_lo, k_hi):
    """Whole-range kernel: every step is one numpy pass over all terms.

    Term k's phase is k*step + pref turns, with step = z (2z where the
    2k+1 phase (2k+1)z leaves pref = z), plus half a turn when the family
    alternates."""
    z = Fraction(zf)
    doubled = f.index_kind == "2k+1" and f.modified == "none"
    half = Fraction(1, 2) if f.alternating else 0
    head, mid, low = fraction_split(((2 if doubled else 1) * z + half) % 1)
    p_head, p_mid, p_low = fraction_split(z % 1 if doubled else Fraction(0))
    k = np.arange(k_lo, k_hi, dtype=np.float64)
    denom = 2.0 * k + 1.0 if f.index_kind == "2k+1" else k
    phase = (k * head) % 1.0 + k * mid + (p_head + p_mid)
    angle = (phase - np.rint(phase) + (k * low + p_low)) * (2.0 * math.pi)
    vals = np.sin(angle) if f.trig == "sin" else np.cos(angle)
    return vals * denom**-f.power * math.pi**-f.power


def assert_same_bits(a, b, where):
    assert a.dtype == b.dtype and a.shape == b.shape, where
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), where


ZS = (0.5, 1.5000000000000002, -1.3, 0.123456789, 1e3 + 0.1, -1e15 + 0.25)


def ranges(start):
    # both parities of k_lo, a row of the block sum cut short, and a range
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
                got = oracle._terms(oracle._series(f, zf), lo, hi)
                assert_same_bits(got, terms_reference(f, zf, lo, hi), (code, order, zf, lo, hi))


@functools.cache
def exact_sin_cos(zf, mult):
    """40-digit sin and cos of 2*pi*mult*zf, the turns reduced exactly."""
    turns = Fraction(zf) * mult % 1
    with mpmath.workdps(40):
        angle = 2 * mpmath.pi * turns.numerator / turns.denominator
        return mpmath.sin(angle), mpmath.cos(angle)


def exact_scaled_terms(f, zf, k_lo, k_hi):
    """(exact term * (pi*denom)**p, denom) for k in [k_lo, k_hi)."""
    odd_index = f.index_kind == "2k+1"
    for k in range(k_lo, k_hi):
        denom = 2 * k + 1 if odd_index else k
        sin, cos = exact_sin_cos(zf, denom if odd_index and f.modified == "none" else k)
        exact = sin if f.trig == "sin" else cos
        yield -exact if f.alternating and k % 2 else exact, denom


def worst_error(f, zf, k_lo, got, scale=1.0):
    """max over k of |term*scale - exact term| less 2**-1074, over g(k),
    in units of u: the error beyond what a subnormal term rounds by.  The
    product by scale is exact at 40 digits."""
    worst = 0
    with mpmath.workdps(40):
        pi_p = mpmath.pi**f.power
        scaled = exact_scaled_terms(f, zf, k_lo, k_lo + len(got))
        for term, (exact, denom) in zip(list(got), scaled):
            # D = (pi*denom)**p = 1/g(k)
            d = pi_p * mpmath.mpf(denom) ** f.power
            err = abs(mpmath.mpf(term) * scale - exact / d) - mpmath.ldexp(1, -1074)
            worst = max(worst, err * d)
    return float(worst) / U


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_terms_within_16u_of_40_digit_terms(code):
    for order in range(4):
        f = SumFamily.from_code(code, order)
        for zf in (0.123456789, -1.3, 1e3 + 0.1):
            for lo, hi in ranges(f.k_start):
                got = oracle._terms(oracle._series(f, zf), lo, hi)
                assert got.shape == (hi - lo,)
                assert worst_error(f, zf, lo, got) <= 16, (order, zf, lo, hi)


@pytest.mark.parametrize("code", ["S", "C", "bS", "tbCp", "P", "Qp"])
@pytest.mark.parametrize("order", [8, 20, 60])
def test_terms_at_high_order_within_16u_plus_0_36pu_of_40_digit_terms(code, order):
    # float pi**-p carries p times float pi's 0.351u into every term; the
    # terms from k near _CHUNK on are 0.0, within 2**-1074 of exact ones
    f = SumFamily.from_code(code, order)
    for zf in (0.123456789, -1.3):
        for lo, hi in ranges(f.k_start):
            got = oracle._terms(oracle._series(f, zf), lo, hi)
            assert worst_error(f, zf, lo, got) <= 16 + 0.36 * f.power, (order, zf, lo, hi)


@pytest.mark.parametrize("code", ["tS", "tbS"])
@pytest.mark.parametrize("k_lo", [50_000_000, 90_000_000, 100_000_000 - 200])
def test_terms_keep_16u_out_to_the_term_cap(code, k_lo):
    # a k family and a 2k+1 family, whose phase multiplier reaches 2e8:
    # both products of the phase split stay exact, so only the tail rounds
    f = SumFamily.from_code(code, 0)
    for zf in (0.123456789, 1e3 + 0.1):
        got = oracle._terms(oracle._series(f, zf), k_lo, k_lo + 200)
        assert worst_error(f, zf, k_lo, got) <= 16, zf


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_short_terms_within_16u_plus_0_36pu_of_40_digit_terms(code):
    # the plain-Python kernel below _SHORT terms: its phases are exact
    # integers mod den, 2**1075 at z = 5e-324, and its terms are scaled by
    # float pi**-p only once their fsum is taken
    for order in (0, 1, 2, 3, 8, 20, 60, 120):
        f = SumFamily.from_code(code, order)
        for zf in ZS + (5e-324,):
            s = oracle._series(f, zf)
            for lo in (f.k_start, f.k_start + 1, oracle._MAX_TERMS - oracle._SHORT):
                got = oracle._short_terms(s, lo, lo + oracle._SHORT - 1)
                assert len(got) == oracle._SHORT - 1
                err = worst_error(f, zf, lo, got, mpmath.mpf(s.scale))
                assert err <= 16 + 0.36 * f.power, (order, zf, lo)


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_partial_sums_either_side_of_short_within_the_head_charge(code):
    # _SHORT - 1 terms take the short kernel, _SHORT terms numpy's pairwise
    # sum; each holds against the 40-digit partial sum within the charge
    # the oracle reports for such a head (p >= 1)
    for order in range(4):
        f = SumFamily.from_code(code, order)
        if f.power == 0:
            continue
        for zf in ZS + (5e-324,):
            s = oracle._series(f, zf)
            for n in (oracle._SHORT - 1, oracle._SHORT):
                got = partial_sum(f, zf, n)
                exact, _ = exact_sum_and_bound(f, zf, f.k_start, f.k_start + n)
                with mpmath.workdps(40):
                    err = float(abs(mpmath.mpf(got) - exact))
                assert err <= oracle._head_charge(s, n), (order, zf, n, err)


def test_short_sums_call_no_numpy(monkeypatch):
    # S 3 at 0.3 needs 5 terms: the short kernel sums them in plain
    # Python, with no _terms call and no numpy name read at all
    calls = []
    monkeypatch.setattr(oracle, "_terms", lambda *args: calls.append(args))
    monkeypatch.setattr(oracle, "np", None)
    f = SumFamily.from_code("S", 3)
    r = oracle_eval(f, 0.3, 1e-8)
    assert (r.mode, r.terms_used) == ("absolute", 5)
    partial_sum(f, 0.3, oracle._SHORT - 1)
    assert calls == []


def exact_sum_and_bound(f, zf, k_lo, k_hi):
    """(40-digit partial sum, block-sum bound (16 + w + log2(rows+1))*u*sum g)."""
    n = k_hi - k_lo
    width = min(128, math.isqrt(n))
    with mpmath.workdps(40):
        pi_p = mpmath.pi**f.power
        total = mpmath.mpf(0)
        weight = mpmath.mpf(0)
        for exact, denom in exact_scaled_terms(f, zf, k_lo, k_hi):
            g = 1 / (pi_p * mpmath.mpf(denom) ** f.power)
            total += exact * g
            weight += g
        rows = n // width
        return total, float((16 + width + math.log2(rows + 1)) * U * weight)


def assert_block_sum_within_bound(f, zf, k_lo, k_hi):
    got = oracle._sum(oracle._series(f, zf), k_lo, k_hi)
    exact, bound = exact_sum_and_bound(f, zf, k_lo, k_hi)
    with mpmath.workdps(40):
        err = float(abs(mpmath.mpf(got) - exact))
    assert err <= bound, (f.code, f.order, zf, k_lo, k_hi, err, bound)


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_block_sum_within_its_bound_at_every_code(code, monkeypatch):
    # _TABLE_MIN lowered so that short ranges take the block sum, and
    # _BLOCK so that they take many blocks of two rows and a short last
    # one: 100 terms are 10 rows of 10, 147 terms 12 rows of 12 and 3 more.
    # From k = 1000 on every row is far, one row to a block of the series
    monkeypatch.setattr(oracle, "_TABLE_MIN", 16)
    for order in range(4):
        f = SumFamily.from_code(code, order)
        for zf in ZS:
            for lo, hi in (
                (f.k_start, f.k_start + 100),
                (f.k_start + 1, f.k_start + 148),
                (1000, 1147),
            ):
                with monkeypatch.context() as m:
                    m.setattr(oracle, "_BLOCK", 2 * math.isqrt(hi - lo))
                    assert_block_sum_within_bound(f, zf, lo, hi)


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_block_sum_matches_exact_sum_at_the_real_block_size(code):
    # exactly _TABLE_MIN terms (64 rows of 64), a count that is not a
    # multiple of w (4099 = 64*64 + 3) from an odd k_lo, and a range across
    # k = _CHUNK, through the real _BLOCK
    f = SumFamily.from_code(code, 1)
    start, n = f.k_start, oracle._TABLE_MIN
    for lo, hi in (
        (start, start + n),
        (3, 3 + n + 3),
        (oracle._CHUNK - 2000, oracle._CHUNK + 2100),
    ):
        assert_block_sum_within_bound(f, 0.123456789, lo, hi)


@pytest.mark.parametrize("code", ["S", "C", "bS"])
@pytest.mark.parametrize("order", [8, 20, 60])
def test_block_sum_within_its_bound_at_high_order(code, order):
    # from k_start, the first rows build their weights (at order 60 all
    # 156 rows do) and the rest take the series; from k = _CHUNK - 2000
    # every row is far, and at order 60 every weight there is 0.0
    f = SumFamily.from_code(code, order)
    for lo, n in ((f.k_start, 20_000), (oracle._CHUNK - 2000, 4100)):
        assert_block_sum_within_bound(f, 0.123456789, lo, lo + n)


@pytest.mark.parametrize("p", [0, 1, 2, 3, 7, 41, 121])
def test_far_row_weights_within_u8_of_40_digit_weights(p):
    # a row is far when its x = s*(w-1)/d_end is at most _far_reach(p), so
    # x = _far_reach(p) is the largest x of any far row, the first far row
    # of any sum included; the cut series at x*t_j, summed exactly, must be
    # within u/8 relative of the exact (1 - x*t_j)**-p at every column
    width = 128
    x = oracle._far_reach(p)
    terms = oracle._SERIES if p else 1
    with mpmath.workdps(40):
        for j in range(width):
            xt = mpmath.mpf(x) * mpmath.mpf((width - 1.0 - j) / (width - 1))
            series = sum(math.comb(p + m - 1, m) * xt**m for m in range(1, terms)) + 1
            exact = (1 - xt) ** -p
            assert abs(series - exact) <= U / 8 * exact, (p, j)


def test_subnormal_terms_match_40_digit_terms_with_no_warning():
    # order 60, p = 121: (pi*k)**-121 leaves the normal floats from k = 113
    # on and the subnormals past k = 149.  The kernels raise only the
    # integer k and scale by pi**-p once, so nothing overflows, in the
    # per-term kernel, the built weights and the far rows alike, and the
    # terms of k = 113..149 are the subnormals they round to, not 0.0
    f = SumFamily.from_code("S", 60)
    zf = 0.123456789
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = oracle._series(f, zf)
        terms = oracle._terms(s, 100, 300)
        oracle._sum(s, 1, 20_001)
        far = oracle._sum(s, oracle._CHUNK - 2000, oracle._CHUNK + 2100)
    assert worst_error(f, zf, 100, terms) <= 16 + 0.36 * f.power
    assert terms[:50].all() and not terms[50:].any()
    assert far == 0.0


def test_block_sum_allocates_no_array_of_its_terms():
    # 10**6 terms would take 8 MB as an array; the block sum holds one
    # block of weights or of far-row powers and tables of about n/w entries
    for code, order in (("C", 1), ("S", 3)):
        f = SumFamily.from_code(code, order)
        partial_sum(f, 0.5, 10**6)
        tracemalloc.start()
        try:
            partial_sum(f, 0.5, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (code, peak)


@pytest.mark.parametrize(
    "code,order,z,tol,mode,terms",
    [
        ("C", 1, 0.5, 1e-8, "absolute", 1_000_000),  # capped at resonance
        ("tbC", 1, 0.5, 1e-8, "absolute", 1_000_000),  # capped, 2k+1
        ("C", 1, 0.3, 1e-8, "absolute", 40),  # p = 2, the tail by parts
        ("Qp", 0, 0.3, 1e-6, "absolute", 40),  # p = 1, the tail by parts
        ("Qp", 0, 0.4999, 1e-6, "absolute", 57_296),  # p = 1, block sums
        ("tC", 0, 0.3, 1e-6, "averaged-conditional", 1600),  # p = 0
    ],
)
def test_oracle_reports_match_the_reference_kernel(code, order, z, tol, mode, terms, monkeypatch):
    # the reference sums every chunk as an array of reference terms; the
    # block sum is within (16 + 128 + 14)u*sum g(k) of the exact sum and
    # each reference term within 16u*g(k), which over the sums at p >= 2,
    # sum g(k) at most 1.9, and over the 57,296 terms at p = 1, sum g(k)
    # below 2.2, is below 4e-14; their values agree to 1e-13.  At p = 0
    # the averaged mode builds its 1600 terms with the per-term kernel
    # alone, so values and envelopes agree to 1e-13 at every p
    f = SumFamily.from_code(code, order)
    got = oracle_eval(f, z, tol, strict=False)
    # the reference reads its own f and z, never the series record
    monkeypatch.setattr(oracle, "_terms", lambda s, lo, hi: terms_reference(f, z, lo, hi))
    monkeypatch.setattr(oracle, "_TABLE_MIN", oracle._MAX_TERMS + 1)
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
    s = oracle._series(f, z)
    series = np.cumsum(oracle._terms(s, s.k0, s.k0 + oracle._WINDOW))
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
