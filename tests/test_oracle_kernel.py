"""Oracle term kernels, block sum and averaging ladder against references.

The per-term numpy kernel must equal a one-pass numpy kernel, whose phase
split comes from Fraction turns, bit for bit.  Its terms, and the short
kernel's first terms times scale, must each lie within
(16 + 0.36p)u*g(k) of the exact term at the float z, plus 2**-1074 where
it is subnormal, where u = 2**-53 and g(k) = (pi*denom)**-p bounds the
size of the term: float pi**-p, which scales every term, carries p times
float pi's 0.351u.  Term j of the short kernel's recurrence w *= u may
drift 6u a step more.
The block sum, which never builds its terms, must lie within
(16 + w + log2(rows + 1))*u*sum g(k) of the exact partial sum, w the
kernel's row width: the per-term error plus the row dot products of w
terms and the pairwise sum of the rows.  Its far rows' weights, a
binomial series cut after m terms at x up to _reach(p)[m-1], must lie
within u/8 of the exact weights.  Sums either side of _SHORT terms must
lie within the head's charge the oracle reports.  The exact values are
40-digit mpmath.  The convolution ladder is held to repeated adjacent
averaging.
"""

import functools
import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from englert_sums import FAMILY_CODES, SumFamily, cli, oracle, oracle_eval, partial_sum

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


def weights(f, k_lo, k_hi):
    """denom**-p of f for k in [k_lo, k_hi), denom k or 2k+1."""
    k = np.arange(k_lo, k_hi, dtype=np.float64)
    return (2.0 * k + 1.0 if f.index_kind == "2k+1" else k) ** -f.power


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
    return exact_sin_cos_of_turns(Fraction(zf) * mult % 1)


@functools.cache
def exact_sin_cos_of_turns(turns):
    """40-digit sin and cos of 2*pi*turns, for Fraction turns in [0, 1)."""
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


def term_errors(f, zf, k_lo, got, scale=1.0):
    """|term*scale - exact term| less 2**-1074, over g(k), in units of u,
    for each term from k_lo on: the error beyond what a subnormal term
    rounds by.  The product by scale is exact at 40 digits."""
    errors = []
    with mpmath.workdps(40):
        pi_p = mpmath.pi**f.power
        scaled = exact_scaled_terms(f, zf, k_lo, k_lo + len(got))
        for term, (exact, denom) in zip(list(got), scaled):
            # D = (pi*denom)**p = 1/g(k)
            d = pi_p * mpmath.mpf(denom) ** f.power
            err = abs(mpmath.mpf(term) * scale - exact / d) - mpmath.ldexp(1, -1074)
            errors.append(float(err * d) / U)
    return errors


def worst_error(f, zf, k_lo, got, scale=1.0):
    """The largest of term_errors, at least 0."""
    return max([0.0] + term_errors(f, zf, k_lo, got, scale))


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


def head_errors(f, zf, k_lo, n):
    """worst_error of each term of the short kernel's head of n terms from
    k_lo, its component taken and scaled."""
    s = oracle._series(f, zf)
    terms = [w.imag if s.sin else w.real for w in oracle._head_terms(s, k_lo, k_lo + n)]
    assert len(terms) == n
    return term_errors(f, zf, k_lo, terms, mpmath.mpf(s.scale))


SHORT_ORDERS = (0, 1, 2, 3, 8, 20, 60, 120)


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_short_terms_within_16u_plus_0_36pu_of_40_digit_terms(code):
    # the first term of a head, pref*u**k_lo read through _unit from the
    # exact integer turns, 2**1075 of them at z = 5e-324, before any step:
    # one-term heads from every start up to k_start + 22 and near 1e8
    for order in SHORT_ORDERS:
        f = SumFamily.from_code(code, order)
        starts = list(range(f.k_start, f.k_start + 23)) + [oracle._MAX_TERMS - 1]
        for zf in ZS + (5e-324,):
            for lo in starts:
                (err,) = head_errors(f, zf, lo, 1)
                assert err <= 16 + 0.36 * f.power, (order, zf, lo)


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_head_terms_drift_at_most_6u_a_step_from_40_digit_terms(code):
    # term j of a head of _SHORT - 1 terms is w *= u stepped j times: each
    # step adds u's error, within 3.8u, and the complex product's, within
    # sqrt(5)u (module docstring of oracle), from k_start and near 1e8
    for order in SHORT_ORDERS:
        f = SumFamily.from_code(code, order)
        for zf in ZS + (5e-324,):
            for lo in (f.k_start, oracle._MAX_TERMS - oracle._SHORT):
                errs = head_errors(f, zf, lo, oracle._SHORT - 1)
                for j, err in enumerate(errs):
                    assert err <= 16 + 0.36 * f.power + 6 * j, (order, zf, lo, j)


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
                assert err <= oracle._head_charge(s.c, s.p, n), (order, zf, n, err)


def test_short_sums_call_no_numpy(monkeypatch):
    # S 3 at 0.3 needs 5 terms: the short kernel sums them in plain
    # Python, with no _terms call and no numpy name read at all, as it
    # does a partial sum of _SHORT - 1 terms
    calls = []
    monkeypatch.setattr(oracle, "_terms", lambda *args: calls.append(args))
    monkeypatch.setattr(oracle, "np", None)
    f = SumFamily.from_code("S", 3)
    r = oracle_eval(f, 0.3, 1e-8)
    assert (r.mode, r.terms_used) == ("absolute", 5)
    assert partial_sum(f, 0.3, oracle._SHORT - 1) == pytest.approx(r.value, abs=1e-6)
    assert calls == []


def numpy_sum(a):
    """A plain-Python model of numpy's sum of the floats a: (the sum, the
    most roundings any term meets).  A run of up to 128 terms goes
    through 8 running sums, which add as a tree, and then the n mod 8 left
    over one at a time; a longer run splits at half its length less that
    half mod 8, and the two halves' sums add."""
    n = len(a)
    if n < 8:
        total, depth = a[0], 0
        for x in a[1:]:
            total, depth = total + x, depth + 1
        return total, depth
    if n > 128:
        half = n // 2 - n // 2 % 8
        (left, d_left), (right, d_right) = numpy_sum(a[:half]), numpy_sum(a[half:])
        return left + right, max(d_left, d_right) + 1
    runs, rest = a[:8], n - n % 8
    for i in range(8, rest, 8):
        runs = [s + x for s, x in zip(runs, a[i : i + 8])]
    total = ((runs[0] + runs[1]) + (runs[2] + runs[3])) + ((runs[4] + runs[5]) + (runs[6] + runs[7]))
    depth = rest // 8 - 1 + 3
    for x in a[rest:]:
        total, depth = total + x, depth + 1
    return total, depth


def test_pairwise_charge_covers_numpy_summation_order():
    # the model gives np.sum's bits on terms of many sizes and signs, and
    # at every n of the pairwise kernel, and at the sizes of the weight
    # sum's pieces, the most roundings a term meets are within
    # _pairwise_depth(n): 24 at n = 127, where ceil(log2(n)) is 7
    rng = np.random.default_rng(7)
    size = 3 * oracle._BLOCK + 5
    a = rng.standard_normal(size) * np.exp(rng.uniform(-30.0, 30.0, size))
    worst = {}
    for n in [*range(oracle._SHORT, oracle._TABLE_MIN), oracle._BLOCK - 1, oracle._BLOCK, size]:
        total, depth = numpy_sum(a[:n].tolist())
        assert total == float(a[:n].sum()), n
        assert depth <= oracle._pairwise_depth(n), (n, depth)
        worst[n] = depth
    assert worst[127] == 24 and max(worst.values()) == 29
    # the weight sum's pieces and their fsum stay within the block sum's
    # charge, whose width is at least 64
    assert oracle._pairwise_depth(oracle._BLOCK) + 1 < 64


@pytest.mark.parametrize("code,order", [("C", 1), ("Cp", 0), ("tbC", 1), ("C", 3)])
def test_resonant_heads_within_the_head_charge(code, order):
    # at a whole-turn step every term's phase is pref's: the head is pref's
    # part times the sum of weights, which holds against the 40-digit sum
    # within the charge the oracle reports, from _SHORT terms to past a
    # chunk
    f = SumFamily.from_code(code, order)
    zf = 0.5
    s = oracle._series(f, zf)
    assert s.step == 0
    c, d = s.c, s.d
    sizes = (oracle._SHORT, oracle._TABLE_MIN - 1, oracle._TABLE_MIN, 3 * oracle._BLOCK + 5)
    for n in sizes + (oracle._CHUNK + 5,):
        got = partial_sum(f, zf, n)
        with mpmath.workdps(40):
            # the denominators c*k + d over c run from lo to hi
            lo, hi = mpmath.mpf(s.k0 * c + d) / c, mpmath.mpf((s.k0 + n) * c + d) / c
            if f.power == 1:
                weights = (mpmath.digamma(hi) - mpmath.digamma(lo)) / c
            else:
                weights = (mpmath.zeta(f.power, lo) - mpmath.zeta(f.power, hi)) / mpmath.mpf(c) ** f.power
            part = exact_sin_cos_of_turns(Fraction(s.pref_num, s.den))[0 if s.sin else 1]
            exact = part * weights / mpmath.pi**f.power
            err = float(abs(mpmath.mpf(got) - exact))
        assert err <= oracle._head_charge(c, f.power, n), (n, err)


def exact_sum_and_bound(f, zf, k_lo, k_hi):
    """(40-digit partial sum, block-sum bound (16 + w + log2(rows+1))*u*sum g)
    with w the kernel's row width."""
    n = k_hi - k_lo
    width = oracle._width(n, f.power)
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


def fresh_cache(monkeypatch, name, size=None):
    """oracle's lru_cache name, while the patch holds, an empty one around
    the function it caches, of its size unless size is given."""
    cached = getattr(oracle, name)
    size = size or cached.cache_info().maxsize
    monkeypatch.setattr(oracle, name, functools.lru_cache(size)(cached.__wrapped__))


def recording_cuts(monkeypatch):
    """A list that gets (rows of out, largest base) for each _power_rows
    call from here on: a block sum with far rows makes one for its t
    powers, then one for each block's powers of x."""
    cuts, power_rows = [], oracle._power_rows

    def recording(base, out):
        cuts.append((len(out), float(base.max())))
        return power_rows(base, out)

    monkeypatch.setattr(oracle, "_power_rows", recording)
    return cuts


def far_block_cuts(f, cuts):
    """The terms each block of far rows of one chunk's block sum is cut
    after, checked: the chunk's first _power_rows call takes the column
    moments' _SERIES powers of t, each later one a block's powers of its
    x, cut after the fewest terms whose _reach holds the largest x."""
    if not cuts:  # no far rows
        return []
    reach = oracle._reach(f.power)
    (moments, _), *blocks = cuts
    assert moments == oracle._SERIES
    for terms, x in blocks:
        assert x <= reach[terms - 1] and (terms == 1 or x > reach[terms - 2]), (terms, x)
    return [terms for terms, _ in blocks]


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_block_sum_within_its_bound_at_every_code(code, monkeypatch):
    # _TABLE_MIN lowered so that short ranges take the block sum, and
    # _BLOCK so that they take many blocks of two rows and a short last
    # one: 100 terms are 10 rows of 10, 147 terms 12 rows of 12 and 3 more.
    # From k = 1000 on every row is far, one row to a block of the series,
    # each cut after as few terms as its own x allows
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
                    # sums of weights built under the patched _BLOCK go with it
                    m.setattr(oracle, "_BLOCK", 2 * math.isqrt(hi - lo))
                    fresh_cache(m, "_weight_sum")
                    cuts = recording_cuts(m)
                    assert_block_sum_within_bound(f, zf, lo, hi)
                    far_block_cuts(f, cuts)


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_block_sum_matches_exact_sum_at_the_real_block_size(code, monkeypatch):
    # exactly _TABLE_MIN terms (64 rows of 64), a count that is not a
    # multiple of w (4099 = 64*64 + 3) from an odd k_lo, and a range across
    # k = _CHUNK, through the real _BLOCK.  In the last every row is far,
    # its x below 1.3e-4, and the block's series is cut below _SERIES terms
    f = SumFamily.from_code(code, 1)
    start, n = f.k_start, oracle._TABLE_MIN
    for lo, hi in ((start, start + n), (3, 3 + n + 3)):
        assert_block_sum_within_bound(f, 0.123456789, lo, hi)
    cuts = recording_cuts(monkeypatch)
    assert_block_sum_within_bound(f, 0.123456789, oracle._CHUNK - 2000, oracle._CHUNK + 2100)
    assert max(far_block_cuts(f, cuts)) < oracle._SERIES, cuts


def test_block_sum_wider_than_128_within_its_bound():
    # p = 2 at 50,000 terms takes rows of 142, wider than the 128 that
    # every block sum took before the width depended on p
    f = SumFamily.from_code("C", 1)
    assert oracle._width(50_000, f.power) == 142
    assert_block_sum_within_bound(f, 0.375, f.k_start, f.k_start + 50_000)


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
    # a row is far when its x = s*(w-1)/d_end is at most _reach(p)[-1], and
    # a block of far rows whose first, largest, x is at most _reach(p)[m-1]
    # cuts its series after m terms; at each such x the cut series at
    # x*t_j, summed exactly, must be within u/8 relative of the exact
    # (1 - x*t_j)**-p at every column
    reach = oracle._reach(p)
    assert len(reach) == oracle._SERIES and list(reach) == sorted(reach)
    width = 128
    with mpmath.workdps(40):
        for terms, x in enumerate(reach, 1):
            for j in range(width):
                xt = mpmath.mpf(x) * mpmath.mpf((width - 1.0 - j) / (width - 1))
                series = sum(math.comb(p + m - 1, m) * xt**m for m in range(1, terms)) + 1
                exact = (1 - xt) ** -p
                assert abs(series - exact) <= U / 8 * exact, (p, terms, j)


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


def test_block_sum_allocates_no_array_of_its_terms(monkeypatch):
    # 10**6 terms would take 8 MB as an array.  At z = 0.5, a whole-turn
    # step, the sum of weights builds pieces of _BLOCK weights, once; at
    # 0.3 each block sum builds blocks of at most _BLOCK weights or far-row
    # powers, and tables of about n/w entries
    fresh_cache(monkeypatch, "_weight_sum")
    for z in (0.5, 0.3):
        for code, order in (("C", 1), ("S", 3)):
            f = SumFamily.from_code(code, order)
            assert (oracle._series(f, z).step == 0) == (z == 0.5)
            for _ in ("cold", "warm"):
                tracemalloc.start()
                try:
                    partial_sum(f, z, 10**6)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < 1_000_000, (code, z, peak)


def fresh_shared_caches(monkeypatch):
    """Empty caches of two entries each, while the patch holds, for the
    weight sums, weights and tail differences that calls share."""
    for name in ("_weight_sum", "_weights", "_differences"):
        fresh_cache(monkeypatch, name, 2)


def test_threads_on_cold_shared_caches_give_the_same_digits(monkeypatch):
    # four threads, more than the cores, on empty caches of two entries,
    # over block sums, sums of weights at resonance and reports by parts,
    # whose heads read weights and whose tails read differences, each from
    # its own start, so that they miss, build and evict the same entries
    # together; every thread reads one thread's digits
    work = [
        functools.partial(partial_sum, SumFamily.from_code(code, order), z, n)
        for code, order, n in (
            ("C", 1, 10**6),
            ("bC", 1, 10**6),
            ("S", 1, 10**6),
            ("S", 10, 50_000),
            ("S", 0, 3 * 2**20 + 17),
        )
        for z in (0.3, 0.5)
    ] + [
        functools.partial(oracle_eval, SumFamily.from_code(code, order), z, 1e-8)
        for code, order in (("C", 1), ("bC", 1), ("S", 0), ("Q", 2))
        for z in (0.3, 0.1)
    ]
    fresh_shared_caches(monkeypatch)
    want = list(enumerate(repr(call()) for call in work))
    fresh_shared_caches(monkeypatch)
    threads, got = 4, {}
    barrier = threading.Barrier(threads)

    def run(i):
        barrier.wait(timeout=60)
        turn = list(range(i, len(work))) + list(range(i))
        got[i] = sorted((j, repr(work[j]())) for j in turn)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(switch)
    assert got == {i: want for i in range(threads)}


def test_default_verify_makes_no_block_sum(monkeypatch, capsys):
    # every long head of the default verify is a whole-turn sum or, one
    # ulp off resonance, read as one, or a pairwise sum of fewer than
    # _TABLE_MIN terms: no call reaches the block sum.  Its 48 capped
    # p = 2 points stay capped, their 10^6-term bounds above tol
    blocks, capped, inner = [], [], oracle._sum

    def counting(s, k_lo, k_hi):
        if s.step and oracle._TABLE_MIN <= k_hi - k_lo:
            blocks.append((s, k_lo, k_hi))
        return inner(s, k_lo, k_hi)

    def recording(f, z, tol, strict=True):
        r = oracle_eval(f, z, tol, strict=strict)
        if r.mode == "absolute" and r.tail_bound > tol:
            capped.append((f.code, f.order, z, r.terms_used))
        return r

    monkeypatch.setattr(oracle, "_sum", counting)
    monkeypatch.setattr(cli, "oracle_eval", recording)
    assert cli.run(["verify"]) == 0
    assert capsys.readouterr().out.endswith("PASS 3507/3507\n")
    assert blocks == []
    assert len(capped) == 48 and {n for *_, n in capped} == {1_000_000}


@pytest.mark.parametrize(
    "code,order,z,tol,mode,terms",
    [
        ("C", 1, 0.5, 1e-8, "absolute", 1_000_000),  # capped at resonance
        ("tbC", 1, 0.5, 1e-8, "absolute", 1_000_000),  # capped, 2k+1
        ("C", 1, 0.3, 1e-8, "absolute", 16),  # p = 2, the tail by parts
        ("Qp", 0, 0.3, 1e-6, "absolute", 16),  # p = 1, the tail by parts
        ("Qp", 0, 0.4999, 1e-6, "absolute", 32_768),  # p = 1, block sums
        ("tC", 0, 0.3, 1e-6, "averaged-conditional", 1600),  # p = 0
    ],
)
def test_oracle_reports_match_the_reference_kernel(code, order, z, tol, mode, terms, monkeypatch):
    # the reference sums every chunk, the 16-term heads too, as an array of
    # reference terms, each within 16u*g(k), and at a whole-turn step
    # takes the fsum of its own weights.  The block sum is within
    # (16 + 512 + 1 + 28)u*sum g(k) of the exact sum, sum g(k) at most 0.21 at
    # p >= 2, and within (16 + 127 + 1 + 26)u*2.5 over the 32,768 terms at
    # p = 1; the short kernel's 16 terms within (17 + 7*16)u*1.3; the sum
    # of weights within 32u*0.21: all below 6e-14, so values agree to
    # 1e-13, and so do bounds, whose charges differ by as much.  At p = 0
    # the averaged mode builds its 1600 terms with the per-term kernel
    # alone
    f = SumFamily.from_code(code, order)
    got = oracle_eval(f, z, tol, strict=False)
    # the reference reads its own f and z, never the series record
    monkeypatch.setattr(oracle, "_terms", lambda s, lo, hi: terms_reference(f, z, lo, hi))
    monkeypatch.setattr(
        oracle, "_weight_sum", lambda c, d, p, lo, n: math.fsum(weights(f, lo, lo + n))
    )
    monkeypatch.setattr(oracle, "_SHORT", 0)
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
