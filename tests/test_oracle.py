"""Brute-force series oracle: partial sums, convergence modes, arbitration.

Reports are held against reference40.family_reference, each series at
40 digits through mpmath's polylog: Li_p(u) for the k families and
chi_p(w) = (Li_p(w) - Li_p(-w))/2 for the 2k+1 ones, the modified P/Q
sums being chi_p(w)/w with w^2 = u.  It reads SumFamily's fields, never
oracle._series.  tests/test_oracle_kernel.py holds terms and partial
sums, which no family value checks.
"""

import collections
import math
import pickle
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import pytest

from englert_sums import (
    FAMILY_CODES,
    SumFamily,
    arbitrate,
    eval_family,
    oracle,
    oracle_eval,
    partial_sum,
)
from englert_sums.errors import (
    CapacityError,
    DomainError,
    JumpPointError,
    SingularPointError,
    ToleranceNotReachedError,
    UnsupportedOrderError,
)
from reference40 import ONE_ULP_POINTS, family_reference

PI = math.pi


def fam(code, order):
    return SumFamily.from_code(code, order)


# hand-computed leading partial sums; N counts summands from the first index
PARTIAL_CASES = [
    ("S", 0, 0.25, 1, -1.0 / PI),
    ("C", 1, 0.0, 2, -3.0 / (4.0 * PI**2)),
    ("bS", 1, 0.1, 1, math.sin(0.2 * PI) / PI**3),
    ("tbS", 0, 0.3, 1, math.sin(0.6 * PI) / PI),
    ("P", 1, 0.2, 2, -math.sin(0.4 * PI) / (27.0 * PI**3)),
]


@pytest.mark.parametrize(
    "code,order,z,n,expected",
    PARTIAL_CASES,
    ids=[f"{c}{o}-N{n}" for c, o, _, n, _ in PARTIAL_CASES],
)
def test_partial_sum_leading_terms(code, order, z, n, expected):
    assert partial_sum(fam(code, order), z, n) == pytest.approx(expected, abs=1e-16)


def test_partial_sum_matches_scalar_loop():
    # the vectorised phase-split accumulation against a plain fsum with
    # exact rational phase reduction
    z = 0.123456789
    zf = Fraction(z)
    lib = partial_sum(fam("tS", 1), z, 3000)
    ref = math.fsum(
        math.sin(2.0 * PI * float((k * zf) % 1)) / (PI * k) ** 3
        for k in range(1, 3001)
    )
    assert abs(lib - ref) <= 1e-14


def test_partial_sum_chunk_size_is_invisible(monkeypatch):
    z = 0.123456789
    before = partial_sum(fam("tS", 1), z, 3000)
    monkeypatch.setattr(oracle, "_CHUNK", 1009)
    after = partial_sum(fam("tS", 1), z, 3000)
    assert abs(before - after) <= 1e-15
    # three chunks of 4099 terms each take the block sum, as does the one
    # chunk of 12,297 terms they split
    n = 3 * 4099
    monkeypatch.setattr(oracle, "_CHUNK", 1 << 20)
    before = partial_sum(fam("tS", 1), z, n)
    monkeypatch.setattr(oracle, "_CHUNK", 4099)
    after = partial_sum(fam("tS", 1), z, n)
    assert abs(before - after) <= 1e-15


def test_oracle_eval_on_two_threads_gives_the_sequential_reports():
    # each call allocates its own scratch arrays, so library callers may
    # run the oracle on threads: a capped resonant point and an averaged
    # p = 0 point start together and must not disturb each other
    points = [(fam("C", 1), 0.5, 1e-8), (fam("tSp", 0), 0.3, 1e-6)]
    sequential = [oracle_eval(f, z, tol, strict=False) for f, z, tol in points]
    start = threading.Barrier(len(points), timeout=60)

    def run(point):
        f, z, tol = point
        start.wait()
        return oracle_eval(f, z, tol, strict=False)

    with ThreadPoolExecutor(max_workers=len(points)) as pool:
        threaded = list(pool.map(run, points))
    assert threaded == sequential
    assert [(r.mode, r.terms_used) for r in threaded] == [
        ("absolute", 1_000_000),
        ("averaged-conditional", 1600),
    ]


def test_oracle_report_is_a_named_tuple():
    r = oracle_eval(fam("S", 3), 0.3, 1e-8)
    assert r._fields == ("value", "terms_used", "tail_bound", "mode")
    value, terms_used, tail_bound, mode = r
    assert r == (value, 5, tail_bound, "absolute")
    with pytest.raises(AttributeError):
        r.mode = "averaged-conditional"
    assert hash(r) == hash(oracle_eval(fam("S", 3), 0.3, 1e-8))
    for copy in (pickle.loads(pickle.dumps(r)), r._replace(mode=mode)):
        assert type(copy) is oracle.OracleReport and copy == r
    assert repr(r) == (
        f"OracleReport(value={value!r}, terms_used=5, tail_bound={tail_bound!r}, "
        "mode='absolute')"
    )


def test_absolute_mode_for_fast_series():
    r = oracle_eval(fam("S", 1), 0.3, 1e-6)
    assert r.mode == "absolute"
    assert r.terms_used < 1000
    assert r.tail_bound <= 1e-6
    assert abs(r.value - (-0.032)) <= r.tail_bound


def test_absolute_mode_tightens_with_tolerance():
    # 0.01 turns from resonance the tail by parts' first head grows as tol
    # tightens, from 128 terms at 1e-4 to 256 at 1e-6
    f = fam("C", 1)
    assert shape_delta(f, 0.49) == pytest.approx(0.01, rel=1e-12)
    loose = oracle_eval(f, 0.49, 1e-4)
    tight = oracle_eval(f, 0.49, 1e-6)
    assert loose.mode == tight.mode == "absolute"
    assert (loose.terms_used, tight.terms_used) == (128, 256)
    closed = eval_family(f, 0.49).value
    assert abs(tight.value - closed) <= tight.tail_bound


@pytest.mark.parametrize(
    "code,z,tol,want",
    [
        ("tC", 0.3, 1e-6, -0.5),
        ("tSp", 0.25, 1e-6, 0.5),
        ("Sp", 0.25, 1e-6, -0.5),
    ],
)
def test_averaged_mode_for_slow_series(code, z, tol, want):
    # p = 0 series never meet an absolute tail bound; acceleration by
    # iterated averaging of partial sums takes over
    r = oracle_eval(fam(code, 0), z, tol)
    assert r.mode == "averaged-conditional"
    assert abs(r.value - want) <= tol


def test_sawtooth_takes_the_tail_by_parts():
    # the p = 1 sawtooth converges only conditionally; off resonance a
    # head of 16 terms and the tail by parts reach 1e-8
    r = oracle_eval(fam("S", 0), 0.3, 1e-8)
    assert (r.mode, r.terms_used) == ("absolute", 16)
    assert r.tail_bound <= 1e-8
    assert abs(r.value - (-0.3)) <= 1e-8


def test_tail_by_parts_below_absolute_reach():
    # p = 3 at tol 1e-10 would need more terms than the absolute cap; off
    # resonance a head of 32 terms and the tail by parts reach it
    r = oracle_eval(fam("S", 1), 0.3, 1e-10)
    assert r.mode == "absolute"
    assert r.terms_used == 32
    assert r.tail_bound <= 1e-10
    assert abs(r.value - (-0.032)) <= 1e-10


# (code, orders): one code of each index kind for each parity of p, the
# orders giving p in {2, 4} or {3, 7}; alternating and not, sin and cos
BY_PARTS_CODES = [
    ("C", (1, 2)),
    ("tS", (1, 3)),
    ("tbSp", (1, 2)),
    ("bCp", (1, 3)),
    ("Q", (1, 2)),
    ("tP", (1, 3)),
]
BY_PARTS_DELTAS = (1.0 / 64.0 + 1e-3, 0.1, 0.25, 0.5)


def z_at_delta(f, delta, side):
    """A z whose phase step is delta turns past (side 1) or short of
    (side -1) a whole turn."""
    shift = 0.5 if f.alternating else 0.0
    scale = 2.0 if f.index_kind == "2k+1" and f.modified == "none" else 1.0
    return (side * delta - shift) / scale


def shape_delta(f, z):
    """The phase step's distance from a whole turn, read from the series
    record."""
    s = oracle._series(f, z)
    return min(s.step, s.den - s.step) / s.den


def cap_of(f):
    """The oracle's term cap at f's power."""
    return oracle._CAP_P2 if f.power == 2 else oracle._CAP_P3 if f.power >= 3 else oracle._MAX_TERMS


def first_head(f, delta, tol):
    """The tail by parts' first head at the phase step delta, at 30
    digits: N = K - k0 for the least K where the remainder's estimate
    2 (p)_J c**J pi**-p (c*K + d)**-(p+J) rho**(J+1), rho = 1/(2 sin(pi delta)),
    is at most tol/2, taken up to a power of two and at least 4."""
    p, parts = f.power, oracle._PARTS
    c, d = (2, 1) if f.index_kind == "2k+1" else (1, 0)
    with mpmath.workdps(30):
        rho = 1 / (2 * mpmath.sin(mpmath.pi * delta))
        estimate = 4 * mpmath.rf(p, parts) * c**parts * rho ** (parts + 1) / (mpmath.pi**p * tol)
        x = estimate ** (mpmath.mpf(1) / (p + parts))  # the least c*K + d
        n = max(4, int(mpmath.ceil((x - d) / c)) - f.k_start)
    return 1 << (n - 1).bit_length()


def by_parts(f, z, tol, n=None):
    """oracle._by_parts of f at z from a head of n terms, by default the
    first head at most the cap, whatever route oracle_eval would take."""
    s = oracle._series(f, z)
    ratio = oracle._ratio(s)
    if n is None:
        n = min(oracle._first_head(s, ratio[1], tol), cap_of(f))
    return oracle._by_parts(s, ratio, n, tol, cap_of(f), True)


SHAPE_ZS = (-0.4, 0.49999999999999994, 1.5000000000000002, 5e-324, -1e15 + 0.25)


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_shape_is_the_exact_series_shape(code):
    # against Fraction turns: term k of the defining series turns k*z, or
    # (2k+1)*z for the 2k+1 families other than P/Q, plus k/2 when the
    # family alternates; its denominator is k or 2k+1, its first index
    # k_start, and it is the sine or cosine of its turns over pi**power
    f = fam(code, 1)
    odd = f.index_kind == "2k+1"
    for z in SHAPE_ZS:
        zq = Fraction(z)
        s = oracle._series(f, z)
        assert (s.c, s.d, s.den) == ((2, 1) if odd else (1, 0)) + (2 * zq.denominator,)
        assert (s.p, s.sin, s.k0) == (f.power, f.trig == "sin", f.k_start)
        assert 0 <= s.step < s.den and 0 <= s.pref_num < s.den
        for k in (0, 1, 2, 3, 10**8):
            mult = 2 * k + 1 if odd and f.modified == "none" else k
            want = (mult * zq + (Fraction(k, 2) if f.alternating else 0)) % 1
            assert Fraction(k * s.step + s.pref_num, s.den) % 1 == want, (z, k)


def test_shape_delta_is_exact_where_float_turns_round():
    # the alternating families' frac(z + 1/2) in floats reads
    # 0.10000000000000009 at z = -0.4, and 0 at z = 0.5 - 2**-54, one ulp
    # below a half turn
    for code in ("S", "Cp", "P", "Qp"):
        assert shape_delta(fam(code, 1), -0.4) == 0.09999999999999998
    assert shape_delta(fam("S", 1), 0.49999999999999994) == 2.0**-54
    assert shape_delta(fam("tS", 1), 5e-324) == 5e-324


@pytest.mark.parametrize("code,orders", BY_PARTS_CODES, ids=[c for c, _ in BY_PARTS_CODES])
@pytest.mark.parametrize("index", range(len(BY_PARTS_DELTAS)))
def test_tail_by_parts_within_its_bound_against_40_digits(code, orders, index):
    # the head, the tail's J terms and their rounding, and the remainder
    # after J steps, against the whole series at 40 digits; orders whose
    # tol oracle_eval would reach by the integral tail take _by_parts here
    delta = BY_PARTS_DELTAS[index]
    for order in orders:
        f = fam(code, order)
        z = z_at_delta(f, delta, (-1) ** index)
        assert shape_delta(f, z) == pytest.approx(delta, abs=1e-12)
        want = family_reference(f, z)
        for tol in (1e-8, 1e-10):
            r = by_parts(f, z, tol)
            assert r.mode == "absolute"
            assert r.tail_bound <= tol
            assert abs(r.value - want) <= r.tail_bound, (order, tol)


@pytest.mark.parametrize("code,order", [("C", 8), ("bCp", 30), ("S", 60), ("C", 60)])
def test_tail_by_parts_within_its_bound_at_high_order(code, order):
    # each term of the head carries float pi**-p's 0.351u*p; the bound
    # charges (16 + 0.36p)u*g(k) per term.  At order 60 a bound charging
    # 16u per term is below the error of S and C
    f = fam(code, order)
    z = z_at_delta(f, 0.1, 1)
    want = family_reference(f, z)
    r = by_parts(f, z, 1e-10)
    assert (r.mode, r.terms_used) == ("absolute", first_head(f, shape_delta(f, z), 1e-10))
    assert abs(r.value - want) <= r.tail_bound, (r, want)


@pytest.mark.parametrize("c,d", [(1, 0), (2, 1)])
@pytest.mark.parametrize("p", [1, 2, 3, 7, 121])
@pytest.mark.parametrize("k", [41, 1000])
def test_tail_differences_are_the_correctly_rounded_exact_ones(c, d, p, k):
    count = oracle._PARTS + 1
    want = [
        float(
            sum(
                (-1) ** (j - i) * math.comb(j, i) * Fraction(1, (c * (k + i) + d) ** p)
                for i in range(j + 1)
            )
        )
        for j in range(count)
    ]
    assert oracle._differences(c, d, p, k, count) == tuple(want)


# one order-0 code of each index kind, sin and cos, alternating and not:
# every one has p = 1
P1_CODES = ("S", "Cp", "bS", "tbCp", "P", "Qp")
P1_DELTAS = (1e-5, 1e-3, 1.0 / 64.0 + 1e-3, 0.1, 0.25, 0.5)


@pytest.mark.parametrize("code", P1_CODES)
@pytest.mark.parametrize("index", range(len(P1_DELTAS)))
def test_p1_tail_by_parts_within_its_bound_against_40_digits(code, index):
    # oracle_eval's route at p = 1, at every delta: the first head, the
    # head's rounding charged over its own sum of g(k), which grows as ln N
    delta = P1_DELTAS[index]
    f = fam(code, 0)
    assert f.power == 1
    z = z_at_delta(f, delta, (-1) ** index)
    assert shape_delta(f, z) == pytest.approx(delta, rel=1e-9)
    want = family_reference(f, z)
    for tol in (1e-6, 1e-8):
        r = oracle_eval(f, z, tol)
        assert r.mode == "absolute"
        assert r.terms_used == first_head(f, shape_delta(f, z), tol)
        assert r.tail_bound <= tol
        assert abs(r.value - want) <= r.tail_bound, (tol, r, want)


@pytest.mark.parametrize(
    "code,z",
    [
        # averaged envelopes of 1.12e-6 and below whose errors were up to
        # 82.8 times as large
        ("tP", -1.0000893888718405),
        ("tQp", 0.999947016746523),
        # 1e-7 turns from resonance: 33,554,432 terms, 32 chunks of block sums
        ("Qp", 0.4999999),
    ],
)
def test_p1_tail_by_parts_near_resonance_within_its_bound(code, z):
    f = fam(code, 0)
    r = oracle_eval(f, z, 1e-6)
    assert r.mode == "absolute"
    assert r.tail_bound <= 1e-6
    assert abs(r.value - family_reference(f, z)) <= r.tail_bound, r


def counting_sums(monkeypatch):
    """A list that grows by one for each oracle._sum call from here on."""
    calls, block = [], oracle._sum

    def counting(*args):
        calls.append(args[1:])
        return block(*args)

    monkeypatch.setattr(oracle, "_sum", counting)
    return calls


def test_p1_tail_by_parts_past_its_cap_refuses_before_summing(monkeypatch):
    # N = 33,554,432 at Qp 0, z = 0.4999999, clamped to a cap of 1000
    # terms: the bound there is honest.  Without strict the head is summed
    # and reported; strict raises before any sum, its best report holding
    # the same terms and bound and the value nan
    monkeypatch.setattr(oracle, "_MAX_TERMS", 1000)
    calls = counting_sums(monkeypatch)
    f = fam("Qp", 0)
    loose = oracle_eval(f, 0.4999999, 1e-6, strict=False)
    assert (loose.mode, loose.terms_used) == ("absolute", 1000)
    assert loose.tail_bound > 1e-6 and math.isfinite(loose.value)
    assert len(calls) == 1
    message = r"^tail bound .* exceeds tol .* after 1000 terms for Qp order 0$"
    with pytest.raises(ToleranceNotReachedError, match=message) as info:
        oracle_eval(f, 0.4999999, 1e-6)
    assert len(calls) == 1
    best = info.value.best
    assert (best.mode, best.terms_used, best.tail_bound) == ("absolute", 1000, loose.tail_bound)
    assert math.isnan(best.value)
    assert info.value.error_estimate == loose.tail_bound


def test_strict_refusal_at_the_term_cap_sums_nothing(monkeypatch):
    # P 0 at z = 0.49999999, 1e-8 turns from resonance, needs
    # N = 536,870,912 terms; at the 10^8-term cap the bound is 6.4e-3, so a
    # strict call raises without summing the head
    calls = counting_sums(monkeypatch)
    message = r"^tail bound 6\.4\d\de-03 exceeds tol 1\.000e-08 after 100000000 terms for P"
    with pytest.raises(ToleranceNotReachedError, match=message) as info:
        oracle_eval(fam("P", 0), 0.49999999, 1e-8)
    assert calls == []
    assert info.value.best.terms_used == oracle._MAX_TERMS


@pytest.mark.parametrize("code", [c for c in FAMILY_CODES if fam(c, 0).power == 1])
def test_p1_resonance_never_reaches_the_tail_by_parts(code):
    # the tail by parts divides by |u - 1|: every z of the grid where the
    # phase step is a whole turn is refused at the gate, as a jump
    # (JumpPointError is a SingularPointError) or as a log point
    f = fam(code, 0)
    resonant = [z / 8 for z in range(-16, 17) if shape_delta(f, z / 8) == 0]
    assert resonant
    for z in resonant:
        with pytest.raises(SingularPointError):
            oracle_eval(f, z, 1e-6)


# 200 z from -2 in steps of 1/41, 0.0013 past the grid so that some lie
# within 1.3e-3 of a pole, where 1600 terms cannot damp the oscillation
P0_ZS = tuple(-2.0 + k / 41.0 + 0.0013 for k in range(200))


def test_converged_averaged_envelopes_hold_against_40_digits(monkeypatch, capsys):
    # at p = 0 the partial sums oscillate about the Abel value with the
    # same amplitude at every n, so the ladder over the first 1600 sums is
    # all the averaged mode needs; a report whose envelope meets tol must
    # hold against the 40-digit series, Li_0(u) = u/(1 - u) at p = 0
    from englert_sums import cli

    verify_points = []

    def recording(f, z, tol, strict=True):
        if f.power == 0:
            verify_points.append((f, z))
        return oracle_eval(f, z, tol, strict=strict)

    monkeypatch.setattr(cli, "oracle_eval", recording)
    assert cli.run(["verify"]) == 0
    assert capsys.readouterr().out.endswith("PASS 3507/3507\n")
    assert len(verify_points) == 111
    cases = [(f, z, 1e-8) for f, z in verify_points]
    for code in ("tC", "Sp", "tSp"):
        cases += [(fam(code, 0), z, tol) for z in P0_ZS for tol in (1e-6, 1e-8, 1e-10)]
    certified = collections.Counter()
    for f, z, tol in cases:
        r = oracle_eval(f, z, tol, strict=False)
        assert (r.mode, r.terms_used) == ("averaged-conditional", 1600)
        if r.tail_bound <= tol:
            certified[f.code, tol] += 1
            want = family_reference(f, z)
            assert abs(r.value - want) <= r.tail_bound, (f.code, z, tol, r, want)
    # most of the grid converges, at every tol
    assert len(certified) == 9 and min(certified.values()) >= 150, certified
    # an unconverged report is not certified: at Sp 0, 4e-4 turns from a
    # pole, the smallest envelope, 200, is below the error, 337
    f = fam("Sp", 0)
    r = oracle_eval(f, -1.5004, 1e-6, strict=False)
    assert r.tail_bound > 1e-6
    assert abs(r.value - family_reference(f, -1.5004)) > r.tail_bound


def test_unconverged_averaging_stops_at_its_window(monkeypatch):
    # tSp 0 at z = 1e-3 turns its phase by 1e-3 a term: the ladder cannot
    # damp that in 1600 terms, and no longer sum would, as the
    # oscillation's amplitude 1/(2 sin(pi delta)) does not shrink with n
    calls = collections.Counter()
    terms, block = oracle._terms, oracle._sum

    def counting_terms(*args):
        calls["_terms"] += 1
        return terms(*args)

    def counting_sum(*args):
        calls["_sum"] += 1
        return block(*args)

    monkeypatch.setattr(oracle, "_terms", counting_terms)
    monkeypatch.setattr(oracle, "_sum", counting_sum)
    f = fam("tSp", 0)
    loose = oracle_eval(f, 1e-3, 1e-6, strict=False)
    assert calls == {"_terms": 1}
    assert (loose.mode, loose.terms_used) == ("averaged-conditional", 1600)
    assert loose.tail_bound > 1e-6
    message = r"^averaged envelope .* exceeds tol .* after 1600 terms for tSp order 0$"
    with pytest.raises(ToleranceNotReachedError, match=message) as info:
        oracle_eval(f, 1e-3, 1e-6)
    assert info.value.best == loose
    assert info.value.error_estimate == loose.tail_bound
    assert calls == {"_terms": 2}


def test_tail_differences_are_cached_on_the_default_verify(capsys):
    # the default verify takes the tail by parts at 1332 points, 444 of
    # them at p = 1, all at 15 distinct arguments; the cached rows are
    # tuples (test_tail_differences_are_the_correctly_rounded_exact_ones),
    # so no caller can change one
    from englert_sums import cli

    oracle._differences.cache_clear()
    assert cli.run(["verify"]) == 0
    assert capsys.readouterr().out.endswith("PASS 3507/3507\n")
    info = oracle._differences.cache_info()
    assert (info.hits, info.misses) == (1317, 15)


@pytest.mark.parametrize("code", ["C", "tS", "tbSp", "bCp", "Q", "tP"])
def test_tail_by_parts_stays_short_just_off_resonance(code):
    # 1e-3 turns from resonance, where the capped sum would take 10^6 or
    # 10^4 terms, the first head at 1e-10 is 4096 terms at p = 2 and 2048
    # at p = 3
    f = fam(code, 1)
    z = z_at_delta(f, 1e-3, 1)
    r = by_parts(f, z, 1e-10)
    want = 4096 if f.power == 2 else 2048
    assert r.terms_used == first_head(f, shape_delta(f, z), 1e-10) == want
    assert r.tail_bound <= 1e-10
    closed = eval_family(f, z)
    assert abs(r.value - closed.value) <= r.tail_bound + closed.error_bound
    if f.power == 2:
        # past the absolute cap at tol 1e-8 too: oracle_eval's route
        assert oracle_eval(f, z, 1e-8) == by_parts(f, z, 1e-8)
        # below any tol oracle_eval takes, a head of 256 terms, where the
        # remainder dominates the bound, doubles until the bound fits
        r = by_parts(f, z, 1e-14, n=256)
        assert (r.terms_used, r.tail_bound <= 1e-14) == (8192, True)
        assert abs(r.value - closed.value) <= r.tail_bound + closed.error_bound


# p = 1, 2 and 3: k and 2k+1 families, alternating and not, sin and cos
NEAR_CODES = [("S", 0), ("bS", 0), ("Qp", 0), ("C", 1), ("tbSp", 1), ("Q", 1), ("tS", 1), ("bCp", 1), ("tP", 1)]
NEAR_DELTAS = (1e-5, 1e-4, 1e-3, 1.0 / 64.0)


@pytest.mark.parametrize("code,order", NEAR_CODES, ids=[f"{c}{o}" for c, o in NEAR_CODES])
def test_tail_by_parts_near_resonance_within_its_bound_against_40_digits(code, order):
    # 1e-5 to 1/64 of a turn from resonance, where the tail by parts once
    # gave way to the capped sum: every first head at most the cap meets
    # tol with no doubling, and holds against the 40-digit series
    f = fam(code, order)
    held = 0
    for side, delta in enumerate(NEAR_DELTAS):
        z = z_at_delta(f, delta, (-1) ** side)
        assert shape_delta(f, z) == pytest.approx(delta, rel=1e-9)
        want = None
        for tol in (1e-6, 1e-8, 1e-10):
            n = first_head(f, shape_delta(f, z), tol)
            if n > cap_of(f):
                continue
            r = by_parts(f, z, tol)
            assert (r.mode, r.terms_used) == ("absolute", n)
            assert r.tail_bound <= tol
            if want is None:
                want = family_reference(f, z)
            assert abs(r.value - want) <= r.tail_bound, (delta, tol, r, want)
            held += 1
    assert held >= (12 if f.power <= 2 else 7), held


def test_c1_near_the_jump_takes_the_tail_by_parts():
    # 2e-3 turns from resonance C 1 needs 10^7 terms by the integral tail,
    # past its 10^6-term cap: its first head of 2048 terms and the tail by
    # parts certify 1e-8
    f = fam("C", 1)
    r = oracle_eval(f, 0.499, 1e-8)
    assert (r.mode, r.terms_used) == ("absolute", 2048)
    assert r.tail_bound <= 3e-9
    assert abs(r.value - family_reference(f, 0.499)) <= r.tail_bound


def test_default_verify_meets_tol_at_the_first_head(monkeypatch, capsys):
    # every point of the default verify that takes the tail by parts, 888
    # at p >= 2 and 444 at p = 1, meets tol at its first head, with no
    # doubling
    from englert_sums import cli

    heads, by_parts_ = collections.Counter(), oracle._by_parts

    def recording(s, ratio, n, tol, cap, strict):
        r = by_parts_(s, ratio, n, tol, cap, strict)
        assert (r.terms_used, r.tail_bound <= tol) == (n, True), (s, tol, r)
        heads[min(s.p, 2)] += 1
        return r

    monkeypatch.setattr(oracle, "_by_parts", recording)
    assert cli.run(["verify"]) == 0
    assert capsys.readouterr().out.endswith("PASS 3507/3507\n")
    assert heads == {2: 888, 1: 444}


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_short_heads_take_the_tail_by_parts_below_the_cap(code):
    # off resonance a p >= 2 point whose integral tail needs _SHORT terms
    # or more past the tail by parts' first head takes the tail by parts,
    # under the cap too.  Each such report holds against the 40-digit series,
    # and agrees with the direct sum of need terms within the two bounds;
    # and no strict call raises where the direct sum of need <= cap terms
    # met tol
    routed = 0
    for order in (1, 2, 3, 8):
        f = fam(code, order)
        assert f.power >= 2
        cap = oracle._CAP_P2 if f.power == 2 else oracle._CAP_P3
        for side, delta in enumerate((1.0 / 64.0 + 1e-3, 0.2, 0.5)):
            z = z_at_delta(f, delta, (-1) ** side)
            assert shape_delta(f, z) == pytest.approx(delta, abs=1e-12)
            s = oracle._series(f, z)
            want = None
            for tol in (1e-6, 1e-8, 1e-10):
                need = oracle._plan(s.c, s.p, tol)[0]
                if need > cap:
                    continue
                r = oracle_eval(f, z, tol)
                assert r.mode == "absolute" and r.tail_bound <= tol
                if need < first_head(f, shape_delta(f, z), tol) + oracle._SHORT:
                    assert r.terms_used == need
                    continue
                routed += 1
                assert r.terms_used < need
                if want is None:
                    want = family_reference(f, z)
                assert abs(r.value - want) <= r.tail_bound, (order, z, tol)
                direct = oracle._sum(s, s.k0, s.k0 + need)
                charge = oracle._tail_bound(s.c, s.p, need) + oracle._head_charge(s.c, s.p, need)
                assert abs(r.value - direct) <= r.tail_bound + charge, (order, z, tol)
    assert routed >= 5, routed


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_short_heads_by_parts_meet_every_tol_the_direct_sum_met(code):
    # 64 phase steps across (1/64, 1/2] turns: wherever the direct sum of
    # need <= cap terms met tol, the strict call returns a report within
    # tol, by parts when need passes the first head and directly otherwise
    for order in (1, 2, 3, 8):
        f = fam(code, order)
        cap = oracle._CAP_P2 if f.power == 2 else oracle._CAP_P3
        for i in range(1, 65):
            delta = 1.0 / 64.0 + i * (0.5 - 1.0 / 64.0) / 64
            z = z_at_delta(f, delta, (-1) ** i)
            s = oracle._series(f, z)
            for tol in (1e-6, 1e-8, 1e-10):
                need = oracle._plan(s.c, s.p, tol)[0]
                if need <= cap:
                    r = oracle_eval(f, z, tol)
                    assert r.tail_bound <= tol
                    assert r.terms_used <= need


def test_the_plan_cache_changes_no_report():
    # _plan and _head_charge are caches of pure functions: a report read
    # with both cleared equals one read warm, at p = 1 by parts, and at
    # p >= 2 on the direct route and by parts under and past the cap
    points = [("S", 0, 0.3), ("S", 3, 0.3), ("C", 1, 0.49), ("C", 1, 0.3), ("S", 1, 0.3)]
    for tol in (1e-6, 1e-8, 1e-10):
        for code, order, z in points:
            f = fam(code, order)
            oracle._plan.cache_clear()
            oracle._head_charge.cache_clear()
            cold = oracle_eval(f, z, tol, strict=False)
            assert oracle_eval(f, z, tol, strict=False) == cold
    info = oracle._plan.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_verify_still_reports_every_oracle_kind(monkeypatch, capsys):
    # the benchmark's traced pass declares spans for absolute, capped and
    # averaged oracle reports of the default verify; an oracle change that
    # empties one of them fails here too
    from englert_sums import cli

    kinds = collections.Counter()

    def counting(f, z, tol, strict=True):
        r = oracle_eval(f, z, tol, strict=strict)
        if r.mode == "averaged-conditional":
            kinds["averaged"] += 1
        else:
            kinds["absolute" if r.tail_bound <= tol else "capped"] += 1
        return r

    monkeypatch.setattr(cli, "oracle_eval", counting)
    assert cli.run(["verify"]) == 0
    assert capsys.readouterr().out.endswith("PASS 3507/3507\n")
    assert set(kinds) == {"absolute", "capped", "averaged"}, kinds


def test_non_oscillating_point_hits_the_cap():
    # 1e-6 turns from the jump of the square-wave component the partial
    # sums drift one way for some 10^6 terms: the tail by parts' first
    # head, 2^21 terms, would pass the 10^6-term cap, though not need, so
    # the absolute cap is the best available
    f = fam("C", 1)
    z = 0.499999
    need = oracle._plan(1, 2, 1e-8)[0]
    assert oracle._CAP_P2 < first_head(f, shape_delta(f, z), 1e-8) == 2**21 < need - oracle._SHORT
    r = oracle_eval(f, z, 1e-8, strict=False)
    assert r.mode == "absolute"
    assert r.terms_used == 1_000_000
    assert r.tail_bound > 1e-8
    closed = eval_family(f, z).value
    assert abs(r.value - closed) <= r.tail_bound

    with pytest.raises(ToleranceNotReachedError) as info:
        oracle_eval(f, z, 1e-8)
    err = info.value
    assert err.best is not None
    assert err.best.terms_used == 1_000_000
    assert err.error_estimate == pytest.approx(r.tail_bound)


@pytest.mark.parametrize("c,d", [(1, 0), (2, 1)])
@pytest.mark.parametrize("p", [2, 3, 8])
def test_drift_bounds_the_40_digit_move_of_a_whole_turn_read(c, d, p):
    # reading the n terms from k0 at the phase of the first moves their sum
    # by sum_{j<n} (u**j - 1)*g(k0 + j), pref's unit aside, which _drift
    # must bound at phase steps 2^-52, 1e-12 and 1e-9 turns past a whole
    # turn, and as far short of one, where the move is its conjugate
    k0, checks = 1 - d, (oracle._SHORT, 1000, 10**4)
    with mpmath.workdps(40):
        g = [(mpmath.pi * (c * (k0 + j) + d)) ** -p for j in range(checks[-1])]
        for delta in (2.0**-52, 1e-12, 1e-9):
            step, den = Fraction(delta).as_integer_ratio()
            past, short = (oracle._Series(c, d, t, den, 0, p, False, k0, PI**-p) for t in (step, den - step))
            u = mpmath.expjpi(2 * mpmath.mpf(step) / den)
            w, move = mpmath.mpc(1), mpmath.mpc(0)
            for j, weight in enumerate(g, 1):
                move += (w - 1) * weight
                w *= u
                if j in checks:
                    drift = oracle._drift(past, j)
                    assert drift == oracle._drift(short, j)
                    assert abs(move) <= drift, (delta, j, float(abs(move)), drift)


@pytest.mark.parametrize("code", ["C", "tbC"])
def test_near_whole_turn_heads_switch_where_the_drift_meets_the_charge(code, monkeypatch):
    # a k and a 2k+1 family at p = 2, whose direct route sums 10^6 terms
    # at 1e-8 near resonance: at a phase step whose drift D is within the
    # head's charge the head is read at its first term's phase, a sum of
    # weights, and D joins the bound; a little farther from the whole turn
    # the block sum takes it.  Both reports hold against the 40-digit series
    f = fam(code, 1)
    steps, inner = [], oracle._sum
    monkeypatch.setattr(oracle, "_sum", lambda s, lo, hi: steps.append(s.step) or inner(s, lo, hi))
    s = oracle._series(f, z_at_delta(f, 1e-15, -1))
    _, n, bound = oracle._plan(s.c, 2, 1e-8)
    charge = oracle._head_charge(s.c, 2, n)
    # the delta whose D is the charge
    edge = 1e-15 * charge / oracle._drift(s, n)
    for factor, read in ((0.8, True), (1.25, False)):
        z = z_at_delta(f, factor * edge, -1)
        s = oracle._series(f, z)
        drift = oracle._drift(s, n)
        assert (drift <= charge) == read, (factor, drift, charge)
        steps.clear()
        r = oracle_eval(f, z, 1e-8, strict=False)
        assert (r.terms_used, len(steps), steps[0] == 0) == (n, 1, read)
        assert r.tail_bound == (bound + drift if read else bound)
        assert abs(r.value - family_reference(f, z)) <= r.tail_bound, (factor, r)


def test_one_ulp_default_points_are_read_at_the_whole_turn():
    # each point's drift is within its head's charge: the head is read at
    # its first term's phase, its bound the plan's plus D, and stays above
    # tol.  test_reference's audit holds each against the 40-digit series
    for code, order, z in ONE_ULP_POINTS:
        f = fam(code, order)
        s = oracle._series(f, z)
        assert 0 < shape_delta(f, z) < 1e-15
        _, n, bound = oracle._plan(s.c, s.p, 1e-8)
        drift = oracle._drift(s, n)
        assert n == oracle._CAP_P2 and drift <= oracle._head_charge(s.c, s.p, n)
        r = oracle_eval(f, z, 1e-8, strict=False)
        assert (r.terms_used, r.tail_bound) == (n, bound + drift), (code, z)
        assert r.tail_bound > 1e-8


@pytest.mark.parametrize("order", [309, 310, 400, 1000])
def test_orders_past_the_float_range_of_pi_power(order):
    # S order 309, p = 619, is the last with pi**p below 2**1024.  The
    # oracle never forms pi**p: float pi**-p, which carries p times float
    # pi's 0.351u, scales the sums once, a subnormal from p = 619 on and
    # 0.0 from p = 651 on.  At each order the integral tail needs its
    # 4 terms, its bound underflowing to 0.0, so that the head's charge is
    # all the report's bound; and the value, the same as the block sum of
    # 5000 terms gives, lies within that charge and within (16 + 0.36p)u of
    # the 40-digit series, plus a few 2**-1074 where it is subnormal
    f = fam("S", order)
    want = family_reference(f, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = oracle_eval(f, 0.3, 1e-8)
        head = partial_sum(f, 0.3, 4)
        longer = partial_sum(f, 0.3, 5000)
    assert (r.mode, r.terms_used) == ("absolute", 4)
    # the integral tail underflows to 0.0: the bound is the head's charge
    assert r.tail_bound == oracle._head_charge(1, f.power, 4) < 1e-300
    assert r.value == head == longer
    with mpmath.workdps(40):
        allowed = (16 + 0.36 * f.power) * 2.0**-53 * abs(want) + 4 * mpmath.ldexp(1, -1074)
        assert abs(r.value - want) <= min(allowed, r.tail_bound), (r.value, want)


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_direct_route_bounds_hold_at_high_order(code):
    # from order 9 on the integral tail of the 4 or so terms the direct
    # route sums falls below the rounding of those terms, which its bound
    # must charge too: a tail-only bound, 6.1e-27 at bS 9 and z = 0.3, is
    # below the error, 3.1e-25, and at Qp 60 1.1e-164 against 3.2e-75.
    # test_reference's audit holds these bounds against the 40-digit
    # series at each of its orders and z; at its p >= 2 points off
    # resonance each bound also meets tol, so that a strict call returns
    for order in (1, 2, 3, 8, 9, 13, 30, 60, 120):
        f = fam(code, order)
        for z in (0.3, -1.3) if f.power >= 2 else ():
            r = oracle_eval(f, z, 1e-8)
            assert r.tail_bound <= 1e-8, (order, z, r)


def test_direct_route_meets_tol_with_the_head_charge(monkeypatch):
    # the integral tail aims at tol less the largest charge of any head up
    # to the cap, the short kernel's at 63 terms or the block sum's at the
    # cap, so that tail and charge meet tol together whatever n it sums;
    # p = 2..699, k and 2k+1 families, tol 1e-10..1e-2, and tols just
    # above a head of 24 to 63 terms' tail bound plus the charge at the
    # cap, where an aim that charged only the cap would stop and overshoot.
    # At z = 0.3 the tail by parts takes the heads that would pass its
    # first head by _SHORT terms or more; 1e-9 turns from resonance, where
    # its first head would pass the cap, the direct route sums numpy heads
    # of 64 terms on, up to the cap, which
    # test_non_oscillating_point_hits_the_cap takes
    routed, by_parts = [], oracle._by_parts
    monkeypatch.setattr(oracle, "_by_parts", lambda *args: routed.append(args) or by_parts(*args))
    sums = collections.Counter()
    for code in ("S", "C", "bS", "bC"):
        for order in range(1, 350):
            f = fam(code, order)
            s = oracle._series(f, 0.3)
            c, p = s.c, s.p
            cap = oracle._CAP_P2 if p == 2 else oracle._CAP_P3
            edges = [oracle._tail_bound(c, p, n) + oracle._head_charge(c, p, cap) for n in (24, 40, 63)]
            for z in (0.3, z_at_delta(f, 1e-9, 1)):
                for tol in [10.0**e for e in range(-10, -1)] + [t for t in edges if t >= 1e-10]:
                    if oracle._plan(c, p, tol)[0] > cap:
                        continue
                    routed.clear()
                    r = oracle_eval(f, z, tol, strict=False)
                    if routed:
                        assert z == 0.3
                        continue
                    n = r.terms_used
                    assert r.tail_bound == oracle._tail_bound(c, p, n) + oracle._head_charge(c, p, n)
                    assert r.tail_bound <= tol, (code, order, z, tol, r)
                    sums["short" if n < oracle._SHORT else "numpy"] += 1
    assert sums["short"] > 10_000 and sums["numpy"] > 0, sums


@pytest.mark.parametrize(
    "code,order,z,tol,mode,terms",
    [
        ("S", 3, 0.3, 1e-8, "absolute", 5),  # the integral tail
        ("C", 1, 0.3, 1e-8, "absolute", 16),  # the tail by parts
        ("C", 1, 0.5, 1e-8, "absolute", 1_000_000),  # capped at resonance
        ("S", 0, 0.3, 1e-6, "absolute", 16),  # p = 1, the tail by parts
        ("tSp", 0, 0.3, 1e-6, "averaged-conditional", 1600),
    ],
)
def test_each_call_reads_its_family_once(code, order, z, tol, mode, terms, monkeypatch):
    # one series record per oracle_eval or partial_sum call, on every route
    series, calls = oracle._series, []

    def counting(f, zf):
        calls.append((f, zf))
        return series(f, zf)

    monkeypatch.setattr(oracle, "_series", counting)
    f = fam(code, order)
    r = oracle_eval(f, z, tol, strict=False)
    assert (r.mode, r.terms_used) == (mode, terms)
    assert calls == [(f, z)]
    partial_sum(f, z, terms)
    assert calls == [(f, z)] * 2


def test_partial_sum_validation():
    f = fam("tS", 1)
    for bad in (0, -3, 1.5, True):
        with pytest.raises(DomainError):
            partial_sum(f, 0.3, bad)
    with pytest.raises(CapacityError):
        partial_sum(f, 0.3, 200_000_000)
    with pytest.raises(DomainError):
        partial_sum(f, math.nan, 10)


def test_oracle_eval_validation():
    with pytest.raises(DomainError):
        oracle_eval(fam("S", 1), 0.3, 1e-11)
    with pytest.raises(DomainError):
        oracle_eval(fam("S", 1), 0.3, 0.0)
    with pytest.raises(DomainError):
        oracle_eval(fam("S", 1), math.inf, 1e-6)
    with pytest.raises(UnsupportedOrderError):
        oracle_eval(fam("Q", 0), 0.3, 1e-6)
    with pytest.raises(JumpPointError):
        oracle_eval(fam("S", 0), 0.5, 1e-6)


def test_arbitration_prefers_the_accurate_claim():
    f = fam("C", 1)

    def good(z):
        return eval_family(f, z).value

    def bad(z):
        return eval_family(f, z).value + 1e-3

    rep = arbitrate(good, bad, f, [0.1, 0.2, 0.3])
    assert rep.winner == "a"
    assert rep.a_pass == 3 and rep.b_pass == 0
    assert len(rep.rows) == 3
    row = rep.rows[0]
    assert row.z == 0.1
    assert row.a_ok and not row.b_ok
    assert row.diff_a < 1e-9 < row.diff_b
    assert row.value_b - row.value_a == pytest.approx(1e-3, abs=1e-12)
    assert abs(row.oracle_value - row.value_a) < 1e-9

    flipped = arbitrate(bad, good, f, [0.1, 0.2, 0.3])
    assert flipped.winner == "b"


def test_arbitration_tie_outcomes():
    f = fam("C", 1)

    def good(z):
        return eval_family(f, z).value

    def bad(z):
        return eval_family(f, z).value + 1e-3

    assert arbitrate(good, good, f, [0.1, 0.2]).winner == "both"
    assert arbitrate(bad, bad, f, [0.1, 0.2]).winner == "neither"


def test_arbitration_validation():
    f = fam("C", 1)
    with pytest.raises(DomainError):
        arbitrate(lambda z: 0.0, "not callable", f, [0.1])
    with pytest.raises(DomainError):
        arbitrate("not callable", lambda z: 0.0, f, [0.1])
    with pytest.raises(DomainError):
        arbitrate(lambda z: 0.0, lambda z: 0.0, f, [])


def test_package_loads_numpy_only_with_the_oracle():
    # englert_sums serves the oracle names on first read (PEP 562), so
    # closed forms alone never import numpy
    code = (
        "import sys, englert_sums as es\n"
        "es.eval_family(es.SumFamily.from_code('Sp', 2), 0.3)\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded by eval'\n"
        "assert 'oracle_eval' in es.__all__ and 'oracle_eval' in dir(es)\n"
        "assert es.oracle_eval is es.oracle.oracle_eval\n"
        "assert 'numpy' in sys.modules\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
