"""Brute-force series oracle: partial sums, convergence modes, arbitration."""

import collections
import math
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

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


def test_absolute_mode_for_fast_series():
    r = oracle_eval(fam("S", 1), 0.3, 1e-6)
    assert r.mode == "absolute"
    assert r.terms_used < 1000
    assert r.tail_bound <= 1e-6
    assert abs(r.value - (-0.032)) <= r.tail_bound


def test_absolute_mode_tightens_with_tolerance():
    loose = oracle_eval(fam("C", 1), 0.3, 1e-4)
    tight = oracle_eval(fam("C", 1), 0.3, 1e-6)
    assert loose.mode == tight.mode == "absolute"
    assert tight.terms_used > loose.terms_used
    closed = eval_family(fam("C", 1), 0.3).value
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
    # head of 40 terms and the tail by parts reach 1e-8
    r = oracle_eval(fam("S", 0), 0.3, 1e-8)
    assert (r.mode, r.terms_used) == ("absolute", 40)
    assert r.tail_bound <= 1e-8
    assert abs(r.value - (-0.3)) <= 1e-8


def test_tail_by_parts_below_absolute_reach():
    # p = 3 at tol 1e-10 would need more terms than the absolute cap; off
    # resonance a head of 40 terms and the tail by parts reach it
    r = oracle_eval(fam("S", 1), 0.3, 1e-10)
    assert r.mode == "absolute"
    assert r.terms_used == 40
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


def series_reference(f, z):
    """The defining series at 40 digits through the Lerch transcendent, as
    tests/test_reference.py takes the modified families: Re or Im of
    pref * sum_k u**k * (c*k + d)**-p / pi**p, which is u * Phi(u, p, 1)
    for k families and Phi(u, p, 1/2) / 2**p for 2k+1 ones."""
    mpmath = pytest.importorskip("mpmath")
    p = f.power
    with mpmath.workdps(40):
        zm = mpmath.mpf(z)
        sign = mpmath.mpf(1) / 2 if f.alternating else 0
        if f.index_kind == "k":
            u = mpmath.expjpi(2 * (zm + sign))
            s = u * mpmath.lerchphi(u, p, 1)
        else:
            doubled = f.modified == "none"
            u = mpmath.expjpi(2 * ((2 if doubled else 1) * zm + sign))
            pref = mpmath.expjpi(2 * zm) if doubled else 1
            s = pref * mpmath.lerchphi(u, p, mpmath.mpf(1) / 2) / 2**p
        part = s.imag if f.trig == "sin" else s.real
        return part / mpmath.pi**p


@pytest.mark.parametrize("code,orders", BY_PARTS_CODES, ids=[c for c, _ in BY_PARTS_CODES])
@pytest.mark.parametrize("index", range(len(BY_PARTS_DELTAS)))
def test_tail_by_parts_within_its_bound_against_40_digits(code, orders, index):
    # the head, the tail's J terms and their rounding, and the remainder
    # after J steps, against the whole series at 40 digits; orders whose
    # tol oracle_eval would reach by the integral tail take _by_parts here
    delta = BY_PARTS_DELTAS[index]
    for order in orders:
        f = fam(code, order)
        cap = oracle._CAP_P2 if f.power == 2 else oracle._CAP_P3
        z = z_at_delta(f, delta, (-1) ** index)
        assert shape_delta(f, z) == pytest.approx(delta, abs=1e-12)
        want = series_reference(f, z)
        for tol in (1e-8, 1e-10):
            r = oracle._by_parts(oracle._series(f, z), tol, cap, True)
            assert r.mode == "absolute"
            assert r.tail_bound <= tol
            assert abs(r.value - want) <= r.tail_bound, (order, tol)


@pytest.mark.parametrize("code,order", [("C", 8), ("bCp", 30), ("S", 60), ("C", 60)])
def test_tail_by_parts_within_its_bound_at_high_order(code, order):
    # each term of the head carries float pi**-p's 0.351u*p; the bound
    # charges (16 + 0.36p)u*g(k) per term.  At order 60 a bound charging
    # 16u per term is below the error of S and C
    f = fam(code, order)
    cap = oracle._CAP_P2 if f.power == 2 else oracle._CAP_P3
    z = z_at_delta(f, 0.1, 1)
    want = series_reference(f, z)
    r = oracle._by_parts(oracle._series(f, z), 1e-10, cap, True)
    # N = ceil(3J/(2 pi delta)) = 58 at delta = 0.1
    assert (r.mode, r.terms_used) == ("absolute", 58)
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
    # oracle_eval's route at p = 1, at every delta: a head of
    # N = ceil(3J/(2 pi delta)) terms, the head's rounding charged over its
    # own sum of g(k), which grows as ln N
    delta = P1_DELTAS[index]
    f = fam(code, 0)
    assert f.power == 1
    z = z_at_delta(f, delta, (-1) ** index)
    assert shape_delta(f, z) == pytest.approx(delta, rel=1e-9)
    want = series_reference(f, z)
    for tol in (1e-6, 1e-8):
        r = oracle_eval(f, z, tol)
        assert r.mode == "absolute"
        n = math.ceil(3 * oracle._PARTS / (2 * PI * shape_delta(f, z)))
        assert r.terms_used == max(40, n)
        assert r.tail_bound <= tol
        assert abs(r.value - want) <= r.tail_bound, (tol, r, want)


@pytest.mark.parametrize(
    "code,z",
    [
        # averaged envelopes of 1.12e-6 and below whose errors were up to
        # 82.8 times as large
        ("tP", -1.0000893888718405),
        ("tQp", 0.999947016746523),
        # 1e-7 turns from resonance: 57,295,780 terms, 55 chunks of block sums
        ("Qp", 0.4999999),
    ],
)
def test_p1_tail_by_parts_near_resonance_within_its_bound(code, z):
    f = fam(code, 0)
    r = oracle_eval(f, z, 1e-6)
    assert r.mode == "absolute"
    assert r.tail_bound <= 1e-6
    assert abs(r.value - series_reference(f, z)) <= r.tail_bound, r


def counting_sums(monkeypatch):
    """A list that grows by one for each oracle._sum call from here on."""
    calls, block = [], oracle._sum

    def counting(*args):
        calls.append(args[1:])
        return block(*args)

    monkeypatch.setattr(oracle, "_sum", counting)
    return calls


def test_p1_tail_by_parts_past_its_cap_refuses_before_summing(monkeypatch):
    # N = 57,295,780 at Qp 0, z = 0.4999999, clamped to a cap of 1000
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
    # N = 572,957,796 terms; at the 10^8-term cap the bound is 6.4e-3, so a
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
    # hold against the 40-digit series, which lerchphi reads at p = 0 too
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
            want = series_reference(f, z)
            assert abs(r.value - want) <= r.tail_bound, (f.code, z, tol, r, want)
    # most of the grid converges, at every tol
    assert len(certified) == 9 and min(certified.values()) >= 150, certified
    # an unconverged report is not certified: at Sp 0, 4e-4 turns from a
    # pole, the smallest envelope, 200, is below the error, 337
    f = fam("Sp", 0)
    r = oracle_eval(f, -1.5004, 1e-6, strict=False)
    assert r.tail_bound > 1e-6
    assert abs(r.value - series_reference(f, -1.5004)) > r.tail_bound


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
    # the default verify takes the tail by parts at 888 points, 444 of
    # them at p = 1, all at 8 distinct arguments; the cached rows are
    # tuples (test_tail_differences_are_the_correctly_rounded_exact_ones),
    # so no caller can change one
    from englert_sums import cli

    oracle._differences.cache_clear()
    assert cli.run(["verify"]) == 0
    assert capsys.readouterr().out.endswith("PASS 3507/3507\n")
    info = oracle._differences.cache_info()
    assert (info.hits, info.misses) == (880, 8)


@pytest.mark.parametrize("code", ["C", "tS", "tbSp", "bCp", "Q", "tP"])
def test_tail_by_parts_stays_short_just_off_resonance(code):
    # the smallest phase step the tail takes: N = ceil(3J/(2 pi delta)),
    # 367 terms, where the capped sum would take 10^6 or 10^4
    f = fam(code, 1)
    delta = oracle._MONOTONE_DELTA * (1.0 + 1e-9)
    z = z_at_delta(f, delta, 1)
    assert shape_delta(f, z) > oracle._MONOTONE_DELTA
    cap = oracle._CAP_P2 if f.power == 2 else oracle._CAP_P3
    s = oracle._series(f, z)
    r = oracle._by_parts(s, 1e-10, cap, True)
    assert r.terms_used == 367
    assert r.tail_bound <= 1e-10
    closed = eval_family(f, z)
    assert abs(r.value - closed.value) <= r.tail_bound + closed.error_bound
    if f.power == 2:
        # past the absolute cap at tol 1e-8 too: oracle_eval's route
        assert oracle_eval(f, z, 1e-8) == oracle._by_parts(s, 1e-8, cap, True)
        # below any tol oracle_eval takes, where the remainder still
        # dominates the bound, the head doubles until the bound fits
        r = oracle._by_parts(s, 1e-15, cap, True)
        assert (r.terms_used, r.tail_bound <= 1e-15) == (734, True)
        assert abs(r.value - closed.value) <= r.tail_bound + closed.error_bound


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
    # right next to the jump of the square-wave component the series is
    # effectively monotone, so the tail by parts is refused and the
    # absolute cap is the best available
    f = fam("C", 1)
    r = oracle_eval(f, 0.499, 1e-8, strict=False)
    assert r.mode == "absolute"
    assert r.terms_used == 1_000_000
    assert r.tail_bound > 1e-8
    closed = eval_family(f, 0.499).value
    assert abs(r.value - closed) <= r.tail_bound

    with pytest.raises(ToleranceNotReachedError) as info:
        oracle_eval(f, 0.499, 1e-8)
    err = info.value
    assert err.best is not None
    assert err.best.terms_used == 1_000_000
    assert err.error_estimate == pytest.approx(r.tail_bound)


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
    want = series_reference(f, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = oracle_eval(f, 0.3, 1e-8)
        head = partial_sum(f, 0.3, 4)
        longer = partial_sum(f, 0.3, 5000)
    assert (r.mode, r.terms_used) == ("absolute", 4)
    # the integral tail underflows to 0.0: the bound is the head's charge
    assert r.tail_bound == oracle._head_charge(oracle._series(f, 0.3), 4) < 1e-300
    assert r.value == head == longer
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        allowed = (16 + 0.36 * f.power) * 2.0**-53 * abs(want) + 4 * mpmath.ldexp(1, -1074)
        assert abs(r.value - want) <= min(allowed, r.tail_bound), (r.value, want)


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_direct_route_bounds_hold_at_high_order(code):
    # from order 9 on the integral tail of the 4 or so terms the direct
    # route sums falls below the rounding of those terms, which its bound
    # must charge too: a tail-only bound, 6.1e-27 at bS 9 and z = 0.3, is
    # below the error, 3.1e-25, and at Qp 60 1.1e-164 against 3.2e-75
    for order in (9, 13, 30, 60, 120):
        f = fam(code, order)
        r = oracle_eval(f, 0.3, 1e-8)
        want = series_reference(f, 0.3)
        assert abs(r.value - want) <= r.tail_bound, (order, r, want)


@pytest.mark.parametrize(
    "code,order,z,tol,mode,terms",
    [
        ("S", 3, 0.3, 1e-8, "absolute", 5),  # the integral tail
        ("C", 1, 0.3, 1e-8, "absolute", 40),  # the tail by parts
        ("C", 1, 0.5, 1e-8, "absolute", 1_000_000),  # capped at resonance
        ("S", 0, 0.3, 1e-6, "absolute", 40),  # p = 1, the tail by parts
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
