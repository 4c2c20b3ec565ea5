"""Unit-circle polylogarithm values, symmetries, and error bounds."""

import dataclasses
import math
import pickle
import random
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from englert_sums import LiValue, SumFamily, UnitCirclePoint, eval_family, li_on_circle
from englert_sums.errors import CapacityError, DomainError, SingularPointError
from englert_sums import polylog, sums
from englert_sums.coeffs import _table_read, eval_poly
from englert_sums.polylog import _EPS, _clausen_at, _cos_pi, _sin_pi

PI = math.pi

# published reference digits, used nowhere in the library itself
CATALAN = 0.91596559417721901505
ZETA3 = 1.2020569031595942854
ZETA5 = 1.0369277551433699263


def at_turns(a, num, den):
    return li_on_circle(a, UnitCirclePoint.from_turns(Fraction(num, den)))


def beta4_series():
    # Dirichlet beta(4) by its alternating series; error below the first
    # dropped term, 1e-15 territory at 4000 terms
    return math.fsum((-1.0) ** k / (2.0 * k + 1.0) ** 4 for k in range(4000))


KNOWN_POINTS = [
    # (a, turns num/den, exact real, exact imag)
    (2, 0, 1, PI**2 / 6.0, 0.0),
    (2, 1, 2, -(PI**2) / 12.0, 0.0),
    (2, 1, 4, -(PI**2) / 48.0, CATALAN),
    (2, 3, 4, -(PI**2) / 48.0, -CATALAN),
    (3, 0, 1, ZETA3, 0.0),
    (3, 1, 2, -0.75 * ZETA3, 0.0),
    (3, 1, 4, -3.0 * ZETA3 / 32.0, PI**3 / 32.0),
    (4, 0, 1, PI**4 / 90.0, 0.0),
    (4, 1, 2, -7.0 * PI**4 / 720.0, 0.0),
    (4, 1, 4, -7.0 * PI**4 / 11520.0, beta4_series()),
    (5, 1, 2, -15.0 * ZETA5 / 16.0, 0.0),
    (6, 1, 4, -31.0 * PI**6 / 1935360.0, None),
]


@pytest.mark.parametrize("a,num,den,re,im", KNOWN_POINTS)
def test_known_circle_values(a, num, den, re, im):
    v = at_turns(a, num, den)
    assert v.real_part == pytest.approx(re, abs=2e-13)
    assert abs(v.real_part - re) <= v.error_bound + 1e-15
    if im is not None:
        assert v.imag_part == pytest.approx(im, abs=2e-13)
        assert abs(v.imag_part - im) <= v.error_bound + 1e-15


def test_order_one_is_the_elementary_logarithm():
    v = at_turns(1, 1, 2)
    assert v.real_part == pytest.approx(-math.log(2.0), abs=1e-15)
    assert v.imag_part == 0.0
    v = at_turns(1, 1, 4)
    # -log(1 - i) = -log(sqrt 2) + i pi/4
    assert v.real_part == pytest.approx(-0.5 * math.log(2.0), abs=1e-15)
    assert v.imag_part == pytest.approx(PI / 4.0, abs=1e-15)


def test_order_one_diverges_at_one():
    with pytest.raises(SingularPointError):
        at_turns(1, 0, 1)
    with pytest.raises(SingularPointError):
        li_on_circle(1, UnitCirclePoint.from_theta(0.0))


@pytest.mark.parametrize("a", [2, 3, 4, 5, 6])
def test_error_bounds_stay_small(a):
    for i in range(32):
        t = Fraction(2 * i + 1, 64)
        v = at_turns(a, t.numerator, t.denominator)
        assert 0.0 <= v.error_bound < 1e-12
        assert math.isfinite(v.real_part) and math.isfinite(v.imag_part)


@pytest.mark.parametrize("a", [2, 3])
def test_clausen_component_against_direct_series(a):
    # brute-force sum with a Dirichlet-kernel tail bound; independent of
    # the expansion used inside the library
    big = 200000
    k = np.arange(1, big + 1, dtype=np.float64)
    for frac_t in (0.07, 0.18, 0.33, 0.42, 0.61, 0.88):
        theta = 2.0 * PI * frac_t
        v = li_on_circle(a, UnitCirclePoint.from_theta(theta))
        tail = (1.0 / abs(math.sin(0.5 * theta))) / (big + 1.0) ** a
        if a == 2:
            ref = float(np.sum(np.sin(k * theta) / k**2))
            assert abs(v.imag_part - ref) <= tail + 1e-10
        else:
            ref = float(np.sum(np.cos(k * theta) / k**3))
            assert abs(v.real_part - ref) <= tail + 1e-10


@given(
    a=st.integers(min_value=2, max_value=6),
    t=st.fractions(min_value=0, max_value=1),
)
@settings(max_examples=80)
def test_duplication_identity(a, t):
    # Li_a(w) + Li_a(-w) = 2^{1-a} Li_a(w^2) on the circle
    w = li_on_circle(a, UnitCirclePoint.from_turns(t))
    mw = li_on_circle(a, UnitCirclePoint.from_turns(t + Fraction(1, 2)))
    w2 = li_on_circle(a, UnitCirclePoint.from_turns(2 * t))
    scale = 2.0 ** (1 - a)
    assert w.real_part + mw.real_part == pytest.approx(scale * w2.real_part, abs=1e-12)
    assert w.imag_part + mw.imag_part == pytest.approx(scale * w2.imag_part, abs=1e-12)


@given(
    a=st.integers(min_value=2, max_value=6),
    t=st.fractions(min_value=0, max_value=1),
)
@settings(max_examples=80)
def test_conjugation_symmetry(a, t):
    v = li_on_circle(a, UnitCirclePoint.from_turns(t))
    c = li_on_circle(a, UnitCirclePoint.from_turns(-t))
    assert c.real_part == pytest.approx(v.real_part, abs=1e-13)
    assert c.imag_part == pytest.approx(-v.imag_part, abs=1e-13)


def test_an_angle_and_its_negative_read_as_mirror_points():
    # from_theta(-theta) is the conjugate point of from_theta(theta), with
    # the same drift, and li_on_circle returns the conjugate bit for bit
    rng = random.Random(16)
    thetas = [rng.uniform(0.0, PI) for _ in range(60)]
    thetas += [5e-324, 1e-310, 1e-300, 1e-15, 0.5, PI / 2.0, 3.0, math.nextafter(PI, 0.0), PI]
    for theta in thetas:
        p, q = UnitCirclePoint.from_theta(theta), UnitCirclePoint.from_theta(-theta)
        assert p.turns + q.turns == 1, theta
        assert p.drift == q.drift, theta
        for a in (1, 2, 3, 5, 8, 17):
            v, c = li_on_circle(a, p), li_on_circle(a, q)
            assert c.real_part == v.real_part, (a, theta)
            assert c.imag_part == -v.imag_part, (a, theta)
            assert c.error_bound == v.error_bound, (a, theta)


def test_clausen_derivative_matches_log():
    # d/dtheta Im Li_2(e^{i theta}) = -ln|2 sin(theta/2)|, by central
    # differences at 16 points
    h = 1e-6
    for i in range(16):
        theta = 0.3 + i * (2.0 * PI - 0.6) / 15.0
        hi = li_on_circle(2, UnitCirclePoint.from_theta(theta + h)).imag_part
        lo = li_on_circle(2, UnitCirclePoint.from_theta(theta - h)).imag_part
        fd = (hi - lo) / (2.0 * h)
        want = -math.log(abs(2.0 * math.sin(0.5 * theta)))
        assert fd == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("t", [0.49999995, -0.49999995, 1.2345678901, -1.2345678901, -3.75000001])
def test_sin_cos_pi_reduce_exactly_for_either_sign(t):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for fn, ref in ((_sin_pi, mpmath.sinpi), (_cos_pi, mpmath.cospi)):
            want = ref(mpmath.mpf(t))
            assert abs(fn(t) - want) <= 1e-16 * abs(want), (fn.__name__, t)


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("below", [Fraction(0.499999999) + Fraction(1, 2), 1 - Fraction(1, 3 * 10**7)])
def test_turns_just_below_a_whole_turn_keep_their_angle(a, below):
    # float(turns) would round away most of the small angle 1 - turns
    mpmath = pytest.importorskip("mpmath")
    v = li_on_circle(a, UnitCirclePoint.from_turns(below))
    with mpmath.workdps(40):
        t = mpmath.mpf(below.numerator) / below.denominator
        ref = mpmath.polylog(a, mpmath.expjpi(2 * t))
        assert abs(v.real_part - ref.real) <= v.error_bound
        assert abs(v.imag_part - ref.imag) <= v.error_bound


@pytest.mark.parametrize("a", range(2, 26))
def test_sine_component_is_exactly_zero_at_one_and_minus_one(a):
    # Im Li_a(+-1) = 0: no rounding noise and no negative zero
    for t in (Fraction(0), Fraction(1, 2)):
        v = li_on_circle(a, UnitCirclePoint.from_turns(t))
        assert v.imag_part == 0.0 and math.copysign(1.0, v.imag_part) == 1.0, (a, t)


def test_sine_families_are_exactly_zero_at_their_zeros():
    # Sp of order n reads Im Li_2n at turns z + 1/2, so at 1/2 for integer z
    for n in (1, 2, 3):
        for z in (-1.0, 0.0, 1.0, 2.0):
            assert eval_family(SumFamily.from_code("Sp", n), z).value == 0.0, (n, z)


def test_order_cap():
    # the highest order the coefficient tables reach evaluates; the
    # next ones are refused with a typed error
    p = UnitCirclePoint.from_turns(Fraction(1, 3))
    v = li_on_circle(241, p)
    assert math.isfinite(v.real_part) and math.isfinite(v.imag_part)
    for a in (242, 243):
        with pytest.raises(CapacityError):
            li_on_circle(a, p)


def test_unit_circle_point_construction():
    assert [f.name for f in dataclasses.fields(UnitCirclePoint)] == ["turns", "drift"]
    p = UnitCirclePoint.from_turns(Fraction(5, 4))
    assert (p.turns, p.drift) == (Fraction(1, 4), 0.0)
    assert p.theta == pytest.approx(PI / 2.0, abs=1e-15)
    q = UnitCirclePoint.from_theta(-PI / 2.0)
    assert q.turns == Fraction(3, 4) and 0.0 < q.drift < 1e-15
    assert q.theta == pytest.approx(1.5 * PI, abs=1e-12)
    # TWO_PI is 2.45e-16 short of a whole turn, and the point keeps that
    w = UnitCirclePoint.from_theta(2.0 * PI)
    assert 0 < 1 - w.turns < Fraction(1, 10**16)
    assert w.theta == math.nextafter(2.0 * PI, 0.0)
    r = UnitCirclePoint.from_turns(Fraction(999999999, 1000000000))
    assert 0.0 <= r.theta < 2.0 * PI
    below = UnitCirclePoint.from_turns(1 - Fraction(1, 10**20))
    assert below.theta == math.nextafter(2.0 * PI, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "a quarter"])
def test_non_finite_or_non_numeric_angles_raise_domain_error(bad):
    for make in (UnitCirclePoint, UnitCirclePoint.from_turns, UnitCirclePoint.from_theta):
        with pytest.raises(DomainError):
            make(bad)


def test_domain_errors():
    with pytest.raises(DomainError):
        li_on_circle(0, UnitCirclePoint.from_turns(Fraction(1, 4)))
    with pytest.raises(DomainError):
        li_on_circle(2.0, UnitCirclePoint.from_turns(Fraction(1, 4)))
    with pytest.raises(DomainError):
        li_on_circle(True, UnitCirclePoint.from_turns(Fraction(1, 4)))
    with pytest.raises(DomainError):
        li_on_circle(2, 0.25)
    with pytest.raises(DomainError):
        UnitCirclePoint(Fraction(-1, 10))
    with pytest.raises(DomainError):
        UnitCirclePoint(1)
    for drift in (-1e-16, math.inf, math.nan):
        with pytest.raises(DomainError):
            UnitCirclePoint(Fraction(1, 4), drift)
    with pytest.raises(DomainError):
        UnitCirclePoint.from_theta(math.inf)


def test_turns_bounds_are_checked_on_the_integers():
    tiny = Fraction(1, 2**60)
    for bad in (Fraction(1), 1, Fraction(-1, 10), 1 + tiny):
        with pytest.raises(DomainError):
            UnitCirclePoint(bad)
    for good in (Fraction(0), 0, 1 - tiny):
        assert UnitCirclePoint(good).turns == good


def test_li_1_at_turns_below_the_float_range():
    # rn / den underflows here; Li_1 reads the turns by their integers
    t = Fraction(3, 2**2000)
    v = li_on_circle(1, UnitCirclePoint(t))
    assert v.real_part == pytest.approx(2000 * math.log(2) - math.log(6 * PI), rel=1e-15)
    assert v.imag_part == PI / 2 and v.error_bound < 2e-12
    # the same point reflected sits just below a whole turn
    w = li_on_circle(1, UnitCirclePoint(1 - t))
    assert (w.real_part, w.imag_part, w.error_bound) == (v.real_part, -PI / 2, v.error_bound)
    # a drift far beyond the angle leaves nothing to bound
    assert li_on_circle(1, UnitCirclePoint(t, 1e-300)).error_bound == math.inf


def test_livalue_fields():
    v = at_turns(2, 1, 4)
    assert isinstance(v, LiValue)
    assert v.order == 2
    assert v.error_bound >= 0.0


# ---------------------------------------------------------------------------
# the exact component is built on first read, and only then

POLYLOG_CODES = (
    "Sp", "Cp", "tSp", "tCp", "bS", "bC", "tbSp", "tbCp",
    "P", "Q", "Pp", "Qp", "tP", "tQ", "tPp", "tQp",
)


def eager_li(a, p):
    """(real, imag, error_bound, clausen, clausen_bound) of Li_a, a >= 2, as
    li_on_circle computed them when it built both components every call."""
    turns, drift = p.turns, p.drift
    n, odd = divmod(a, 2)
    x = eval_poly(_table_read("S" if odd else "C", n, 2, None), turns)
    exact = math.pi**a * (x.numerator / x.denominator)
    # the Clausen component, reflected and signed
    value, err = _clausen_at(a, turns.numerator, turns.denominator)
    clausen_err = err
    err += (a + 4) * _EPS * abs(exact)
    drift_err = 0.0
    if drift:
        drift_err = drift * (1.65 if a > 2 else 1.6 + abs(math.log(drift)))
        err += drift_err
    if odd:
        return value, exact, err, value, clausen_err + drift_err
    return exact, value, err, value, clausen_err + drift_err


EAGER_POINTS = [UnitCirclePoint.from_turns(Fraction(k, 24)) for k in range(24)] + [
    UnitCirclePoint.from_turns(t)
    for t in (Fraction(1, 10**9), 1 - Fraction(1, 10**9), Fraction(7, 17), 0.3137)
] + [
    UnitCirclePoint.from_theta(theta)
    for theta in (1e-7, 0.5, 1.234, 3.0, 4.5, 6.283185307179585, -2.5, 1e10)
]
FIELD_ORDERS = [
    ("real_part", "imag_part", "error_bound"),
    ("error_bound", "imag_part", "real_part"),
    ("imag_part", "error_bound", "real_part"),
]


@pytest.mark.parametrize("a", range(2, 18))
def test_lazy_fields_equal_the_eager_ones_bit_for_bit(a):
    for i, p in enumerate(EAGER_POINTS):
        re, im, err, clausen, clausen_bound = (x.hex() for x in eager_li(a, p))
        v = li_on_circle(a, p)
        assert (v.clausen.hex(), v.clausen_bound.hex()) == (clausen, clausen_bound)
        names = FIELD_ORDERS[(a + i) % len(FIELD_ORDERS)]
        got = {name: getattr(v, name).hex() for name in names}
        assert got == {"real_part": re, "imag_part": im, "error_bound": err}
        assert v.order == a


def test_reading_the_fields_builds_the_polynomial_once(monkeypatch):
    calls = []

    def counted(poly, z):
        calls.append(z)
        return eval_poly(poly, z)

    monkeypatch.setattr(polylog, "eval_poly", counted)
    for a in (2, 3, 8, 17):
        v = li_on_circle(a, UnitCirclePoint.from_turns(Fraction(5, 13)))
        assert calls == []
        v.clausen, v.clausen_bound, v.order
        assert calls == []
        for _ in range(3):
            v.real_part, v.imag_part, v.error_bound
        assert len(calls) == 1
        calls.clear()


def test_polylog_parts_never_build_the_polynomial(monkeypatch):
    calls = []

    def counted(poly, z):
        calls.append(z)
        return eval_poly(poly, z)

    monkeypatch.setattr(polylog, "eval_poly", counted)
    for code in POLYLOG_CODES:
        for n in range(1, 9):
            for z in (-3.7, 0.3137, 1.25, 2.6):
                assert eval_family(SumFamily.from_code(code, n), z).path == "polylog"
    assert calls == []


def test_polylog_part_bounds_shrink_by_the_dropped_term(monkeypatch):
    # each part read with raw = la.error_bound, the bound that also charged
    # the exact component's rounding, as sums did before; only the k-family
    # codes still read li_on_circle (the 2k+1 and P/Q parts read chi)
    real = sums.li_on_circle

    def both_components(a, p):
        v = real(a, p)
        return types.SimpleNamespace(clausen=v.clausen, clausen_bound=v.error_bound)

    zs = (-3.7, -0.4, 0.3137, 1.25, 2.6)
    new = {
        (c, n, z): eval_family(SumFamily.from_code(c, n), z)
        for c in ("Sp", "Cp", "tSp", "tCp") for n in range(1, 9) for z in zs
    }
    monkeypatch.setattr(sums, "li_on_circle", both_components)
    shrunk = 0
    for (c, n, z), r in new.items():
        old = eval_family(SumFamily.from_code(c, n), z)
        assert r.value.hex() == old.value.hex()
        assert r.error_bound <= old.error_bound
        shrunk += r.error_bound < old.error_bound
    assert shrunk > len(new) // 2


def test_livalue_is_read_only_and_compares_by_value():
    p = UnitCirclePoint.from_turns(Fraction(1, 5))
    v, w = li_on_circle(3, p), li_on_circle(3, p)
    for name in ("real_part", "imag_part", "error_bound", "order", "clausen"):
        with pytest.raises((AttributeError, dataclasses.FrozenInstanceError)):
            setattr(v, name, 0.0)
    assert v == w and hash(v) == hash(w)
    for u in (v, li_on_circle(1, p)):
        assert pickle.loads(pickle.dumps(u)) == u
    assert v != li_on_circle(3, UnitCirclePoint.from_turns(Fraction(4, 5)))


@pytest.mark.parametrize("a", (1, 2, 17))
def test_a_read_livalue_pickles_and_equals_a_fresh_one(a):
    p = UnitCirclePoint.from_turns(Fraction(5, 13))
    v = li_on_circle(a, p)
    fields = (v.real_part, v.imag_part, v.error_bound)
    u = pickle.loads(pickle.dumps(v))
    fresh = li_on_circle(a, p)
    for x in (v, u):
        assert x == fresh and hash(x) == hash(fresh)
    for x in (u, fresh):
        assert (x.real_part, x.imag_part, x.error_bound) == fields
    assert repr(v) == (
        f"LiValue(order={a}, clausen={v.clausen!r}, clausen_bound={v.clausen_bound!r})"
    )
