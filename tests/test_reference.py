"""Closed forms and the oracle against the one 40-digit reference.

reference40.family_reference sums every family through mpmath's polylog
alone: Li_p(u) for the k families and Legendre's chi_p for the 2k+1
ones, the modified P/Q sums sum_k u^k/(2k+1)^p being chi_p(w)/w with
w^2 = u.  test_family_reference_matches_lerchphi, the one test that
calls lerchphi, holds it against the Lerch transcendent.  At orders 0..3
every family's |eval - ref| stays within its error_bound on a grid and
+-1e-9, +-1e-6 and 1e-3 from the order-0 lattice points on both sides
of zero; the audit holds error_bound and the oracle's tail_bound at
1560 points, every code at ten orders from 0 to 120 and the twelve
default verify points one ulp off a p = 2 resonance.

Li_a itself is checked the same way on the unit circle, against
mpmath's polylog, for orders 1..24 and three high orders up to the cap:
at exact turns, and for a point read from a float theta at that theta,
in [0, 2 pi) and up to 1e300 on either side.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from englert_sums import (
    FAMILY_CODES,
    SumFamily,
    UnitCirclePoint,
    eval_family,
    eval_via_relation,
    is_supported,
    li_on_circle,
    singular_points,
)
from englert_sums.errors import JumpPointError, SingularPointError
from englert_sums.polylog import _TWO_PI, _TWO_PI_BITS, _zeta_odd
from reference40 import ONE_ULP_POINTS, audit, family_reference, held


GRID = (-1.3, 0.15, 2.35)
OFFSETS = (1e-9, -1e-9, 1e-6, -1e-6, 1e-3)
# codes with no order-0 value have no lattice; their higher orders bend
# or reach Li_p(1) at these points (mod 1/2) instead
NO_LATTICE_ANCHORS = (-0.5, -0.25, 0.0)


def anchors(code):
    s = singular_points(SumFamily.from_code(code, 0))
    if s.kind == "none":
        return NO_LATTICE_ANCHORS
    return (float(s.offset - s.period), float(s.offset))


def near_points(code):
    return [a + d for a in anchors(code) for d in OFFSETS]


def assert_orders_up_to_3_hold(code):
    for order in range(4):
        f = SumFamily.from_code(code, order)
        if is_supported(f):
            for z in GRID + tuple(near_points(code)):
                r = eval_family(f, z)
                held(f, z, r.value, r.error_bound, family_reference(f, z))


PQ_CODES = [c for c in FAMILY_CODES if SumFamily.from_code(c, 0).modified == "PQ"]
K_CODES = [c for c in FAMILY_CODES if c not in PQ_CODES]


@pytest.mark.parametrize("code", K_CODES)
def test_k_and_odd_index_families_hold_their_bound(code):
    assert_orders_up_to_3_hold(code)


@pytest.mark.parametrize("code", PQ_CODES)
def test_modified_families_hold_their_bound(code):
    # chi_p(w)/w costs what a k family's Li_p does
    assert_orders_up_to_3_hold(code)


@pytest.mark.parametrize("code", ["S", "bS", "Qp"])
def test_family_reference_matches_lerchphi(code):
    # the Lerch transcendent reads the series from the oracle's shape:
    # pref * sum_k u^k (c*k + d)^-p is u * Phi(u, p, 1) for a k family and
    # pref * Phi(u, p, 1/2) / 2^p for a 2k+1 or modified one; at 0.3 and
    # 1e-9 past a lattice point of the order-0 form
    for order in (0, 1, 3, 9):
        f = SumFamily.from_code(code, order)
        p = f.power
        for z in (0.3, anchors(code)[1] + 1e-9):
            with mpmath.workdps(40):
                zm, q = mpmath.mpf(z), mpmath.mpf(f.alternating) / 2
                doubled = f.index_kind == "2k+1" and f.modified == "none"
                u = mpmath.expjpi(2 * ((2 if doubled else 1) * zm + q))
                if f.index_kind == "k":
                    s = u * mpmath.lerchphi(u, p, 1)
                else:
                    pref = mpmath.expjpi(2 * zm) if doubled else 1
                    s = pref * mpmath.lerchphi(u, p, mpmath.mpf(1) / 2) / 2**p
                want = (s.imag if f.trig == "sin" else s.real) / mpmath.pi**p
                err = abs(family_reference(f, z) - want)
                assert err <= mpmath.mpf(2) ** -120 * mpmath.pi**-p, (order, z, err)


def test_every_bound_holds_against_the_reference():
    points = [
        (code, order, z)
        for code in FAMILY_CODES
        for order in (0, 1, 2, 3, 8, 9, 13, 30, 60, 120)
        if is_supported(SumFamily.from_code(code, order))
        for z in (0.3, -1.3, *(a + d for d in (1e-9, -1e-6) for a in anchors(code)))
    ] + ONE_ULP_POINTS
    unconverged = audit(points)[2]
    # the averaged p = 0 reports next to a pole, where 1600 terms cannot
    # damp the oscillation: their envelopes are no bound, so the audit
    # lists them rather than holding them
    poles = [
        (c, n, z) for c, n, z in points
        if c in ("Sp", "tSp", "tC") and n == 0 and z not in (0.3, -1.3)
    ]
    assert len(points) == 1560 and len(poles) == 12
    assert [u[:3] for u in unconverged] == poles


def test_the_reference_reads_z_by_its_period():
    # past 2^130 the q = 1/2 added to z at 40 digits would be lost: Q 1
    # read 3.2e-2 off at 1e300
    for code in FAMILY_CODES:
        f = SumFamily.from_code(code, 1)
        for z in (1e300, -1e300, 1e100):
            assert family_reference(f, z) == family_reference(f, 0.0), (code, z)
        huge = Fraction(4 * 10**300 + 1, 4)
        assert family_reference(f, huge) == family_reference(f, 0.25), code


def test_huge_z_bounds_hold_against_the_reference():
    # the order-0 forms and the P/Q reductions read z exactly, so their
    # bounds at huge z are those of small z and must hold there too; on a
    # code's lattice, where integers and half-integers often sit, the
    # typed error is what is held
    for code in FAMILY_CODES:
        for order in (0, 1, 2, 3, 8) if code in PQ_CODES else (0,):
            f = SumFamily.from_code(code, order)
            if not is_supported(f):
                continue
            s = singular_points(f)
            for z in (2.0**52 + 0.5, 1e15 + 0.3, 2.0**60, 1e300, -1e300):
                if s.contains(z, 1e-12):
                    with pytest.raises(JumpPointError if s.kind == "jump" else SingularPointError):
                        eval_family(f, z)
                    continue
                r = eval_family(f, z)
                held(f, z, r.value, r.error_bound, family_reference(f, z))


# the log points (offset, period) of the order-1 Im parts, Im Li_2 or Im chi_2
ORDER_1_LOG_POINTS = {"Sp": (0.5, 1.0), "tSp": (0.0, 1.0), "bC": (0.25, 0.5), "tbSp": (0.0, 0.5)}


@pytest.mark.parametrize("code", sorted(ORDER_1_LOG_POINTS))
def test_relation_bounds_hold_next_to_the_order_1_log_points(code):
    # z + shift rounds by up to h = ulp/2, where the slope (2/pi) log(1/(2 pi d))
    # of these parts at d from a log point has no bound: the relation charges
    # its integral over h.  Without it Sp 1 at 1.5000000000000002 read 0.0,
    # 1.29 times its bound off
    offset, period = ORDER_1_LOG_POINTS[code]
    f = SumFamily.from_code(code, 1)
    for k in (-8, -3, 0, 1, 7):
        a = offset + k * period
        near = [a + side * 10.0**-e for e in range(10, 20) for side in (1, -1)]
        for z in near + [math.nextafter(a, math.inf), math.nextafter(a, -math.inf)]:
            r = eval_via_relation(f, z)
            held(f, z, r.value, r.error_bound, family_reference(f, z))


def test_the_reference_keeps_its_digits_next_to_a_p0_pole():
    # 1 - u cancels some 11 of the 40 digits 3e-12 from tC 0's lattice, where
    # the value is -1/2 exactly and the bound 0; the reference read 2e-20 off
    f = SumFamily.from_code("tC", 0)
    for z in (3.000000000002708, -4.00000000000309):
        ref = family_reference(f, z)
        assert abs(ref + 0.5) < 1e-30, (z, ref)
        r = eval_family(f, z)
        held(f, z, r.value, r.error_bound, ref)


LI_ORDERS = tuple(range(2, 25)) + (41, 100, 241)
NINES = Fraction(1, 10**9)
LI_TURNS = (
    Fraction(0), NINES, Fraction(1, 1000), Fraction(1, 4), Fraction(1, 3),
    Fraction(1, 2) - NINES, Fraction(1, 2), 1 - NINES,
) + tuple(Fraction(random.Random(20).random()) for _ in range(20))
# a Fraction is read as exact turns, a float as theta: 5e-324 has turns
# theta/2pi far below the float range
LI_POINTS = LI_TURNS + (5e-324,)


def point(at):
    if isinstance(at, Fraction):
        return UnitCirclePoint.from_turns(at)
    return UnitCirclePoint.from_theta(at)


def li_reference(a, at):
    """mpmath's Li_a at exact turns (a Fraction) or at the input theta."""
    with mpmath.workdps(40):
        if isinstance(at, Fraction):
            w = mpmath.expjpi(2 * mpmath.mpf(at.numerator) / at.denominator)
        else:
            w = mpmath.expj(mpmath.mpf(at))
        return mpmath.polylog(a, w)


def assert_li_within_bound(a, at):
    v = li_on_circle(a, point(at))
    ref = li_reference(a, at)
    where = (a, at, v.error_bound)
    assert 0.0 < v.error_bound, where
    assert abs(v.real_part - ref.real) <= v.error_bound, where
    assert abs(v.imag_part - ref.imag) <= v.error_bound, where
    return v


@pytest.mark.parametrize("a", LI_ORDERS)
def test_li_on_circle_holds_its_bound(a):
    for at in LI_POINTS:
        v = assert_li_within_bound(a, at)
        if a <= 24:
            assert v.error_bound <= 5e-14, (a, at, v.error_bound)


@pytest.mark.parametrize("a", range(2, 19, 2))
def test_clausen_bound_holds_next_to_a_half_turn(a):
    # Im Li_a(-1) = 0 for even a, but turns that only round to 1/2 are no
    # zero: Im Li_a is about 4e-20 at 1/2 - 1e-20, and the Clausen
    # component's own bound must cover it
    for d in (10**17, 10**20, 10**30):
        for at in (Fraction(1, 2) - Fraction(1, d), Fraction(1, 2) + Fraction(1, d)):
            v = li_on_circle(a, point(at))
            ref = li_reference(a, at).imag
            assert abs(v.clausen - ref) <= v.clausen_bound, (a, at, v.clausen_bound)


def test_li_1_holds_its_bound_at_exact_turns():
    for t in LI_TURNS:
        if t:
            assert assert_li_within_bound(1, t).error_bound <= 5e-14, t


TWO_PI = 2 * math.pi
# 1e30 and 1e300 take off 1.6e29 and 1.6e299 whole turns
FAR_THETAS = (1e10, -1e10, 1e5, -1e5, 100.0, -100.0, TWO_PI, -TWO_PI, 3 * TWO_PI, 1e30, 1e300)


@pytest.mark.parametrize("theta", FAR_THETAS)
@pytest.mark.parametrize("a", (1, 2, 3, 5, 17, 41))
def test_theta_outside_one_turn_is_reduced_within_its_bound(a, theta):
    # theta is reduced exactly by a 2pi of 1120 bits, whose error of
    # 2^-1120 a turn no finite float makes felt
    v = assert_li_within_bound(a, theta)
    assert v.error_bound <= (1e-13 if a == 1 else 5e-14), (a, theta, v.error_bound)


def test_two_pi_is_held_to_its_bits():
    # rederived at 400 digits, about 1330 bits: floor(2 pi 2^bits) / 2^bits
    assert _TWO_PI_BITS >= 1100
    with mpmath.workdps(400):
        n = int(mpmath.floor(2 * mpmath.pi * mpmath.mpf(2) ** _TWO_PI_BITS))
    assert _TWO_PI == Fraction(n, 2**_TWO_PI_BITS)


@pytest.mark.parametrize("theta", [5e-324, 1e-320, 1e-310, -5e-324, -1e-320, -1e-310])
@pytest.mark.parametrize("a", (1, 2, 5))
def test_theta_below_the_float_range_of_its_turns_keeps_its_angle(a, theta):
    # theta/2pi is subnormal or underflows: the point keeps exact turns,
    # and Li_1 = -log(theta) + i pi/2 stays finite and tight
    v = li_on_circle(a, UnitCirclePoint.from_theta(theta))
    with mpmath.workdps(60):
        ref = mpmath.polylog(a, mpmath.expj(mpmath.mpf(theta)))
    where = (a, theta, v.error_bound)
    assert abs(v.real_part - ref.real) <= v.error_bound, where
    assert abs(v.imag_part - ref.imag) <= v.error_bound, where
    assert 0.0 < v.error_bound <= (1e-12 if a == 1 else 5e-14), where


def test_odd_zeta_values_are_within_one_and_a_half_unit_roundoffs():
    with mpmath.workdps(40):
        for s in range(3, 242, 2):
            ref = mpmath.zeta(s)
            assert abs(_zeta_odd(s) - ref) <= 1.5 * 2.0**-53 * ref, s


@pytest.mark.parametrize(
    "theta", [math.nextafter(2 * math.pi, 0), 2 * math.pi - 1e-12, 1e-9, 3.0, math.pi]
)
def test_li_1_read_by_theta_charges_the_rounding_of_its_turns(theta):
    # next to a whole turn the reflected angle keeps only a few ulps of
    # theta/2pi, and Re Li_1 = -log|2 sin(theta/2)| is steep there
    assert_li_within_bound(1, theta)


@pytest.mark.parametrize(
    "theta", [math.nextafter(2 * math.pi, 0), 2 * math.pi - 1e-12, 2 * math.pi - 1e-6, 4.0]
)
@pytest.mark.parametrize("a", (1, 2, 5))
def test_theta_above_pi_keeps_its_reflected_angle(a, theta):
    # above pi the reflected angle 2pi - theta is taken in two words, so
    # a point next to a whole turn keeps its small angle to a few ulps
    v = assert_li_within_bound(a, theta)
    assert v.error_bound <= (1e-13 if a == 1 else 5e-14), (a, theta, v.error_bound)
