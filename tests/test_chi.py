"""The 2k+1 polylog parts, read as one Legendre chi series.

bS, bC, tbSp and tbCp at n >= 1 are half the difference of two reads of
a Clausen component half a turn apart, which is the same component of
chi_p(w) = sum_j w^(2j+1)/(2j+1)^p at the turns of z + q/4; the P/Q
codes pair two such parts.  These tests check the chi series against
40-digit mpmath, the exact zeros of the reduction, which codes still
reach li_on_circle, and the order cap of the families.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from englert_sums import FAMILY_CODES, SumFamily, eval_family, eval_via_relation, sums
from englert_sums.cli import run
from englert_sums.errors import CapacityError
from englert_sums.oracle import oracle_eval
from englert_sums.polylog import _clausen, _clausen_at
from reference40 import chi, family_reference

# each code's chi read is at the turns of z + SHIFT
CHI_CODES = {"bS": 0.25, "bC": 0.25, "tbSp": 0.0, "tbCp": 0.0}
CHI_ORDERS = tuple(range(1, 9)) + (20, 60, 120)
OFFSETS = (1e-3, 1e-6, 1e-10, 1e-14)
K_CODES = ("Sp", "Cp", "tSp", "tCp")
PQ_CODES = ("P", "Q", "Pp", "Qp", "tP", "tQ", "tPp", "tQp")


def chi_component(p, t):
    """Im chi_p (even p) or Re chi_p (odd p) at the turns t, to 40 digits."""
    with mpmath.workdps(40):
        s = chi(p, mpmath.expjpi(2 * mpmath.mpf(t.numerator) / t.denominator))
        return s.real if p % 2 else s.imag


def chi_points(code):
    """z 1e-3..1e-14 from the turns 0, 1/4 and 1/2 of the chi read, on both
    sides, and seeded uniform z."""
    shift = CHI_CODES[code]
    zs = [t - shift + s * d for t in (0.0, 0.25, 0.5) for d in OFFSETS for s in (1, -1)]
    rng = random.Random(f"chi/{code}")
    return zs + [rng.uniform(-3.0, 3.0) for _ in range(8)]


@pytest.mark.parametrize("code", CHI_CODES)
def test_chi_parts_hold_their_bound(code):
    for n in CHI_ORDERS:
        f = SumFamily.from_code(code, n)
        for z in chi_points(code):
            r = eval_family(f, z)
            assert r.path == "polylog"
            err = abs(r.value - family_reference(f, z))
            assert err <= r.error_bound, (code, n, z, float(err), r.error_bound)


CHI_COMPONENT_ORDERS = tuple(range(2, 13)) + (17, 41, 121, 240, 241)
CHI_TURNS = (
    [Fraction(0), Fraction(1, 4)]
    + [Fraction(d) for d in OFFSETS]
    + [Fraction(1, 4) - Fraction(d) for d in OFFSETS]
    + [Fraction(random.Random(5).random()) / 4 for _ in range(8)]
)


@pytest.mark.parametrize("a", CHI_COMPONENT_ORDERS)
def test_chi_component_holds_its_bound_before_the_pi_scaling(a):
    # the series itself, unscaled by pi^-a, at tr = turns rounded once; a
    # quarter turn is read too, although _part takes odd orders' exact 0
    # there instead
    for t in CHI_TURNS:
        value, bound = _clausen(a, t.numerator / t.denominator, True)
        ref = chi_component(a, t)
        err = abs(value - ref)
        assert err <= bound, (a, t, float(err), bound)
        assert bound <= 1e-13 * max(1.0, abs(value)), (a, t, bound)


@pytest.mark.parametrize("a", (2, 3, 8, 17))
def test_chi_turns_reduce_from_any_denominator(a):
    # the whole circle, with denominators that are multiples of 4 and
    # ones that are not; an exact zero has bound 0
    turns = [Fraction(k, 12) for k in range(12)] + [Fraction(k, 7) for k in range(7)]
    for t in turns + [Fraction(2, 5), Fraction(5, 6)]:
        value, bound = _clausen_at(a, t.numerator, t.denominator, True)
        ref = chi_component(a, t)
        if bound == 0.0:
            assert value == 0.0 and abs(ref) < 1e-30, (a, t, float(ref))
        else:
            assert abs(value - ref) <= bound, (a, t, float(abs(value - ref)), bound)


def test_quarter_turn_zeros_are_exact_and_keep_their_sign():
    # the reduction takes these z to an exact zero of the chi component;
    # the sign of each zero is the one the two-read difference gave
    zs = (-1.0, -0.5, 0.0, 0.5, 2.0, 2.5)
    signs = {
        "bS": (-1, -1, -1, -1, -1, -1),
        "tbSp": (1, 1, 1, 1, 1, 1),
        "P": (1, 1, -1, -1, -1, -1),
        "tP": (1, 1, 1, -1, 1, -1),
    }
    for code, want in signs.items():
        for z, sign in zip(zs, want):
            v = eval_family(SumFamily.from_code(code, 2), z).value
            assert v == 0.0 and math.copysign(1.0, v) == sign, (code, z, v)
    # tbCp reads Re chi_5 at the turns of z: its zeros are the quarter turns
    for z in (-0.75, -0.25, 0.25, 0.75, 2.25, 2.75):
        v = eval_family(SumFamily.from_code("tbCp", 2), z).value
        assert v == 0.0 and math.copysign(1.0, v) == 1.0, z


def test_only_the_k_parts_read_li_on_circle(monkeypatch):
    orders = []
    real = sums.li_on_circle

    def counted(a, p):
        orders.append(a)
        return real(a, p)

    monkeypatch.setattr(sums, "li_on_circle", counted)
    for code in (*CHI_CODES, *PQ_CODES):
        for n in range(1, 9):
            eval_family(SumFamily.from_code(code, n), 0.3137)
    assert orders == []
    for code in K_CODES:
        for n in range(1, 9):
            eval_family(SumFamily.from_code(code, n), 0.3137)
    assert set(orders) == set(range(2, 18))


@pytest.mark.parametrize("n", [121, 10**6])
def test_every_family_caps_its_order(capsys, n):
    message = f"order {n} exceeds the supported cap 120"
    for code in FAMILY_CODES:
        f = SumFamily.from_code(code, n)
        for evaluate in (eval_family, eval_via_relation):
            with pytest.raises(CapacityError, match=message):
                evaluate(f, 0.3)
        assert run(["eval", code, str(n), "0.3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"E3: {message}\n", code


def test_the_oracle_has_no_order_cap():
    report = oracle_eval(SumFamily.from_code("bS", 121), 0.3, 1e-10)
    assert 0.0 < report.value < 1e-120
