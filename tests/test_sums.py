"""Closed-form evaluation of the 24 sum families.

Frozen reference values were produced by the series oracle and by hand
reduction to standard constants, then checked against both before being
written down here.
"""

import dataclasses
import math
import pickle
import random
from fractions import Fraction as F

import pytest

from englert_sums import (
    FAMILY_CODES,
    SingularSet,
    SumFamily,
    UnitCirclePoint,
    eval_family,
    eval_via_relation,
    is_supported,
    li_on_circle,
    singular_points,
)
from englert_sums.errors import (
    CapacityError,
    DomainError,
    JumpPointError,
    SingularPointError,
    UnsupportedOrderError,
)
from englert_sums import sums
from englert_sums.cli import _linspace
from englert_sums.oracle import oracle_eval
from englert_sums.sums import _turns
from reference40 import family_reference

PI = math.pi
LN2 = math.log(2.0)
SQRT2 = math.sqrt(2.0)
CATALAN = 0.91596559417721901505
ZETA3 = 1.2020569031595942854
BETA4 = math.fsum((-1.0) ** k / (2.0 * k + 1.0) ** 4 for k in range(4000))

UNSUPPORTED_AT_ZERO = ("C", "bC", "bSp", "tbC", "tbSp", "Q", "Pp", "tQ", "tPp")

ODD_CODES = ("S", "Sp", "tS", "tSp", "bS", "bSp", "tbS", "tbSp", "P", "Pp", "tP", "tPp")
EVEN_CODES = ("C", "Cp", "tC", "tCp", "bC", "bCp", "tbC", "tbCp", "Q", "Qp", "tQ", "tQp")


def ev(code, order, z):
    return eval_family(SumFamily.from_code(code, order), z)


# (code, order, z, expected)
FROZEN = [
    ("S", 0, 0.3, -0.3),
    ("S", 1, F(1, 4), -1.0 / 32.0),
    ("C", 1, 0, -1.0 / 12.0),
    ("C", 2, F(1, 4), -7.0 / 11520.0),
    ("tS", 0, 0.3, 0.2),
    ("tS", 1, F(1, 4), 1.0 / 32.0),
    ("tC", 0, 0.3, -0.5),
    ("tC", 1, 0, 1.0 / 6.0),
    ("tC", 1, F(1, 4), -1.0 / 48.0),
    ("Sp", 0, F(1, 4), -0.5),
    ("Sp", 1, F(1, 4), -CATALAN / PI**2),
    ("Cp", 0, 0, -LN2 / PI),
    ("Cp", 0, F(1, 4), -LN2 / (2.0 * PI)),
    ("Cp", 1, F(1, 4), -3.0 * ZETA3 / (32.0 * PI**3)),
    ("tSp", 0, F(1, 4), 0.5),
    ("tSp", 1, F(1, 4), CATALAN / PI**2),
    ("tCp", 0, F(1, 4), -LN2 / (2.0 * PI)),
    ("tCp", 1, 0, ZETA3 / PI**3),
    ("tCp", 1, F(1, 4), -3.0 * ZETA3 / (32.0 * PI**3)),
    ("bS", 0, F(1, 6), math.log(2.0 + math.sqrt(3.0)) / (2.0 * PI)),
    ("bS", 1, F(1, 4), 0.875 * ZETA3 / PI**3),
    ("bC", 1, 0, CATALAN / PI**2),
    ("bC", 2, 0, BETA4 / PI**4),
    ("bSp", 1, F(1, 8), 1.0 / 16.0),
    ("bCp", 0, 0.1, 0.25),
    ("bCp", 1, F(1, 10), 21.0 / 800.0),
    ("tbS", 0, 0.1, 0.25),
    ("tbS", 0, 0.3, 0.25),
    ("tbS", 1, F(1, 10), 1.0 / 50.0),
    ("tbC", 1, 0, 1.0 / 8.0),
    ("tbSp", 1, F(1, 4), CATALAN / PI**2),
    ("tbCp", 0, F(1, 8), math.log(1.0 + SQRT2) / (2.0 * PI)),
    ("P", 0, F(1, 4), -(PI - 2.0 * math.log(1.0 + SQRT2)) / (4.0 * SQRT2 * PI)),
    ("tP", 0, F(1, 4), (PI - 2.0 * math.log(1.0 + SQRT2)) / (4.0 * SQRT2 * PI)),
    ("Q", 1, 0, CATALAN / PI**2),
    ("Pp", 1, 0, 0.0),
    ("Qp", 0, 0, 0.25),
    ("tQ", 1, 0, 1.0 / 8.0),
    ("tPp", 1, 0, 0.0),
    ("tQp", 0, F(1, 2), 0.25),
]


@pytest.mark.parametrize(
    "code,order,z,expected",
    FROZEN,
    ids=[f"{c}{n}@{float(z):+.3f}" for c, n, z, _ in FROZEN],
)
def test_frozen_values(code, order, z, expected):
    r = ev(code, order, z)
    assert r.value == pytest.approx(expected, abs=5e-13)
    assert 0.0 <= r.error_bound <= 1e-11


def test_two_route_agreement_everywhere():
    # every supported family and order against its independent second
    # route: the half-shift partner, the quarter-shift partner, or the
    # two-term reduction for the modified families
    compared = 0
    worst = 0.0
    for code in FAMILY_CODES:
        for order in range(4):
            f = SumFamily.from_code(code, order)
            if not is_supported(f):
                continue
            lattice = singular_points(f)
            for i in range(64):
                z = -1.29 + i * (2.58 / 63.0) + 0.00137
                if lattice.distance(z) < 1e-3:
                    continue
                a = eval_family(f, z)
                try:
                    b = eval_via_relation(f, z)
                except UnsupportedOrderError:
                    break
                d = abs(a.value - b.value)
                assert d <= 1e-9, (code, order, z, d)
                assert d <= a.error_bound + b.error_bound + 1e-15, (code, order, z)
                worst = max(worst, d)
                compared += 1
    assert compared >= 5000
    assert worst < 1e-9


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_periodicity(code):
    f = SumFamily.from_code(code, 1)
    for z in (0.11, 0.37, -0.43):
        assert eval_family(f, z + 1.0).value == pytest.approx(
            eval_family(f, z).value, abs=1e-12
        )


@pytest.mark.parametrize("code", ["bS", "bC", "bSp", "bCp", "tbS", "tbC", "tbSp", "tbCp"])
def test_bold_antiperiod(code):
    # odd-index trig argument flips sign under z -> z + 1/2
    f = SumFamily.from_code(code, 1)
    for z in (0.07, 0.18, -0.31):
        assert eval_family(f, z + 0.5).value == pytest.approx(
            -eval_family(f, z).value, abs=1e-12
        )


@pytest.mark.parametrize("plain,tilde", [("P", "tP"), ("Q", "tQ"), ("Pp", "tPp"), ("Qp", "tQp")])
def test_modified_half_shift_swaps_variants(plain, tilde):
    a = SumFamily.from_code(plain, 1)
    b = SumFamily.from_code(tilde, 1)
    for z in (0.06, 0.21, -0.33):
        assert eval_family(a, z + 0.5).value == pytest.approx(
            eval_family(b, z).value, abs=1e-12
        )
        assert eval_family(b, z + 0.5).value == pytest.approx(
            eval_family(a, z).value, abs=1e-12
        )


@pytest.mark.parametrize("code", ODD_CODES)
def test_odd_parity(code):
    f = SumFamily.from_code(code, 1)
    for z in (0.23, 0.41):
        assert eval_family(f, -z).value == pytest.approx(
            -eval_family(f, z).value, abs=1e-12
        )


@pytest.mark.parametrize("code", EVEN_CODES)
def test_even_parity(code):
    f = SumFamily.from_code(code, 1)
    for z in (0.23, 0.41):
        assert eval_family(f, -z).value == pytest.approx(
            eval_family(f, z).value, abs=1e-12
        )


SINGULAR_ROWS = [
    # code, a z on the lattice, kind, offset, period
    ("S", 0.5, "jump", F(1, 2), F(1)),
    ("tS", 1.0, "jump", F(0), F(1)),
    ("tC", 0.0, "divergent", F(0), F(1)),
    ("Sp", -0.5, "pole", F(1, 2), F(1)),
    ("Cp", 0.5, "log", F(1, 2), F(1)),
    ("tSp", 0.0, "pole", F(0), F(1)),
    ("tCp", 2.0, "log", F(0), F(1)),
    ("bS", 0.25, "log", F(1, 4), F(1, 2)),
    ("bCp", 0.75, "jump", F(1, 4), F(1, 2)),
    ("tbS", 0.5, "jump", F(0), F(1, 2)),
    ("tbCp", 0.0, "log", F(0), F(1, 2)),
    ("P", 0.5, "jump", F(1, 2), F(1)),
    ("Qp", 1.5, "log", F(1, 2), F(1)),
    ("tP", 0.0, "jump", F(0), F(1)),
    ("tQp", -1.0, "log", F(0), F(1)),
]


@pytest.mark.parametrize(
    "code,z,kind,offset,period",
    SINGULAR_ROWS,
    ids=[f"{c}0@{z:+.2f}" for c, z, *_ in SINGULAR_ROWS],
)
def test_order_zero_lattice_raises(code, z, kind, offset, period):
    f = SumFamily.from_code(code, 0)
    s = singular_points(f)
    assert s.kind == kind
    assert s.offset == offset
    assert s.period == period
    assert s.distance(z) == 0.0
    assert s.contains(z, 1e-9)
    expected = JumpPointError if kind == "jump" else SingularPointError
    with pytest.raises(expected):
        eval_family(f, z)
    if kind != "jump":
        # plain singularities must not masquerade as jumps
        with pytest.raises(SingularPointError) as info:
            eval_family(f, z)
        assert not isinstance(info.value, JumpPointError)


@pytest.mark.parametrize("code", ["S", "Sp"])
def test_near_lattice_guard(code):
    f = SumFamily.from_code(code, 0)
    with pytest.raises(SingularPointError):
        eval_family(f, 0.5 + 1e-12)
    assert math.isfinite(eval_family(f, 0.5 + 1e-11).value)
    assert math.isfinite(eval_family(f, 0.5 + 1e-9).value)


def test_singular_rule_reads_the_exact_distance_at_any_size():
    # z is singular iff its exact distance to the lattice is below 1e-12;
    # z = 2^53 lies 1/4 from the bS lattice 1/4 + Z/2 and 1e15 + 1/4 lies
    # 1/4 from the S lattice 1/2 + Z, while 2^60 is on the tCp lattice Z
    assert ev("S", 0, 1e15 + 0.25).value == -0.25
    with pytest.raises(SingularPointError):
        ev("tCp", 0, 2.0**60)


# every order-0 family lattice, and three sets that are not dyadic, one
# with a negative period
LATTICES = sorted(
    {
        singular_points(SumFamily.from_code(c, 0))
        for c in FAMILY_CODES
        if c not in UNSUPPORTED_AT_ZERO
    },
    key=repr,
) + [
    SingularSet("pole", F(1, 3), F(2, 3)),
    SingularSet("log", F(1, 10), F(1, 5)),
    SingularSet("log", F(-7, 3), F(-1, 6)),
]


def _lattice_zs(s):
    rng = random.Random(16)
    zs = [rng.uniform(-4.0, 4.0) for _ in range(200)]
    for k in range(-12, 13):
        point = float(s.offset + k * s.period)
        zs.append(point)
        for dz in (5e-324, 1e-13, 1e-3):
            zs += [point + dz, point - dz]
        zs += [math.nextafter(point, math.inf), math.nextafter(point, -math.inf)]
    big = [1e308, 2.0**60 + 0.5, 1e15 + 0.25, 2.0**53, 2.0**1023 * 1.5, 12345678.9]
    return zs + big + [-z for z in big]


def _lattice_id(s):
    return f"{s.kind}:{s.offset}+{s.period}Z"


@pytest.mark.parametrize("s", LATTICES, ids=_lattice_id)
def test_lattice_distance_is_the_exact_distance_rounded_once(s):
    for z in _lattice_zs(s):
        period = abs(s.period)
        d = (F(z) - s.offset) % period
        assert s.distance(z) == float(min(d, period - d)), z


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("s", LATTICES + [SingularSet("none")], ids=_lattice_id)
def test_lattice_distance_refuses_non_finite_z(s, z):
    with pytest.raises(DomainError):
        s.distance(z)
    with pytest.raises(DomainError):
        s.contains(z, 1e-12)


def test_lattice_refuses_an_unknown_kind():
    with pytest.raises(DomainError, match="unknown lattice kind 'nonsense'"):
        SingularSet("nonsense", F(0), F(1))


@pytest.mark.parametrize(
    "offset,period", [(None, None), (0.5, F(1)), (F(1, 3), 2.0), (F(0), "1")]
)
def test_lattice_refuses_a_non_rational_offset_or_period(offset, period):
    with pytest.raises(DomainError, match="must be a Rational"):
        SingularSet("pole", offset, period)


def test_lattice_refuses_a_zero_period():
    with pytest.raises(DomainError, match="period must be non-zero"):
        SingularSet("pole", F(0), F(0))


def _order_zero_error(call, f, z):
    with pytest.raises((UnsupportedOrderError, SingularPointError)) as info:
        call(f, z)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_every_entry_raises_the_same_order_zero_error(code):
    # eval, eval_via_relation and oracle_eval refuse an order-0 point with
    # the same error; an unsupported family at any z, a supported one on
    # its lattice
    f = SumFamily.from_code(code, 0)
    s = singular_points(f)
    z = 0.3 if code in UNSUPPORTED_AT_ZERO else float(s.offset + s.period)
    got = {
        _order_zero_error(call, f, z)
        for call in (eval_family, eval_via_relation, lambda f, z: oracle_eval(f, z, 1e-8))
    }
    assert len(got) == 1
    kind, msg = got.pop()
    if code in UNSUPPORTED_AT_ZERO:
        assert kind is UnsupportedOrderError
        assert msg == (
            f"family {code} has denominator power 0 at order 0; "
            "the defining series has no value"
        )
    else:
        assert kind is (JumpPointError if s.kind == "jump" else SingularPointError)
        assert msg == (
            f"family {code} order 0 is singular on the lattice "
            f"{s.offset} + {s.period}*Z ({s.kind}); got z={z!r}"
        )


def test_the_gate_reads_no_lattice_above_order_zero(monkeypatch):
    def boom(self, z):
        raise AssertionError("lattice read")

    monkeypatch.setattr(sums.SingularSet, "distance", boom)
    for code in FAMILY_CODES:
        for n in (1, 2):
            f = SumFamily.from_code(code, n)
            assert math.isfinite(eval_family(f, 0.5).value)
            assert math.isfinite(eval_via_relation(f, 0.5).value)
    with pytest.raises(AssertionError):
        ev("S", 0, 0.3)


@pytest.mark.parametrize(
    "code,big,small",
    [("bS", 2.0**53, 0.0), ("bCp", 2.0**51 + 0.5, 0.5), ("Qp", 2.0**52 + 1.0, 1.0), ("P", 2.0**53, 0.0)],
)
def test_order_zero_forms_read_huge_z_by_its_period(code, big, small):
    # adding 1/4 or 1/2 to such z in floats would round it onto the lattice
    r = ev(code, 0, big)
    assert r.value == ev(code, 0, small).value
    assert math.isfinite(r.error_bound)


def test_higher_orders_clear_the_lattice():
    # only the lowest order is singular; order >= 1 evaluates on it
    assert ev("S", 1, 0.5) == ev("S", 1, 0.5)
    assert ev("Sp", 1, F(1, 2)).value == pytest.approx(
        ev("Sp", 1, -0.5).value, abs=1e-13
    )
    assert singular_points(SumFamily.from_code("S", 1)).kind == "none"
    assert singular_points(SumFamily.from_code("S", 1)).distance(0.5) == math.inf
    assert not singular_points(SumFamily.from_code("S", 1)).contains(0.5, 1e-6)


@pytest.mark.parametrize("code", UNSUPPORTED_AT_ZERO)
def test_unsupported_order_zero(code):
    f = SumFamily.from_code(code, 0)
    assert not is_supported(f)
    with pytest.raises(UnsupportedOrderError):
        eval_family(f, 0.3)
    assert is_supported(SumFamily.from_code(code, 1))


def test_supported_census():
    # 15 of the 24 families exist at order zero, all 24 above it
    at_zero = sum(is_supported(SumFamily.from_code(c, 0)) for c in FAMILY_CODES)
    assert at_zero == 15
    for n in (1, 2, 3):
        assert all(is_supported(SumFamily.from_code(c, n)) for c in FAMILY_CODES)


def test_relation_with_unsupported_partner_raises():
    with pytest.raises(UnsupportedOrderError):
        eval_via_relation(SumFamily.from_code("tC", 0), 0.3)


@pytest.mark.parametrize(
    "code,order",
    [("Q", 1), ("Pp", 1), ("tQ", 1), ("tPp", 1), ("Qp", 0), ("P", 0), ("tP", 0), ("tQp", 0), ("P", 1)],
)
def test_modified_families_match_their_reduction(code, order):
    # direct closed form against the sin/cos weighted half-argument pair
    f = SumFamily.from_code(code, order)
    lattice = singular_points(f)
    for z in (0.05, 0.17, 0.29, 0.62, -0.38):
        if lattice.distance(z) < 1e-3:
            continue
        a = eval_family(f, z).value
        b = eval_via_relation(f, z).value
        assert a == pytest.approx(b, abs=1e-12)


def _li2(turns):
    return li_on_circle(2, UnitCirclePoint.from_turns(turns))


def printed_li2_form(code, z):
    """The order-1 modified families as printed, Li_2 pairs at z/2 + const."""
    h = F(z) / 2
    s, c = math.sin(PI * z), math.cos(PI * z)
    if code == "Q":
        a, b = _li2(F(1, 4) - h), _li2(F(1, 4) + h)
        v = c * (a.imag_part + b.imag_part) + s * (a.real_part - b.real_part)
    elif code == "Pp":
        a, b = _li2(F(1, 4) + h), _li2(h - F(1, 4))
        v = -(c * (a.real_part - b.real_part) + s * (a.imag_part - b.imag_part))
    else:
        a, b = _li2(h), _li2(h + F(1, 2))
        if code == "tQ":
            v = c * (a.real_part - b.real_part) + s * (a.imag_part - b.imag_part)
        else:
            v = c * (a.imag_part - b.imag_part) - s * (a.real_part - b.real_part)
    return v / (2.0 * PI**2)


@pytest.mark.parametrize("code", ["Q", "Pp", "tQ", "tPp"])
def test_order_one_modified_families_match_their_printed_li2_forms(code):
    f = SumFamily.from_code(code, 1)
    for i in range(41):
        z = -1.3 + i * 0.1
        assert abs(eval_family(f, z).value - printed_li2_form(code, z)) <= 1e-12, (code, z)


PATH_TAGS = [
    ("S", 0, "polynomial"),
    ("S", 1, "polynomial"),
    ("C", 1, "polynomial"),
    ("tS", 0, "polynomial"),
    ("Sp", 0, "elementary"),
    ("Sp", 1, "polylog"),
    ("Cp", 0, "elementary"),
    ("bS", 0, "elementary"),
    ("bS", 1, "polylog"),
    ("bCp", 0, "elementary"),
    ("tbS", 0, "elementary"),
    ("P", 0, "elementary"),
    ("P", 1, "polylog"),
    ("Q", 1, "polylog"),
    ("Pp", 1, "polylog"),
    ("Qp", 0, "elementary"),
    ("tP", 0, "elementary"),
    ("tQp", 0, "elementary"),
]


@pytest.mark.parametrize("code,order,path", PATH_TAGS)
def test_evaluation_path_tags(code, order, path):
    assert ev(code, order, 0.11).path == path


def test_family_structure():
    for code in FAMILY_CODES:
        f = SumFamily.from_code(code, 2)
        assert f.code == code
        assert f.order == 2
        assert f.index_kind == ("2k+1" if code.lstrip("t").startswith(("b", "P", "Q")) else "k")
        assert f.k_start == (0 if f.index_kind == "2k+1" else 1)
        assert f.alternating == (not code.startswith("t"))
        assert f.trig == ("sin" if code.lstrip("tb").startswith(("S", "P")) else "cos")
        assert f.power_parity == ("odd" if code.endswith("p") else "even")
        assert f.modified == ("PQ" if code.lstrip("t").startswith(("P", "Q")) else "none")


@pytest.mark.parametrize("code", FAMILY_CODES)
@pytest.mark.parametrize("order", [0, 1, 2, 5])
def test_power_table(code, order):
    f = SumFamily.from_code(code, order)
    odd_power = (f.power_parity == "even") == (f.trig == "sin")
    assert f.power == (2 * order + 1 if odd_power else 2 * order)


def test_code_is_resolved_once_and_read_only():
    f = SumFamily.from_code("tbSp", 2)
    assert f.code == "tbSp"
    assert f == SumFamily("2k+1", False, "sin", "odd", "none", 2)
    assert hash(f) == hash(SumFamily("2k+1", False, "sin", "odd", "none", 2))
    assert "code" not in repr(f)
    assert [x.name for x in dataclasses.fields(f)][-1] == "order"
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.code = "S"


def test_eval_result_is_a_named_tuple():
    r = eval_family(SumFamily.from_code("C", 2), F(1, 4))
    assert r._fields == ("value", "path", "error_bound")
    value, path, error_bound = r
    assert r == (-0.0006076388888888889, "polynomial", error_bound)
    with pytest.raises(AttributeError):
        r.value = 0.0
    assert hash(r) == hash(eval_family(SumFamily.from_code("C", 2), 0.25))
    for copy in (pickle.loads(pickle.dumps(r)), r._replace(path=path)):
        assert type(copy) is sums.EvalResult and copy == r
    assert repr(r) == (
        "EvalResult(value=-0.0006076388888888889, path='polynomial', "
        f"error_bound={error_bound!r})"
    )


def turns_battery():
    zs = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 2.0**53, -(2.0**53), 1e15, -1e15]
    for base in (1.0, 2.0, -1.0, -3.0, 0.5, 1.5, -0.5, -2.5):
        zs.append(math.nextafter(base, -math.inf))
    rng = random.Random(31)
    return zs + [rng.uniform(-4.0, 4.0) for _ in range(200)]


def test_parts_read_the_reduced_turns_of_z_plus_quarters():
    # _part builds the turns in integers; they must be the very Fraction
    # from_turns reduces with Fraction arithmetic
    for zf in turns_battery():
        for q in range(-2, 3):
            t = _turns(zf, q)
            want = UnitCirclePoint.from_turns(F(zf) + F(q, 4)).turns
            assert type(t) is F and t == want, (zf, q)
            assert (t.numerator, t.denominator) == (want.numerator, want.denominator), (zf, q)


def test_fraction_argument_matches_float():
    r = ev("S", 1, F(1, 4))
    assert r.value == -0.03125
    assert ev("S", 1, 0.25).value == r.value


def test_construction_errors():
    with pytest.raises(DomainError):
        SumFamily.from_code("X", 0)
    with pytest.raises(DomainError):
        SumFamily.from_code("s", 0)
    for bad in (-1, 1.5, True, "2"):
        with pytest.raises(DomainError):
            SumFamily.from_code("S", bad)
    with pytest.raises(CapacityError):
        eval_family(SumFamily.from_code("S", 200), 0.3)


def test_evaluation_errors():
    f = SumFamily.from_code("S", 1)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            eval_family(f, bad)
    with pytest.raises(DomainError):
        eval_family("S", 0.3)
    with pytest.raises(DomainError):
        eval_via_relation("S", 0.3)


@pytest.mark.parametrize("z", [1.4999999, 1.49999999, -0.5000001])
def test_qp0_holds_its_bound_next_to_the_cancelling_lattice(z):
    # cos(pi z) / (1 + sin(pi z)) cancels near z = 3/2 (mod 2)
    f = SumFamily.from_code("Qp", 0)
    r = eval_family(f, z)
    assert abs(r.value - family_reference(f, z)) <= r.error_bound


ORDER_ZERO_PQ = ("P", "Qp", "tP", "tQp")


@pytest.mark.parametrize("code", ORDER_ZERO_PQ)
def test_order_zero_modified_families_take_their_reduction(code):
    # eval and eval_via_relation run the one sin/cos reduction at order 0
    # too, so value, path and bound agree bit for bit on verify's grid
    f = SumFamily.from_code(code, 0)
    for z in _linspace(-1.3, 2.7, 41):
        if singular_points(f).contains(z, 1e-3):
            continue
        a, b = eval_family(f, z), eval_via_relation(f, z)
        assert a.value.hex() == b.value.hex(), (code, z)
        assert a.error_bound.hex() == b.error_bound.hex(), (code, z)
        assert a.path == b.path == "elementary"


def order_zero_points():
    """1e-3..1e-14 from 0, +-1/2, 1, 3/2 and 2 on both sides, and uniform z."""
    near = [
        a + side * 10.0**-e
        for a in (0.0, 0.5, -0.5, 1.0, 1.5, 2.0)
        for e in range(3, 15)
        for side in (1, -1)
    ]
    rng = random.Random(13)
    return near + [rng.uniform(-3.0, 3.0) for _ in range(200)]


@pytest.mark.parametrize("code", ORDER_ZERO_PQ)
def test_order_zero_modified_families_hold_their_bound(code):
    f = SumFamily.from_code(code, 0)
    lattice = singular_points(f)
    huge = [1e15 + 0.25, -1e15 - 0.375, 2.0**60 + 0.5]
    worst = 0.0
    for z in order_zero_points() + huge:
        if lattice.contains(z, 1e-12):  # eval raises there
            continue
        r = eval_family(f, z)
        err = abs(r.value - family_reference(f, z))
        assert err <= r.error_bound, (code, z, float(err), r.error_bound)
        if z not in huge:  # there the drift of z alone sets the bound
            worst = max(worst, r.error_bound)
    if lattice.kind == "jump":
        # next to the jumps of P and tP one half of the reduction has a log
        # point, damped by its own prefactor; Qp and tQp are log-singular
        # there themselves, and their bound grows with the log
        assert worst <= 1e-9, (code, worst)


def test_p0_bound_weights_each_half_by_its_own_prefactor():
    # next to z = 1/2 the bS half has a log point and its prefactor
    # cos(pi z) vanishes: the bS bound must be damped by cos(pi z), not by
    # sin(pi z), which would give 9.2e-8
    z = 0.5 - 1e-9
    f = SumFamily.from_code("P", 0)
    r = eval_family(f, z)
    assert r.error_bound < 1e-13
    assert abs(r.value - family_reference(f, z)) <= r.error_bound


@pytest.mark.parametrize("z", [1e308, -1e308, 8.99e307])
def test_bs0_reads_huge_z_without_overflow(z):
    r = eval_family(SumFamily.from_code("bS", 0), z)
    assert math.isfinite(r.value) and math.isfinite(r.error_bound)
