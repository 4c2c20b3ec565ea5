"""Folded table reads and the Fraction-free float path of eval_poly.

Each polynomial part of sums is one eval_poly call on the float z.  For
the 2k+1 families that call reads a folded polynomial in place of two
exact reads a half turn apart; every value must still be the exact
two-read value, rounded once.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from englert_sums import (
    BracketPoly,
    SumFamily,
    UnitCirclePoint,
    eval_family,
    eval_poly,
    integrate_bracket_poly,
    li_on_circle,
    poly_C,
    poly_S,
)
from englert_sums import polylog, sums
from englert_sums.coeffs import MAX_ORDER, _half_difference, _table_read
from englert_sums.errors import CapacityError, DomainError
from test_horner import SUMS_ROUTES, horner_reference

POLYNOMIAL_CODES = ("S", "C", "tS", "tC", "bSp", "bCp", "tbS", "tbC")
PQ_CODES = ("P", "Q", "Pp", "Qp", "tP", "tQ", "tPp", "tQp")
ORDERS = list(range(1, 21)) + [120]
# eighth-turn lattice points over two periods, then the edges
POINTS = [k / 8 for k in range(-8, 9)] + [
    -0.0, 5e-324, -2.5e-17, 1e15 + 0.25, -1e15 - 0.375,
]


def _table(kind, n):
    return poly_C(n) if kind == "C" else poly_S(n)


def two_read_part(n, zf, kind, a, b=None, sign=1.0):
    """sums._part with every polynomial part taken as two exact reads."""
    if kind not in ("C", "S"):
        return REAL_PART(n, zf, kind, a, b, sign)
    p = _table(kind, n)
    x = horner_reference(p, F(zf) + F(a, 4))
    if b is not None:
        x = (x - horner_reference(p, F(zf) + F(b, 4))) / 2
    v = float(x)
    return sign * v, "polynomial", sums._EPS * (1.0 + abs(v))


REAL_PART = sums._part


@pytest.mark.parametrize("code", POLYNOMIAL_CODES)
def test_folded_reads_equal_two_exact_reads_bit_for_bit(code):
    for n in ORDERS:
        f = SumFamily.from_code(code, n)
        for z in POINTS:
            r = eval_family(f, z)
            want = float(SUMS_ROUTES[code](n, F(z)))
            assert r.value.hex() == want.hex(), (code, n, z)
            assert r.error_bound.hex() == (sums._EPS * (1.0 + abs(want))).hex()


@pytest.mark.parametrize("code", PQ_CODES)
def test_pq_routes_equal_their_two_read_values_bit_for_bit(code, monkeypatch):
    zs = POINTS + [0.3, -1.7, 2.6]
    got = [
        (n, z, eval_family(SumFamily.from_code(code, n), z))
        for n in range(1, 9) for z in zs
    ]
    monkeypatch.setattr(sums, "_part", two_read_part)
    for n, z, r in got:
        want = eval_family(SumFamily.from_code(code, n), z)
        assert (r.value.hex(), r.error_bound.hex(), r.path) == (
            want.value.hex(), want.error_bound.hex(), want.path
        ), (code, n, z)


@pytest.mark.parametrize("kind", ["C", "S"])
def test_half_difference_is_the_shifted_difference(kind):
    # the reference expands P(u - 1/2) by the binomial theorem, in
    # integers over the common denominator of P
    for n in range(1, MAX_ORDER + 1):
        coeffs = _table(kind, n).coefficients
        d = len(coeffs) - 1
        den = math.lcm(*(c.denominator for c in coeffs))
        a = [c.numerator * (den // c.denominator) for c in coeffs]
        # 2^d den P(u - 1/2) = sum_j u^j sum_i a_i C(i, j) (-1)^(i-j) 2^(d-i+j)
        shifted = [0] * (d + 1)
        for i, ai in enumerate(a):
            for j in range(i + 1 if ai else 0):
                term = ai * math.comb(i, j) << (d - i + j)
                shifted[j] += -term if (i - j) & 1 else term
        want = [F((a[j] << d) - shifted[j], den << (d + 1)) for j in range(d + 1)]
        while len(want) > 1 and want[-1] == 0:
            want.pop()
        got = BracketPoly(_half_difference(kind, n)).coefficients
        assert got == tuple(want), (kind, n)


def test_every_polynomial_part_is_one_float_call(monkeypatch):
    calls = []
    real = sums.eval_poly

    def counted(p, z):
        calls.append(z)
        return real(p, z)

    monkeypatch.setattr(sums, "eval_poly", counted)
    for code in POLYNOMIAL_CODES + PQ_CODES:
        for n in (1, 2, 8):
            for z in (-3.7, 0.3137, 1.25):
                calls.clear()
                eval_family(SumFamily.from_code(code, n), z)
                assert len(calls) == 1, (code, n, z)
                assert type(calls[0]) is float


def test_half_shifted_tables_are_built_once(monkeypatch):
    # the tC and tS parts of sums and the exact component of li_on_circle
    # read the same cached table object
    seen = []

    def record(p, z):
        seen.append(p)
        return eval_poly(p, z)

    monkeypatch.setattr(sums, "eval_poly", record)
    monkeypatch.setattr(polylog, "eval_poly", record)
    for code, a in (("tC", 2), ("tS", 3)):
        seen.clear()
        eval_family(SumFamily.from_code(code, 1), 0.3)
        li_on_circle(a, UnitCirclePoint.from_turns(F(3, 10))).error_bound
        assert len(seen) == 2 and seen[0] is seen[1], code
        assert seen[0].shift == F(1, 2) and seen[0].fold is None


MIXED = BracketPoly((F(1, 3), F(-2, 7), F(5, 11)))
FLOAT_POLYS = [
    poly_C(3), poly_S(3), MIXED,
    poly_C(3).with_shift(F(1, 2)), poly_S(3).with_shift(F(1, 2)), MIXED.with_shift(F(1, 2)),
    _table_read("S", 3, -1, 1), _table_read("C", 4, 1, -1), _table_read("S", 2, -2, 0),
]


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-0.25)
@example(0.5 - 2.0**-54)
@example(1e15 + 0.25)
@settings(max_examples=80)
def test_float_path_is_the_exact_value_rounded_once(x):
    for p in FLOAT_POLYS:
        got = eval_poly(p, x)
        assert type(got) is float
        want = float(horner_reference(p, F(x))).hex()
        assert got.hex() == float(eval_poly(p, F(x))).hex() == want, (p, x)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_float_path_refuses_non_finite_arguments(x):
    for p in FLOAT_POLYS:
        with pytest.raises(DomainError):
            eval_poly(p, x)


def test_folded_read_is_sign_times_q_at_the_absolute_bracket():
    # odd fold: Q(|w|) for w >= 0 and -Q(|w|) below; even fold: Q(|w|)
    q = BracketPoly((F(1, 5), F(2), F(-3)))
    for fold, sign in (("even", 1), ("odd", -1)):
        p = BracketPoly(q.coefficients, F(1, 4), fold)
        for z in (F(0), F(1, 8), F(3, 8), F(5, 8), F(7, 8), F(-2, 3)):
            w = z - F(1, 4)
            w -= math.floor(w + F(1, 2))
            want = sum(c * abs(w) ** i for i, c in enumerate(q.coefficients))
            assert eval_poly(p, z) == (sign * want if w < 0 else want), (fold, z)


def test_folded_tables_are_read_in_t_with_half_the_numerators():
    # Q of a cosine table is odd about |w| = 1/4, Q of a sine table even:
    # read in t = |w| - 1/4, each packs d // 2 + 1 numerators in t**2
    for kind in ("C", "S"):
        for n in range(0 if kind == "S" else 1, MAX_ORDER + 1):
            for a in range(4):
                for b in (a - 2, a + 2):
                    p = _table_read(kind, n, a, b)
                    _, nums, odd, squared, _, _, centre = p._int_form
                    assert centre and squared, (kind, n, a, b)
                    assert odd == (kind == "C"), (kind, n, a, b)
                    assert len(nums) == p.degree // 2 + 1, (kind, n, a, b)
    # a fold with no parity in t keeps every power, read in w
    for fold in ("even", "odd"):
        mixed = BracketPoly((F(1, 5), F(2), F(-3)), F(1, 4), fold)
        _, nums, odd, squared, _, _, centre = mixed._int_form
        assert not (centre or odd or squared) and len(nums) == 3, fold


def test_shifts_and_folds_are_checked():
    for shift in (F(1, 3), F(-1, 4), F(1)):
        with pytest.raises(DomainError):
            BracketPoly((F(1),), shift)
    with pytest.raises(DomainError):
        BracketPoly((F(1),), F(0), "both")
    with pytest.raises(DomainError):
        _table_read("C", 2, 1, 0)  # a quarter turn apart, not a half
    with pytest.raises(DomainError):
        _table_read("X", 2, 0, None)


def test_only_unfolded_polynomials_at_carrier_shifts_integrate():
    square = BracketPoly((F(0), F(0), F(1)))
    for p in (square.with_shift(F(1, 4)), square.with_shift(F(3, 4)),
              _table_read("C", 2, 2, 0), _table_read("S", 1, -1, 1)):
        with pytest.raises(DomainError):
            integrate_bracket_poly(p)
    for shift in (F(0), F(1, 2)):
        assert integrate_bracket_poly(square.with_shift(shift)).poly.shift == shift


def test_li_on_circle_checks_its_cap_and_reads_the_table_on_first_use(monkeypatch):
    p = UnitCirclePoint.from_turns(F(1, 3))
    for a in (242, 10**6):
        with pytest.raises(CapacityError, match="polylogarithm order"):
            li_on_circle(a, p)
    reads = []

    def counted(*args):
        reads.append(args)
        return _table_read(*args)

    monkeypatch.setattr(polylog, "_table_read", counted)
    v = li_on_circle(241, p)
    assert reads == []
    v.real_part, v.imag_part, v.error_bound
    assert reads == [("S", 120, 2, None)]
