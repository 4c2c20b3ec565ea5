"""Coefficient tables, bracket polynomials, and the integration rule."""

import math
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from englert_sums import (
    BracketPoly,
    abs_bernoulli_term,
    bernoulli,
    c_table,
    constraint_check,
    eval_poly,
    integrate_bracket_poly,
    poly_C,
    poly_S,
    sin_poly_variant,
)
from englert_sums.errors import CapacityError, DomainError

F = Fraction

GOLDEN_TABLES = {
    1: (F(-1, 12), F(1)),
    2: (F(-7, 720), F(1, 6), F(-1, 3)),
    3: (F(-31, 30240), F(7, 360), F(-1, 18), F(2, 45)),
    4: (F(-127, 1209600), F(31, 15120), F(-7, 1080), F(1, 135), F(-1, 315)),
}


@pytest.mark.parametrize("n", sorted(GOLDEN_TABLES))
def test_golden_tables(n):
    assert c_table(n) == GOLDEN_TABLES[n]


@pytest.mark.parametrize("n", range(1, 21))
def test_constant_term_is_bernoulli_combination(n):
    # the constant of row n+1 carries the nth Bernoulli combination; the
    # base row starts the ladder at -1/12
    assert c_table(n + 1)[0] == -abs_bernoulli_term(n)
    assert c_table(1)[0] == F(-1, 12)


@pytest.mark.parametrize("n", range(2, 12))
def test_recursion_step(n):
    prev, row = c_table(n - 1), c_table(n)
    for i in range(1, n + 1):
        lower = prev[i - 1] if i - 1 < len(prev) else F(0)
        assert row[i] == F(-2) * lower / (i * (2 * i - 1))


@pytest.mark.parametrize("n", range(1, 31))
def test_closure_constraint(n):
    assert constraint_check(n) is True
    row = c_table(n)
    assert sum(c / (4**i * (2 * i + 1)) for i, c in enumerate(row)) == 0


def test_polynomials_mirror_tables():
    for n in range(1, 7):
        row = c_table(n)
        coeffs = poly_C(n).coefficients
        assert len(coeffs) == 2 * n + 1
        for i, c in enumerate(row):
            assert coeffs[2 * i] == c
        assert all(coeffs[j] == 0 for j in range(1, len(coeffs), 2))


def test_parity_tags():
    for n in range(1, 6):
        assert poly_C(n).parity == "even"
        assert poly_S(n).parity == "odd"
    assert poly_S(0).parity == "odd"


@pytest.mark.parametrize("n", range(1, 7))
def test_sine_derivative_is_twice_cosine(n):
    # exact coefficient-level form of d/dz S_n = 2 C_n
    s = poly_S(n).coefficients
    c = poly_C(n).coefficients
    for j in range(1, len(s)):
        cj = c[j - 1] if j - 1 < len(c) else F(0)
        assert j * s[j] == 2 * cj


@pytest.mark.parametrize("n", range(1, 6))
def test_cosine_derivative_is_minus_twice_sine(n):
    # exact coefficient-level form of d/dz C_{n+1} = -2 S_n
    c = poly_C(n + 1).coefficients
    s = poly_S(n).coefficients
    for j in range(1, len(c)):
        sj = s[j - 1] if j - 1 < len(s) else F(0)
        assert j * c[j] == -2 * sj


def test_exact_values():
    assert eval_poly(poly_C(1), F(1, 4)) == F(-1, 48)
    assert eval_poly(poly_C(2), F(1, 4)) == F(-7, 11520)
    assert eval_poly(poly_S(1), F(1, 4)) == F(-1, 32)
    assert eval_poly(poly_S(0), F(3, 10)) == F(-3, 10)
    assert eval_poly(poly_S(1), F(3, 10)) == F(-4, 125)


def test_integration_of_odd_power_has_no_staircase():
    saw = BracketPoly((F(0), F(1)))
    anti = integrate_bracket_poly(saw)
    assert anti.poly.coefficients == (F(0), F(0), F(1, 2))
    assert anti.nonperiodic == 0


def test_integration_of_even_power_carries_staircase():
    sq = BracketPoly((F(0), F(0), F(1)))
    anti = integrate_bracket_poly(sq)
    assert anti.poly.coefficients == (F(0), F(0), F(0), F(1, 3))
    assert anti.nonperiodic == F(1, 12)
    # antiderivative vanishes at 0 and is continuous across the wrap
    assert anti(F(0)) == 0
    left = anti(F(1, 2) - F(1, 10**9))
    right = anti(F(1, 2) + F(1, 10**9))
    assert abs(left - right) < F(1, 10**8)


def test_integration_shifted_branch():
    shifted = BracketPoly((F(0), F(1)), shift=F(1, 2))
    anti = integrate_bracket_poly(shifted)
    assert anti.poly.coefficients == (F(-1, 8), F(0), F(1, 2))
    assert anti.poly.shift == F(1, 2)
    assert anti.nonperiodic == 0
    assert anti(F(0)) == 0


def test_shifted_square_integral_value():
    # int_0^{1/4} <u - 1/2>^2 du = 7/192, the worked check for the
    # staircase carrier of the shift-1/2 branch
    sq = BracketPoly((F(0), F(0), F(1)), shift=F(1, 2))
    anti = integrate_bracket_poly(sq)
    assert anti(F(1, 4)) - anti(F(0)) == F(7, 192)


@pytest.mark.parametrize("n", range(1, 5))
def test_integral_relation_between_tables(n):
    # 2 * int C_n is the sine polynomial, and the constraint kills the
    # staircase exactly
    anti = integrate_bracket_poly(poly_C(n))
    assert anti.nonperiodic == 0
    doubled = tuple(2 * c for c in anti.poly.coefficients)
    assert doubled == poly_S(n).coefficients


def test_variant_is_empty_at_order_one():
    assert sin_poly_variant(1).coefficients == (F(0),)


def test_variant_is_even_and_differs_from_sine():
    v = sin_poly_variant(2)
    assert v.parity == "even"
    assert v.coefficients == (F(-1, 36), F(0), F(1, 9))
    assert v.coefficients != poly_S(2).coefficients


def test_bracketpoly_canonicalization():
    assert BracketPoly((F(1), F(0))).coefficients == (F(1),)
    assert BracketPoly(()).coefficients == (F(0),)
    assert BracketPoly((1, 0, 2)).coefficients == (F(1), F(0), F(2))
    with pytest.raises(DomainError):
        BracketPoly((F(1),), shift=F(1, 3))


def test_with_shift_changes_argument_reading():
    p = poly_C(1)
    q = p.with_shift(F(1, 2))
    assert q.coefficients == p.coefficients
    assert eval_poly(q, F(0)) == eval_poly(p, F(1, 2))
    assert eval_poly(q, F(1, 4)) == eval_poly(p, F(-1, 4))


@given(st.fractions(min_value=-3, max_value=3))
def test_parity_identities(q):
    for n in (1, 2, 3):
        assert eval_poly(poly_C(n), q) == eval_poly(poly_C(n), -q)
        assert eval_poly(poly_S(n), q) == -eval_poly(poly_S(n), -q)


@given(st.fractions(min_value=-3, max_value=3))
def test_periodicity_exact(q):
    for n in (1, 2):
        assert eval_poly(poly_C(n), q + 1) == eval_poly(poly_C(n), q)
        assert eval_poly(poly_S(n), q + 1) == eval_poly(poly_S(n), q)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(1e15)
@example(-1e15)
@example(5e-324)
@example(0.5 - 2.0**-54)
@example(-2.0)
@settings(max_examples=60)
def test_float_path_tracks_exact_path(z):
    # a float argument returns the correctly rounded exact value, bit for bit
    for p in (poly_S(1), poly_S(3), poly_C(2), poly_C(2).with_shift(F(1, 2))):
        exact = float(eval_poly(p, Fraction(z)))
        got = eval_poly(p, z)
        assert type(got) is float
        assert got.hex() == exact.hex(), (p, z)


def test_float_antiderivative_is_the_exact_one_rounded():
    # the staircase of an even power is taken exactly too
    for shift in (F(0), F(1, 2)):
        anti = integrate_bracket_poly(BracketPoly((F(0), F(0), F(1)), shift))
        for z in (2.7, -1.3, 0.5 - 2.0**-54, 1e15 + 0.25):
            got = anti(z)
            assert type(got) is float
            assert got == float(anti(Fraction(z))), (shift, z)


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
def test_float_argument_must_be_finite(z):
    with pytest.raises(DomainError):
        eval_poly(poly_C(1), z)
    with pytest.raises(DomainError):
        integrate_bracket_poly(BracketPoly((F(0), F(0), F(1))))(z)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_polynomial_matches_defining_series(n):
    # independent slow sum: p = 2n has absolute tail below 4e-10 at 50000
    # terms for n = 1, far smaller for higher n
    for z in (0.3, 0.45, -0.2):
        series = math.fsum(
            (-1.0) ** k * math.cos(2.0 * math.pi * k * z) / (math.pi * k) ** (2 * n)
            for k in range(1, 50001)
        )
        assert eval_poly(poly_C(n), z) == pytest.approx(series, abs=5e-9)


def test_order_validation():
    with pytest.raises(DomainError):
        poly_C(0)
    with pytest.raises(DomainError):
        c_table(0)
    with pytest.raises(DomainError):
        poly_S(-1)
    with pytest.raises(DomainError):
        c_table("3")
    with pytest.raises(CapacityError):
        c_table(121)
    for make, minimum in ((c_table, 1), (poly_C, 1), (poly_S, 0), (sin_poly_variant, 1)):
        for bad in (True, 2.0, minimum - 1):
            with pytest.raises(DomainError):
                make(bad)
        with pytest.raises(CapacityError):
            make(121)
    assert poly_S(0).coefficients == (F(0), F(-1))


class Order(int):
    """An int subclass: a valid order whose cache key is a tuple."""


def test_cached_tables_still_check_their_arguments():
    # a plain int argument is its own cache key, but an int subclass is
    # keyed by a tuple that equals (True,) or (1.0,); a cache keyed
    # without the type would answer these calls from those entries
    for n in (0, 1, 2):
        bernoulli(n)
        bernoulli(Order(n))
        poly_S(n)
        poly_S(Order(n))
    for n in (1, 2):
        c_table(n)
        c_table(Order(n))
        poly_C(n)
        poly_C(Order(n))
    for make, bad in (
        (poly_C, True), (poly_C, 1.0), (poly_S, False), (c_table, 2.0),
        (bernoulli, True), (bernoulli, 2.0),
    ):
        with pytest.raises(DomainError):
            make(bad)


def test_tables_built_on_racing_threads_match_a_sequential_build():
    caches = (bernoulli, c_table, poly_C, poly_S)

    def build():
        return bernoulli(256), c_table(120), poly_S(120)

    for f in caches:
        f.cache_clear()
    sequential = build()
    for f in caches:
        f.cache_clear()
    start = threading.Barrier(4)
    results = [None] * 4

    def worker(i):
        start.wait()
        results[i] = build()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == sequential for r in results)
