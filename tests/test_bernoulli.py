"""Bernoulli numbers against an independent Seidel (boustrophedon) oracle."""

import math
from fractions import Fraction

import pytest

from englert_sums import abs_bernoulli_term, bernoulli
from englert_sums.errors import CapacityError, DomainError


def tangent_numbers(count):
    """First `count` tangent numbers 1, 2, 16, 272, ... by the Seidel triangle.

    Integer-only boustrophedon transform of 1, 0, 0, ...; completely
    independent of the recurrence used in the library.
    """
    zig = [1]
    row = [1]
    for n in range(1, 2 * count + 1):
        row = [0] + [row[i] for i in range(n - 1, -1, -1)]
        for i in range(1, n + 1):
            row[i] += row[i - 1]
        zig.append(row[-1])
    # tangent numbers sit at the odd zigzag positions
    return [zig[2 * k + 1] for k in range(count)]


def test_seidel_helper_agrees_with_known_values():
    assert tangent_numbers(5) == [1, 2, 16, 272, 7936]


@pytest.mark.parametrize("n", range(1, 16))
def test_even_bernoulli_against_tangent_numbers(n):
    # B_{2n} = (-1)^{n-1} * 2n * T_n / (2^{2n} (2^{2n} - 1))
    t = tangent_numbers(n)[n - 1]
    expected = Fraction((-1) ** (n - 1) * 2 * n * t, 2 ** (2 * n) * (2 ** (2 * n) - 1))
    assert bernoulli(2 * n) == expected


def test_base_cases():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


@pytest.mark.parametrize("m", range(3, 26, 2))
def test_odd_bernoulli_vanish(m):
    assert bernoulli(m) == 0


def test_abs_bernoulli_term_goldens():
    assert abs_bernoulli_term(0) == Fraction(1, 12)
    assert abs_bernoulli_term(1) == Fraction(7, 720)
    assert abs_bernoulli_term(2) == Fraction(31, 30240)
    assert abs_bernoulli_term(3) == Fraction(127, 1209600)


@pytest.mark.parametrize("n", range(0, 8))
def test_abs_bernoulli_term_zeta_link(n):
    # (2^{2n+1}-1)|B_{2n+2}|/(2n+2)! = (1 - 2^{-2n-1}) zeta(2n+2) / pi^{2n+2}
    p = 2 * n + 2
    big = 40000
    # partial sum plus the first two Euler-Maclaurin tail terms
    zeta = (
        math.fsum(1.0 / k**p for k in range(1, big))
        + big ** (1 - p) / (p - 1)
        + 0.5 * big ** (-p)
    )
    want = (1.0 - 2.0 ** (-p + 1)) * zeta / math.pi**p
    assert float(abs_bernoulli_term(n)) == pytest.approx(want, rel=1e-10)


def test_cache_is_consistent_after_large_request():
    big = bernoulli(60)
    assert bernoulli(60) == big
    assert bernoulli(2) == Fraction(1, 6)


def test_domain_errors():
    with pytest.raises(DomainError):
        bernoulli(-1)
    with pytest.raises(DomainError):
        bernoulli(2.0)
    with pytest.raises(DomainError):
        bernoulli(True)
    with pytest.raises(DomainError):
        abs_bernoulli_term(-1)
    with pytest.raises(DomainError):
        abs_bernoulli_term(1.5)
    with pytest.raises(DomainError):
        abs_bernoulli_term(True)


def test_capacity_cap():
    with pytest.raises(CapacityError):
        bernoulli(257)
    with pytest.raises(CapacityError):
        abs_bernoulli_term(200)
