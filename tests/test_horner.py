"""Integer Horner of eval_poly against a plain Fraction Horner, bit for bit."""

import functools
import math
import random
from fractions import Fraction as F

import pytest

from englert_sums import BracketPoly, SumFamily, eval_family, eval_poly, poly_C, poly_S
from englert_sums.coeffs import _table_read

HALF = F(1, 2)
QUARTER = F(1, 4)


def horner_reference(p, z):
    """Fraction Horner at centered(z - shift), normalising at every step.

    A folded p is read at |w| and, for an odd fold, negated where w < 0.
    """
    w = F(z) - p.shift
    w -= math.floor(w + HALF)
    u = abs(w) if p.fold else w
    acc = F(0)
    for c in reversed(p.coefficients):
        acc = acc * u + c
    return -acc if p.fold == "odd" and w < 0 else acc


def _arguments():
    rng = random.Random(20190630)
    fractions = [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(12)]
    halves = [F(k, 2) for k in range(-7, 8, 2)] + [F(0), F(3), F(-2)]
    # every quarter turn: w = 0, w = -1/2 and |w| = 1/4 at each shift;
    # and denominators 12 and 6, which are not powers of two
    quarters = [F(k, 4) for k in range(-5, 10, 2)] + [F(5, 12), F(-7, 6)]
    floats = [rng.uniform(-4.0, 4.0) for _ in range(8)] + [
        1e15 + 0.25, -1e15 - 0.375, 123456789.0625, -0.7, 2.5e-17, -3e-200, 5e-324,
    ]
    return fractions + halves + quarters + [F(z) for z in floats]


ARGUMENTS = _arguments()
POLYS = (
    [poly_S(n) for n in range(0, 21)]
    + [poly_C(n) for n in range(1, 21)]  # the cosine family starts at order 1
)


@functools.lru_cache(maxsize=None)
def _table_reference(kind, n, quarters, z):
    # the reads have period 1, so the eight folds of a table share four
    return horner_reference(poly_C(n) if kind == "C" else poly_S(n), z + F(quarters, 4))


def two_read_reference(kind, n, a, z):
    """Half the difference of two Fraction reads of a table, at z + a/4
    and at z + a/4 + 1/2."""
    return (_table_reference(kind, n, a % 4, z) - _table_reference(kind, n, (a + 2) % 4, z)) / 2


# every folded read of sums and polylog: (kind, n, a, b), b = a -+ 2
FOLDS = [
    (kind, n, a, b)
    for kind in ("C", "S")
    for n in list(range(1, 21)) + [120]
    for a in range(4)
    for b in (a - 2, a + 2)
]


# shift None stands for every folded read, against the two reads it folds
@pytest.mark.parametrize("shift", [F(0), HALF, None])
def test_exact_horner_matches_fraction_reference(shift):
    if shift is None:
        reads = [(_table_read(*r), functools.partial(two_read_reference, *r[:3])) for r in FOLDS]
    else:
        reads = [(p, functools.partial(horner_reference, p))
                 for p in (base.with_shift(shift) for base in POLYS)]
    for p, reference in reads:
        for z in ARGUMENTS:
            got = eval_poly(p, z)
            assert type(got) is F
            assert got == reference(z), (p.degree, p.shift, p.fold, z)


def test_integer_arguments_and_mixed_parity():
    # a mixed polynomial keeps every power; int is a Rational too
    p = poly_C(2).with_shift(HALF)
    mixed = BracketPoly((F(1, 3), F(-2, 7), F(5, 11)), HALF)
    for z in (0, 3, -4, F(7, 3), F(-9, 4)):
        assert eval_poly(p, z) == horner_reference(p, z)
        assert eval_poly(mixed, z) == horner_reference(mixed, z)


# code -> value of the polynomial-path family at exact z, from the reference
SUMS_ROUTES = {
    "S": lambda n, z: horner_reference(poly_S(n), z),
    "C": lambda n, z: horner_reference(poly_C(n), z),
    "tS": lambda n, z: horner_reference(poly_S(n).with_shift(HALF), z),
    "tC": lambda n, z: horner_reference(poly_C(n).with_shift(HALF), z),
    "bSp": lambda n, z: (
        horner_reference(poly_C(n), z + QUARTER) - horner_reference(poly_C(n), z - QUARTER)
    ) / 2,
    "bCp": lambda n, z: (
        horner_reference(poly_S(n), z - QUARTER) - horner_reference(poly_S(n), z + QUARTER)
    ) / 2,
    "tbS": lambda n, z: (
        horner_reference(poly_S(n), z - HALF) - horner_reference(poly_S(n), z)
    ) / 2,
    "tbC": lambda n, z: (
        horner_reference(poly_C(n), z + HALF) - horner_reference(poly_C(n), z)
    ) / 2,
}


@pytest.mark.parametrize("code", sorted(SUMS_ROUTES))
def test_sums_values_are_the_rounded_exact_values(code):
    rng = random.Random(code)
    zs = [rng.uniform(-4.0, 4.0) for _ in range(6)] + [1e15 + 0.25, -2.5e-17, 0.3]
    for n in range(1, 9):
        f = SumFamily.from_code(code, n)
        for z in zs:
            r = eval_family(f, z)
            assert r.path == "polynomial"
            assert r.value == float(SUMS_ROUTES[code](n, F(z))), (code, n, z)
