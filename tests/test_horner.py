"""Integer Horner of eval_poly against a plain Fraction Horner, bit for bit."""

import math
import random
from fractions import Fraction as F

import pytest

from englert_sums import BracketPoly, SumFamily, eval_family, eval_poly, poly_C, poly_S

HALF = F(1, 2)
QUARTER = F(1, 4)


def horner_reference(p, z):
    """Fraction Horner at centered(z - shift), normalising at every step."""
    w = F(z) - p.shift
    w -= math.floor(w + HALF)
    acc = F(0)
    for c in reversed(p.coefficients):
        acc = acc * w + c
    return acc


def _arguments():
    rng = random.Random(20190630)
    fractions = [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(12)]
    halves = [F(k, 2) for k in range(-7, 8, 2)] + [F(0), F(3), F(-2)]
    floats = [rng.uniform(-4.0, 4.0) for _ in range(8)] + [
        1e15 + 0.25, -1e15 - 0.375, 123456789.0625, -0.7, 2.5e-17, -3e-200, 5e-324,
    ]
    return fractions + halves + [F(z) for z in floats]


ARGUMENTS = _arguments()
POLYS = (
    [poly_S(n) for n in range(0, 21)]
    + [poly_C(n) for n in range(1, 21)]  # the cosine family starts at order 1
)


@pytest.mark.parametrize("shift", [F(0), HALF])
def test_exact_horner_matches_fraction_reference(shift):
    for base in POLYS:
        p = base.with_shift(shift)
        for z in ARGUMENTS:
            got = eval_poly(p, z)
            assert type(got) is F
            assert got == horner_reference(p, z), (p.degree, shift, z)


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
