"""Exact Bernoulli numbers and the derived coefficient-table constants.

Bernoulli numbers are produced as Fractions from the defining
recurrence (convention B_1 = -1/2):

    sum_{k=0}^{m} C(m+1, k) B_k = 0   for m >= 1.

The recurrence is quadratic in the index but exact.  bernoulli is a
pure function behind a functools cache: a race may compute a number
twice, never wrongly.  The table limit is generous (indexes up to 256)
because downstream users only ever need a few dozen.

``abs_bernoulli_term(n)`` packages the combination

    (2**(2n+1) - 1) * |B_{2n+2}| / (2n+2)!

which appears as the constant term of every even bracket polynomial in
this package and equals (1 - 2**(-2n-1)) * zeta(2n+2) / pi**(2n+2).
First values: 1/12, 7/720, 31/30240, 127/1209600.
"""

import functools
import math
from fractions import Fraction

from .errors import check_int

MAX_INDEX = 256


# typed: an entry for an int subclass compares equal to True or 2.0 and
# must not answer them before the argument check
@functools.lru_cache(maxsize=None, typed=True)
def bernoulli(m):
    """Exact Bernoulli number B_m as a Fraction (B_1 = -1/2)."""
    check_int(m, "Bernoulli index", 0, MAX_INDEX)
    if m == 0:
        return Fraction(1)
    if m > 1 and m % 2:
        return Fraction(0)
    acc = sum(math.comb(m + 1, k) * bernoulli(k) for k in range(m))
    return -acc / (m + 1)


def abs_bernoulli_term(n):
    """(2**(2n+1) - 1) |B_{2n+2}| / (2n+2)! as an exact Fraction, n >= 0."""
    check_int(n, "index", 0)
    m = 2 * n + 2
    return (2 ** (m - 1) - 1) * abs(bernoulli(m)) / Fraction(math.factorial(m))
