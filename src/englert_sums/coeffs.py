"""Exact polynomial closed forms for the even-summand families.

The even-summand series evaluate to polynomials in the centered
fractional part ``<z - shift>`` with rational coefficients.  The
coefficient rows are generated by a two-term recursion seeded from the
order-one row (-1/12, 1):

    c_0(n) = -abs_bernoulli_term(n - 1)
    c_i(n) = -2 c_{i-1}(n - 1) / (i (2i - 1)),   i = 1 .. n

Every row satisfies the closure constraint

    sum_i c_i(n) / (4^i (2i + 1)) = 0

which is exactly the condition for the odd antiderivative to stay
periodic (no staircase component survives the integration).  All
generation is exact in fractions.Fraction, in pure functions of the
order behind functools caches: a race may build an entry twice, never
wrongly.

The families with 2k+1 denominators take half the difference of two
reads of a table P a half turn apart.  With w = <z + a/4> that is

    (P(w) - P(<w + 1/2>)) / 2 = sgn(w)^par Q(|w|),
    Q(u) = (P(u) - P(u - 1/2)) / 2,

with par 0 for the even cosine tables and 1 for the odd sine tables, so
each such read is one folded bracket polynomial (see BracketPoly).  Q
comes from an integer Taylor shift of P, once per table.  Q is
symmetric about u = 1/4: the parity of P gives

    Q(1/2 - u) = -Q(u)  for a cosine table,  +Q(u)  for a sine table,

so in t = u - 1/4 it is t q(t^2) or q(t^2), and a second integer Taylor
shift, to t, halves the Horner steps of each folded read.

Evaluation runs Horner in plain integers over the common denominator of
the coefficients, in the bracket value w or, for a fold with a parity
in t (the fold of every table has one), in t = |w| - 1/4.  A rational
argument gets one Fraction at the end; a float argument is read from
its integer ratio, and its result is the exact value rounded once by an
integer true division.  Where the argument's denominator is a power of
two, as every float's is, each power of it in the loop is a shift.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .bernoulli import abs_bernoulli_term
from .bracket import ONE_HALF, centered
from .errors import DomainError, InternalConsistencyError, check_int

__all__ = [
    "BracketPoly",
    "IntegratedPoly",
    "MAX_ORDER",
    "c_table",
    "constraint_check",
    "eval_poly",
    "integrate_bracket_poly",
    "poly_C",
    "poly_S",
    "sin_poly_variant",
]

ZERO = Fraction(0)
# the shifts of a bracket variable, in quarter turns
_SHIFTS = tuple(Fraction(k, 4) for k in range(4))
_FOLD_SIGNS = {None: 0, "even": 1, "odd": -1}

# c_table(n) consumes |B_{2n}|, so the order cap tracks bernoulli.MAX_INDEX.
MAX_ORDER = 120


def _taylor_shift(a, k, s):
    """Integers b_j with sum_j b_j u^j = 2^(k d) sum_j a_j (u + s 2^-k)^j, s = +-1.

    g(v) = sum_j a_j 2^(k (d - j)) v^j is 2^(k d) A(v 2^-k); Horner's
    Taylor shift turns its coefficients into those of g(v + s), and the
    coefficient of v^j times 2^(k j) is that of u^j.
    """
    d = len(a) - 1
    g = [c << k * (d - j) for j, c in enumerate(a)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            g[j] += s * g[j + 1]
    return [c << k * j for j, c in enumerate(g)]


def _packed(nums):
    """(numerators from the top power down, odd, squared): the even
    powers alone, the odd powers alone, or every power."""
    if not any(nums[1::2]):
        return tuple(reversed(nums[0::2])), False, True
    if not any(nums[0::2]):
        return tuple(reversed(nums[1::2])), True, True
    return tuple(reversed(nums)), False, False


def _integer_form(coeffs, shift, fold):
    """The form eval_poly reads: (den, numerators, odd, squared, quarters,
    sign, centre).

    ``numerators`` are the coefficients over their common denominator
    den, from the top power down, in the variable x: w, or for a centred
    fold t = |w| - 1/4.  Even polynomials in x keep only the even powers
    and are read in x**2 (squared); odd ones keep the odd powers, read as
    x * q(x**2) (odd and squared); mixed ones keep every power and are
    read in x.  ``quarters`` is the shift in quarter turns and ``sign``
    the fold: 0 unfolded, 1 even, -1 odd.

    A folded polynomial is taken to t by an integer Taylor shift, in
    which the half difference Q of a table has one parity: Q(1/2 - u) =
    -Q(u) for a cosine table and +Q(u) for a sine table.  ``centre`` says
    it was; a fold with no parity in t keeps its form in w.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    quarters = int(4 * shift)
    sign = _FOLD_SIGNS[fold]
    if sign:
        # Q(t + 1/4) = sum_j b_j t^j / (4^d den), reduced by one gcd
        b = _taylor_shift(nums, 2, 1)
        if not any(b[1::2]) or not any(b[0::2]):
            tden = den << 2 * (len(b) - 1)
            g = math.gcd(tden, *b)
            return (tden // g, *_packed([c // g for c in b]), quarters, sign, True)
    return (den, *_packed(nums), quarters, sign, False)


@dataclass(frozen=True)
class BracketPoly:
    """Polynomial in the bracket variable w = <z - shift>.

    ``coefficients[i]`` multiplies w**i.  Trailing zero coefficients are
    stripped at construction so equal polynomials compare equal; the zero
    polynomial keeps a single zero entry.  The shift is a quarter turn:
    0, 1/4, 1/2 or 3/4.  Only 0 and 1/2 are carriers the integration
    rules know about; the quarter shifts serve the reads of the 2k+1
    families.

    ``fold`` is None for a polynomial read at w itself.  A folded
    polynomial Q is read at |w|: "even" gives Q(|w|), "odd" gives Q(|w|)
    for w >= 0 and -Q(|w|) for w < 0.  Half the difference of the reads
    of a table P at w and at <w + 1/2> is the fold, even for an even P
    and odd for an odd P, of Q(u) = (P(u) - P(u - 1/2)) / 2.
    """

    coefficients: tuple
    shift: Fraction = ZERO
    fold: str | None = None

    def __post_init__(self):
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (ZERO,)
        shift = Fraction(self.shift)
        if shift not in _SHIFTS:
            raise DomainError(f"bracket shift must be 0, 1/4, 1/2 or 3/4, got {shift}")
        if self.fold not in (None, "even", "odd"):
            raise DomainError(f"bracket fold must be None, 'even' or 'odd', got {self.fold!r}")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "_int_form", _integer_form(coeffs, shift, self.fold))

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @property
    def parity(self):
        """'even', 'odd' or 'mixed' under w -> -w; the zero poly counts as even."""
        has_even = any(c for i, c in enumerate(self.coefficients) if i % 2 == 0)
        has_odd = any(c for i, c in enumerate(self.coefficients) if i % 2 == 1)
        if has_even and has_odd:
            return "mixed"
        return "odd" if has_odd else "even"

    def with_shift(self, shift):
        """Same coefficients and fold read in the bracket variable <z - shift>."""
        return BracketPoly(self.coefficients, Fraction(shift), self.fold)

    def __call__(self, z):
        return eval_poly(self, z)


@dataclass(frozen=True)
class IntegratedPoly:
    """Antiderivative of a BracketPoly, taken from 0 to z.

    The primitive of a periodic polynomial need not be periodic: every
    even bracket power integrates to an odd power plus a rational
    multiple of the staircase z - <z - shift>, which increments by one
    each time the bracket wraps.  The staircase keeps the primitive
    continuous and zero at the origin; for shift 0 it equals
    floor(z + 1/2), for shift 1/2 it equals 1/2 + floor(z).  Like
    eval_poly it is exact for rational z and correctly rounded for a
    float.
    """

    poly: BracketPoly
    nonperiodic: Fraction

    def __call__(self, z):
        if not isinstance(z, Rational):
            return float(self(_exact(z)))
        periodic = eval_poly(self.poly, z)
        if self.nonperiodic == 0:
            return periodic
        zq = Fraction(z)
        return periodic + self.nonperiodic * (zq - centered(zq - self.poly.shift))


# typed: an entry for an int subclass compares equal to True or 2.0 and
# must not answer them before the argument check
@functools.lru_cache(maxsize=None, typed=True)
def c_table(n):
    """Exact coefficient row [c_0(n), ..., c_n(n)] of the even cosine family.

    Order 0 has no polynomial form (the constant -1/2 family is handled in
    sums), so n must be >= 1.
    """
    check_int(n, "order", 1, MAX_ORDER)
    if n == 1:
        return (Fraction(-1, 12), Fraction(1))
    prev = c_table(n - 1)
    row = [-abs_bernoulli_term(n - 1)]
    for i in range(1, n + 1):
        row.append(Fraction(-2, i * (2 * i - 1)) * prev[i - 1])
    return tuple(row)


def constraint_check(n):
    """True iff sum_i c_i(n) / (2^{2i} (2i+1)) vanishes exactly."""
    row = c_table(n)
    total = sum(c / (Fraction(4) ** i * (2 * i + 1)) for i, c in enumerate(row))
    return total == 0


@functools.lru_cache(maxsize=None, typed=True)
def poly_C(n):
    """Even bracket polynomial of the alternating cosine family, shift 0.

    poly_C(1) is <z>^2 - 1/12; higher orders follow from c_table(n) with
    c_i(n) at power 2i.
    """
    check_int(n, "order", 1, MAX_ORDER)
    row = c_table(n)
    coeffs = [ZERO] * (2 * len(row) - 1)
    for i, c in enumerate(row):
        coeffs[2 * i] = c
    return BracketPoly(tuple(coeffs))


@functools.lru_cache(maxsize=None, typed=True)
def poly_S(n):
    """Odd bracket polynomial of the alternating sine family, shift 0.

    poly_S(0) is -<z>.  For n >= 1 the polynomial is twice the
    antiderivative of poly_C(n); the closure constraint guarantees the
    antiderivative has no staircase component, and we verify that rather
    than assume it.
    """
    check_int(n, "order", 0, MAX_ORDER)
    if n == 0:
        return BracketPoly((ZERO, Fraction(-1)))
    anti = integrate_bracket_poly(poly_C(n))
    if anti.nonperiodic != 0:
        raise InternalConsistencyError(
            "antiderivative of the order-%d even polynomial kept a "
            "nonperiodic coefficient %s; the closure constraint is "
            "violated" % (n, anti.nonperiodic)
        )
    return BracketPoly(tuple(2 * c for c in anti.poly.coefficients))


def sin_poly_variant(n):
    """As-printed general formula for the odd sine family, kept for arbitration.

    A published general expression for the order-n sine family reads

        2 sum_{i=1}^{n-1} c_i(n)/(2i+1) * [<z>^{2i} - 4^{-i}]

    which is even in <z> and empty at n=1, so it cannot equal the odd
    series it claims to describe.  It is retained verbatim as the losing
    candidate of the arbitration suite; poly_S carries the derived form.
    """
    check_int(n, "order", 1, MAX_ORDER)
    row = c_table(n)
    coeffs = [ZERO] * max(2 * n - 1, 1)
    for i in range(1, n):
        w = 2 * row[i] / (2 * i + 1)
        coeffs[2 * i] += w
        coeffs[0] -= w / Fraction(4) ** i
    return BracketPoly(tuple(coeffs))


def integrate_bracket_poly(p):
    """Definite integral of p from 0 to z, exact in rational arithmetic.

    Odd powers integrate to pure bracket powers; the shift-1/2 case picks
    up the constant -2^-(j+1)/(j+1) that keeps the primitive zero at the
    origin.  Even powers (the constant included) integrate to an odd
    power plus the staircase carrier weighted by 4^(-j/2)/(j+1); at shift
    1/2 the carrier value 1/2 at the origin exactly cancels the bracket
    term there, so no further constant is needed.
    """
    if not isinstance(p, BracketPoly):
        raise DomainError(f"expected a BracketPoly, got {type(p).__name__}")
    if p.fold is not None or p.shift not in (ZERO, ONE_HALF):
        raise DomainError(
            f"only unfolded polynomials at shift 0 or 1/2 integrate, got shift "
            f"{p.shift} and fold {p.fold!r}"
        )
    coeffs = [ZERO] * (len(p.coefficients) + 1)
    nonper = ZERO
    half_shift = p.shift == ONE_HALF
    for j, c in enumerate(p.coefficients):
        if c == 0:
            continue
        term = Fraction(c, j + 1)
        coeffs[j + 1] += term
        if j % 2 == 0:
            nonper += term / Fraction(4) ** (j // 2)
        elif half_shift:
            coeffs[0] -= term * Fraction(1, 2 ** (j + 1))
    return IntegratedPoly(BracketPoly(tuple(coeffs), p.shift), nonper)


def _exact(z):
    """The exact Fraction of a finite float argument."""
    zf = float(z)
    if not math.isfinite(zf):
        raise DomainError(f"polynomial argument must be finite, got {z!r}")
    return Fraction(zf)


@functools.lru_cache(maxsize=None, typed=True)
def _half_difference(kind, n):
    """Coefficients of Q(u) = (P(u) - P(u - 1/2)) / 2, P = poly_<kind>(n).

    With P = sum_j a_j u^j / den in integers, _taylor_shift gives the
    integer coefficients of 2^d den P(u - 1/2).
    """
    p = poly_C(n) if kind == "C" else poly_S(n)
    d = p.degree
    den = math.lcm(*(c.denominator for c in p.coefficients))
    a = [c.numerator * (den // c.denominator) for c in p.coefficients]
    shifted = _taylor_shift(a, 1, -1)
    den <<= d + 1
    return tuple(Fraction((c << d) - h, den) for c, h in zip(a, shifted))


@functools.lru_cache(maxsize=None, typed=True)
def _table_read(kind, n, a, b):
    """The table poly_<kind>(n), kind "C" or "S", read at z + a/4.

    With b None this is the table at shift -a/4.  With b = a -+ 2 it is
    half the difference of the reads at z + a/4 and at z + b/4: the fold
    of Q (see _half_difference) at the same shift, even for C and odd
    for S.  One cache serves every reader, so each table is built once.
    """
    if kind not in ("C", "S"):
        raise DomainError(f"table kind must be 'C' or 'S', got {kind!r}")
    shift = Fraction(-a % 4, 4)
    if b is None:
        p = poly_C(n) if kind == "C" else poly_S(n)
        return p.with_shift(shift) if shift else p
    if (a - b) % 4 != 2:
        raise DomainError(f"reads at z + {a}/4 and z + {b}/4 are not a half turn apart")
    return BracketPoly(_half_difference(kind, n), shift, "even" if kind == "C" else "odd")


def eval_poly(p, z):
    """Horner evaluation of p at the bracket value w = centered(z - shift).

    A folded p is read at |w| and, for an odd fold, negated where w < 0
    (see BracketPoly).  With z = m/q read in integers (the integer ratio
    of a float), the shift, the centering, the fold and, for a centred
    fold, the move to t = |w| - 1/4 are done on m and q, and Horner runs
    in integers over the common denominator with no gcd inside the loop.
    When q is a power of two each power of q (or q**2) is a left shift;
    any other q multiplies.  Rational z stays exact: one normalised
    Fraction comes back.
    Any other z is read as float(z), which must be finite, and the exact
    value comes back rounded once by an integer true division, so
    eval_poly(p, x) == float(eval_poly(p, Fraction(x))) for every finite
    float x.  An odd fold negates the integer, not the float, so a zero
    is always +0.0.
    """
    if not isinstance(p, BracketPoly):
        raise DomainError(f"expected a BracketPoly, got {type(p).__name__}")
    # float first, then Fraction, before the slower ABC check
    exact = type(z) is not float and (type(z) is Fraction or isinstance(z, Rational))
    if exact:
        m, q = int(z.numerator), int(z.denominator)
    else:
        zf = float(z)
        if not math.isfinite(zf):
            raise DomainError(f"polynomial argument must be finite, got {z!r}")
        m, q = zf.as_integer_ratio()
    den, nums, odd, squared, quarters, fold, centre = p._int_form
    if quarters:
        if q & 3:
            m, q = 4 * m - quarters * q, 4 * q
        else:
            m -= quarters * (q >> 2)
    m -= (2 * m + q) // (2 * q) * q
    negate = False
    if fold and m < 0:
        m = -m
        negate = fold < 0
    if centre:
        if q & 3:
            m, q = 4 * m - q, 4 * q
        else:
            m -= q >> 2
    x = m * m if squared else m
    acc = nums[0]
    if q & (q - 1):
        y = q * q if squared else q
        # invariant: acc / (den * ypow) is the Horner value so far at x / y
        ypow = 1
        for c in nums[1:]:
            ypow *= y
            acc = acc * x + c * ypow
        den *= ypow
        if odd:
            acc *= m
            den *= q
    else:
        # q = 2^e: acc / (den << sh) is the Horner value so far at x / y
        e = q.bit_length() - 1
        step = 2 * e if squared else e
        sh = 0
        for c in nums[1:]:
            sh += step
            acc = acc * x + (c << sh)
        if odd:
            acc *= m
            sh += e
        den <<= sh
    if negate:
        acc = -acc
    return Fraction(acc, den) if exact else acc / den
