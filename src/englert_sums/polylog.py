"""Polylogarithms restricted to the unit circle.

Li_a(e^{i theta}) splits into a cosine series (real part) and a sine
series (imaginary part).  For each integer order one component is an
exact bracket polynomial scaled by a power of pi, served through the
tables in ``coeffs``.  The other, Im Li_a for even a and Re Li_a for odd
a, is Clausen-type.  Every order a >= 2 sums it from one expansion,
valid for |theta| < 2 pi and read on [0, pi] after reflection:

  Li_a(e^{i theta}) = sum_{m != a-1} zeta(a-m) (i theta)^m / m!
                      + (i theta)^(a-1) / (a-1)! (H_{a-1} - log(-i theta)).

Only the terms with m = a-1 (mod 2) reach the Clausen component, all with
odd zeta arguments: zeta(3), zeta(5), ... below m = a-1 and
zeta(-n) = -B_{n+1}/(n+1) above.  Order 1 is the elementary logarithm
pair.  Every value carries an explicit error bound.

The same expansion serves the Legendre chi function, the odd-index half
chi_a(w) = sum_j w^(2j+1)/(2j+1)^a = Li_a(w) - 2^-a Li_a(w^2), for
|theta| < pi:

  chi_a(e^{i theta}) = sum_{m != a-1} (1 - 2^(m-a)) zeta(a-m) (i theta)^m / m!
                       + (i theta)^(a-1) / (a-1)! (H_{a-1} + log 2 - log(-i theta)) / 2.

_clausen_at holds every symmetry and exact zero of the Clausen component
of Li_a and chi_a on the integer turns: li_on_circle reads Li_a there for
a >= 2, and ``sums`` reads chi_a there for the 2k+1 families.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .bernoulli import bernoulli
from .coeffs import MAX_ORDER, _table_read, eval_poly
from .errors import DomainError, SingularPointError, check_int

__all__ = [
    "LiValue",
    "UnitCirclePoint",
    "li_on_circle",
]

TWO_PI = 2.0 * math.pi
_TWO_PI_HIGH = Fraction(TWO_PI)
# floor(2 pi 2^1120) / 2^1120, from mpmath at 400 digits: below 2 pi by
# less than 2^-1120, so the |k| < 2^1022 whole turns of any finite float
# angle take off less than 2^-98 in all
_TWO_PI_BITS = 1120
_TWO_PI = Fraction(
    int(
        "6487ed5110b4611a62633145c06e0e68948127044533e63a0105df531d89cd91"
        "28a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1ba7f09ab6b6a8e122"
        "f242dabb312f3f637a262174d31bf6b585ffae5b7a035bf6f71c35fdad44cfd2"
        "d74f9208be258ff324943328f6722d9ee1003e5c50b1df82cc6d241b0e2ae9cd"
        "348b1fd47e9267afc1b2ae91e",
        16,
    ),
    1 << _TWO_PI_BITS,
)
# from_theta reads an angle r from here up as the float r / TWO_PI, which
# is then a normal float
_TINY_ANGLE = 2.0**-1019
_NORMAL = 2.0**-1022  # the smallest normal float
_LN2 = math.log(2.0)

_EPS = 2.0**-52  # = 2u; the error comments count in u = 2^-53
_TAIL_CUT = 1e-20  # an expansion's tail starts at its first term below this
# underflow anywhere leaves a few hundred 2^-1074 times |log v| < 745
_UNDERFLOW = 1e-300


def _as_turns(t):
    try:
        return t if type(t) is Fraction else Fraction(t)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"turns must be a finite number, got {t!r}") from None


@dataclass(frozen=True)
class UnitCirclePoint:
    """Point e^{2 pi i turns} of the unit circle.

    ``turns`` is the exact angle as a fraction of a revolution, in
    [0, 1).  ``drift`` bounds, in radians, how far the true angle may lie
    from 2 pi turns: 0 for a point given in turns, the cost of reading a
    float angle for one given by theta.
    """

    turns: Fraction
    drift: float = 0.0

    def __post_init__(self):
        t = self.turns
        if type(t) is not Fraction:
            t = _as_turns(t)
            object.__setattr__(self, "turns", t)
        # 0 <= t < 1 on the integers: a Fraction's denominator is positive
        if not 0 <= t.numerator < t.denominator:
            raise DomainError(f"turns must lie in [0, 1), got {t}")
        if not 0.0 <= self.drift < math.inf:
            raise DomainError(f"drift must be finite and >= 0, got {self.drift!r}")

    @property
    def theta(self):
        """The angle 2 pi turns as a float in [0, 2 pi)."""
        theta = TWO_PI * float(self.turns)
        # float(turns) can round up to 1.0 for turns just below a revolution
        return theta if theta < TWO_PI else math.nextafter(TWO_PI, 0.0)

    @classmethod
    def from_turns(cls, t):
        """Exact construction from an angle measured in revolutions."""
        return cls(_as_turns(t) % 1)

    @classmethod
    def from_theta(cls, theta):
        """The point at a finite float angle theta, reduced exactly by
        _TWO_PI to x, or above pi to the reflected angle 2 pi - x, whose
        exact quotient by the float TWO_PI, rounded once, gives turns t,
        or 1 - t after the reflection.  So theta and -theta read as
        mirror points with equal drift.  An angle too small for that
        quotient to stay a normal float gets exact turns instead."""
        try:
            x = Fraction(float(theta))
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"theta must be a finite number, got {theta!r}") from None
        k = math.floor(x / _TWO_PI)
        x -= k * _TWO_PI
        flip = x > math.pi
        if flip:
            x = _TWO_PI - x
        r = float(x)
        if r < _TINY_ANGLE:
            # such an r is |theta| itself (k is 0, or -1 for theta below
            # 0), and the turns r / _TWO_PI move the angle by r times
            # _TWO_PI's relative error, under 2^-1122: no float holds that
            # move, and it shifts every li_on_circle value by far less
            # than the floor of its bound, so the drift is 0
            t = x / _TWO_PI
            return cls(1 - t if flip else t)
        # within 0.85u of x/2pi, a normal float: the angle moves by less
        # than drift, and the reflected turns 1 - turns by as much, so an
        # angle and its negative read as mirror points
        turns = Fraction(float(x / _TWO_PI_HIGH))
        drift = 0.5 * _EPS * r
        if k:
            # the k turns taken off, and the turn the reflection adds, move
            # the angle by _TWO_PI's error, below 2^-1120 each; charged at
            # twice that, which covers the rounding of |k| + 1.  Under
            # |k| = 2^44 the charge underflows to 0, a loss below 2^-1075
            # and far inside drift's slack: for k != 0 no reduced angle r
            # comes near the underflow range
            drift += math.ldexp(abs(k) + 1, 1 - _TWO_PI_BITS)
        return cls(1 - turns if flip else turns, drift)


@dataclass(frozen=True)
class LiValue:
    """Li_a(e^{i theta}) with a bound covering both components.

    ``clausen`` is the Clausen-type component (Im Li_a for even a, Re
    Li_a for odd a) and ``clausen_bound`` its own bound; at order 1 that
    bound covers both components.  The other component and the bound of
    both are computed on the first read of real_part, imag_part or
    error_bound and kept: for a >= 2 that evaluates the exact bracket
    polynomial, which a caller of the Clausen component alone never pays
    for.  Read-only; compares, hashes and pickles by its fields.
    """

    order: int
    clausen: float
    clausen_bound: float
    # at order 1 the other component and the bound of both; for a >= 2 the
    # turns, clausen_err and drift_err of _exact_component
    inputs: tuple = field(repr=False)

    @functools.cached_property
    def _rest(self):
        """(the other component, error_bound), computed once."""
        if self.order == 1:
            return self.inputs
        return _exact_component(self.order, *self.inputs)

    @property
    def real_part(self):
        return self.clausen if self.order % 2 else self._rest[0]

    @property
    def imag_part(self):
        return self._rest[0] if self.order % 2 else self.clausen

    @property
    def error_bound(self):
        return self._rest[1]


def _cis_pi(t):
    """complex(cos(pi*t), sin(pi*t)) reduced over the full period 2, with
    exact zeros at the lattice points: sin's at t in Z, cos's at Z + 1/2.

    fmod reduces |t| exactly, cos is even and sin odd, so every later
    subtraction is exact (Sterbenz) for negative t too.
    """
    r = math.fmod(abs(t), 2.0)
    sin_sign = math.copysign(1.0, t)
    cos_sign = 1.0
    if r >= 1.0:
        r -= 1.0
        sin_sign = -sin_sign
        cos_sign = -1.0
    if r < 0.25:
        x = math.pi * r
        return complex(cos_sign * math.cos(x), sin_sign * math.sin(x))
    if r < 0.75:
        x = math.pi * (r - 0.5)
        return complex(-cos_sign * math.sin(x), sin_sign * math.cos(x))
    x = math.pi * (r - 1.0)
    return complex(-cos_sign * math.cos(x), -sin_sign * math.sin(x))


@functools.cache
def _zeta_odd(s):
    """zeta(s) for odd s >= 3 within 1.5u, once per s: Euler-Maclaurin
    after nine terms, whose first dropped correction is below 1e-19."""
    terms = [k**-s for k in range(1, 10)] + [10.0 ** (1 - s) / (s - 1), 0.5 * 10.0**-s]
    rising = s  # s (s+1) ... (s+2j-2)
    for j in range(1, 11):
        b = float(bernoulli(2 * j) / math.factorial(2 * j))
        terms.append(b * rising * 10.0 ** (1 - s - 2 * j))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return math.fsum(terms)


@functools.cache
def _expansion(a, chi=False):
    """(H highest first, p, w0, w1, scale, tail, m_cut, k, g) of order a,
    once.

    In v = theta/pi the component is v^p H(v^2) + k v^(a-1) (g - log v)
    plus a tail, with p = (a-1) mod 2, H's coefficients
    (-1)^floor(m/2) zeta(a-m) pi^m/m! at m = p, p+2, ... (0 at m = a-1),
    k = (-1)^floor((a-1)/2) pi^(a-1)/(a-1)! and g = H_{a-1} - log pi.
    pi^m/m! takes m float steps of at most 1.4u (math.pi is off by
    0.35u), so a coefficient, zeta included, is within (1.4m + 2)u.  Past
    m = a-1 each term is below v^2/4 times the last, so the tail from
    m_cut on is at most 4/3 of its first term.

    With chi, the series of chi_a, read for v <= 1/2: each coefficient
    times 1 - 2^(m-a), k halved and g + log 2.  The cut is Li_a's.  Past
    m = a-1, with j = m - a odd, a step shrinks |zeta(a-m)| pi^m/m! by at
    least 4 (m+1)(m+2)/((j+1)(j+2)) and grows the factor by
    (2^(j+2) - 1)/(2^j - 1); their product stays below 1, so each term
    is below v^2 <= 1/4 times the last and the tail is again at most 4/3
    of its first term.

    H's rounding weights (see _clausen) are w0 at y = v^2 = 0 and w1 at
    y = 1/scale, the end of the range: scale is 1 for Li_a, 4 for chi_a.
    """
    p = (a - 1) % 2
    coeffs, k = [], 0.0
    scaled = math.pi if p else 1.0  # pi^m / m!
    for m in itertools.count(p, 2):
        if m > p:
            scaled *= math.pi / (m - 1) * math.pi / m
        sign = -1.0 if m % 4 >= 2 else 1.0
        if m < a - 1:
            c = sign * _zeta_odd(a - m) * scaled
        elif m == a - 1:
            c, k = 0.0, sign * scaled
        else:
            c = sign * float(-bernoulli(m - a + 1) / (m - a + 1)) * scaled
        factor = 1.0 - 2.0 ** (m - a) if chi else 1.0
        if m > a - 1 and abs(c) < _TAIL_CUT:
            break
        coeffs.append(c * factor)
    scale = 4.0 if chi else 1.0
    w = [(2 * j + 2) * abs(cj) for j, cj in zip(range(p, m, 2), coeffs)]
    w1 = sum(wj * scale**-i for i, wj in enumerate(w))
    g = math.fsum(1.0 / j for j in range(1, a)) - math.log(math.pi)
    if chi:
        k, g = 0.5 * k, g + _LN2
    tail = 4.0 / 3.0 * abs(c * factor)
    return tuple(reversed(coeffs)), p, w[0], w1, scale, tail, m, k, g


def _clausen(a, tr, chi=False):
    """(value, error_bound) of the Clausen component of Li_a at turns tr,
    or with chi of chi_a.

    tr in [0, 1/2] (for chi [0, 1/4]) is within 0.5u, and so is
    v = theta/pi = 2 tr.  Each term m of H is charged (2m+2) EPS = (4m+4)u
    of its size, more than its coefficient (1.4m + 2)u, its power of v
    (0.75m + 1)u and Horner's (m + 1)u.  For chi the factor 1 - 2^(m-a)
    and its product add 0.75u: the 0.85m u left over covers that from
    m = 2 on, and below, pi^0 = v^0 = 1 and pi^1, v^1 are charged far more
    than their 0.35u and 0.5u.  These charges are convex in y = v^2, so
    the chord (1 - s) w0 + s w1 in s = scale y bounds them for
    y <= 1/scale.
    """
    coeffs, p, w0, w1, scale, tail, m_cut, k, g = _expansion(a, chi)
    v = 2.0 * tr
    y = v * v
    h = 0.0
    for c in coeffs:
        h = h * y + c
    s = scale * y
    rounding = (1.0 - s) * w0 + s * w1
    if p:
        h *= v
        rounding *= v
    if v:
        r = k * v ** (a - 1)
        lv = math.log(v)
        h += r * (g - lv)
        # r is within (1.9a + 1)u; g, log v and the two roundings of
        # r (g - log v) add at most (2.5|g| + 1.5|log v| + 2.7)u |r|
        rounding += abs(r) * ((a + 2) * (abs(g) + abs(lv)) + 2.0)
    return h, _EPS * (rounding + abs(h)) + tail * v**m_cut + _UNDERFLOW


def _clausen_at(a, num, den, chi=False):
    """(value, error_bound) of the Clausen component of Li_a, or with chi
    of chi_a, at the turns t = num/den in [0, 1): its symmetries and exact
    zeros decided on the integers, then one _clausen read.

    Li_a's component is even in t for odd a and odd for even a: t -> 1 - t
    takes t to [0, 1/2] before rounding, which would cost a point just
    below a whole turn its small angle, and for even a the component is 0
    at a half turn, Im Li_a(-1).  chi_a is odd in w, so its component X
    has X(t + 1/2) = -X(t), and X(1/2 - t) = X(t) for even a, -X(t) for
    odd a, which take t to [0, 1/4]; X is 0 at t = 0 for even a,
    Im chi_a(1), and at a quarter turn for odd a, Re chi_a(i).  An exact
    zero is +0 with bound 0.  A tr below the normal range is off by under
    2^-1075, which moves the component by under 1e-319, inside its floor.
    """
    odd = a % 2
    sign = 1.0
    if chi:
        if den & 3:
            num, den = num << 2, den << 2
        half = den >> 1
        if num >= half:
            num, sign = num - half, -1.0
        if 2 * num > half:
            num = half - num
            if odd:
                sign = -sign
        if num == (den >> 2 if odd else 0):
            return 0.0, 0.0
    elif 2 * num > den:
        num = den - num
        if not odd:
            sign = -1.0
    elif 2 * num == den and not odd:
        return 0.0, 0.0
    h, err = _clausen(a, num / den, chi)
    return sign * h, err


def _exact_component(a, turns, clausen_err, drift_err):
    """(value, error_bound of Li_a) of the exact component, a >= 2: the
    table of order a // 2 read at turns shifted by a half turn, times
    pi^a.

    The exact value is within 0.5u, math.pi**a within (0.35a + 1)u
    (math.pi is off by 0.35u) and the product 0.5u more: in all
    < (a + 4) EPS.
    """
    n, odd = divmod(a, 2)
    x = eval_poly(_table_read("S" if odd else "C", n, 2, None), turns)
    exact = math.pi**a * (x.numerator / x.denominator)
    return exact, clausen_err + (a + 4) * _EPS * abs(exact) + drift_err


def li_on_circle(a, p):
    """Li_a(e^{i theta}) for integer a from 1 to 2 MAX_ORDER + 1 at a point
    of the unit circle.

    One component is the exact bracket polynomial (the even cosine table
    for even a, the odd sine table for odd a, read at the point's turns),
    the other the Clausen expansion.  Only the Clausen component is
    computed here; the polynomial waits for the first read of a field
    that needs it (see LiValue).  Order 1 is the elementary logarithm
    pair and diverges at theta = 0.  The point's drift, the cost of
    reading it from a float angle, is charged to the bound.
    """
    check_int(a, "polylogarithm order", 1, 2 * MAX_ORDER + 1)
    if not isinstance(p, UnitCirclePoint):
        raise DomainError(f"expected a UnitCirclePoint, got {type(p).__name__}")
    turns, drift = p.turns, p.drift
    num, den = turns.numerator, turns.denominator
    if a == 1:
        # reflected to [0, 1/2] before rounding, as in _clausen_at
        rn = num if 2 * num <= den else den - num
        tr = rn / den
        if not rn:
            raise SingularPointError("Li_1 diverges at the point 1 of the circle")
        e = 0
        if tr < _NORMAL:
            # rn / den keeps too few bits here: read the turns as tr 2^-e,
            # tr in [1/2, 2), where sin(pi t) = pi t far below an ulp.  The
            # rounding of e ln 2 and of the sum stays within 2u |re|
            e = den.bit_length() - rn.bit_length()
            tr = (rn << e) / den
            s = math.pi * tr
        else:
            s = _cis_pi(tr).imag
        re = -math.log(2.0 * s)
        if e:
            re += e * _LN2
        im = math.pi * ((den - 2 * num) / (2 * den))
        err = 7e-16 * (3.0 + abs(re))
        if drift:
            # -log|2 sin(theta/2)| is convex and falls on (0, pi], so an
            # angle within drift of the reflected one moves it most at the
            # end nearest 0, by log(sin(pi tr) / sin(pi tr - drift/2)):
            # about drift times the slope 1/2 cot(theta/2) for small drift.
            # Scaled by 2^e, the sines are their angles, and a drift past
            # the float range dwarfs the angle
            try:
                half = math.pi * tr - math.ldexp(drift, e - 1)
            except OverflowError:
                half = -math.inf
            if half > 0.0:
                err += math.log(s / (half if e else math.sin(half)))
            else:
                err = math.inf
            # im, within 4.1e-16 of pi (1/2 - turns), moves by drift/2
            err = max(err, 5e-16 + 0.5 * drift)
        # both components are known: the other one comes back as given
        return LiValue(1, re, err, (im, err))
    value, err = _clausen_at(a, num, den)
    if drift:
        # |d/dtheta| of either component is at most zeta(2) < 1.65 for
        # a >= 3; for a = 2 the Clausen slope -log|2 sin(theta/2)|
        # integrates to at most drift (1.5 + |log drift|)
        drift_err = drift * (1.65 if a > 2 else 1.6 + abs(math.log(drift)))
    else:
        drift_err = 0.0
    return LiValue(a, value, err + drift_err, (turns, err, drift_err))
