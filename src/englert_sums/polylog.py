"""Polylogarithms restricted to the unit circle.

Li_a(e^{i theta}) splits into a cosine series (real part) and a sine
series (imaginary part).  For each integer order one component is an
exact bracket polynomial scaled by a power of pi, and this module serves
that component through the tables in ``coeffs``.  The other component is
Clausen-type with no elementary form; it is summed numerically:

  * order 2 and 3 use Bernoulli-coefficient expansions around theta = 0,
    accurate to a few ulps on [0, pi] after reflection,
  * order >= 4 uses the defining series directly, where the integral
    tail bound already beats 1e-13 at a few thousand terms.

Everything reports an explicit error bound so callers can propagate
honest tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bernoulli import bernoulli
from .bracket import ONE_HALF, frac
from .coeffs import eval_poly, poly_C, poly_S
from .errors import DomainError, SingularPointError

__all__ = [
    "LiValue",
    "UnitCirclePoint",
    "li_on_circle",
]

TWO_PI = 2.0 * math.pi

# Series tail target for the Clausen-type components; the reported
# LiValue.error_bound stays comfortably under 1e-12.
_SERIES_TARGET = 1e-13


@dataclass(frozen=True)
class UnitCirclePoint:
    """Point e^{i theta} with theta reduced to [0, 2*pi).

    ``turns`` optionally carries the exact angle as a fraction of a full
    revolution; when present, polynomial components are evaluated in
    exact rational arithmetic.
    """

    theta: float
    turns: Fraction = None

    def __post_init__(self):
        th = float(self.theta)
        if not math.isfinite(th) or th < 0.0 or th >= TWO_PI:
            raise DomainError(f"theta must lie in [0, 2*pi), got {self.theta!r}")
        object.__setattr__(self, "theta", th)
        if self.turns is not None:
            t = Fraction(self.turns)
            if not 0 <= t < 1:
                raise DomainError(f"turns must lie in [0, 1), got {t}")
            object.__setattr__(self, "turns", t)

    @classmethod
    def from_turns(cls, t):
        """Exact construction from an angle measured in revolutions."""
        t = Fraction(t) % 1
        theta = TWO_PI * float(t)
        if theta >= TWO_PI:
            # float(t) can round up to 1.0 for t just below a revolution
            theta = math.nextafter(TWO_PI, 0.0)
        return cls(theta, t)

    @classmethod
    def from_theta(cls, theta):
        th = float(theta)
        if not math.isfinite(th):
            raise DomainError(f"theta must be finite, got {theta!r}")
        r = math.fmod(th, TWO_PI)
        if r < 0.0:
            r += TWO_PI
        if r >= TWO_PI:
            r = 0.0
        return cls(r, None)


@dataclass(frozen=True)
class LiValue:
    """Li_a(e^{i theta}) with a bound covering both components."""

    real_part: float
    imag_part: float
    order: int
    error_bound: float


def _sin_pi(t):
    """sin(pi*t) reduced over the full period 2, exact at lattice zeros.

    fmod reduces |t| exactly and sin is odd, so every later subtraction
    is exact (Sterbenz) for negative t too.
    """
    r = math.fmod(abs(t), 2.0)
    sign = math.copysign(1.0, t)
    if r >= 1.0:
        r -= 1.0
        sign = -sign
    if r < 0.25:
        return sign * math.sin(math.pi * r)
    if r < 0.75:
        return sign * math.cos(math.pi * (r - 0.5))
    return -sign * math.sin(math.pi * (r - 1.0))


def _cos_pi(t):
    """cos(pi*t) reduced over the full period 2; exact zeros at t in Z+1/2.

    cos is even, so |t| reduced exactly by fmod carries the whole value.
    """
    r = math.fmod(abs(t), 2.0)
    sign = 1.0
    if r >= 1.0:
        r -= 1.0
        sign = -1.0
    if r < 0.25:
        return sign * math.cos(math.pi * r)
    if r < 0.75:
        return -sign * math.sin(math.pi * (r - 0.5))
    return -sign * math.cos(math.pi * (r - 1.0))


def _zeta3_fraction(terms=44):
    # central-binomial acceleration; terms shrink like 4^-k
    total = Fraction(0)
    for k in range(1, terms + 1):
        total += Fraction((-1) ** (k - 1), k**3 * math.comb(2 * k, k))
    return Fraction(5, 2) * total


_ZETA3 = float(_zeta3_fraction())

# Taylor coefficients |B_{2m}| / (2m (2m+1)!) of the Clausen expansion;
# the term ratio is (theta/2pi)^2 <= 1/4 on [0, pi], so 26 terms leave a
# tail far below the series target.
_CLAUSEN_TERMS = 26
_CLAUSEN_COEFFS = tuple(
    float(abs(bernoulli(2 * m)) / (2 * m * math.factorial(2 * m + 1)))
    for m in range(1, _CLAUSEN_TERMS + 1)
)
_CLAUSEN_NEXT = float(
    abs(bernoulli(2 * _CLAUSEN_TERMS + 2))
    / ((2 * _CLAUSEN_TERMS + 2) * math.factorial(2 * _CLAUSEN_TERMS + 3))
)


def _cl2_series(theta):
    """Sum of sin(k theta)/k^2 for theta in [0, pi]."""
    if theta == 0.0:
        return 0.0, 0.0
    x2 = theta * theta
    acc = 0.0
    power = theta * x2
    for a in _CLAUSEN_COEFFS:
        acc += a * power
        power *= x2
    tail = _CLAUSEN_NEXT * power * (4.0 / 3.0)
    value = theta * (1.0 - math.log(theta)) + acc
    return value, tail + 5e-16 * (abs(value) + theta)


def _gl3_series(theta):
    """Sum of cos(k theta)/k^3 for theta in [0, pi]."""
    if theta == 0.0:
        return _ZETA3, 3e-16
    x2 = theta * theta
    acc = 0.0
    power = x2 * x2
    for m, a in enumerate(_CLAUSEN_COEFFS, start=1):
        acc += a * power / (2 * m + 2)
        power *= x2
    tail = _CLAUSEN_NEXT * power / (2 * _CLAUSEN_TERMS + 4) * (4.0 / 3.0)
    value = _ZETA3 - 0.75 * x2 + 0.5 * x2 * math.log(theta) - acc
    return value, tail + 5e-16 * (abs(value) + x2 + 1.0)


def _direct_series(a, theta, want_sin):
    """Defining series for order >= 4, theta in [0, pi].

    The phase k*theta is bounded by N*pi and the 1/k^a weight decays
    faster than the float product error grows, so plain fmod reduction
    keeps the phase contribution to the error negligible.
    """
    n_terms = max(4, math.ceil((1.0 / ((a - 1) * _SERIES_TARGET)) ** (1.0 / (a - 1))))
    k = np.arange(1, n_terms + 1, dtype=np.float64)
    ph = np.fmod(k * theta, TWO_PI)
    num = np.sin(ph) if want_sin else np.cos(ph)
    value = float(np.sum(num / k**a))
    tail = n_terms ** (1.0 - a) / (a - 1.0)
    return value, tail + 1e-15 * math.log(n_terms + 2.0) + 5e-15


def _reduce_turns(t):
    """Map turns to [0, 1/2] using the reflection symmetry; returns sign of sin.

    Exact turns (a Fraction in [0, 1)) are reflected before they are
    rounded: rounding first would cost a point just below a whole turn
    most of its small angle.
    """
    if isinstance(t, Fraction):
        num, den = t.numerator, t.denominator
        if 2 * num <= den:
            return num / den, 1.0
        return (den - num) / den, -1.0
    tf = frac(t)
    if tf <= 0.5:
        return tf, 1.0
    return 1.0 - tf, -1.0


def _clausen_sin(a, t):
    tr, flip = _reduce_turns(t)
    theta = TWO_PI * tr
    if a == 2:
        value, err = _cl2_series(theta)
    else:
        value, err = _direct_series(a, theta, want_sin=True)
    return flip * value, err


def _clausen_cos(a, t):
    tr, _ = _reduce_turns(t)
    theta = TWO_PI * tr
    if a == 3:
        return _gl3_series(theta)
    return _direct_series(a, theta, want_sin=False)


_half_cache = {}


def _poly_half(kind, n):
    key = (kind, n)
    p = _half_cache.get(key)
    if p is None:
        base = poly_C(n) if kind == "C" else poly_S(n)
        p = base.with_shift(ONE_HALF)
        _half_cache[key] = p  # benign race: construction is idempotent
    return p


def _check_li_order(a):
    if isinstance(a, bool) or not isinstance(a, int):
        raise DomainError(f"polylogarithm order must be a plain integer, got {a!r}")
    if a < 1:
        raise DomainError(f"polylogarithm order must be >= 1, got {a}")


def li_on_circle(a, p):
    """Li_a(e^{i theta}) for integer a >= 1 at a point of the unit circle.

    One component comes from the exact bracket polynomial (the even
    cosine table for even a, the odd sine table for odd a, both read in
    the unshifted variable theta/2pi); the Clausen-type component is
    summed numerically.  Order 1 is the elementary logarithm pair and
    diverges at theta = 0.
    """
    _check_li_order(a)
    if not isinstance(p, UnitCirclePoint):
        raise DomainError(f"expected a UnitCirclePoint, got {type(p).__name__}")
    turns = p.turns
    t = float(turns) if turns is not None else p.theta / TWO_PI
    arg = turns if turns is not None else t
    if a == 1:
        s = _sin_pi(_reduce_turns(arg)[0])
        if s <= 0.0 or (turns is not None and turns == 0) or p.theta == 0.0:
            raise SingularPointError("Li_1 diverges at the point 1 of the circle")
        re = -math.log(2.0 * s)
        im = math.pi * (0.5 - t)
        return LiValue(re, im, 1, 7e-16 * (3.0 + abs(re)))
    if a % 2 == 0:
        n = a // 2
        scale = math.pi**a
        poly_val = eval_poly(_poly_half("C", n), arg)
        re = scale * float(poly_val)
        poly_err = 2.3e-16 * abs(re) if turns is not None else 5e-15 * scale
        im, num_err = _clausen_sin(a, arg)
        return LiValue(re, im, a, poly_err + num_err + 2.3e-16 * abs(im))
    n = (a - 1) // 2
    scale = math.pi**a
    poly_val = eval_poly(_poly_half("S", n), arg)
    im = scale * float(poly_val)
    poly_err = 2.3e-16 * abs(im) if turns is not None else 5e-15 * scale
    re, num_err = _clausen_cos(a, arg)
    return LiValue(re, im, a, poly_err + num_err + 2.3e-16 * abs(re))
