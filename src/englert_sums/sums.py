"""Closed-form evaluators for the twenty-four series families.

A family is named by four switches: alternating or not (tilde prefix in
the traditional notation), sine or cosine numerator, even or odd summand
as a function of the index (the prime in the traditional notation), and
the index pattern of the denominator (k, 2k+1, or the modified variant
whose trig argument keeps k while the denominator switches to 2k+1).
The ASCII codes used throughout the package and the CLI are

    S   C   Sp   Cp      alternating,     denominators k
    tS  tC  tSp  tCp     non-alternating, denominators k
    bS  bC  bSp  bCp     alternating,     denominators 2k+1
    tbS tbC tbSp tbCp    non-alternating, denominators 2k+1
    P   Q   Pp   Qp      alternating,     modified
    tP  tQ  tPp  tQp     non-alternating, modified

Even-summand families with k denominators are bracket polynomials; odd
summand order 0 is elementary trig/log; odd summand at higher order goes
through polylogarithms on the unit circle; the 2k+1 families are exact
half-turn or quarter-turn combinations of the k families; the modified
families reduce to 2k+1 families at z/2 with sin/cos prefactors.

Families whose denominator power would be zero have no finite value and
raise UnsupportedOrderError: C, Q, Pp and their non-alternating twins at
order 0, and the odd-summand 2k+1 families bC/bSp/tbC/tbSp at order 0.
The one exception is the non-alternating cosine family tC at order 0,
which is the constant -1/2 away from integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coeffs import eval_poly, poly_C, poly_S
from .errors import (
    DomainError,
    JumpPointError,
    SingularPointError,
    UnsupportedOrderError,
)
from .polylog import (
    UnitCirclePoint,
    _cos_pi,
    _poly_half,
    _sin_pi,
    li_on_circle,
)

__all__ = [
    "FAMILY_CODES",
    "EvalResult",
    "SingularSet",
    "SumFamily",
    "eval",
    "eval_family",
    "eval_via_relation",
    "is_supported",
    "singular_points",
]

_EPS = 2.3e-16

ONE_QUARTER = Fraction(1, 4)
ONE_HALF = Fraction(1, 2)

# code -> (index_kind, alternating, trig, power_parity, modified)
_FAMILY_FIELDS = {
    "S": ("k", True, "sin", "even", "none"),
    "C": ("k", True, "cos", "even", "none"),
    "Sp": ("k", True, "sin", "odd", "none"),
    "Cp": ("k", True, "cos", "odd", "none"),
    "tS": ("k", False, "sin", "even", "none"),
    "tC": ("k", False, "cos", "even", "none"),
    "tSp": ("k", False, "sin", "odd", "none"),
    "tCp": ("k", False, "cos", "odd", "none"),
    "bS": ("2k+1", True, "sin", "even", "none"),
    "bC": ("2k+1", True, "cos", "even", "none"),
    "bSp": ("2k+1", True, "sin", "odd", "none"),
    "bCp": ("2k+1", True, "cos", "odd", "none"),
    "tbS": ("2k+1", False, "sin", "even", "none"),
    "tbC": ("2k+1", False, "cos", "even", "none"),
    "tbSp": ("2k+1", False, "sin", "odd", "none"),
    "tbCp": ("2k+1", False, "cos", "odd", "none"),
    "P": ("2k+1", True, "sin", "even", "PQ"),
    "Q": ("2k+1", True, "cos", "even", "PQ"),
    "Pp": ("2k+1", True, "sin", "odd", "PQ"),
    "Qp": ("2k+1", True, "cos", "odd", "PQ"),
    "tP": ("2k+1", False, "sin", "even", "PQ"),
    "tQ": ("2k+1", False, "cos", "even", "PQ"),
    "tPp": ("2k+1", False, "sin", "odd", "PQ"),
    "tQp": ("2k+1", False, "cos", "odd", "PQ"),
}

FAMILY_CODES = tuple(_FAMILY_FIELDS)

_CODE_BY_FIELDS = {v: k for k, v in _FAMILY_FIELDS.items()}

# Families whose order-0 series has denominator power zero and no value.
_UNSUPPORTED_AT_0 = frozenset(
    {"C", "bC", "bSp", "tbC", "tbSp", "Q", "Pp", "tQ", "tPp"}
)

# Singular lattices of the order-0 evaluators: (kind, offset, period).
_SINGULAR_AT_0 = {
    "S": ("jump", ONE_HALF, Fraction(1)),
    "Sp": ("pole", ONE_HALF, Fraction(1)),
    "Cp": ("log", ONE_HALF, Fraction(1)),
    "tS": ("jump", Fraction(0), Fraction(1)),
    "tC": ("divergent", Fraction(0), Fraction(1)),
    "tSp": ("pole", Fraction(0), Fraction(1)),
    "tCp": ("log", Fraction(0), Fraction(1)),
    "bS": ("log", ONE_QUARTER, ONE_HALF),
    "bCp": ("jump", ONE_QUARTER, ONE_HALF),
    "tbS": ("jump", Fraction(0), ONE_HALF),
    "tbCp": ("log", Fraction(0), ONE_HALF),
    "P": ("jump", ONE_HALF, Fraction(1)),
    "Qp": ("log", ONE_HALF, Fraction(1)),
    "tP": ("jump", Fraction(0), Fraction(1)),
    "tQp": ("log", Fraction(0), Fraction(1)),
}


@dataclass(frozen=True)
class SumFamily:
    """One series family; the five structural fields plus the order n."""

    index_kind: str
    alternating: bool
    trig: str
    power_parity: str
    modified: str
    order: int

    def __post_init__(self):
        key = (
            self.index_kind,
            self.alternating,
            self.trig,
            self.power_parity,
            self.modified,
        )
        if key not in _CODE_BY_FIELDS:
            raise DomainError(f"field combination {key!r} names no family")
        if isinstance(self.order, bool) or not isinstance(self.order, int):
            raise DomainError(f"order must be a plain integer, got {self.order!r}")
        if self.order < 0:
            raise DomainError(f"order must be >= 0, got {self.order}")

    @classmethod
    def from_code(cls, code, order):
        fields = _FAMILY_FIELDS.get(code)
        if fields is None:
            raise DomainError(
                f"unknown family code {code!r}; expected one of {', '.join(FAMILY_CODES)}"
            )
        return cls(*fields, order)

    @property
    def code(self):
        key = (
            self.index_kind,
            self.alternating,
            self.trig,
            self.power_parity,
            self.modified,
        )
        return _CODE_BY_FIELDS[key]

    @property
    def power(self):
        """Denominator exponent p of the defining series."""
        if (self.power_parity == "even") == (self.trig == "sin"):
            return 2 * self.order + 1
        return 2 * self.order

    @property
    def k_start(self):
        return 0 if self.index_kind == "2k+1" else 1

    def with_order(self, order):
        return SumFamily(
            self.index_kind,
            self.alternating,
            self.trig,
            self.power_parity,
            self.modified,
            order,
        )


@dataclass(frozen=True)
class EvalResult:
    value: float
    path: str  # polynomial | elementary | polylog
    error_bound: float


@dataclass(frozen=True)
class SingularSet:
    """Periodic lattice offset + period*Z of excluded points, or empty."""

    kind: str  # none | pole | log | jump | divergent
    offset: Fraction = None
    period: Fraction = None

    def distance(self, z):
        if self.kind == "none":
            return math.inf
        per = float(self.period)
        u = (float(z) - float(self.offset)) / per
        return abs(u - round(u)) * per

    def contains(self, z, eps):
        return self.distance(z) < eps


_EMPTY_SET = SingularSet("none")


def _require_family(f):
    if not isinstance(f, SumFamily):
        raise DomainError(f"expected a SumFamily, got {type(f).__name__}")


def _check_supported(f):
    if f.order == 0 and f.code in _UNSUPPORTED_AT_0:
        raise UnsupportedOrderError(
            f"family {f.code} has denominator power 0 at order 0; "
            "the defining series has no value"
        )


def is_supported(f):
    """True when eval(f, z) is defined for nonsingular z."""
    _require_family(f)
    try:
        _check_supported(f)
    except UnsupportedOrderError:
        return False
    return True


def singular_points(f):
    """Lattice of poles, log points, jumps or divergence of the closed form.

    Every order-1-and-up evaluator here is continuous (the polynomial
    families are continuous across the bracket wrap because the even
    tables are even and the odd tables vanish at half-integers), so only
    order 0 carries a lattice.
    """
    _require_family(f)
    if f.order == 0:
        entry = _SINGULAR_AT_0.get(f.code)
        if entry is not None:
            return SingularSet(*entry)
    return _EMPTY_SET


def _exact_eps(zf):
    return 1e-12 + 1e-15 * abs(zf)


def _check_singular(f, zf):
    s = singular_points(f)
    if s.kind == "none":
        return
    if s.distance(zf) < _exact_eps(zf):
        msg = (
            f"family {f.code} order {f.order} is singular on the lattice "
            f"{s.offset} + {s.period}*Z ({s.kind}); got z={zf!r}"
        )
        if s.kind == "jump":
            raise JumpPointError(msg)
        raise SingularPointError(msg)


# ---------------------------------------------------------------------------
# building blocks


def _exact_poly(poly, zq):
    v = float(eval_poly(poly, zq))
    return v, _EPS * (1.0 + abs(v))


def _poly_difference(poly, za, zb):
    # (poly(za) - poly(zb)) / 2, exact until one correctly rounded division
    a, b = eval_poly(poly, za), eval_poly(poly, zb)
    v = (a.numerator * b.denominator - b.numerator * a.denominator) / (
        2 * a.denominator * b.denominator
    )
    return v, _EPS * (1.0 + abs(v))


def _plus_quarters(zf, k):
    """zf + k/4 as an exact Fraction, built from the float's integer ratio."""
    m, q = zf.as_integer_ratio()
    return Fraction(4 * m + k * q, 4 * q)


def _li_at(a, t):
    return li_on_circle(a, UnitCirclePoint.from_turns(t))


def _li_im_scaled(a, t):
    li = _li_at(a, t)
    s = math.pi**a
    v = li.imag_part / s
    return v, li.error_bound / s + _EPS * (1.0 + abs(v))


def _li_re_scaled(a, t):
    li = _li_at(a, t)
    s = math.pi**a
    v = li.real_part / s
    return v, li.error_bound / s + _EPS * (1.0 + abs(v))


def _li_im_diff(a, ta, tb):
    la, lb = _li_at(a, ta), _li_at(a, tb)
    s = 2.0 * math.pi**a
    v = (la.imag_part - lb.imag_part) / s
    return v, (la.error_bound + lb.error_bound) / s + _EPS * (1.0 + abs(v))


def _li_re_diff(a, ta, tb):
    la, lb = _li_at(a, ta), _li_at(a, tb)
    s = 2.0 * math.pi**a
    v = (la.real_part - lb.real_part) / s
    return v, (la.error_bound + lb.error_bound) / s + _EPS * (1.0 + abs(v))


def _drift(zf):
    # first-order input uncertainty of pi*z style arguments
    return _EPS * (1.0 + abs(zf)) * math.pi


def _sp0(zf):
    s, c = _sin_pi(zf), _cos_pi(zf)
    v = -s / (2.0 * c)
    eb = 0.5 * (1.0 + 4.0 * v * v) * _drift(zf) + 2.0 * _EPS * (1.0 + abs(v))
    return v, eb


def _cp0(zf):
    c = _cos_pi(zf)
    v = -math.log(2.0 * abs(c)) / math.pi
    slope = abs(_sin_pi(zf) / c)
    return v, slope * _drift(zf) / math.pi + 2.0 * _EPS * (1.0 + abs(v))


def _tsp0(zf):
    s, c = _sin_pi(zf), _cos_pi(zf)
    v = c / (2.0 * s)
    eb = 0.5 * (1.0 + 4.0 * v * v) * _drift(zf) + 2.0 * _EPS * (1.0 + abs(v))
    return v, eb


def _tcp0(zf):
    s = _sin_pi(zf)
    v = -math.log(2.0 * abs(s)) / math.pi
    slope = abs(_cos_pi(zf) / s)
    return v, slope * _drift(zf) / math.pi + 2.0 * _EPS * (1.0 + abs(v))


def _bs0(zf):
    # log|tan(pi z + pi/4)| / (2 pi); derivative is 1/cos(2 pi z)
    s = _sin_pi(zf + 0.25)
    c = _cos_pi(zf + 0.25)
    v = (math.log(abs(s)) - math.log(abs(c))) / (2.0 * math.pi)
    slope = abs(1.0 / _cos_pi(2.0 * zf))
    return v, slope * _drift(zf) / math.pi + 2.0 * _EPS * (1.0 + abs(v))


def _bcp0(zf):
    return 0.25 * (-1.0) ** math.floor(2.0 * zf + 0.5), 0.0


def _tbs0(zf):
    return 0.25 * (-1.0) ** math.floor(2.0 * zf), 0.0


def _tbcp0(zf):
    # log|cot(pi z)| / (2 pi); derivative is -1/sin(2 pi z)
    s = _sin_pi(zf)
    c = _cos_pi(zf)
    v = (math.log(abs(c)) - math.log(abs(s))) / (2.0 * math.pi)
    slope = abs(1.0 / _sin_pi(2.0 * zf))
    return v, slope * _drift(zf) / math.pi + 2.0 * _EPS * (1.0 + abs(v))


def _qp0(zf):
    # log|cos(pi z) / (1 + sin(pi z))| read as log|tan(pi (1/4 - z/2))|: the
    # quotient cancels near z = 3/2 (mod 2), the tangent does not.  The
    # sign matters: with 1 - sin (tan(pi (1/4 + z/2))) the log term flips
    # sign and the series oracle rejects the value.
    s, c = _sin_pi(zf), _cos_pi(zf)
    step = 0.25 * (-1.0) ** math.floor(zf + 0.5)
    u = 0.25 - 0.5 * zf
    log_term = math.log(abs(_sin_pi(u))) - math.log(abs(_cos_pi(u)))
    v = step * c - s * log_term / (2.0 * math.pi)
    slope = math.pi / 4.0 + 0.5 * abs(c * log_term - s / c)
    return v, slope * _EPS * (1.0 + abs(zf)) + 2.0 * _EPS * (1.0 + abs(v))


def _tp0(zf):
    s, c = _sin_pi(zf), _cos_pi(zf)
    step = 0.25 * (-1.0) ** math.floor(zf)
    half_s, half_c = _sin_pi(0.5 * zf), _cos_pi(0.5 * zf)
    log_term = math.log(abs(half_c)) - math.log(abs(half_s))
    v = step * c - s * log_term / (2.0 * math.pi)
    slope = math.pi / 4.0 + 0.5 * abs(c * log_term) + 0.25 * abs(s / (half_s * half_c))
    return v, slope * _EPS * (1.0 + abs(zf)) + 2.0 * _EPS * (1.0 + abs(v))


def _tqp0(zf):
    s, c = _sin_pi(zf), _cos_pi(zf)
    half_s, half_c = _sin_pi(0.5 * zf), _cos_pi(0.5 * zf)
    log_term = math.log(abs(half_c)) - math.log(abs(half_s))
    v = 0.25 * abs(s) + c * log_term / (2.0 * math.pi)
    slope = math.pi / 4.0 + 0.5 * abs(s * log_term) + 0.25 * abs(c / (half_s * half_c))
    return v, slope * _EPS * (1.0 + abs(zf)) + 2.0 * _EPS * (1.0 + abs(v))


_BOLD0 = {"bS": _bs0, "bCp": _bcp0, "tbS": _tbs0, "tbCp": _tbcp0}

# 2k+1 family at order n >= 1 -> (part, a, b, sign): sign times half the
# difference of one k-family part read at z + a/4 and at z + b/4.  The
# parts "C" and "S" are the bracket polynomials of order n, "re" is
# Re Li_{2n+1} and "im" is Im Li_{2n}, both scaled by pi^-p.
_BOLD_PARTS = {
    "bS": ("re", 1, -1, -1.0),
    "bC": ("im", 1, -1, 1.0),
    "bSp": ("C", 1, -1, 1.0),
    "bCp": ("S", -1, 1, 1.0),
    "tbS": ("S", -2, 0, 1.0),
    "tbC": ("C", 2, 0, 1.0),
    "tbSp": ("im", 0, -2, 1.0),
    "tbCp": ("re", 0, 2, 1.0),
}


def _bold_part(code, n, zf):
    """(value, error_bound, path) of a 2k+1 family used inside a reduction."""
    if n == 0:
        v, eb = _BOLD0[code](zf)
        return v, eb, "elementary"
    entry = _BOLD_PARTS.get(code)
    if entry is None:
        raise DomainError(f"no reduction part named {code!r}")
    part, a, b, sign = entry
    za, zb = _plus_quarters(zf, a), _plus_quarters(zf, b)
    if part == "C":
        v, eb = _poly_difference(poly_C(n), za, zb)
        return v, eb, "polynomial"
    if part == "S":
        v, eb = _poly_difference(poly_S(n), za, zb)
        return v, eb, "polynomial"
    if part == "re":
        v, eb = _li_re_diff(2 * n + 1, za, zb)
    else:
        v, eb = _li_im_diff(2 * n, za, zb)
    return sign * v, eb, "polylog"


# modified family -> (sin-part code, cos-part code, sign in front of the
# sin(pi z) prefactor term); the sin(pi z) prefactor multiplies the first
# entry only for Q-type families, see _pq_reduction.
_PQ_PARTS = {
    "P": ("bS", "bCp", -1.0),
    "Q": ("bSp", "bC", 1.0),
    "Pp": ("bSp", "bC", -1.0),
    "Qp": ("bS", "bCp", 1.0),
    "tP": ("tbS", "tbCp", -1.0),
    "tQ": ("tbSp", "tbC", 1.0),
    "tPp": ("tbSp", "tbC", -1.0),
    "tQp": ("tbS", "tbCp", 1.0),
}


def _pq_reduction(code, n, zf):
    """Modified families as sin/cos prefactor combinations at z/2.

    P-type:  cos(pi z) * first(z/2) - sin(pi z) * second(z/2)
    Q-type:  sin(pi z) * first(z/2) + cos(pi z) * second(z/2)
    """
    first, second, sign = _PQ_PARTS[code]
    half = 0.5 * zf
    v1, e1, path1 = _bold_part(first, n, half)
    v2, e2, path2 = _bold_part(second, n, half)
    s, c = _sin_pi(zf), _cos_pi(zf)
    if sign > 0:
        v = s * v1 + c * v2
    else:
        v = c * v1 - s * v2
    eb = (
        abs(s) * e1
        + abs(c) * e2
        + _drift(zf) * (abs(v1) + abs(v2))
        + 2.0 * _EPS * (1.0 + abs(v))
    )
    path = "polylog" if "polylog" in (path1, path2) else path1
    return v, path, eb


def _pq_printed_li(code, n, zf):
    """The order-1 modified forms printed as Li_2 combinations."""
    zq = Fraction(zf)
    s, c = _sin_pi(zf), _cos_pi(zf)
    scale = 2.0 * math.pi**2
    if code == "Q":
        a = _li_at(2, ONE_QUARTER - zq / 2)
        b = _li_at(2, ONE_QUARTER + zq / 2)
        v = (c * (a.imag_part + b.imag_part) + s * (a.real_part - b.real_part)) / scale
        raw = a.error_bound + b.error_bound
    elif code == "Pp":
        a = _li_at(2, ONE_QUARTER + zq / 2)
        b = _li_at(2, zq / 2 - ONE_QUARTER)
        v = -(c * (a.real_part - b.real_part) + s * (a.imag_part - b.imag_part)) / scale
        raw = a.error_bound + b.error_bound
    elif code == "tQ":
        a = _li_at(2, zq / 2)
        b = _li_at(2, zq / 2 + ONE_HALF)
        v = (c * (a.real_part - b.real_part) + s * (a.imag_part - b.imag_part)) / scale
        raw = a.error_bound + b.error_bound
    elif code == "tPp":
        a = _li_at(2, zq / 2)
        b = _li_at(2, zq / 2 + ONE_HALF)
        v = (c * (a.imag_part - b.imag_part) - s * (a.real_part - b.real_part)) / scale
        raw = a.error_bound + b.error_bound
    else:
        raise DomainError(f"no printed polylog form for {code!r} at order {n}")
    eb = raw / scale + _drift(zf) * abs(v) + 2.0 * _EPS * (1.0 + abs(v))
    return v, eb


# ---------------------------------------------------------------------------
# dispatch


def _polyres(poly, zf):
    v, eb = _exact_poly(poly, Fraction(zf))
    return v, "polynomial", eb


def _dispatch_family(f, zf):
    code = f.code
    n = f.order

    if code == "S":
        return _polyres(poly_S(n), zf)
    if code == "C":
        return _polyres(poly_C(n), zf)
    if code == "tS":
        return _polyres(_poly_half("S", n), zf)
    if code == "tC":
        if n == 0:
            return -0.5, "elementary", 0.0
        return _polyres(_poly_half("C", n), zf)

    if code == "Sp":
        if n == 0:
            v, eb = _sp0(zf)
            return v, "elementary", eb
        v, eb = _li_im_scaled(2 * n, _plus_quarters(zf, 2))
        return v, "polylog", eb
    if code == "Cp":
        if n == 0:
            v, eb = _cp0(zf)
            return v, "elementary", eb
        v, eb = _li_re_scaled(2 * n + 1, _plus_quarters(zf, 2))
        return v, "polylog", eb
    if code == "tSp":
        if n == 0:
            v, eb = _tsp0(zf)
            return v, "elementary", eb
        v, eb = _li_im_scaled(2 * n, Fraction(zf))
        return v, "polylog", eb
    if code == "tCp":
        if n == 0:
            v, eb = _tcp0(zf)
            return v, "elementary", eb
        v, eb = _li_re_scaled(2 * n + 1, Fraction(zf))
        return v, "polylog", eb

    if code in _BOLD0 or code in ("bC", "bSp", "tbC", "tbSp"):
        v, eb, path = _bold_part(code, n, zf)
        return v, path, eb

    # modified families: printed forms where they exist, reductions otherwise
    if code in ("Qp", "tP", "tQp") and n == 0:
        fn = {"Qp": _qp0, "tP": _tp0, "tQp": _tqp0}[code]
        v, eb = fn(zf)
        return v, "elementary", eb
    if code in ("Q", "Pp", "tQ", "tPp") and n == 1:
        v, eb = _pq_printed_li(code, n, zf)
        return v, "polylog", eb
    return _pq_reduction(code, n, zf)


def eval(f, z):
    """Value of the family f at z through its direct closed form.

    Raises UnsupportedOrderError where the series has no value,
    JumpPointError exactly on a step discontinuity, and
    SingularPointError exactly on a pole, log point, or divergence
    lattice.  The returned error_bound is a rigorous first-order bound on
    the floating-point error of the reported value.
    """
    _require_family(f)
    zf = float(z)
    if not math.isfinite(zf):
        raise DomainError(f"z must be finite, got {z!r}")
    _check_supported(f)
    _check_singular(f, zf)
    value, path, eb = _dispatch_family(f, zf)
    return EvalResult(value, path, eb)


# the module intentionally names its entry point `eval`; keep an alias so
# callers can avoid shadowing the builtin
eval_family = eval


# code -> (partner code, shift of z): alternating k families and their
# non-alternating twins trade half shifts, the 2k+1 families quarter shifts
_RELATION_PARTNERS = {
    "S": ("tS", 0.5),
    "C": ("tC", 0.5),
    "Sp": ("tSp", 0.5),
    "Cp": ("tCp", 0.5),
    "tS": ("S", -0.5),
    "tC": ("C", -0.5),
    "tSp": ("Sp", -0.5),
    "tCp": ("Cp", -0.5),
    "bS": ("tbCp", -0.25),
    "bC": ("tbSp", 0.25),
    "bSp": ("tbC", -0.25),
    "bCp": ("tbS", 0.25),
    "tbS": ("bCp", -0.25),
    "tbC": ("bSp", 0.25),
    "tbSp": ("bC", -0.25),
    "tbCp": ("bS", 0.25),
}


def eval_via_relation(f, z):
    """Value of f at z through its interrelation rather than its own form.

    Alternating k families go through their non-alternating twins at
    z + 1/2 and vice versa at z - 1/2; the 2k+1 families trade quarter
    shifts with their twins; modified families always use the sin/cos
    reduction.  Families whose partner has no evaluator (tC at order 0
    needs the unsupported order-0 alternating cosine) raise
    UnsupportedOrderError.
    """
    _require_family(f)
    zf = float(z)
    if not math.isfinite(zf):
        raise DomainError(f"z must be finite, got {z!r}")
    _check_supported(f)
    _check_singular(f, zf)
    code = f.code
    n = f.order

    if f.modified == "PQ":
        v, path, eb = _pq_reduction(code, n, zf)
        return EvalResult(v, path, eb)

    target_code, shift = _RELATION_PARTNERS[code]
    target = SumFamily.from_code(target_code, n)
    try:
        _check_supported(target)
    except UnsupportedOrderError:
        raise UnsupportedOrderError(
            f"family {code} order {n} has no relation route: its partner "
            f"{target_code} is unsupported at order {n}"
        ) from None
    result = eval(target, zf + shift)
    return EvalResult(result.value, result.path, result.error_bound + _drift(zf))
