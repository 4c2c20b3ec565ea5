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
half-turn or quarter-turn combinations of the k families, read as one
folded bracket polynomial or as one Legendre chi series (the odd-index
half of a polylogarithm); the modified families reduce to 2k+1 families
at z/2 with sin/cos prefactors, at every order, order 0 included.

Twelve families have denominator power zero at order 0.  Nine of them
have no value there and raise UnsupportedOrderError: C, bC, bSp, tbC,
tbSp, Q, Pp, tQ and tPp.  The other three carry Abel values: tC is the
constant -1/2 away from integers, Sp is -tan(pi z)/2 and tSp is
cot(pi z)/2.

Each code has one row in the family table _FAMILIES: its structural
fields, its route for orders n >= 1, its order-0 form, its order-0
singular lattice and its eval_via_relation partner.  A route resolves
once per (code, order) into a cached reader of z (see _reader), which
looks up eval_poly and li_on_circle here at each call, so a tracer or a
test that replaces either name reaches every later call.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .bracket import ONE_HALF
from .coeffs import MAX_ORDER, _table_read, eval_poly
from .errors import (
    CapacityError,
    DomainError,
    JumpPointError,
    SingularPointError,
    UnsupportedOrderError,
    check_int,
)
from .polylog import (
    UnitCirclePoint,
    _cis_pi,
    _clausen_at,
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
        code = _CODE_BY_FIELDS.get(self._fields)
        if code is None:
            raise DomainError(f"field combination {self._fields!r} names no family")
        check_int(self.order, "order", 0)
        # the family code, resolved once: a plain read-only attribute
        object.__setattr__(self, "code", code)

    @classmethod
    def from_code(cls, code, order):
        row = _FAMILIES.get(code)
        if row is None:
            raise DomainError(
                f"unknown family code {code!r}; expected one of {', '.join(FAMILY_CODES)}"
            )
        return cls(*row.fields, order)

    @property
    def _fields(self):
        return (
            self.index_kind, self.alternating, self.trig, self.power_parity, self.modified
        )

    @property
    def power(self):
        """Denominator exponent p of the defining series."""
        if (self.power_parity == "even") == (self.trig == "sin"):
            return 2 * self.order + 1
        return 2 * self.order

    @property
    def k_start(self):
        return 0 if self.index_kind == "2k+1" else 1


class EvalResult(NamedTuple):
    """A named tuple: it unpacks and has _replace, not dataclasses.replace/asdict/fields."""

    value: float
    path: str  # polynomial | elementary | polylog
    error_bound: float


_LATTICE_KINDS = ("none", "pole", "log", "jump", "divergent")


@dataclass(frozen=True)
class SingularSet:
    """Periodic lattice offset + period*Z of excluded points, or empty.

    An unknown kind, a non-Rational offset or period, or a zero period
    raises DomainError; the empty set, kind "none", reads neither.
    """

    kind: str  # none | pole | log | jump | divergent
    offset: Fraction = None
    period: Fraction = None

    def __post_init__(self):
        if self.kind not in _LATTICE_KINDS:
            raise DomainError(
                f"unknown lattice kind {self.kind!r}; expected one of "
                f"{', '.join(_LATTICE_KINDS)}"
            )
        if self.kind == "none":
            return
        for name, value in (("offset", self.offset), ("period", self.period)):
            if not isinstance(value, numbers.Rational):
                raise DomainError(f"lattice {name} must be a Rational, got {value!r}")
        if self.period == 0:
            raise DomainError("lattice period must be non-zero")

    def distance(self, z):
        """Distance from z to the lattice, math.inf for the empty set.

        The distance is exact in integers, from the integer ratios of
        float(z), offset and period, and rounded once, however large |z|
        is and whatever the offset and period.  A non-finite z raises
        DomainError.
        """
        zf = _finite_z(z)
        if self.kind == "none":
            return math.inf
        m, q = zf.as_integer_ratio()
        a, b = self.offset.as_integer_ratio()
        c, d = self.period.as_integer_ratio()
        # over the common denominator q b d: z - offset, and the period,
        # whose sign names the same lattice
        period = abs(c) * q * b
        r = (m * b - a * q) * d % period
        return min(r, period - r) / (q * b * d)

    def contains(self, z, eps):
        return self.distance(z) < eps


_EMPTY_SET = SingularSet("none")


def _require_family(f):
    if not isinstance(f, SumFamily):
        raise DomainError(f"expected a SumFamily, got {type(f).__name__}")


def _finite_z(z):
    zf = float(z)
    if not math.isfinite(zf):
        raise DomainError(f"z must be finite, got {z!r}")
    return zf


def is_supported(f):
    """True when eval(f, z) is defined for nonsingular z."""
    _require_family(f)
    return f.order > 0 or _FAMILIES[f.code].at0 is not None


def singular_points(f):
    """Lattice of poles, log points, jumps or divergence of the closed form.

    Every order-1-and-up evaluator here is continuous (the polynomial
    families are continuous across the bracket wrap because the even
    tables are even and the odd tables vanish at half-integers), so only
    order 0 carries a lattice.
    """
    _require_family(f)
    if f.order == 0:
        return _FAMILIES[f.code].lattice
    return _EMPTY_SET


# z is singular iff its exact distance to the order-0 lattice is below this
_EXACT_EPS = 1e-12


# ---------------------------------------------------------------------------
# building blocks


def _turn_ints(zf, k):
    """(num, den): zf + k/4 reduced to [0, 1) as num/den, from zf's integer ratio."""
    m, q = zf.as_integer_ratio()
    q4 = 4 * q
    return (4 * m + k * q) % q4, q4


def _part_reader(n, kind, a, b=None, sign=1.0):
    """The reader zf -> (value, path, error_bound) of one k-family part.

    The part is read at z + a/4, or, when b is given, as sign times half
    the difference of its reads at z + a/4 and at z + b/4, each taken
    modulo 1: every part has period 1.  The parts "C" and "S" are the
    bracket polynomials of order n, both reads in one folded polynomial
    (see coeffs._table_read) evaluated once at the float z; "re" is
    Re Li_{2n+1} and "im" is Im Li_{2n}, both scaled by pi^-p.

    For "re" and "im", b is always a + 2 or a - 2, half a turn away, so
    the half difference is the same component of the Legendre chi
    function chi_p at the turns of z + a/4, read in one series (see
    polylog._clausen_at).
    """
    if kind in ("C", "S"):
        table = _table_read(kind, n, a, b)

        def read(zf):
            # the exact value, correctly rounded
            v = sign * eval_poly(table, zf)
            return v, "polynomial", _EPS * (1.0 + abs(v))

        return read
    if n > MAX_ORDER:
        # the family order's cap, which the polynomial tables check
        # themselves; li_on_circle would name the polylog order, and the
        # chi read has no cap
        raise CapacityError(f"order {n} exceeds the supported cap {MAX_ORDER}")
    order = 2 * n if kind == "im" else 2 * n + 1
    s = math.pi**order

    def read(zf):
        if b is None:
            # the part is the Clausen component of Li_order, which the order's
            # parity selects; the exact polynomial of the other is never built
            la = li_on_circle(order, UnitCirclePoint(Fraction(*_turn_ints(zf, a))))
            h, raw = la.clausen, la.clausen_bound
        else:
            num, den = _turn_ints(zf, a)
            h, raw = _clausen_at(order, num, den, True)
        v = sign * (h / s)
        return v, "polylog", raw / s + _EPS * (1.0 + abs(v))

    return read


# _cis_pi(t) reduces t exactly to pi*r about a multiple of pi/2, |r| <= 1/4,
# and rounds only that product: math.pi is within 1.23e-16 of pi, the product
# rounds by 2^-54, so it reads t off by (0.25 * 1.23e-16 + 2^-54)/pi < _DZ.
_DZ = 2.8e-17


def _form(v, slope, dz=_DZ):
    """(v, "elementary", bound): |dv/dz| times the error dz of the z read, and
    2 _EPS (1 + |v|) for the rounding of the form and of math's cos, sin, log."""
    return v, "elementary", slope * dz + 2.0 * _EPS * (1.0 + abs(v))


# ---------------------------------------------------------------------------
# order-0 elementary forms, their families' readers at order 0


def _sp0(zf):
    e = _cis_pi(zf)
    v = -e.imag / (2.0 * e.real)
    return _form(v, 0.5 * math.pi * (1.0 + 4.0 * v * v))


def _cp0(zf):
    e = _cis_pi(zf)
    v = -math.log(2.0 * abs(e.real)) / math.pi
    return _form(v, abs(e.imag / e.real))


def _tc0(zf):
    return -0.5, "elementary", 0.0


def _tsp0(zf):
    e = _cis_pi(zf)
    v = e.real / (2.0 * e.imag)
    return _form(v, 0.5 * math.pi * (1.0 + 4.0 * v * v))


def _tcp0(zf):
    e = _cis_pi(zf)
    v = -math.log(2.0 * abs(e.imag)) / math.pi
    return _form(v, abs(e.real / e.imag))


def _bs0(zf):
    # log|tan(pi z + pi/4)| / (2 pi), of slope 0.5/|cos sin| at the angle read;
    # z mod 2 keeps the quarter, but the sum rounds by up to 2^-52 below 2.25
    e = _cis_pi(math.fmod(zf, 2.0) + 0.25)
    v = (math.log(abs(e.imag)) - math.log(abs(e.real))) / (2.0 * math.pi)
    return _form(v, 0.5 / abs(e.real * e.imag), _DZ + 2.0**-52)


def _bcp0(zf):
    return 0.25 * (-1.0) ** math.floor(2.0 * math.fmod(zf, 1.0) + 0.5), "elementary", 0.0


def _tbs0(zf):
    return 0.25 * (-1.0) ** math.floor(2.0 * zf), "elementary", 0.0


def _tbcp0(zf):
    # log|cot(pi z)| / (2 pi), of slope 1/|sin(2 pi z)| = 0.5/|cos sin|
    e = _cis_pi(zf)
    v = (math.log(abs(e.real)) - math.log(abs(e.imag))) / (2.0 * math.pi)
    return _form(v, 0.5 / abs(e.real * e.imag))


# ---------------------------------------------------------------------------
# the family table


class _Family(NamedTuple):
    fields: tuple  # index_kind, alternating, trig, power_parity, modified
    route: tuple  # order n >= 1, see _reader
    # order 0: None (no value), an elementary form, or _SAME; every
    # modified family with an order-0 value takes _SAME, its reduction
    at0: object
    lattice: SingularSet  # order-0 singular lattice
    partner: tuple  # eval_via_relation: (code, shift of z), None for P/Q


_SAME = "same route"  # order 0 takes the route of the higher orders


def _lat(kind, offset, period):
    return SingularSet(kind, Fraction(offset), Fraction(period))


# Routes: the k families read one part (see _part_reader) at z + q/4, the
# 2k+1 families take half the difference of two reads of one part, and the
# modified families pair two 2k+1 families at z/2 (see _reader).
# Alternating k families and their non-alternating twins trade half
# shifts in eval_via_relation, the 2k+1 families quarter shifts.
_FAMILIES = {
    "S": _Family(("k", True, "sin", "even", "none"), ("S", 0), _SAME,
                 _lat("jump", ONE_HALF, 1), ("tS", 0.5)),
    "C": _Family(("k", True, "cos", "even", "none"), ("C", 0), None,
                 _EMPTY_SET, ("tC", 0.5)),
    "Sp": _Family(("k", True, "sin", "odd", "none"), ("im", 2), _sp0,
                  _lat("pole", ONE_HALF, 1), ("tSp", 0.5)),
    "Cp": _Family(("k", True, "cos", "odd", "none"), ("re", 2), _cp0,
                  _lat("log", ONE_HALF, 1), ("tCp", 0.5)),
    "tS": _Family(("k", False, "sin", "even", "none"), ("S", 2), _SAME,
                  _lat("jump", 0, 1), ("S", -0.5)),
    "tC": _Family(("k", False, "cos", "even", "none"), ("C", 2), _tc0,
                  _lat("divergent", 0, 1), ("C", -0.5)),
    "tSp": _Family(("k", False, "sin", "odd", "none"), ("im", 0), _tsp0,
                   _lat("pole", 0, 1), ("Sp", -0.5)),
    "tCp": _Family(("k", False, "cos", "odd", "none"), ("re", 0), _tcp0,
                   _lat("log", 0, 1), ("Cp", -0.5)),
    "bS": _Family(("2k+1", True, "sin", "even", "none"), ("re", 1, -1, -1.0), _bs0,
                  _lat("log", ONE_QUARTER, ONE_HALF), ("tbCp", -0.25)),
    "bC": _Family(("2k+1", True, "cos", "even", "none"), ("im", 1, -1), None,
                  _EMPTY_SET, ("tbSp", 0.25)),
    "bSp": _Family(("2k+1", True, "sin", "odd", "none"), ("C", 1, -1), None,
                   _EMPTY_SET, ("tbC", -0.25)),
    "bCp": _Family(("2k+1", True, "cos", "odd", "none"), ("S", -1, 1), _bcp0,
                   _lat("jump", ONE_QUARTER, ONE_HALF), ("tbS", 0.25)),
    "tbS": _Family(("2k+1", False, "sin", "even", "none"), ("S", -2, 0), _tbs0,
                   _lat("jump", 0, ONE_HALF), ("bCp", -0.25)),
    "tbC": _Family(("2k+1", False, "cos", "even", "none"), ("C", 2, 0), None,
                   _EMPTY_SET, ("bSp", 0.25)),
    "tbSp": _Family(("2k+1", False, "sin", "odd", "none"), ("im", 0, -2), None,
                    _EMPTY_SET, ("bC", -0.25)),
    "tbCp": _Family(("2k+1", False, "cos", "odd", "none"), ("re", 0, 2), _tbcp0,
                    _lat("log", 0, ONE_HALF), ("bS", 0.25)),
    "P": _Family(("2k+1", True, "sin", "even", "PQ"), ("bS", "bCp", -1.0), _SAME,
                 _lat("jump", ONE_HALF, 1), None),
    "Q": _Family(("2k+1", True, "cos", "even", "PQ"), ("bSp", "bC", 1.0), None,
                 _EMPTY_SET, None),
    "Pp": _Family(("2k+1", True, "sin", "odd", "PQ"), ("bSp", "bC", -1.0), None,
                  _EMPTY_SET, None),
    "Qp": _Family(("2k+1", True, "cos", "odd", "PQ"), ("bS", "bCp", 1.0), _SAME,
                  _lat("log", ONE_HALF, 1), None),
    "tP": _Family(("2k+1", False, "sin", "even", "PQ"), ("tbS", "tbCp", -1.0), _SAME,
                  _lat("jump", 0, 1), None),
    "tQ": _Family(("2k+1", False, "cos", "even", "PQ"), ("tbSp", "tbC", 1.0), None,
                  _EMPTY_SET, None),
    "tPp": _Family(("2k+1", False, "sin", "odd", "PQ"), ("tbSp", "tbC", -1.0), None,
                   _EMPTY_SET, None),
    "tQp": _Family(("2k+1", False, "cos", "odd", "PQ"), ("tbS", "tbCp", 1.0), _SAME,
                   _lat("log", 0, 1), None),
}

FAMILY_CODES = tuple(_FAMILIES)

_CODE_BY_FIELDS = {row.fields: code for code, row in _FAMILIES.items()}


# ---------------------------------------------------------------------------
# dispatch


@functools.cache
def _reader(code, n):
    """zf -> (value, path, error_bound) of `code` at order n, built once from
    what depends on (code, n) alone; a build that raises caches nothing.
    A modified family pairs two 2k+1 readers at z/2, route = (first, second, sign):
    P-type, sign < 0:  cos(pi z) * first(z/2) - sin(pi z) * second(z/2)
    Q-type, sign > 0:  sin(pi z) * first(z/2) + cos(pi z) * second(z/2)
    """
    row = _FAMILIES[code]
    if n == 0 and row.at0 is not _SAME:
        return row.at0
    if row.fields[4] != "PQ":
        return _part_reader(n, *row.route)
    first, second, sign = row.route
    read1, read2 = _reader(first, n), _reader(second, n)

    def read(zf):
        v1, path1, e1 = read1(0.5 * zf)
        v2, path2, e2 = read2(0.5 * zf)
        e = _cis_pi(zf)
        w1, w2 = (e.imag, e.real) if sign > 0 else (e.real, -e.imag)
        v = w1 * v1 + w2 * v2
        # each w is within pi*_DZ + 2^-53 < _EPS of its cos or sin, w*v rounds by
        # 2^-53|v|: the 2 _EPS floor alone covers that at n >= 1, where |v_i| <= 1/8
        eb = abs(w1) * e1 + abs(w2) * e2 + 2.0 * _EPS * (1.0 + abs(v) + abs(v1) + abs(v2))
        return v, "polylog" if "polylog" in (path1, path2) else path1, eb

    return read


def _checked_z(f, z):
    """z as a float: the one gate of eval, eval_via_relation and oracle_eval.

    f must be a family and z finite.  Only at order 0 is the family's row
    read: a family with no value there raises UnsupportedOrderError, and a
    z within _EXACT_EPS of its lattice JumpPointError or SingularPointError.
    """
    _require_family(f)
    zf = _finite_z(z)
    if f.order == 0:
        row = _FAMILIES[f.code]
        if row.at0 is None:
            raise UnsupportedOrderError(
                f"family {f.code} has denominator power 0 at order 0; "
                "the defining series has no value"
            )
        s = row.lattice
        if s.contains(zf, _EXACT_EPS):
            error = JumpPointError if s.kind == "jump" else SingularPointError
            raise error(
                f"family {f.code} order 0 is singular on the lattice "
                f"{s.offset} + {s.period}*Z ({s.kind}); got z={zf!r}"
            )
    return zf


def eval(f, z):
    """Value of the family f at z through its direct closed form.

    At order 0 raises UnsupportedOrderError where the series has no
    value, JumpPointError on a step discontinuity, and SingularPointError
    on a pole, log point, or divergence lattice; no order above 0 has a
    lattice.  z counts as on the lattice of singular_points(f) iff its
    distance to it, exact in integers, is below 1e-12, whatever |z| is.
    A non-finite z raises DomainError.  The returned error_bound is a
    rigorous first-order bound on the floating-point error of the
    reported value.  An order above MAX_ORDER raises CapacityError.
    """
    zf = _checked_z(f, z)
    return tuple.__new__(EvalResult, _reader(f.code, f.order)(zf))


# the module intentionally names its entry point `eval`; keep an alias so
# callers can avoid shadowing the builtin
eval_family = eval


def eval_via_relation(f, z):
    """Value of f at z through its interrelation rather than its own form.

    Alternating k families go through their non-alternating twins at
    z + 1/2 and vice versa at z - 1/2; the 2k+1 families trade quarter
    shifts with their twins; modified families always use the sin/cos
    reduction.  Families whose partner has no evaluator (tC at order 0
    needs the unsupported order-0 alternating cosine) raise
    UnsupportedOrderError.  z + shift rounds by up to half an ulp h, which
    grows with |z|: the bound adds h times the partner's slope, taken as its
    bound over _DZ (each order-0 form charges its slope times _DZ), the
    integral over h of the log slope of an order-1 Im part (Sp, tSp, bC and
    tbSp), and pi*_EPS*(1 + |z|), which covers the gentler slopes of the rest.
    """
    zf = _checked_z(f, z)
    code, n = f.code, f.order
    if f.modified == "PQ":
        return eval(f, zf)
    target_code, shift = _FAMILIES[code].partner
    target = SumFamily.from_code(target_code, n)
    if not is_supported(target):
        raise UnsupportedOrderError(
            f"family {code} order {n} has no relation route: its partner "
            f"{target_code} is unsupported at order {n}"
        )
    s = zf + shift
    r = eval(target, s)
    u = math.ulp(s)
    rounding = r.error_bound / _DZ * 0.5 * u + _EPS * (1.0 + abs(zf)) * math.pi
    if n == 1 and _FAMILIES[target_code].route[0] == "im":
        # Im Li_2 and Im chi_2 over pi^2 have slope <= (2/pi) log(1/(2 pi d)) at d
        # from a log point: over h = u/2 at most h (2/pi)(1 + log(1/(2 pi h)))
        rounding += u / math.pi * (1.0 + max(0.0, -math.log(math.pi * u)))
    return EvalResult(r.value, r.path, r.error_bound + rounding)
