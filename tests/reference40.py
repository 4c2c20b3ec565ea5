"""One 40-digit reference for every family, and one audit of the bounds
that eval_family and oracle_eval report against it.

A family is Re (cosine) or Im (sine) of a polylogarithm on the unit
circle over pi^p, read through mpmath's polylog alone; q = 1/2 if the
family alternates, else 0:

  k families         Li_p(u),               u = exp(2 pi i (z + q))
  2k+1 families      chi_p(w) exp(-i pi q), w = exp(2 pi i (z + q/2))
  modified P and Q   chi_p(w) / w,          w = exp(i pi (z + q))

Legendre's chi_p(w) = (Li_p(w) - Li_p(-w))/2 sums w^(2k+1)/(2k+1)^p, so
sum_k u^k/(2k+1)^p is chi_p(w)/w with w^2 = u, even in w; at p = 0,
Li_0(u) = u/(1 - u) is the Abel value.  Only SumFamily's fields enter.
1e-9 from a p = 0 pole w's 40 digits keep some 24 of the value, so each
bound is held with NOISE * pi^-p to spare, which only tC 0's exact 0
needs.
"""

import math

import mpmath

from englert_sums import SumFamily, eval_family, oracle_eval

NOISE = 1e-20

# the default verify's p = 2 points one ulp off resonance, capped at 10^6
# terms, whose heads the oracle reads at their first term's phase
ONE_ULP_POINTS = [
    (code, 1, z)
    for codes, z in (
        (("C", "Sp", "tbC", "tbSp", "Q", "Pp"), 1.5000000000000002),
        (("tC", "tSp", "tbC", "tbSp", "tQ", "tPp"), 1.0000000000000002),
    )
    for code in codes
]


def chi(p, w):
    """Legendre's chi_p(w) in the working precision."""
    return (mpmath.polylog(p, w) - mpmath.polylog(p, -w)) / 2


def family_reference(f, z):
    """The sum of f's defining series at z, to 40 digits."""
    p = f.power
    with mpmath.workdps(40):
        zm = mpmath.mpf(z)
        q = mpmath.mpf(1) / 2 if f.alternating else 0
        if f.index_kind == "k":
            s = mpmath.polylog(p, mpmath.expjpi(2 * (zm + q)))
        elif f.modified == "PQ":
            w = mpmath.expjpi(zm + q)
            s = chi(p, w) / w
        else:
            s = chi(p, mpmath.expjpi(2 * zm + q)) * mpmath.expjpi(-q)
        return (s.imag if f.trig == "sin" else s.real) / mpmath.pi**p


def held(f, z, value, bound, ref):
    """Assert |value - ref| <= bound + NOISE * pi^-p and return the
    ratio of the two sides, with the code, order and z."""
    ratio = float(abs(value - ref)) / (bound + NOISE * math.pi**-f.power)
    assert ratio <= 1.0, (f.code, f.order, z, value, float(ref), bound)
    return ratio, f.code, f.order, z


def audit(points, tol=1e-8):
    """Hold eval_family's error_bound and oracle_eval's tail_bound at tol,
    strict=False, against family_reference at each (code, order, z) of
    points.  Returns the worst (ratio, code, order, z) of each, and the
    (code, order, z, envelope) of every averaged report above tol, whose
    envelope is no bound and so is listed rather than held."""
    closed = oracle = (0.0,)
    unconverged = []
    for code, order, z in points:
        f = SumFamily.from_code(code, order)
        ref = family_reference(f, z)
        r = eval_family(f, z)
        closed = max(closed, held(f, z, r.value, r.error_bound, ref))
        o = oracle_eval(f, z, tol, strict=False)
        if o.mode == "averaged-conditional" and o.tail_bound > tol:
            unconverged.append((code, order, z, o.tail_bound))
        else:
            oracle = max(oracle, held(f, z, o.value, o.tail_bound, ref))
    return closed, oracle, unconverged
