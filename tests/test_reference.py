"""Closed forms against an independent 40-digit reference.

For every family at orders 0..3, |eval - ref| must stay within the
reported error_bound, plus 1e-20 for the reference's own noise where the
bound is exactly 0.  The points lie on a grid and at +-1e-9, +-1e-6 and
1e-3 from the order-0 lattice points on both sides of zero.  The
references sum each series through mpmath alone, with w = exp(2 pi i z):

  k families      Li_p(-w) (alternating) or Li_p(w)
  2k+1 families   (Li_p(iw) - Li_p(-iw)) / 2i (alternating) or
                  (Li_p(w) - Li_p(-w)) / 2
  modified        Phi(-w or w, p, 1/2) / 2^p, the Lerch transcendent

taking the imaginary part for sine families and the real part for cosine
families, divided by pi^p.
"""

import pytest

from englert_sums import FAMILY_CODES, SumFamily, eval_family, is_supported, singular_points

mpmath = pytest.importorskip("mpmath")


def reference(f, z):
    p = f.power
    with mpmath.workdps(40):
        w = mpmath.expjpi(2 * mpmath.mpf(z))
        if f.modified == "PQ":
            s = mpmath.lerchphi(-w if f.alternating else w, p, mpmath.mpf(1) / 2) / 2**p
        elif f.index_kind == "k":
            s = mpmath.polylog(p, -w if f.alternating else w)
        elif f.alternating:
            s = (mpmath.polylog(p, 1j * w) - mpmath.polylog(p, -1j * w)) / 2j
        else:
            s = (mpmath.polylog(p, w) - mpmath.polylog(p, -w)) / 2
        part = s.imag if f.trig == "sin" else s.real
        return part / mpmath.pi**p


GRID = (-1.3, 0.15, 2.35)
OFFSETS = (1e-9, -1e-9, 1e-6, -1e-6, 1e-3)
# codes with no order-0 value have no lattice; their higher orders bend
# or reach Li_p(1) at these points (mod 1/2) instead
NO_LATTICE_ANCHORS = (-0.5, -0.25, 0.0)


def anchors(code):
    s = singular_points(SumFamily.from_code(code, 0))
    if s.kind == "none":
        return NO_LATTICE_ANCHORS
    return (float(s.offset - s.period), float(s.offset))


def near_points(code):
    return [a + d for a in anchors(code) for d in OFFSETS]


def assert_within_bound(f, z):
    r = eval_family(f, z)
    err = abs(r.value - reference(f, z))
    assert err <= r.error_bound + 1e-20, (f.code, f.order, z, float(err), r.error_bound)


PQ_CODES = [c for c in FAMILY_CODES if SumFamily.from_code(c, 0).modified == "PQ"]
K_CODES = [c for c in FAMILY_CODES if c not in PQ_CODES]


@pytest.mark.parametrize("code", K_CODES)
def test_k_and_odd_index_families_hold_their_bound(code):
    for order in range(4):
        f = SumFamily.from_code(code, order)
        if not is_supported(f):
            continue
        for z in GRID + tuple(near_points(code)):
            assert_within_bound(f, z)


@pytest.mark.parametrize("code", PQ_CODES)
def test_modified_families_hold_their_bound(code):
    # the Lerch reference costs about 0.1 s a call: three points a code,
    # each next to a lattice point, from the lowest supported order to 3
    points = near_points(code)
    low = 0 if is_supported(SumFamily.from_code(code, 0)) else 1
    for order, z in zip((low, low + 1, 3), points[1::4]):
        assert_within_bound(SumFamily.from_code(code, order), z)
