"""Correctness checks: an independent reference for eval, report parsing for verify.

The eval reference never touches the closed forms.  For the k and 2k+1
families it is mpmath's polylogarithm at DPS digits, with w = e^{2 pi i z}:

    k families       Li_p(-w) alternating, Li_p(w) otherwise
    2k+1 families    (Li_p(iw) - Li_p(-iw)) / 2i alternating,
                     (Li_p(w) - Li_p(-w)) / 2 otherwise

taking the imaginary part for sine families and the real part for
cosine families, divided by pi^p.  The modified P/Q families use the
package's brute-force series oracle instead, because mpmath.lerchphi
costs about 100 ms a call; its error is its own tail bound.
"""

from __future__ import annotations

import math

import mpmath

DPS = 40
# float rounding of the oracle's chunked sum, on top of its tail bound
_ORACLE_ROUNDING = 1e-13


def reference(es, family, z):
    """(value, own error) of the family at z, computed outside the closed forms."""
    p = family.power
    if family.modified == "PQ":
        tol = 1e-8 if p >= 2 else 1e-6
        report = es.oracle_eval(family, z, tol, strict=False)
        err = report.tail_bound + _ORACLE_ROUNDING * (1.0 + abs(report.value))
        return mpmath.mpf(report.value), err
    with mpmath.workdps(DPS):
        w = mpmath.expjpi(2 * mpmath.mpf(z))
        if family.index_kind == "k":
            li = mpmath.polylog(p, -w if family.alternating else w)
        elif family.alternating:
            iw = mpmath.mpc(0, 1) * w
            li = (mpmath.polylog(p, iw) - mpmath.polylog(p, -iw)) / mpmath.mpc(0, 2)
        else:
            li = (mpmath.polylog(p, w) - mpmath.polylog(p, -w)) / 2
        part = li.imag if family.trig == "sin" else li.real
        return +(part / mpmath.pi**p), 10.0 ** (8 - DPS)


def check_samples(es, pairs, ops, samples):
    """Compare sampled eval results with the reference.

    samples maps op index -> (value, error_bound).  Returns a list of
    (index, margin, ok) where margin is |v - ref| / (error_bound + ref
    error) and ok is margin <= 1.
    """
    out = []
    for i in sorted(samples):
        value, bound = samples[i]
        p, z = ops[i]
        family = es.SumFamily.from_code(*pairs[p])
        ref, ref_err = reference(es, family, z)
        with mpmath.workdps(DPS):
            diff = float(abs(mpmath.mpf(value) - ref))
        margin = diff / (bound + ref_err)  # ref_err > 0 on both routes
        out.append((i, margin, margin <= 1.0))
    return out


def check_verify(text, points):
    """Parse one verify report: (failed rows, worst diff/tol, problems).

    Missing rows count as failed; a missing or wrong summary line is a
    problem, as is a row count other than `points`.
    """
    lines = text.splitlines()
    problems = []
    if not lines or lines[0] != "family,order,z,closed_value,oracle_value,diff,tol,verdict":
        return points, math.inf, ["verify printed no CSV header"]
    rows = [ln.split(",") for ln in lines[1:] if ln and not ln.startswith(("#", "PASS", "FAIL"))]
    failed = sum(1 for r in rows if r[7] != "PASS")
    worst = max((float(r[5]) / float(r[6]) for r in rows), default=math.inf)
    if len(rows) != points:
        problems.append(f"verify reported {len(rows)} rows, expected {points}")
        failed += max(0, points - len(rows))
    summary = f"PASS {points}/{points}"
    if lines[-1] != summary:
        problems.append(f"verify summary is {lines[-1]!r}, expected {summary!r}")
    return failed, worst, problems
