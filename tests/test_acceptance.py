"""Acceptance suite.

One test per shipped guarantee; each prints a single PASS/FAIL line so the
whole gate can be read off a terminal at a glance:

    pytest tests/test_acceptance.py -q
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from englert_sums import (
    FAMILY_CODES,
    SumFamily,
    UnitCirclePoint,
    abs_bernoulli_term,
    c_table,
    cli,
    constraint_check,
    eval_family,
    eval_poly,
    is_supported,
    li_on_circle,
    oracle_eval,
    poly_C,
    poly_S,
    singular_points,
)

PI = math.pi
GRID32 = [float(z) for z in np.linspace(-0.9375, 0.9375, 32)]
GRID16 = [float(z) for z in np.linspace(-0.40625, 0.40625, 16)]


def fam(code, order):
    return SumFamily.from_code(code, order)


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_coefficient_golden_tables(capsys):
    t0 = time.perf_counter()
    golden = {
        1: (Fraction(-1, 12), Fraction(1)),
        2: (Fraction(-7, 720), Fraction(1, 6), Fraction(-1, 3)),
        3: (Fraction(-31, 30240), Fraction(7, 360), Fraction(-1, 18), Fraction(2, 45)),
    }
    mismatches = [n for n, want in golden.items() if c_table(n) != want]
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    report(capsys, 1, ok, f"tables n=1..3 exact, {elapsed * 1e3:.0f} ms")
    assert ok, (mismatches, elapsed)


def test_criterion_2_bernoulli_constant_terms(capsys):
    # the table index runs one ahead of the Bernoulli index: the constant
    # term of the order-(n+1) table carries (2^(2n+1)-1)|B_(2n+2)|/(2n+2)!
    t0 = time.perf_counter()
    bad_const = [
        n for n in range(1, 21) if c_table(n + 1)[0] != -abs_bernoulli_term(n)
    ]
    bad_constraint = [n for n in range(1, 21) if constraint_check(n) is not True]
    elapsed = time.perf_counter() - t0
    ok = not bad_const and not bad_constraint and elapsed < 5.0
    report(
        capsys, 2, ok,
        f"constant terms and closure constraint exact for n=1..20, {elapsed * 1e3:.0f} ms",
    )
    assert ok, (bad_const, bad_constraint, elapsed)


def test_criterion_3_closed_forms_match_oracle(capsys):
    t0 = time.perf_counter()
    checked = 0
    failures = []
    for code in FAMILY_CODES:
        for order in range(4):
            f = fam(code, order)
            if not is_supported(f):
                continue
            lattice = singular_points(f)
            for i in range(41):
                z = -1.3 + 0.1 * i
                if lattice.distance(z) < 1e-3:
                    continue
                closed = eval_family(f, z)
                rep = oracle_eval(f, z, 1e-8, strict=False)
                allowed = max(1e-8, rep.tail_bound + closed.error_bound)
                diff = abs(closed.value - rep.value)
                checked += 1
                if diff > allowed:
                    failures.append((code, order, round(z, 3), diff, allowed))
    elapsed = time.perf_counter() - t0
    ok = not failures and checked >= 3400 and elapsed < 120.0
    report(
        capsys, 3, ok,
        f"{checked} closed-form points within tolerance of the oracle, "
        f"{len(failures)} failures, {elapsed:.1f} s",
    )
    assert ok, failures[:10]


def test_criterion_4_known_constants(capsys):
    constants = {1: Fraction(-1, 12), 2: Fraction(-7, 720), 3: Fraction(-31, 30240)}
    ok = True
    for n, want in constants.items():
        if eval_poly(poly_C(n), Fraction(0)) != want:
            ok = False
        if eval_family(fam("C", n), 0.0).value != pytest.approx(float(want), abs=1e-15):
            ok = False

    # Catalan's constant from the series oracle, then from the quarter
    # circle polylogarithm; the two independent routes must agree
    catalan_oracle = oracle_eval(fam("bC", 1), 0.0, 1e-10).value * PI**2
    im_li2_i = li_on_circle(2, UnitCirclePoint.from_turns(Fraction(1, 4))).imag_part
    diff = abs(im_li2_i - catalan_oracle)
    ok = ok and diff <= 1e-10
    report(
        capsys, 4, ok,
        f"C_n(0) constant terms exact; Im Li_2(i) vs oracle Catalan diff {diff:.1e}",
    )
    assert ok, (catalan_oracle, im_li2_i)


def test_criterion_5_interrelation_suites(capsys):
    def val(code, n, z):
        return eval_family(fam(code, n), z).value

    failures = []
    checked = 0

    # half-period shifts between the alternating and plain variants
    for code, orders in (("S", (0, 1, 2, 3)), ("C", (1, 2, 3)),
                         ("Sp", (0, 1, 2, 3)), ("Cp", (0, 1, 2, 3))):
        for n in orders:
            for z in GRID32:
                d = abs(val("t" + code, n, z) - val(code, n, z - 0.5))
                checked += 1
                if d > 1e-9:
                    failures.append(("shift", code, n, z, d))

    # quarter-period shifts between the odd-index variants
    for lhs, rhs, dz, orders in (("tbS", "bCp", -0.25, (0, 1, 2)),
                                 ("tbC", "bSp", +0.25, (1, 2)),
                                 ("tbSp", "bC", -0.25, (1, 2)),
                                 ("tbCp", "bS", +0.25, (0, 1, 2))):
        for n in orders:
            for z in GRID32:
                d = abs(val(lhs, n, z) - val(rhs, n, z + dz))
                checked += 1
                if d > 1e-9:
                    failures.append(("quarter", lhs, n, z, d))

    # mismatched-index families against their two-term half-argument
    # reductions
    reductions = {
        "P": lambda n, z: math.cos(PI * z) * val("bS", n, z / 2) - math.sin(PI * z) * val("bCp", n, z / 2),
        "Q": lambda n, z: math.cos(PI * z) * val("bC", n, z / 2) + math.sin(PI * z) * val("bSp", n, z / 2),
        "Pp": lambda n, z: math.cos(PI * z) * val("bSp", n, z / 2) - math.sin(PI * z) * val("bC", n, z / 2),
        "Qp": lambda n, z: math.cos(PI * z) * val("bCp", n, z / 2) + math.sin(PI * z) * val("bS", n, z / 2),
        "tP": lambda n, z: math.cos(PI * z) * val("tbS", n, z / 2) - math.sin(PI * z) * val("tbCp", n, z / 2),
        "tQ": lambda n, z: math.cos(PI * z) * val("tbC", n, z / 2) + math.sin(PI * z) * val("tbSp", n, z / 2),
        "tPp": lambda n, z: math.cos(PI * z) * val("tbSp", n, z / 2) - math.sin(PI * z) * val("tbC", n, z / 2),
        "tQp": lambda n, z: math.cos(PI * z) * val("tbCp", n, z / 2) + math.sin(PI * z) * val("tbS", n, z / 2),
    }
    pq_orders = {"P": (0, 1, 2), "Q": (1, 2), "Pp": (1, 2), "Qp": (0, 1, 2),
                 "tP": (0, 1, 2), "tQ": (1, 2), "tPp": (1, 2), "tQp": (0, 1, 2)}
    for code, orders in pq_orders.items():
        for n in orders:
            for z in GRID32:
                d = abs(val(code, n, z) - reductions[code](n, z))
                checked += 1
                if d > 1e-9:
                    failures.append(("reduction", code, n, z, d))

    ok = not failures and checked == (15 + 10 + 20) * 32
    report(
        capsys, 5, ok,
        f"{checked} interrelation points within 1e-9 ({len(failures)} failures)",
    )
    assert ok, failures[:10]


def test_criterion_6_polylog_decomposition(capsys):
    failures = []
    checked = 0
    for n in (1, 2, 3, 4):
        pc = poly_C(n)
        pc_shifted = pc.with_shift(Fraction(1, 2))
        for z in GRID32:
            a = li_on_circle(2 * n, UnitCirclePoint.from_theta(2 * PI * ((z + 0.5) % 1.0)))
            d = abs(a.real_part / PI ** (2 * n) - eval_poly(pc, z))
            checked += 1
            if d > 1e-9:
                failures.append(("i", n, z, d))
            b = li_on_circle(2 * n, UnitCirclePoint.from_theta(2 * PI * (z % 1.0)))
            d = abs(b.real_part / PI ** (2 * n) - eval_poly(pc_shifted, z))
            checked += 1
            if d > 1e-9:
                failures.append(("iii", n, z, d))
    for n in (0, 1, 2, 3):
        ps = poly_S(n)
        for z in GRID32:
            # conjugation flips the sign of the imaginary component
            a = li_on_circle(2 * n + 1, UnitCirclePoint.from_theta(2 * PI * ((0.5 - z) % 1.0)))
            d = abs(a.imag_part + PI ** (2 * n + 1) * eval_poly(ps, z))
            checked += 1
            if d > 1e-9:
                failures.append(("ii", n, z, d))
    ok = not failures and checked == 12 * 32
    report(
        capsys, 6, ok,
        f"{checked} polylogarithm decomposition points within 1e-9 "
        f"({len(failures)} failures)",
    )
    assert ok, failures[:10]


def test_criterion_7_arbitration_report(capsys, tmp_path):
    path = tmp_path / "conformance.csv"
    code = cli.run(["verify", "--arbitrate", "--report", str(path)])
    out = capsys.readouterr().out
    text = path.read_text()
    display = [
        l for l in text.splitlines()
        if l.startswith("# arbitrate sine-polynomial-display")
    ]
    ok = (
        code == 0
        and out == "PASS 7/7\n"
        and len(display) == 4
        and all("candidate A 16/16, candidate B 0/16" in l for l in display)
        and all("winner=a" in l for l in display)
        and text.startswith("suite,family,order,z,")
    )
    report(
        capsys, 7, ok,
        "integration-derived sine forms win 16/16 vs 0/16 at n=1..4; CSV emitted",
    )
    assert ok, (code, out, display)


def test_criterion_8_derivative_chain(capsys):
    h = 1e-5
    failures = []
    for n in (1, 2, 3):
        s_n, c_n, c_next = fam("S", n), fam("C", n), fam("C", n + 1)
        for z in GRID16:
            fd = (eval_family(s_n, z + h).value - eval_family(s_n, z - h).value) / (2 * h)
            want = 2.0 * eval_family(c_n, z).value
            if abs(fd - want) > 1e-5:
                failures.append(("dS", n, z, fd - want))
            fd = (eval_family(c_next, z + h).value - eval_family(c_next, z - h).value) / (2 * h)
            want = -2.0 * eval_family(s_n, z).value
            if abs(fd - want) > 1e-5:
                failures.append(("dC", n + 1, z, fd - want))
    ok = not failures
    report(
        capsys, 8, ok,
        f"finite-difference derivative chain at {len(GRID16)} points, n=1..3 "
        f"({len(failures)} failures)",
    )
    assert ok, failures[:10]
