"""Brute-force series oracle: partial sums, convergence modes, arbitration."""

import math
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from englert_sums import (
    SumFamily,
    arbitrate,
    eval_family,
    oracle,
    oracle_eval,
    partial_sum,
)
from englert_sums.errors import (
    CapacityError,
    DomainError,
    JumpPointError,
    ToleranceNotReachedError,
    UnsupportedOrderError,
)

PI = math.pi


def fam(code, order):
    return SumFamily.from_code(code, order)


# hand-computed leading partial sums; N counts summands from the first index
PARTIAL_CASES = [
    ("S", 0, 0.25, 1, -1.0 / PI),
    ("C", 1, 0.0, 2, -3.0 / (4.0 * PI**2)),
    ("bS", 1, 0.1, 1, math.sin(0.2 * PI) / PI**3),
    ("tbS", 0, 0.3, 1, math.sin(0.6 * PI) / PI),
    ("P", 1, 0.2, 2, -math.sin(0.4 * PI) / (27.0 * PI**3)),
]


@pytest.mark.parametrize(
    "code,order,z,n,expected",
    PARTIAL_CASES,
    ids=[f"{c}{o}-N{n}" for c, o, _, n, _ in PARTIAL_CASES],
)
def test_partial_sum_leading_terms(code, order, z, n, expected):
    assert partial_sum(fam(code, order), z, n) == pytest.approx(expected, abs=1e-16)


def test_partial_sum_matches_scalar_loop():
    # the vectorised phase-split accumulation against a plain fsum with
    # exact rational phase reduction
    z = 0.123456789
    zf = Fraction(z)
    lib = partial_sum(fam("tS", 1), z, 3000)
    ref = math.fsum(
        math.sin(2.0 * PI * float((k * zf) % 1)) / (PI * k) ** 3
        for k in range(1, 3001)
    )
    assert abs(lib - ref) <= 1e-14


def test_partial_sum_chunk_size_is_invisible(monkeypatch):
    z = 0.123456789
    before = partial_sum(fam("tS", 1), z, 3000)
    monkeypatch.setattr(oracle, "_CHUNK", 1009)
    after = partial_sum(fam("tS", 1), z, 3000)
    assert abs(before - after) <= 1e-15
    # three chunks of 4099 terms each take the block sum, as does the one
    # chunk of 12,297 terms they split
    n = 3 * 4099
    monkeypatch.setattr(oracle, "_CHUNK", 1 << 20)
    before = partial_sum(fam("tS", 1), z, n)
    monkeypatch.setattr(oracle, "_CHUNK", 4099)
    after = partial_sum(fam("tS", 1), z, n)
    assert abs(before - after) <= 1e-15


def test_oracle_eval_on_two_threads_gives_the_sequential_reports():
    # each call allocates its own scratch arrays, so library callers may
    # run the oracle on threads: a capped resonant point and an averaged
    # p <= 1 point start together and must not disturb each other
    points = [(fam("C", 1), 0.5, 1e-8), (fam("Qp", 0), 0.3, 1e-6)]
    sequential = [oracle_eval(f, z, tol, strict=False) for f, z, tol in points]
    start = threading.Barrier(len(points), timeout=60)

    def run(point):
        f, z, tol = point
        start.wait()
        return oracle_eval(f, z, tol, strict=False)

    with ThreadPoolExecutor(max_workers=len(points)) as pool:
        threaded = list(pool.map(run, points))
    assert threaded == sequential
    assert [(r.mode, r.terms_used) for r in threaded] == [
        ("absolute", 1_000_000),
        ("averaged-conditional", 20_000),
    ]


def test_absolute_mode_for_fast_series():
    r = oracle_eval(fam("S", 1), 0.3, 1e-6)
    assert r.mode == "absolute"
    assert r.terms_used < 1000
    assert r.tail_bound <= 1e-6
    assert abs(r.value - (-0.032)) <= r.tail_bound


def test_absolute_mode_tightens_with_tolerance():
    loose = oracle_eval(fam("C", 1), 0.3, 1e-4)
    tight = oracle_eval(fam("C", 1), 0.3, 1e-6)
    assert loose.mode == tight.mode == "absolute"
    assert tight.terms_used > loose.terms_used
    closed = eval_family(fam("C", 1), 0.3).value
    assert abs(tight.value - closed) <= tight.tail_bound


@pytest.mark.parametrize(
    "code,z,tol,want",
    [
        ("S", 0.3, 1e-8, -0.3),
        ("tC", 0.3, 1e-6, -0.5),
        ("tSp", 0.25, 1e-6, 0.5),
        ("Sp", 0.25, 1e-6, -0.5),
    ],
)
def test_averaged_mode_for_slow_series(code, z, tol, want):
    # p <= 1 series never meet an absolute tail bound; acceleration by
    # iterated averaging of partial sums takes over
    r = oracle_eval(fam(code, 0), z, tol)
    assert r.mode == "averaged-conditional"
    assert abs(r.value - want) <= tol


def test_averaged_mode_kicks_in_below_absolute_reach():
    # p = 3 at tol 1e-10 would need more terms than the absolute cap
    r = oracle_eval(fam("S", 1), 0.3, 1e-10)
    assert r.mode == "averaged-conditional"
    assert abs(r.value - (-0.032)) <= 1e-10


def test_non_oscillating_point_hits_the_cap():
    # right next to the jump of the square-wave component the series is
    # effectively monotone, so averaging is refused and the absolute cap
    # is the best available
    f = fam("C", 1)
    r = oracle_eval(f, 0.499, 1e-8, strict=False)
    assert r.mode == "absolute"
    assert r.terms_used == 1_000_000
    assert r.tail_bound > 1e-8
    closed = eval_family(f, 0.499).value
    assert abs(r.value - closed) <= r.tail_bound

    with pytest.raises(ToleranceNotReachedError) as info:
        oracle_eval(f, 0.499, 1e-8)
    err = info.value
    assert err.best is not None
    assert err.best.terms_used == 1_000_000
    assert err.error_estimate == pytest.approx(r.tail_bound)


def test_partial_sum_validation():
    f = fam("tS", 1)
    for bad in (0, -3, 1.5, True):
        with pytest.raises(DomainError):
            partial_sum(f, 0.3, bad)
    with pytest.raises(CapacityError):
        partial_sum(f, 0.3, 200_000_000)
    with pytest.raises(DomainError):
        partial_sum(f, math.nan, 10)


def test_oracle_eval_validation():
    with pytest.raises(DomainError):
        oracle_eval(fam("S", 1), 0.3, 1e-11)
    with pytest.raises(DomainError):
        oracle_eval(fam("S", 1), 0.3, 0.0)
    with pytest.raises(DomainError):
        oracle_eval(fam("S", 1), math.inf, 1e-6)
    with pytest.raises(UnsupportedOrderError):
        oracle_eval(fam("Q", 0), 0.3, 1e-6)
    with pytest.raises(JumpPointError):
        oracle_eval(fam("S", 0), 0.5, 1e-6)


def test_arbitration_prefers_the_accurate_claim():
    f = fam("C", 1)

    def good(z):
        return eval_family(f, z).value

    def bad(z):
        return eval_family(f, z).value + 1e-3

    rep = arbitrate(good, bad, f, [0.1, 0.2, 0.3])
    assert rep.winner == "a"
    assert rep.a_pass == 3 and rep.b_pass == 0
    assert len(rep.rows) == 3
    row = rep.rows[0]
    assert row.z == 0.1
    assert row.a_ok and not row.b_ok
    assert row.diff_a < 1e-9 < row.diff_b
    assert row.value_b - row.value_a == pytest.approx(1e-3, abs=1e-12)
    assert abs(row.oracle_value - row.value_a) < 1e-9

    flipped = arbitrate(bad, good, f, [0.1, 0.2, 0.3])
    assert flipped.winner == "b"


def test_arbitration_tie_outcomes():
    f = fam("C", 1)

    def good(z):
        return eval_family(f, z).value

    def bad(z):
        return eval_family(f, z).value + 1e-3

    assert arbitrate(good, good, f, [0.1, 0.2]).winner == "both"
    assert arbitrate(bad, bad, f, [0.1, 0.2]).winner == "neither"


def test_arbitration_validation():
    f = fam("C", 1)
    with pytest.raises(DomainError):
        arbitrate(lambda z: 0.0, "not callable", f, [0.1])
    with pytest.raises(DomainError):
        arbitrate("not callable", lambda z: 0.0, f, [0.1])
    with pytest.raises(DomainError):
        arbitrate(lambda z: 0.0, lambda z: 0.0, f, [])


def test_package_loads_numpy_only_with_the_oracle():
    # englert_sums serves the oracle names on first read (PEP 562), so
    # closed forms alone never import numpy
    code = (
        "import sys, englert_sums as es\n"
        "es.eval_family(es.SumFamily.from_code('Sp', 2), 0.3)\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded by eval'\n"
        "assert 'oracle_eval' in es.__all__ and 'oracle_eval' in dir(es)\n"
        "assert es.oracle_eval is es.oracle.oracle_eval\n"
        "assert 'numpy' in sys.modules\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
