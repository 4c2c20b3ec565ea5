"""Blocked oracle term kernel against the one-pass numpy kernel, bit for bit."""

import math

import numpy as np
import pytest

from englert_sums import FAMILY_CODES, SumFamily, oracle, oracle_eval
from englert_sums.oracle import TWO_PI, _phase_split


def terms_reference(f, zf, k_lo, k_hi):
    """Whole-range kernel: every step is one numpy pass over all terms."""
    k = np.arange(k_lo, k_hi, dtype=np.float64)
    if f.index_kind == "2k+1":
        denom = 2.0 * k + 1.0
    else:
        denom = k
    if f.index_kind == "2k+1" and f.modified == "none":
        mult = denom
    else:
        mult = k
    head, low = _phase_split(zf)
    phase = ((mult * head) % 1.0 + mult * low) % 1.0
    angle = phase * TWO_PI
    vals = np.sin(angle) if f.trig == "sin" else np.cos(angle)
    if f.alternating:
        vals = vals * np.where((k % 2.0) == 0.0, 1.0, -1.0)
    with np.errstate(over="ignore"):
        return vals / (math.pi * denom) ** float(f.power)


def assert_same_bits(a, b, where):
    assert a.dtype == b.dtype and a.shape == b.shape, where
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), where


ZS = (0.5, 1.5000000000000002, -1.3, 0.123456789, 1e3 + 0.1, -1e15 + 0.25)


def ranges(start, block):
    # both parities of k_lo, one and several blocks, a partial last block,
    # and a range across the k = _CHUNK boundary of partial_sum
    return (
        (start, start + 4),
        (start + 1, start + 30),
        (start, start + block),
        (start + 1, start + 2 * block + 3),
        (oracle._CHUNK - 5, oracle._CHUNK + block + 6),
    )


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_terms_match_reference_bit_for_bit(code, monkeypatch):
    # a small block runs the loop, the views of the last block and the
    # parity of every block at each order, z and range
    monkeypatch.setattr(oracle, "_BLOCK", 7)
    for order in range(4):
        f = SumFamily.from_code(code, order)
        for zf in ZS:
            for lo, hi in ranges(f.k_start, 7):
                got = oracle._terms(f, zf, lo, hi)
                assert_same_bits(got, terms_reference(f, zf, lo, hi), (code, order, zf, lo, hi))


@pytest.mark.parametrize("code", FAMILY_CODES)
def test_terms_match_reference_at_the_real_block_size(code):
    f = SumFamily.from_code(code, 1)
    zf = 0.123456789
    for lo, hi in ranges(f.k_start, oracle._BLOCK)[2:]:
        got = oracle._terms(f, zf, lo, hi)
        assert_same_bits(got, terms_reference(f, zf, lo, hi), (code, lo, hi))


@pytest.mark.parametrize(
    "code,order,z,tol,mode,terms",
    [
        ("C", 1, 0.5, 1e-8, "absolute", 1_000_000),  # capped at resonance
        ("C", 1, 0.3, 1e-8, "averaged-conditional", 20_000),  # p = 2
        ("Qp", 0, 0.3, 1e-6, "averaged-conditional", 20_000),  # p = 1
    ],
)
def test_oracle_reports_match_the_reference_kernel(code, order, z, tol, mode, terms, monkeypatch):
    f = SumFamily.from_code(code, order)
    blocked = oracle_eval(f, z, tol, strict=False)
    monkeypatch.setattr(oracle, "_terms", terms_reference)
    reference = oracle_eval(f, z, tol, strict=False)
    assert blocked == reference
    assert (blocked.mode, blocked.terms_used) == (mode, terms)
