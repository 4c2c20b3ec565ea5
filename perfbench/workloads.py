"""The benchmark's workloads and the seeded inputs they run.

Nothing here imports englert_sums, so the worker can import this module
before it starts the set-up clock.  Functions that need the package take
the loaded module as an argument.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass

Z_RANGE = (-4.0, 4.0)
# set-up evaluates every (code, order) once here; no order-0 lattice
# (offsets 0, 1/4, 1/2 with periods 1/2 or 1) passes through it
WARMUP_Z = 0.3
# ops checked against the independent reference, per (code, order)
REFS_PER_PAIR = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "eval": scalar eval_family calls; "verify": cli.run calls
    codes: tuple
    orders: tuple
    with_order_0: bool = False  # eval: add every supported order-0 code
    reps: int = 0  # eval: how often each (code, order) occurs in the op list
    argv: tuple = ()  # verify: the cli.run arguments
    points: int = 0  # verify: rows one call must report
    # reference kernel (refclock.KERNELS) whose work is most like this one's
    kernel: str = "scalar"
    # spans that must record calls in a traced run of this workload: a
    # layer, or one key of it such as "polylog.li_on_circle[a4]"; the
    # per-layer metrics of every other span read 0 here, as measured
    layers: tuple = ()

    @property
    def ops_per_call(self):
        """Ops one timed call makes: verified points, or one evaluation."""
        return self.points if self.kind == "verify" else 1


POLYNOMIAL_CODES = ("S", "C", "tS", "tC", "bSp", "bCp", "tbS", "tbC")
POLYLOG_CODES = (
    "Sp", "Cp", "tSp", "tCp", "bS", "bC", "tbSp", "tbCp",
    "P", "Q", "Pp", "Qp", "tP", "tQ", "tPp", "tQp",
)
ALL_CODES = POLYNOMIAL_CODES + POLYLOG_CODES


def li_spans(orders):
    return tuple(f"polylog.li_on_circle[a{a}]" for a in orders)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="eval_polynomial",
            why="bracket-polynomial and order-0 codes: coeffs Horner and sums "
            "dispatch do the work, polylog and oracle none (control for "
            "polylog and oracle changes)",
            kind="eval",
            codes=POLYNOMIAL_CODES,
            orders=tuple(range(1, 9)),
            with_order_0=True,
            reps=100,
            layers=(
                "sums.eval[polynomial]", "sums.eval[elementary]", "coeffs.eval_poly",
                "coeffs.c_table", "bernoulli",
            ),
        ),
        Workload(
            name="eval_polylog",
            why="the 16 polylog-path codes at orders 1..8: li_on_circle "
            "dominates and its Li_4 cliff sets the tail; oracle does no work",
            kind="eval",
            codes=POLYLOG_CODES,
            orders=tuple(range(1, 9)),
            reps=100,
            layers=(
                "sums.eval[polylog]", "coeffs.eval_poly", "coeffs.c_table", "bernoulli",
                *li_spans(range(2, 18)),
            ),
        ),
        Workload(
            name="verify_default",
            why="in-process 'englert-sums verify' with its defaults, 3507 "
            "points: the series oracle does most of the work, closed forms "
            "and cli rendering the rest",
            kind="verify",
            codes=ALL_CODES,
            orders=(0, 1, 2, 3),
            argv=("verify",),
            points=3507,
            kernel="array",
            layers=(
                "cli", "sums.eval[polynomial]", "sums.eval[elementary]",
                "sums.eval[polylog]", "oracle[absolute]", "oracle[absolute-capped]",
                "oracle[averaged]", "coeffs.eval_poly", "coeffs.c_table", "bernoulli",
                *li_spans(range(2, 8)),
            ),
        ),
    )
}


def pairs(workload, es):
    """(code, order) pairs the workload evaluates, in a fixed order."""
    out = [(c, n) for c in workload.codes for n in workload.orders]
    if workload.with_order_0:
        out += [(c, 0) for c in es.FAMILY_CODES]
    return [
        (c, n) for c, n in out if es.is_supported(es.SumFamily.from_code(c, n))
    ]


def make_ops(workload, n_pairs, seed):
    """Shuffled op list: each pair `reps` times, z uniform on Z_RANGE."""
    rng = random.Random(f"{workload.name}/{seed}")
    ops = [
        (p, rng.uniform(*Z_RANGE))
        for _ in range(workload.reps)
        for p in range(n_pairs)
    ]
    rng.shuffle(ops)
    return ops


def reference_sample(workload, ops, seed):
    """Sorted op indices checked against the reference: REFS_PER_PAIR per pair."""
    rng = random.Random(f"{workload.name}/{seed}/reference")
    by_pair = defaultdict(list)
    for i, (p, _) in enumerate(ops):
        by_pair[p].append(i)
    return sorted(
        i for p in sorted(by_pair) for i in rng.sample(by_pair[p], REFS_PER_PAIR)
    )
