"""Print every eval_family and eval_via_relation result on a fixed grid.

    PYTHONPATH=src python tests/dump_eval.py | md5sum

One line per (code, order, z, entry point): the value and error_bound
in float hex and the path, or the typed error's class and message.  The
grid is all 24 codes at orders 0-8, 13, 30, 60 and 120 on the z of
POINTS.  Two trees that print the same digest return the same results,
bit for bit; a diff of two dumps names each result that moved.
"""

import math
import random
import sys

from englert_sums import FAMILY_CODES, SumFamily, eval_family, eval_via_relation
from englert_sums.errors import EnglertSumsError

ORDERS = (*range(9), 13, 30, 60, 120)


def _points():
    edges = [
        2.0**52 + 0.5, 1e15 + 0.3, -1e15 - 0.375, 2.0**60, 1e300, -1e300,
        8.99e307, -1.7e308, 1e308, -1e308, 5e-324, -5e-324, 3e-300, 0.1 + 2.0**40,
        0.0, -0.0, 2.0**-40, math.inf, -math.inf, math.nan,
    ]
    # every eighth turn in [-2, 2], the thirds and sixths, and one ulp
    # either side of each quarter turn in [-1, 2]
    lattice = [k / 8 for k in range(-16, 17)] + [1 / 3, -1 / 3, 2 / 3, 1 / 6, -5 / 6]
    ulps = [
        math.nextafter(k / 4, side) for k in range(-4, 9) for side in (-math.inf, math.inf)
    ]
    # 1e-10 to 1e-19 from the order-1 Clausen log points at 0 and 1/2
    near = [a + s * 10.0**-e for a in (0.0, 0.5, 1.5, -1.0) for e in (10, 13, 16, 19)
            for s in (1, -1)]
    rng = random.Random(36)
    spread = [rng.uniform(-4.0, 4.0) for _ in range(250)]
    return edges + lattice + ulps + near + spread


POINTS = _points()


def _line(call, f, z):
    try:
        r = call(f, z)
    except EnglertSumsError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{r.value.hex()} {r.error_bound.hex()} {r.path}"


def main(out=sys.stdout):
    for code in FAMILY_CODES:
        for n in ORDERS:
            f = SumFamily.from_code(code, n)
            for z in POINTS:
                for name, call in (("eval", eval_family), ("relation", eval_via_relation)):
                    out.write(f"{code} {n} {z!r} {name} {_line(call, f, z)}\n")


if __name__ == "__main__":
    main()
