"""Command line front end.

Subcommands: eval, table, coeffs, polylog, oracle, verify.  Exit codes:
0 success, 1 usage errors, 2 verification failures, 3 domain errors
(singular points, unsupported orders, capacity and tolerance failures).
Error messages go to stderr as "E<code>: <detail>".  All numeric output
uses 17 significant digits and reruns are byte identical.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import re
import sys
from fractions import Fraction

from .bernoulli import bernoulli
from .coeffs import c_table, eval_poly, poly_S, sin_poly_variant
from .bracket import centered
from .errors import (
    DomainError,
    EnglertSumsError,
    UsageError,
)
from .oracle import ArbitrationRow, arbitrate, oracle_eval
from .polylog import UnitCirclePoint, li_on_circle
from .sums import FAMILY_CODES, SumFamily, is_supported, singular_points
from .sums import eval as eval_family

_FORMATS = ("csv", "tsv", "json")
# every negative literal float() reads: argparse's own pattern knows only
# plain decimals and takes -1e-3, -inf or -1_000 for an option
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"-(?:(?:{_DIGITS})?\.{_DIGITS}|{_DIGITS}\.?)(?:e[-+]?{_DIGITS})?\Z"
    r"|-(?:inf|infinity|nan)\Z",
    re.IGNORECASE,
)


class ThrowingParser(argparse.ArgumentParser):
    """argparse that raises instead of exiting and reads -1e-3 as a number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(message)


def _linspace(z0, z1, steps):
    if steps < 2:
        raise UsageError(f"grid needs at least 2 steps, got {steps}")
    if steps > 10**6:  # the grid is built up front as one list
        raise UsageError(f"grid takes at most 1000000 steps, got {steps}")
    for end in (z0, z1):
        if not math.isfinite(end):
            raise UsageError(f"grid end must be finite, got {end}")
    h = (z1 - z0) / (steps - 1)
    if math.isinf(h):  # z1 - z0 overflows: weigh the ends instead
        w0, w1 = z0 / (steps - 1), z1 / (steps - 1)
        return [w0 * (steps - 1 - i) + w1 * i for i in range(steps)]
    return [z0 + i * h for i in range(steps)]


def _checked_eps(eps):
    if not eps >= 0:  # nan too
        raise UsageError(f"--exclusion-eps must be >= 0, got {eps}")
    return eps


def _split_grid(f, grid, eps, **key):
    """The points of grid off f's singular lattice, and the excluded ones.

    A point within eps of the lattice becomes an excluded entry: key, then
    its z and the lattice kind.
    """
    lattice = singular_points(f)
    points, excluded = [], []
    for z in grid:
        if lattice.contains(z, eps):
            excluded.append({**key, "z": z, "reason": lattice.kind})
        else:
            points.append(z)
    return points, excluded


# ---------------------------------------------------------------------------
# rendering, shared by table, verify and verify --arbitrate

# columns printed with 17 significant digits and with 4; others print as str
_LONG_CELLS = frozenset(
    ("z", "value", "closed_value", "oracle_value", "value_a", "value_b")
)
_SHORT_CELLS = frozenset(("error_bound", "diff", "tol", "diff_a", "diff_b"))


def _spec(key):
    if key in _LONG_CELLS:
        return ".16e"
    if key in _SHORT_CELLS:
        return ".3e"
    return ""  # format(value, "") is str(value)


def _cell(key, value):
    return format(value, _spec(key))


def _excluded_line(item):
    return "excluded " + " ".join(f"{k}={_cell(k, v)}" for k, v in item.items())


def _render(fmt, columns, rows, notes_key, notes, note_line=_excluded_line):
    """Rows as csv, tsv or json.

    In json the notes go under notes_key next to the rows; in csv and tsv
    each note becomes a "# " line after them.
    """
    if fmt == "json":
        return json.dumps(
            {"rows": rows, notes_key: notes},
            sort_keys=True,
            separators=(",", ":"),
        )
    sep = "\t" if fmt == "tsv" else ","
    # one printf-style template a row, each cell as _cell writes it: "%s"
    # is str, as format(value, "") is
    template = sep.join(f"%({k}){_spec(k) or 's'}" for k in columns)
    lines = [sep.join(columns)]
    lines.extend(template % row for row in rows)
    lines.extend(f"# {note_line(note)}" for note in notes)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# simple subcommands


def _cmd_eval(args):
    f = SumFamily.from_code(args.family, args.n)
    r = eval_family(f, args.z)
    print(f"{r.value:.16e} path={r.path} error_bound={r.error_bound:.3e}")
    return 0


_TABLE_COLUMNS = ("z", "value", "path", "error_bound")


def _cmd_table(args):
    f = SumFamily.from_code(args.family, args.n)
    eps = _checked_eps(args.exclusion_eps)
    points, excluded = _split_grid(f, _linspace(args.z0, args.z1, args.steps), eps)
    rows = []
    for z in points:
        r = eval_family(f, z)
        rows.append(
            {"z": z, "value": r.value, "path": r.path, "error_bound": r.error_bound}
        )
    print(_render(args.format, _TABLE_COLUMNS, rows, "excluded", excluded))
    return 0


def _latex_polynomial(row):
    parts = []
    for i, c in enumerate(row):
        sign = "-" if c < 0 else "+"
        num, den = abs(c.numerator), c.denominator
        mag = f"\\frac{{{num}}}{{{den}}}" if den != 1 else f"{num}"
        if i > 0 and num == 1 and den == 1:
            mag = ""
        term = mag if i == 0 else f"{mag}\\langle z\\rangle^{{{2 * i}}}"
        if not parts:
            parts.append(term if sign == "+" else f"-{term}")
        else:
            parts.append(f"{sign} {term}")
    return " ".join(parts)


def _cmd_coeffs(args):
    if args.bernoulli is not None:
        b = bernoulli(args.bernoulli)
        print(f"{b.numerator}/{b.denominator}")
        return 0
    if args.n is None:
        raise UsageError("coeffs needs an order n or --bernoulli")
    if args.n < 1:
        raise UsageError(f"coefficient tables start at order 1, got {args.n}")
    row = c_table(args.n)
    if args.latex:
        print(_latex_polynomial(row))
        return 0
    for i, c in enumerate(row):
        print(f"{args.n},{i},{c.numerator},{c.denominator}")
    return 0


def _cmd_polylog(args):
    point = UnitCirclePoint.from_theta(args.theta)
    v = li_on_circle(args.a, point)
    print(f"{v.real_part:.16e} {v.imag_part:.16e} {v.error_bound:.16e}")
    return 0


def _cmd_oracle(args):
    f = SumFamily.from_code(args.family, args.n)
    report = oracle_eval(f, args.z, args.tol)
    print(
        f"{report.value:.16e} {report.terms_used} "
        f"{report.tail_bound:.3e} {report.mode}"
    )
    return 0


# ---------------------------------------------------------------------------
# verify


def _parse_families(text):
    if not text:
        return list(FAMILY_CODES)
    codes = [c.strip() for c in text.split(",") if c.strip()]
    for c in codes:
        if c not in FAMILY_CODES:
            raise UsageError(
                f"unknown family code {c!r}; expected one of {', '.join(FAMILY_CODES)}"
            )
    if not codes:
        raise UsageError("--families must name at least one family")
    return codes


def _parse_orders(text):
    raw = text.split("..", 1) if ".." in text else (text, text)
    try:
        lo, hi = int(raw[0]), int(raw[1])
    except ValueError:
        raise UsageError(f"--orders must look like 0..3 or 2, got {text!r}") from None
    if lo < 0 or hi < lo:
        raise UsageError(f"--orders needs 0 <= lo <= hi, got {text!r}")
    if hi > 60:
        raise UsageError(f"--orders above 60 is not useful, got {text!r}")
    return range(lo, hi + 1)


def _verify_point(f, z, tol):
    closed = eval_family(f, z)
    report = oracle_eval(f, z, tol, strict=False)
    allowed = max(tol, report.tail_bound + closed.error_bound)
    diff = abs(closed.value - report.value)
    return {
        "family": f.code,
        "order": f.order,
        "z": z,
        "closed_value": closed.value,
        "oracle_value": report.value,
        "diff": diff,
        "tol": allowed,
        "verdict": "PASS" if diff <= allowed else "FAIL",
    }


_VERIFY_COLUMNS = (
    "family",
    "order",
    "z",
    "closed_value",
    "oracle_value",
    "diff",
    "tol",
    "verdict",
)


def _emit_report(text, failed, total, report_path):
    """Print text, or write it to report_path, then the PASS or FAIL line.

    Returns the exit code: 0 when nothing failed, 2 otherwise.
    """
    summary = f"FAIL {failed}/{total}" if failed else f"PASS {total}/{total}"
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n" + summary + "\n")
    else:
        print(text)
    print(summary)
    return 2 if failed else 0


# the options that shape verify's grid run, all None unless given: the
# arbitration suites carry their own families, points and tolerances
_GRID_RUN_OPTIONS = ("families", "orders", "grid", "tol", "exclusion_eps")


def _cmd_verify(args):
    tol = 1e-8 if args.tol is None else args.tol
    if not 1e-10 <= tol < math.inf:  # nan too
        raise UsageError(f"--tol must be finite and >= 1e-10, got {tol}")
    eps = _checked_eps(1e-3 if args.exclusion_eps is None else args.exclusion_eps)
    if args.arbitrate:
        given = [k for k in _GRID_RUN_OPTIONS if getattr(args, k) is not None]
        if given:
            names = ", ".join("--" + k.replace("_", "-") for k in given)
            raise UsageError(f"--arbitrate runs its own suites and takes no {names}")
        return _cmd_arbitrate(args)
    codes = _parse_families(args.families)
    orders = _parse_orders(args.orders or "0..3")
    z0, z1, steps = args.grid or (-1.3, 2.7, 41.0)
    if not steps.is_integer():  # nan and inf too
        raise UsageError(f"grid step count must be an integer, got {steps}")
    # a count past 2^53 stays a float, which _linspace refuses as given
    # (1e+300), not as the hundreds of digits of its integer value
    grid = _linspace(z0, z1, int(steps) if steps < 2**53 else steps)
    rows, excluded = [], []
    for code in codes:
        for n in orders:
            f = SumFamily.from_code(code, n)
            if not is_supported(f):
                continue
            points, skipped = _split_grid(f, grid, eps, family=code, order=n)
            excluded.extend(skipped)
            rows.extend(_verify_point(f, z, tol) for z in points)
    failed = sum(1 for r in rows if r["verdict"] == "FAIL")
    text = _render(args.format, _VERIFY_COLUMNS, rows, "excluded", excluded)
    return _emit_report(text, failed, len(rows), args.report)


# ---------------------------------------------------------------------------
# arbitration suites: competing closed forms judged by the series oracle


def _as_printed_sine(n, z):
    """The odd sine family as its general formula is printed."""
    return float(eval_poly(sin_poly_variant(n), Fraction(z)))


def _doubled_argument_cosine(n, z):
    """bCp at order 1 through the doubled-argument quarter-shift route."""
    zq, s1 = Fraction(z), poly_S(1)
    return float(eval_poly(s1, zq - Fraction(1, 4)) - eval_poly(s1, 2 * zq) / 8)


def _quartic_difference(n, z):
    """bSp at order 2 as the explicit quartic difference."""
    wp = centered(Fraction(z) + Fraction(1, 4))
    wm = centered(Fraction(z) - Fraction(1, 4))
    half = Fraction(1, 2)
    return float((wp**2 * (half - wp**2) - wm**2 * (half - wm**2)) / 6)


def _principal_arctan(n, z):
    """P at order 0 through the principal-branch arctan."""
    w = cmath.exp(1j * math.pi * z)
    return -(w * cmath.atan(1.0 / w)).imag / math.pi


# Candidate A is always the family's own closed form; candidate B(n, z) is
# the competing formula, judged on 16 points of [-edge, edge].
_SUITES = (
    # name, family, orders, candidate B, edge, expected winner
    ("sine-polynomial-display", "S", (1, 2, 3, 4), _as_printed_sine, 0.75, "a"),
    ("quarter-shift-odd-cosine", "bCp", (1,), _doubled_argument_cosine, 0.7, "both"),
    ("quarter-shift-odd-sine", "bSp", (2,), _quartic_difference, 0.7, "both"),
    ("modified-sine-arctan", "P", (0,), _principal_arctan, 0.7, "both"),
)

_ARBITRATE_COLUMNS = ("suite", "family", "order") + tuple(
    field.name for field in dataclasses.fields(ArbitrationRow)
)


def _cmd_arbitrate(args):
    rows, lines, failed = [], [], 0
    for name, code, orders, claim_b, edge, expected in _SUITES:
        grid = _linspace(-edge, edge, 16)
        for n in orders:
            f = SumFamily.from_code(code, n)
            report = arbitrate(
                lambda z: eval_family(f, z).value, lambda z: claim_b(n, z), f, grid
            )
            rows.extend(
                {"suite": name, "family": code, "order": n, **dataclasses.asdict(r)}
                for r in report.rows
            )
            failed += report.winner != expected
            total = len(report.rows)
            lines.append(
                f"arbitrate {name} {code} n={n}: "
                f"candidate A {report.a_pass}/{total}, candidate B {report.b_pass}/{total}, "
                f"winner={report.winner} expected={expected}"
            )
    text = _render(args.format, _ARBITRATE_COLUMNS, rows, "suites", lines, note_line=str)
    return _emit_report(text, failed, len(lines), args.report)


# ---------------------------------------------------------------------------
# parser and entry point


def _build_parser():
    parser = ThrowingParser(
        prog="englert-sums",
        description="Closed forms, series oracles and cross-checks for the "
        "generalized Fourier family catalogue.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("eval", help="closed-form value at z")
    p.add_argument("family", choices=FAMILY_CODES)
    p.add_argument("n", type=int)
    p.add_argument("z", type=float)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("table", help="closed-form values on a grid")
    p.add_argument("family", choices=FAMILY_CODES)
    p.add_argument("n", type=int)
    p.add_argument("z0", type=float)
    p.add_argument("z1", type=float)
    p.add_argument("steps", type=int)
    p.add_argument("--format", choices=_FORMATS, default="csv")
    p.add_argument("--exclusion-eps", type=float, default=1e-3)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("coeffs", help="exact polynomial coefficient rows")
    p.add_argument("n", type=int, nargs="?")
    p.add_argument("--latex", action="store_true")
    p.add_argument("--bernoulli", type=int, metavar="R")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("polylog", help="Li_a on the unit circle at angle theta")
    p.add_argument("a", type=int)
    p.add_argument("theta", type=float)
    p.set_defaults(func=_cmd_polylog)

    p = sub.add_parser("oracle", help="brute-force series value at z")
    p.add_argument("family", choices=FAMILY_CODES)
    p.add_argument("n", type=int)
    p.add_argument("z", type=float)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="closed forms against the series oracle")
    # None unless given (see _GRID_RUN_OPTIONS); _cmd_verify applies the defaults
    p.add_argument("--families")
    p.add_argument("--orders")
    p.add_argument("--grid", nargs=3, type=float, metavar=("Z0", "Z1", "STEPS"))
    p.add_argument("--tol", type=float)
    p.add_argument("--exclusion-eps", type=float)
    p.add_argument("--format", choices=_FORMATS, default="csv")
    p.add_argument("--report")
    p.add_argument(
        "--arbitrate",
        action="store_true",
        help="run the built-in arbitration suites instead of the grid; they "
        "fix their own families, orders, points and tolerances, so "
        "--families, --orders, --grid, --tol and --exclusion-eps are usage "
        "errors here",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None):
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise UsageError("a subcommand is required (see --help)")
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if code else 0
    except (UsageError, DomainError) as exc:
        print(f"E1: {exc}", file=sys.stderr)
        return 1
    except (EnglertSumsError, OSError) as exc:
        print(f"E3: {exc}", file=sys.stderr)
        return 3


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
