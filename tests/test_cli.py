"""Command-line interface: formats, exit codes, determinism."""

import json
import math

import pytest

from englert_sums import cli

CATALAN = 0.91596559417721901505


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_prints_value_path_and_bound(capsys):
    code, out, err = run(capsys, "eval", "C", "1", "0.25")
    assert code == 0 and err == ""
    assert out.startswith("-2.0833333333333332e-02 ")
    assert "path=polynomial" in out
    assert "error_bound=" in out
    assert out.endswith("\n")


def test_eval_output_is_deterministic(capsys):
    a = run(capsys, "eval", "bS", "1", "0.37")
    b = run(capsys, "eval", "bS", "1", "0.37")
    assert a == b


def test_eval_17_significant_digits(capsys):
    _, out, _ = run(capsys, "eval", "S", "1", "0.3")
    mantissa = out.split()[0].split("e")[0].lstrip("-")
    assert len(mantissa.replace(".", "")) == 17
    assert float(out.split()[0]) == pytest.approx(-0.032, abs=1e-15)


def test_coeffs_rows(capsys):
    code, out, err = run(capsys, "coeffs", "3")
    assert code == 0
    assert out == "3,0,-31,30240\n3,1,7,360\n3,2,-1,18\n3,3,2,45\n"


def test_coeffs_bernoulli(capsys):
    code, out, _ = run(capsys, "coeffs", "--bernoulli", "8")
    assert code == 0
    assert out == "-1/30\n"


def test_coeffs_order_zero_is_a_usage_error(capsys):
    code, out, err = run(capsys, "coeffs", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("E1:")


@pytest.mark.parametrize(
    "argv,marker",
    [
        (("eval", "Q", "0", "0.3"), "E3:"),
        (("eval", "tSp", "0", "1.0"), "pole"),
        (("eval", "S", "0", "0.5"), "jump"),
    ],
)
def test_eval_unsupported_or_singular_is_exit_3(capsys, argv, marker):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("E3:")
    assert marker in err


def test_eval_bs0_at_huge_z_is_exit_0(capsys):
    code, out, err = run(capsys, "eval", "bS", "0", "1e308")
    assert code == 0
    assert err == ""
    assert "path=elementary" in out


def test_unknown_family_is_exit_1(capsys):
    code, _, err = run(capsys, "eval", "Zz", "1", "0.3")
    assert code == 1
    assert err.startswith("E1:")


def test_no_subcommand_is_exit_1(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert err.startswith("E1:")


def test_table_excludes_lattice_points(capsys):
    code, out, _ = run(capsys, "table", "S", "0", "0", "1", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "z,value,path,error_bound"
    assert len(lines) == 6
    assert lines[-1] == "# excluded z=5.0000000000000000e-01 reason=jump"
    values = [float(l.split(",")[1]) for l in lines[1:5]]
    assert values == pytest.approx([0.0, -0.25, 0.25, 0.0], abs=1e-15)


def test_table_json_format(capsys):
    code, out, _ = run(capsys, "table", "S", "0", "0", "1", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 4
    assert doc["excluded"] == [{"z": 0.5, "reason": "jump"}]
    assert set(doc["rows"][0]) == {"z", "value", "path", "error_bound"}
    assert doc["rows"][1]["value"] == -0.25


def test_table_tsv_format(capsys):
    code, out, _ = run(capsys, "table", "S", "0", "0", "1", "5", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[0] == "z\tvalue\tpath\terror_bound"


TABLE_S0_ROWS = (
    ("0.0000000000000000e+00", "0.0000000000000000e+00", "polynomial", "2.300e-16"),
    ("2.5000000000000000e-01", "-2.5000000000000000e-01", "polynomial", "2.875e-16"),
    ("7.5000000000000000e-01", "2.5000000000000000e-01", "polynomial", "2.875e-16"),
    ("1.0000000000000000e+00", "0.0000000000000000e+00", "polynomial", "2.300e-16"),
)
TABLE_S0_JSON = (
    '{"excluded":[{"reason":"jump","z":0.5}],"rows":['
    '{"error_bound":2.3e-16,"path":"polynomial","value":0.0,"z":0.0},'
    '{"error_bound":2.875e-16,"path":"polynomial","value":-0.25,"z":0.25},'
    '{"error_bound":2.875e-16,"path":"polynomial","value":0.25,"z":0.75},'
    '{"error_bound":2.3e-16,"path":"polynomial","value":0.0,"z":1.0}]}\n'
)


@pytest.mark.parametrize("fmt", ["csv", "tsv", "json"])
def test_table_output_bytes(capsys, fmt):
    # exact values and one jump exclusion, byte for byte in each format
    code, out, err = run(capsys, "table", "S", "0", "0", "1", "5", "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "json":
        assert out == TABLE_S0_JSON
        return
    sep = "\t" if fmt == "tsv" else ","
    lines = [sep.join(("z", "value", "path", "error_bound"))]
    lines += [sep.join(row) for row in TABLE_S0_ROWS]
    lines.append("# excluded z=5.0000000000000000e-01 reason=jump")
    assert out == "\n".join(lines) + "\n"


VERIFY_COLUMNS = ("family", "order", "z", "closed_value", "oracle_value", "diff", "tol", "verdict")
ARBITRATE_COLUMNS = (
    "suite", "family", "order", "z", "value_a", "value_b", "oracle_value",
    "diff_a", "diff_b", "a_ok", "b_ok",
)


@pytest.mark.parametrize("fmt", ["csv", "tsv", "json"])
def test_verify_layout_in_every_format(capsys, fmt):
    code, out, err = run(
        capsys,
        "verify", "--families", "S,tC", "--orders", "0..1",
        "--grid", "-0.5", "0.5", "5", "--format", fmt,
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "PASS 17/17"
    if fmt == "json":
        assert len(lines) == 2
        doc = json.loads(lines[0])
        assert set(doc) == {"rows", "excluded"}
        assert len(doc["rows"]) == 17
        assert all(set(r) == set(VERIFY_COLUMNS) for r in doc["rows"])
        assert doc["excluded"] == [
            {"family": "S", "order": 0, "reason": "jump", "z": -0.5},
            {"family": "S", "order": 0, "reason": "jump", "z": 0.5},
            {"family": "tC", "order": 0, "reason": "divergent", "z": 0.0},
        ]
        return
    sep = "\t" if fmt == "tsv" else ","
    assert lines[0] == sep.join(VERIFY_COLUMNS)
    assert all(len(l.split(sep)) == 8 and l.endswith("PASS") for l in lines[1:18])
    assert lines[18:-1] == [
        "# excluded family=S order=0 z=-5.0000000000000000e-01 reason=jump",
        "# excluded family=S order=0 z=5.0000000000000000e-01 reason=jump",
        "# excluded family=tC order=0 z=0.0000000000000000e+00 reason=divergent",
    ]


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_verify_arbitrate_layout(capsys, fmt):
    # csv is checked by test_verify_arbitrate_suites
    code, out, err = run(capsys, "verify", "--arbitrate", "--format", fmt)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "PASS 7/7"
    if fmt == "json":
        assert len(lines) == 2
        doc = json.loads(lines[0])
        assert set(doc) == {"rows", "suites"}
        assert len(doc["rows"]) == 7 * 16
        assert all(set(r) == set(ARBITRATE_COLUMNS) for r in doc["rows"])
        suites = doc["suites"]
    else:
        assert lines[0] == "\t".join(ARBITRATE_COLUMNS)
        assert all(len(l.split("\t")) == 11 for l in lines[1:113])
        assert all(l.startswith("# ") for l in lines[113:-1])
        suites = [l[2:] for l in lines[113:-1]]
    assert suites[0] == (
        "arbitrate sine-polynomial-display S n=1: "
        "candidate A 16/16, candidate B 0/16, winner=a expected=a"
    )
    assert len(suites) == 7


def test_polylog_at_quarter_circle(capsys):
    code, out, _ = run(capsys, "polylog", "2", str(math.pi / 2.0))
    assert code == 0
    re, im, bound = (float(x) for x in out.split())
    assert re == pytest.approx(-math.pi**2 / 48.0, abs=1e-12)
    assert im == pytest.approx(CATALAN, abs=1e-12)
    assert 0.0 <= bound < 1e-12


def test_polylog_at_the_smallest_angle(capsys):
    # theta/2pi underflows; the point keeps exact turns and Li_1 is finite
    code, out, err = run(capsys, "polylog", "1", "5e-324")
    assert code == 0 and err == ""
    re, im, bound = (float(x) for x in out.split())
    # -log(5e-324) = 1074 log 2
    assert abs(re - 1074 * math.log(2.0)) <= bound < 1e-12
    assert im == math.pi / 2.0


def test_oracle_subcommand(capsys):
    code, out, _ = run(capsys, "oracle", "S", "1", "0.3")
    assert code == 0
    parts = out.split()
    assert len(parts) == 4
    assert float(parts[0]) == pytest.approx(-0.032, abs=1e-8)
    assert int(parts[1]) > 0
    assert parts[3] == "absolute"


def test_verify_small_grid_passes(capsys):
    code, out, err = run(
        capsys,
        "verify", "--families", "S,C", "--orders", "1..2",
        "--grid", "-0.4", "0.4", "5", "--tol", "1e-8",
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "family,order,z,closed_value,oracle_value,diff,tol,verdict"
    assert lines[-1] == "PASS 20/20"
    assert len(lines) == 22
    assert all(l.endswith("PASS") for l in lines[1:-1])


def test_verify_is_deterministic(capsys):
    argv = ("verify", "--families", "bS", "--orders", "1..1", "--grid", "-0.3", "0.3", "4")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_verify_report_file(capsys, tmp_path):
    report = tmp_path / "report.csv"
    code, out, _ = run(
        capsys,
        "verify", "--families", "S", "--orders", "1..1",
        "--grid", "-0.4", "0.4", "4", "--report", str(report),
    )
    assert code == 0
    assert out == "PASS 4/4\n"
    text = report.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("family,order,z,")
    assert len([l for l in lines if l.endswith("PASS")]) == 4


def test_verify_report_into_a_directory_is_exit_3(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "verify", "--families", "S", "--orders", "1..1",
        "--grid", "-0.4", "0.4", "4", "--report", str(tmp_path),
    )
    assert code == 3
    assert out == ""
    assert err.startswith("E3:")


@pytest.mark.parametrize(
    "argv,reference",
    [
        (("eval", "Sp", "1", "-1e-3"), ("eval", "Sp", "1", "-0.001")),
        (("eval", "Sp", "1", "-1e-3"), ("eval", "Sp", "1", "--", "-1e-3")),
        (("polylog", "1", "-1e10"), ("polylog", "1", "--", "-1e10")),
        (("polylog", "2", "-2.5E+1"), ("polylog", "2", "-25")),
        (("table", "S", "1", "-1e-1", "1e-1", "3"), ("table", "S", "1", "-0.1", "0.1", "3")),
        (("verify", "--grid", "-1e-1", "0.1", "3"), ("verify", "--grid", "-0.1", "0.1", "3")),
        (("polylog", "2", "-1_000"), ("polylog", "2", "--", "-1_000")),
        (("polylog", "2", "-1_000"), ("polylog", "2", "-1000")),
        (("eval", "Sp", "1", "-.1_5E-0_1"), ("eval", "Sp", "1", "-0.015")),
    ],
)
def test_negative_numbers_with_an_exponent_are_values(capsys, argv, reference):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == run(capsys, *reference)
    assert code == 0 and err == "" and out


@pytest.mark.parametrize(
    "argv,err",
    [
        (("eval", "Sp", "1", "-inf"), "E1: z must be finite, got -inf\n"),
        (("eval", "Sp", "1", "-nan"), "E1: z must be finite, got nan\n"),
        (("oracle", "S", "1", "-Infinity"), "E1: z must be finite, got -inf\n"),
        (("polylog", "2", "-Infinity"), "E1: theta must be a finite number, got -inf\n"),
        (("polylog", "2", "-INF"), "E1: theta must be a finite number, got -inf\n"),
    ],
)
def test_negative_non_finite_literals_are_values(capsys, argv, err):
    # the same error as the "--" form gives, not a missing argument
    dashed = argv[:-1] + ("--", argv[-1])
    assert run(capsys, *argv) == run(capsys, *dashed) == (1, "", err)


@pytest.mark.parametrize("eps,shown", [("-1", "-1.0"), ("nan", "nan")])
@pytest.mark.parametrize(
    "argv",
    [
        ("table", "S", "0", "-1", "1", "5"),
        ("verify",),
        ("verify", "--arbitrate"),
    ],
)
def test_bad_exclusion_eps_is_a_usage_error(capsys, argv, eps, shown):
    code, out, err = run(capsys, *argv, "--exclusion-eps", eps)
    assert (code, out, err) == (1, "", f"E1: --exclusion-eps must be >= 0, got {shown}\n")


def test_verify_usage_errors(capsys):
    for argv in (
        ("verify", "--families", "NOPE", "--orders", "1..1", "--grid", "0", "1", "3"),
        ("verify", "--families", "S", "--orders", "x", "--grid", "0", "1", "3"),
        ("verify", "--families", "S", "--orders", "1,2", "--grid", "0", "1", "3"),
        ("verify", "--families", "S", "--orders", "1", "--grid", "0", "1", "2.5"),
        ("verify", "--families", "S", "--orders", "1", "--grid", "0", "1", "nan"),
        ("verify", "--families", "S", "--orders", "1", "--grid", "0", "1", "inf"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("E1:")


def test_verify_default_grid(capsys):
    # 41 points from -1.3 to 2.7; S n=0 drops its four jumps
    code, out, err = run(capsys, "verify", "--families", "S", "--orders", "0..1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[1].startswith("S,0,-1.3000000000000000e+00,")
    assert sum(l.startswith("# excluded family=S order=0") for l in lines) == 4
    assert lines[-1] == "PASS 78/78"


def test_verify_failure_is_exit_2(capsys, monkeypatch):
    def broken(f, z, tol):
        return {
            "family": f.code, "order": f.order, "z": z,
            "closed_value": 0.0, "oracle_value": 1.0,
            "diff": 1.0, "tol": tol, "verdict": "FAIL",
        }

    monkeypatch.setattr(cli, "_verify_point", broken)
    code, out, _ = run(
        capsys,
        "verify", "--families", "S", "--orders", "1..1", "--grid", "-0.4", "0.4", "3",
    )
    assert code == 2
    assert out.splitlines()[-1].startswith("FAIL")


def test_verify_arbitrate_suites(capsys, tmp_path):
    report = tmp_path / "arb.csv"
    code, out, _ = run(capsys, "verify", "--arbitrate", "--report", str(report))
    assert code == 0
    assert out == "PASS 7/7\n"
    text = report.read_text()
    assert text.splitlines()[0] == ",".join(ARBITRATE_COLUMNS)
    assert text.splitlines()[-1] == "PASS 7/7"
    display_lines = [
        l for l in text.splitlines()
        if l.startswith("# arbitrate sine-polynomial-display")
    ]
    assert len(display_lines) == 4
    for line in display_lines:
        assert "candidate A 16/16, candidate B 0/16" in line
        assert "winner=a expected=a" in line
    assert text.count("winner=both expected=both") == 3


def test_verify_arbitrate_failure_is_exit_2(capsys, monkeypatch):
    real = cli.arbitrate

    def skewed(claim_a, claim_b, f, grid):
        # the arctan candidate now misses every point, so that suite's
        # winner is a where both is expected
        if f.code == "P":
            return real(claim_a, lambda z: claim_b(z) + 1e-3, f, grid)
        return real(claim_a, claim_b, f, grid)

    monkeypatch.setattr(cli, "arbitrate", skewed)
    code, out, err = run(capsys, "verify", "--arbitrate")
    assert code == 2 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "FAIL 1/7"
    assert lines[-2] == (
        "# arbitrate modified-sine-arctan P n=0: candidate A 16/16, "
        "candidate B 0/16, winner=a expected=both"
    )
    assert out.count("expected=both") == 3


@pytest.mark.parametrize(
    "argv,end",
    [
        (("table", "S", "1", "-inf", "0", "3"), "-inf"),
        (("table", "S", "1", "0", "inf", "3"), "inf"),
        (("table", "S", "1", "nan", "0", "3"), "nan"),
        (("verify", "--families", "S", "--orders", "1", "--grid", "-inf", "0", "3"), "-inf"),
        (("verify", "--families", "S", "--orders", "1", "--grid", "0", "nan", "3"), "nan"),
    ],
)
def test_non_finite_grid_ends_are_usage_errors(capsys, argv, end):
    assert run(capsys, *argv) == (1, "", f"E1: grid end must be finite, got {end}\n")


def test_a_grid_span_past_the_float_range_keeps_its_ends(capsys):
    code, out, err = run(capsys, "table", "S", "1", "-1e308", "1e308", "3")
    assert code == 0 and err == ""
    zs = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert zs == [-1e308, 0.0, 1e308]


@pytest.mark.parametrize(
    "argv,steps",
    [
        (("table", "S", "1", "0", "1", "1000001"), 1000001),
        (("table", "S", "1", "0", "1", "10000000000"), 10**10),
        (("verify", "--families", "S", "--orders", "1", "--grid", "0", "1", "1e300"), "1e+300"),
    ],
)
def test_grids_above_a_million_steps_are_usage_errors(capsys, argv, steps):
    # the grid is a list built up front: such a run would only exhaust memory
    err = f"E1: grid takes at most 1000000 steps, got {steps}\n"
    assert run(capsys, *argv) == (1, "", err)


def test_a_grid_of_a_million_steps_is_built():
    grid = cli._linspace(0.0, 1.0, 10**6)
    assert len(grid) == 10**6 and grid[0] == 0.0 and abs(grid[-1] - 1.0) < 1e-15


@pytest.mark.parametrize("tol", ["nan", "inf", "1e-11", "-1"])
def test_verify_tol_must_be_finite_and_at_least_1e_10(capsys, tol):
    shown = str(float(tol))
    for argv in (("verify", "--tol", tol), ("verify", "--arbitrate", "--tol", tol)):
        assert run(capsys, *argv) == (
            1, "", f"E1: --tol must be finite and >= 1e-10, got {shown}\n"
        )


@pytest.mark.parametrize(
    "extra,names",
    [
        (("--families", "S"), "--families"),
        (("--orders", "1"), "--orders"),
        (("--grid", "0", "1", "3"), "--grid"),
        (("--tol", "1e-8"), "--tol"),
        (("--exclusion-eps", "1e-3"), "--exclusion-eps"),
        (("--families", "NOPE", "--grid", "0", "1", "nan"), "--families, --grid"),
    ],
)
def test_arbitrate_rejects_the_grid_options(capsys, extra, names):
    # the suites carry their own families, points and tolerances
    assert run(capsys, "verify", "--arbitrate", *extra) == (
        1, "", f"E1: --arbitrate runs its own suites and takes no {names}\n"
    )


def test_verify_defaults_match_the_explicit_options(capsys):
    argv = ("verify", "--families", "Sp,tC,P", "--grid", "-1.3", "2.7", "41.0")
    explicit = ("--orders", "0..3", "--tol", "1e-8", "--exclusion-eps", "1e-3")
    assert run(capsys, *argv) == run(capsys, *argv, *explicit)
