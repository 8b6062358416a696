import json
import subprocess
import sys

import pytest

from radial_mult.cli import main, parse_symbol
from radial_mult.symbols import (
    Finite,
    Geometric,
    Indicator,
    ParityTail,
    TruncatedGeometric,
    double,
    eigenvalue_lower_bound,
    tail_constant,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_symbol_shorthand():
    assert parse_symbol("geometric:0.5") == Geometric(0.5)
    assert parse_symbol("geometric:0.3+0.4i") == Geometric(0.3 + 0.4j)
    assert parse_symbol("indicator:3") == Indicator(3)
    assert parse_symbol("truncated-geometric:0.8,5") == TruncatedGeometric(0.8, 5)
    assert parse_symbol("constant:1") == Finite((), 1.0)
    assert parse_symbol('{"family":"indicator","n0":2}') == Indicator(2)


def test_norm_geometric(capsys):
    code, out, _ = run_cli(capsys, "norm", "-s", "geometric:0.5")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "radial-mult/1"
    assert abs(obj["report"]["total"] - 1.0) < 1e-8
    assert obj["report"]["converged"]
    assert obj["report"]["route"] == "vandermonde"
    assert obj["report"]["error_bound"] < 1e-15


def test_norm_indicator_bound(capsys):
    code, out, _ = run_cli(capsys, "norm", "-s", "indicator:3")
    assert code == 0
    assert json.loads(out)["report"]["total"] <= 12.0


def test_norm_cprime_flag(capsys):
    code, out, _ = run_cli(capsys, "norm", "-s", "geometric:0.5", "--cprime")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["cprime_report"]["total"] - 1.0) < 1e-8


def test_norm_divergent_data_exits_2(tmp_path, capsys):
    spec = {"family": "parity_tail", "values": [], "tail_even": [1, 0], "tail_odd": [0, 0]}
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli(capsys, "norm", "-s", f"@{path}")
    assert code == 2
    assert "mathematical failure" in err


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "norm", "-s", "nonsense:1")[0] == 1
    assert run_cli(capsys, "norm", "-s", "geometric:zzz")[0] == 1
    assert main([]) == 1


@pytest.mark.parametrize(
    "spec",
    [
        "geometric:nan",
        "constant:inf",
        '{"family":"from_measure","c":0,"measure":[{"s":[NaN,0],"w":[1,0]}]}',
    ],
)
def test_non_finite_symbol_exits_1(capsys, spec):
    code, out, err = run_cli(capsys, "norm", "-s", spec)
    assert code == 1
    assert out == ""
    assert err.startswith("radial-mult: error:")


@pytest.mark.parametrize(
    "spec",
    [
        '{"family":"doubled"}',
        '{"n0":3}',
        '{"family":"indicator","n0":null}',
        '{"family":"doubled","base":3}',
        "finite:[1]",
        '{"family":"indicator","n0":2.5}',
        '{"family":"indicator","n0":true}',
        '{"family":"indicator","n0":"2"}',
        '{"family":"indicator","n0":Infinity}',
        '{"family":"indicator","n0":1e400}',
        '{"family":"truncated_geometric","r":0.5,"n0":2.5}',
        '{"family":"truncated_geometric","r":0.5,"n0":false}',
        '{"family":"truncated_geometric","r":0.5,"n0":-Infinity}',
        '{"family":"truncated_geometric","r":"0.5","n0":3}',
        '{"family":"finite","values":[true],"tail":0}',
        '{"family":"geometric","s":["0.5",0]}',
        '{"family":"finite","values":[{"re":"1"}],"tail":false}',
        '{"family":"geometric","s":1' + "0" * 400 + "}",
    ],
)
def test_malformed_json_symbol_exits_1(capsys, spec):
    code, out, err = run_cli(capsys, "norm", "-s", spec)
    assert code == 1
    assert out == ""
    assert err.startswith("radial-mult: error:")


@pytest.mark.parametrize(
    "space",
    [
        '{"factors":[2.5,2],"max_len":3}',
        '{"factors":[true,2],"max_len":3}',
        '{"factors":"22","max_len":3}',
        '{"factors":[Infinity],"max_len":3}',
        '{"factors":[2,2],"max_len":2.5}',
        '{"factors":[2,2],"max_len":true}',
        '{"factors":[2,2],"max_len":Infinity}',
        '{"factors":[2,2],"max_len":1e400}',
    ],
)
def test_malformed_json_space_exits_1(capsys, space):
    code, out, err = run_cli(capsys, "cs-bound", "-s", "geometric:0.5", "--space", space)
    assert code == 1
    assert out == ""
    assert err.startswith("radial-mult: error:")


SPACE = '{"factors":[1,1],"max_len":3}'


@pytest.mark.parametrize(
    "command",
    [
        ("norm", "-s", "geometric:0.5"),
        ("fock-verify", "-s", "geometric:0.5", "--space", SPACE),
        ("cs-bound", "-s", "geometric:0.5", "--space", SPACE),
        ("integral-check", "--random-atoms", "3"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize(
    "tol",
    [("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"), ("--tol=-inf",)],
    ids=" ".join,
)
def test_bad_tolerance_exits_1(capsys, command, tol):
    code, out, err = run_cli(capsys, *command, *tol)
    assert code == 1
    assert out == ""
    assert err.startswith("radial-mult: error:") and "tol" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("norm", "-s", "indicator:100000"),
        ("integral-check", "-s", "truncgeom:0.5,5000"),
    ],
)
def test_support_height_cap_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("radial-mult: error:")


def test_fock_verify(capsys):
    code, out, _ = run_cli(
        capsys,
        "fock-verify",
        "-s",
        "geometric:0.5",
        "--space",
        '{"factors":[1,1],"max_len":5}',
        "--max-word",
        "2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["report"]["worst_residual"] < 1e-10


def test_fock_verify_past_the_plan_vectors(capsys):
    # Indicator(2)'s plan stores 4 entries; the space reaches length 40
    code, out, _ = run_cli(
        capsys,
        "fock-verify",
        "-s",
        "indicator:2",
        "--space",
        '{"factors":[1,1],"max_len":40}',
        "--max-word",
        "2",
    )
    assert code == 0
    assert json.loads(out)["report"]["worst_residual"] <= 1e-12


def test_fock_verify_guard_no_safe_domain(capsys):
    code, _, err = run_cli(
        capsys,
        "fock-verify",
        "-s",
        "geometric:0.5",
        "--space",
        '{"factors":[1,1],"max_len":1}',
        "--max-word",
        "2",
    )
    assert code == 1
    assert "no safe pairs" in err


def test_fock_verify_letter_map_cap_exits_1(capsys):
    code, out, err = run_cli(
        capsys,
        "fock-verify",
        "-s",
        "geometric:0.5",
        "--space",
        '{"factors":[100000],"max_len":1}',
        "--max-word",
        "1",
    )
    assert code == 1 and out == ""
    assert err.startswith("radial-mult: error:") and "letter maps" in err


def test_fock_verify_negative_max_word_exits_1(capsys):
    code, out, err = run_cli(
        capsys,
        "fock-verify",
        "-s",
        "geometric:0.5",
        "--space",
        '{"factors":[1,1],"max_len":3}',
        "--max-word",
        "-1",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("radial-mult: error:") and "max_word" in err


def test_cs_bound(capsys):
    code, out, _ = run_cli(
        capsys,
        "cs-bound",
        "-s",
        "geometric:-0.5",
        "--space",
        '{"factors":[1,1],"max_len":4}',
    )
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["plan_cb_bound"] - 3.0) < 1e-8
    assert abs(obj["eigenvalue_lower_bound"] - 1.0) < 1e-12
    assert obj["terms"]


@pytest.mark.parametrize(
    "symbol, space",
    [
        ("geometric:-0.5", '{"factors":[1,1],"max_len":4}'),
        ("indicator:6", '{"factors":[2,2],"max_len":3}'),
    ],
)
def test_cs_bound_terms_sum_to_plan_bound(capsys, symbol, space):
    # each term's bound is ||x|| ||y||, so with |c| they add up to plan_cb_bound
    code, out, _ = run_cli(capsys, "cs-bound", "-s", symbol, "--space", space)
    assert code == 0
    obj = json.loads(out)
    c = abs(tail_constant(parse_symbol(symbol)))
    assert abs(sum(t["bound"] for t in obj["terms"]) + c - obj["plan_cb_bound"]) < 1e-10
    _, csv_text, _ = run_cli(
        capsys, "cs-bound", "-s", symbol, "--space", space, "--format", "csv"
    )
    bounds = [float(line.split(",")[4]) for line in csv_text.strip().split("\n")[1:]]
    assert bounds == [t["bound"] for t in obj["terms"]]


def test_eigenvalue_lower_bound_scans_the_whole_support():
    # indices past 32 count for finite support, tails of both parities too
    assert eigenvalue_lower_bound(Indicator(40)) == 1.0
    assert eigenvalue_lower_bound(double(Indicator(40))) == 1.0
    assert eigenvalue_lower_bound(double(TruncatedGeometric(0.5, 30))) == 1.0
    assert eigenvalue_lower_bound(Finite((0.0,) * 50 + (-2.0,), 0.5)) == 2.0
    assert eigenvalue_lower_bound(ParityTail((0.0,) * 40, 0.5, -3.0)) == 3.0
    # measure symbols keep the n < 33 window, a valid lower bound
    assert eigenvalue_lower_bound(Geometric(-0.5)) == 1.0


def test_integral_check_measure_and_doubling(capsys):
    code, out, _ = run_cli(
        capsys,
        "integral-check",
        "--measure",
        '[{"s":[0.5,0],"w":[1,0]}]',
        "-s",
        "geometric:0.5",
    )
    assert code == 0
    obj = json.loads(out)
    names = {c["check"] for c in obj["checks"]}
    assert {"membership", "doubling", "headroom"} <= names
    assert all(c["holds"] for c in obj["checks"])


@pytest.mark.parametrize("measure", ["5", '"x"', "null", "true"])
def test_integral_check_non_object_measure_exits_1(capsys, measure):
    code, out, err = run_cli(capsys, "integral-check", "--measure", measure)
    assert code == 1
    assert out == ""
    assert err.startswith("radial-mult: error: bad measure spec")


def test_integral_check_random_atoms(capsys):
    code, out, _ = run_cli(
        capsys, "integral-check", "--random-atoms", "5", "--seed", "0"
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["holds"]


def test_reports_are_byte_stable(capsys):
    args = ("integral-check", "--random-atoms", "5", "--seed", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_out_file_and_csv_format(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys,
        "norm",
        "-s",
        "geometric:0.5",
        "--format",
        "csv",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "matrix,index,sigma"
    assert any(line.startswith("h,0,") for line in lines)


def test_fock_verify_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "fock-verify",
        "-s",
        "indicator:2",
        "--space",
        '{"factors":[2,2],"max_len":3}',
        "--max-word",
        "1",
        "--format",
        "csv",
    )
    assert code == 0
    assert out.startswith("xi,eta,case,k,l,expected_re,expected_im,residual")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "radial_mult.cli", "norm", "-s", "geometric:0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["total"] == pytest.approx(1.0)


def test_cli_import_loads_no_scipy():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, radial_mult.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_symbol_file_roundtrip(tmp_path, capsys):
    spec = {"family": "finite", "values": [[1, 0], [1, 0]], "tail": [1, 0]}
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, _ = run_cli(capsys, "norm", "-s", f"@{path}")
    assert code == 0
    assert abs(json.loads(out)["report"]["total"] - 1.0) < 1e-10
