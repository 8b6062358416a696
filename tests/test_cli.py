import cmath
import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radial_mult
from radial_mult import cli
from radial_mult.cli import main, parse_symbol
from radial_mult.hankel import cprime_norm
from radial_mult.integral import verify_doubling, verify_membership_bound
from radial_mult.multiplier import build_plan
from radial_mult.schema import to_obj
from radial_mult.symbols import (
    DEFAULT_TOL,
    DiscreteMeasure,
    Doubled,
    Finite,
    FromMeasure,
    Geometric,
    Indicator,
    ParityTail,
    TruncatedGeometric,
    double,
    eigenvalue_lower_bound,
    equality_allowance,
    evaluate,
    parity_tails,
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
        ("norm", "-s", "geometric:0.5", "--tol", "1e-3"),
        ("norm", "-s", "geometric:0.5", "--seed", "1"),
        ("fock-verify", "-s", "geometric:0.5", "--space", SPACE, "--seed", "1"),
        ("cs-bound", "-s", "geometric:0.5", "--space", SPACE, "--seed", "1"),
    ],
    ids=lambda argv: " ".join((argv[0], *argv[-2:])),
)
def test_unread_option_exits_1(capsys, argv):
    # norm judges nothing, so it takes no tolerance; only integral-check draws at random
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("radial-mult: error:") and "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv",
    [
        # an indicator's norm is in closed form at any height, its plan is not
        ("cs-bound", "-s", "indicator:100000", "--space", '{"factors":[1,1],"max_len":2}'),
        ("integral-check", "-s", "truncgeom:0.5,5000"),
    ],
)
def test_support_height_cap_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("radial-mult: error:")


def test_indicator_norm_past_support_height_cap(capsys):
    # the singular values of h and k sum to f(n0 + 1) and f(n0)
    f = lambda n: 2 * math.sin(n * math.pi / (4 * n + 2)) ** 2 / math.sin(math.pi / (4 * n + 2))
    code, out, _ = run_cli(capsys, "norm", "-s", "indicator:100000")
    report, expected = json.loads(out)["report"], f(100_001) + f(100_000)
    assert code == 0 and report["route"] == "support" and report["truncation"] == 100_001
    assert abs(report["total"] - expected) <= 1e-12 * expected


@pytest.mark.parametrize("command", ["norm", "integral-check"])
def test_geometric_past_atom_margin_exits_1(capsys, command):
    # every command takes the measure's atom margin for a geometric ratio
    code, out, err = run_cli(capsys, command, "-s", "geometric:0.9999999")
    assert code == 1
    assert out == ""
    assert err.startswith("radial-mult: error:")
    assert "too close to or outside the unit circle" in err


def test_integral_check_csv_has_one_row_per_theorem(capsys):
    argv = ("integral-check", "-s", "indicator:2", "--measure", '[{"s":[0.5,0],"w":[1,0]}]')
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check,left,right,holds"
    assert [line.split(",")[0] for line in lines[1:]] == ["membership", "doubling"]
    assert all(line.endswith(",True") for line in lines[1:])


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
    assert obj["kraus_residual"] <= 1e-14


BOUND_SPACE = '{"factors":[2,2,2],"max_len":6}'


@pytest.mark.parametrize(
    "symbol, space",
    [
        ("indicator:40", '{"factors":[2,2],"max_len":4}'),
        ("geometric:-0.7", '{"factors":[1,2],"max_len":6}'),
        ("truncgeom:0.95,400", BOUND_SPACE),
        ("geometric:0.9999", BOUND_SPACE),
    ],
)
def test_cs_bound_rows_are_the_vector_norms(capsys, symbol, space):
    # row and col are ||x||^2 and ||y||^2 to within one pairwise rounding;
    # the largest term's Kraus row sums check that they are the sums' norms
    code, out, _ = run_cli(capsys, "cs-bound", "-s", symbol, "--space", space)
    assert code == 0
    obj = json.loads(out)
    plan = build_plan(parse_symbol(symbol))
    decs = {"h": plan.decomposition_h, "k": plan.decomposition_k}
    for t in obj["terms"]:
        dec = decs[t["kind"]]
        for key, vec in (("row", dec.x[t["index"]]), ("col", dec.y[t["index"]])):
            exact = math.fsum(np.concatenate([vec.real, vec.imag]) ** 2)
            assert abs(t[key] - exact) <= 5e-16 * exact, (t, key)
    assert obj["kraus_residual"] <= 1e-14


def test_cs_bound_checks_the_kraus_identity_once_per_variant(capsys, monkeypatch):
    kraus_levels, calls = cli._kraus_levels, []

    def counted(space, vec, variant):
        calls.append(variant)
        return kraus_levels(space, vec, variant)

    monkeypatch.setattr(cli, "_kraus_levels", counted)
    code, _, _ = run_cli(capsys, "cs-bound", "-s", "truncgeom:0.95,400", "--space", BOUND_SPACE)
    assert code == 0
    # 801 terms, one Kraus sum for each side of the largest term per variant
    assert sorted(calls) == [1, 1, 2, 2]


def test_cs_bound_wrong_kraus_sum_exits_2(capsys, monkeypatch):
    kraus_levels = cli._kraus_levels

    def wrong(space, vec, variant):
        return 1.001 * kraus_levels(space, vec, variant)

    monkeypatch.setattr(cli, "_kraus_levels", wrong)
    code, out, _ = run_cli(capsys, "cs-bound", "-s", "geometric:-0.5", "--space", SPACE)
    assert code == 2
    assert abs(json.loads(out)["kraus_residual"] - 1e-3) < 1e-12


def test_fock_verify_judges_a_valid_tolerance(capsys, monkeypatch):
    # the worst residual is about 1.2e-16, within its rounding bound (3e-14)
    # at any tolerance; a residual 1e-12 past the bound fails at 1e-13 only
    argv = ("fock-verify", "-s", "geometric:-0.6+0.3i", "--space", '{"factors":[1,2],"max_len":5}')
    argv += ("--max-word", "3")
    code, out, _ = run_cli(capsys, *argv, "--tol", "1e-300")
    assert code == 0
    report = json.loads(out)["report"]
    assert 0.0 < report["worst_residual"] <= report["rounding_bound"] <= 1e-13
    verify = cli.verify_eigenaction

    def off(*args):
        got = verify(*args)
        return replace(got, worst_residual=got.rounding_bound + 1e-12)

    monkeypatch.setattr(cli, "verify_eigenaction", off)
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv, "--tol", "1e-13")[0] == 2


def test_space_longer_than_the_level_cap_exits_1_at_once(capsys):
    # one factor gives no word past length 1, so only the level count is large
    start = time.perf_counter()
    space = '{"factors":[3],"max_len":1000000000}'
    code, out, err = run_cli(capsys, "cs-bound", "-s", "geometric:0.5", "--space", space)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("radial-mult: error:") and "200000 levels" in err


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
    assert eigenvalue_lower_bound(Geometric(-0.5)) == 1.0


@pytest.mark.parametrize(
    "sym",
    [
        # the sup is the limit c, which no index attains
        FromMeasure(1.0, DiscreteMeasure(((0.99, -1.0),))),
        Doubled(FromMeasure(1.0, DiscreteMeasure(((0.95, -1.5),)))),
        # the sup is attained at n = 0
        FromMeasure(0.3, DiscreteMeasure(((0.9j, 2.0), (-0.5, 1.0)))),
        Geometric(0.9999),
        # the sup is attained near n = 21, where the rotating atom lines up with c
        FromMeasure(0.5, DiscreteMeasure(((0.99 * cmath.exp(0.3j), 0.2), (0.5, -0.1)))),
    ],
)
def test_eigenvalue_lower_bound_is_the_sup_for_measures(sym):
    even, odd = parity_tails(sym)
    brute = max([abs(even), abs(odd)] + [abs(evaluate(sym, n)) for n in range(5000)])
    assert abs(eigenvalue_lower_bound(sym) - brute) <= 1e-14 * brute


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
    assert [c["check"] for c in obj["checks"]] == ["membership", "doubling"]
    assert all(c["holds"] for c in obj["checks"])


@pytest.mark.parametrize(
    "args",
    [
        ("-s", "geometric:0.999998i"),
        ("-s", "geometric:-0.999998"),
        ("--measure", '[{"s":[0,0.999998],"w":[1,0]}]'),
    ],
)
def test_integral_check_identities_near_unit_circle_hold(capsys, args):
    # equality cases whose two sides differ only by rounding
    code, out, _ = run_cli(capsys, "integral-check", *args)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert all(c["holds"] for c in checks)
    assert all(c["rounding_bound"] > 0 for c in checks)


# --- verdicts at scale, and on a valid symbol the class still holds ---------

CLOSE_ATOMS = '{"family":"from_measure","c":0,"measure":[{"s":[0.5,0],"w":[1,0]},{"s":[0.5001,0],"w":[-1,0]}]}'
PARITY_TAIL = 'parity_tail:{"values":[1,[0,2],3],"tail_even":1,"tail_odd":-1}'


def test_integral_check_judges_only_its_theorems(capsys):
    # distinct atoms give a unique representation; their mass (2.0) far
    # exceeds the norm (7.2e-4), and that breaks no theorem
    code, out, _ = run_cli(capsys, "integral-check", "-s", CLOSE_ATOMS)
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["check"] == "doubling" and check["holds"]
    assert abs(check["left"] - check["right"]) <= 1e-15


def test_cs_bound_forgives_rounding_at_scale(capsys):
    # one real positive atom: plan_cb_bound equals sup |phi| = w, and rounds one ulp below it
    sym = '{"family":"from_measure","c":0,"measure":[{"s":[0.4346471881870116,0],"w":[92515726.36262478,0]}]}'
    code, out, _ = run_cli(capsys, "cs-bound", "-s", sym, "--space", SPACE)
    assert code == 0
    obj = json.loads(out)
    gap = obj["eigenvalue_lower_bound"] - obj["plan_cb_bound"]
    assert 0 < gap <= obj["rounding_bound"] <= 1e-5
    # the one allowance of a rule met with equality, as for the membership bound
    sides = obj["eigenvalue_lower_bound"], obj["plan_cb_bound"]
    assert obj["rounding_bound"] == equality_allowance(*sides)


def test_library_tolerance_defaults_are_the_cli_default():
    # one default tolerance, read by --tol and by the library checks
    cli_default = cli.build_parser().parse_args(["integral-check", "-s", "indicator:1"]).tol
    assert cli_default == DEFAULT_TOL == 1e-10
    for check in (verify_membership_bound, verify_doubling):
        assert inspect.signature(check).parameters["tol"].default == cli_default


def test_fock_verify_forgives_rounding_at_scale(capsys):
    sym = '{"family":"from_measure","c":0,"measure":[{"s":[0.5,0.3],"w":[1e8,0]}]}'
    argv = ("fock-verify", "-s", sym, "--space", '{"factors":[1,1],"max_len":4}', "--max-word", "2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out)["report"]
    assert 1e-10 < report["worst_residual"] <= report["rounding_bound"] <= 1e-5


def test_rounding_bounds_stay_far_below_the_tolerance_at_scale_one(capsys):
    deep = '{"factors":[1,1],"max_len":1500}'
    _, out, _ = run_cli(capsys, "fock-verify", "-s", "geometric:0.5", "--space", deep)
    assert json.loads(out)["report"]["rounding_bound"] <= 1e-11
    _, out, _ = run_cli(capsys, "cs-bound", "-s", "geometric:0.5", "--space", SPACE)
    assert json.loads(out)["rounding_bound"] <= 1e-13


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_norm_cprime_reports_the_two_step_norm_of_parity_tails(capsys, fmt):
    code, out, err = run_cli(capsys, "norm", "-s", PARITY_TAIL, "--cprime", "--format", fmt)
    assert code == 2
    assert err.startswith("radial-mult: mathematical failure:") and "2-periodic" in err
    if fmt == "csv":
        rows = out.strip().split("\n")
        assert rows[0] == "matrix,index,sigma"
        assert {row.split(",")[0] for row in rows[1:]} == {"hhat"}
        return
    obj = json.loads(out)
    assert obj["report"] is None
    assert obj["cprime_report"]["total"] == cprime_norm(parse_symbol(PARITY_TAIL)).total
    # plain norm stays a failure with no report
    code, out, err = run_cli(capsys, "norm", "-s", PARITY_TAIL)
    assert code == 2 and out == "" and "2-periodic" in err


def test_norm_cprime_on_parity_tails_past_the_cap_exits_1(capsys):
    # the two-step norm cannot be computed, so no mathematical verdict is given
    spec = {"family": "parity_tail", "values": [0] * 5000, "tail_even": 1, "tail_odd": 0}
    spec = json.dumps(spec)
    code, out, err = run_cli(capsys, "norm", "-s", spec, "--cprime")
    assert code == 1 and out == ""
    assert err.startswith("radial-mult: error:")


scaled_atoms = st.lists(
    st.tuples(
        st.one_of(
            st.floats(0.05, 0.99).map(complex),  # a positive atom: the cs-bound sides meet
            st.builds(cmath.rect, st.floats(0.05, 0.99), st.floats(-math.pi, math.pi)),
        ),
        st.builds(cmath.rect, st.floats(1e-3, 1e9), st.sampled_from([0.0, 0.0, 1.0, -2.5])),
    ),
    min_size=1,
    max_size=2,
)


@settings(max_examples=40, deadline=None)
@given(scaled_atoms, st.sampled_from([0.0, 0.0, 1e6, -3.0]))
def test_measure_symbols_at_scale_pass_cs_bound_and_fock_verify(atoms, c):
    sym = json.dumps(to_obj(FromMeasure(c, DiscreteMeasure(tuple(atoms)))))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        bound = main(["cs-bound", "-s", sym, "--space", SPACE])
        verify = main(["fock-verify", "-s", sym, "--space", '{"factors":[1,2],"max_len":4}'])
    assert (bound, verify) == (0, 0), (out.getvalue()[-2000:], err.getvalue())


@pytest.mark.parametrize("measure", ["5", '"x"', "null", "true"])
def test_integral_check_non_object_measure_exits_1(capsys, measure):
    code, out, err = run_cli(capsys, "integral-check", "--measure", measure)
    assert code == 1
    assert out == ""
    assert err.startswith("radial-mult: error: bad measure spec")


@pytest.mark.parametrize(
    "argv, named",
    [
        (("--measure", "["), "bad measure spec"),
        (("--random-atoms", "-1"), "--random-atoms"),
        (("--random-atoms", "x"), "--random-atoms: invalid int value: 'x'"),
        (("--random-atoms", "2", "--seed", "-1"), "--seed"),
    ],
    ids=["measure", "random-atoms", "random-atoms-text", "seed"],
)
def test_integral_check_usage_errors_name_their_option(capsys, argv, named):
    code, out, err = run_cli(capsys, "integral-check", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("radial-mult: error:") and named in err


@pytest.mark.parametrize(
    "argv",
    [
        ("norm", "-s", "truncgeom:0.8,5"),
        ("cs-bound", "-s", "truncgeom:0.8,5", "--space", '{"factors":[1,1],"max_len":2}'),
    ],
    ids=["singular-values", "decomposition"],
)
def test_svd_failure_exits_2(capsys, monkeypatch, argv):
    # norm reaches hankel.singular_values, cs-bound the plan's stacked SVD;
    # both turn numpy's LinAlgError into NumericalFailure
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("radial-mult: mathematical failure: SVD did not converge")


def test_integral_check_random_atoms(capsys):
    code, out, _ = run_cli(
        capsys, "integral-check", "--random-atoms", "5", "--seed", "0"
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["holds"]


def test_integral_check_zero_random_atoms_checks_the_empty_measure(capsys):
    # 0 is a count like any other: alone it is not a missing option, and
    # beside --symbol it is not dropped
    code, out, _ = run_cli(capsys, "integral-check", "--random-atoms", "0")
    (check,) = json.loads(out)["checks"]
    assert code == 0
    assert check["check"] == "membership_random" and check["measure"] == []
    assert check["left"] == check["right"] == 0.0 and check["holds"]
    code, out, _ = run_cli(capsys, "integral-check", "--random-atoms", "0", "-s", "geometric:0.5")
    assert code == 0
    assert [c["check"] for c in json.loads(out)["checks"]] == ["membership_random", "doubling"]


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
    argv = ("fock-verify", "-s", "indicator:2", "--space", '{"factors":[2,2],"max_len":3}')
    code, out, _ = run_cli(capsys, *argv, "--max-word", "1", "--format", "csv")
    assert code == 0
    assert out.startswith("xi,eta,case,k,l,expected_re,expected_im,residual")
    pairs = json.loads(run_cli(capsys, *argv, "--max-word", "1")[1])["report"]["pairs"]
    assert len(out.strip().split("\n")) == 1 + len(pairs)


def child_env():
    """The environment of a child interpreter that imports this radial_mult."""
    src = str(Path(radial_mult.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "radial_mult.cli", "norm", "-s", "geometric:0.5"],
        capture_output=True,
        text=True,
        env=child_env(),
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
        env=child_env(),
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


# --- property: the exit-code contract on fuzzed arguments -------------------
#
# Sizes stay small: at most three factors of dimension <= 3, max_len <= 4,
# --max-word <= 2 or past the cap, n0 <= 60 and --random-atoms <= 5.

COMPLEX_TEXT = ["0", "0.5", "-0.7", "0.3+0.4i", "0.999", "1", "-2", "nan", "inf", "1e400", "", "x"]
JSON_KEYS = ["family", "s", "w", "n0", "r", "values", "tail", "c", "measure", "tail_even",
             "tail_odd", "base", "re", "im", "factors", "max_len"]
FAMILY_NAMES = ["geometric", "indicator", "truncated_geometric", "truncated-geometric", "finite",
                "from_measure", "parity_tail", "doubled", "nosuch"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.sampled_from([0.5, -0.3, 1e300, "", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(JSON_KEYS), inner, max_size=3),
    max_leaves=8,
)
fuzzed_symbol_objs = st.recursive(
    st.fixed_dictionaries(
        {"family": st.sampled_from(FAMILY_NAMES)},
        optional={key: json_values for key in JSON_KEYS[1:]},
    ),
    lambda inner: st.fixed_dictionaries({"family": st.just("doubled"), "base": inner}),
    max_leaves=3,
)
small_cplx = st.builds(complex, st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
in_disk = st.builds(complex, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
cplx_values = st.lists(small_cplx, max_size=4).map(tuple)
valid_symbols = st.recursive(
    st.one_of(
        st.builds(Geometric, in_disk),
        st.builds(Indicator, st.integers(0, 60)),
        st.builds(TruncatedGeometric, st.floats(0.05, 0.95), st.integers(0, 60)),
        st.builds(Finite, cplx_values, small_cplx),
        st.builds(
            FromMeasure,
            small_cplx,
            st.lists(st.tuples(in_disk, small_cplx), max_size=5).map(tuple).map(DiscreteMeasure),
        ),
        st.builds(ParityTail, cplx_values, small_cplx, small_cplx),
    ),
    lambda inner: inner.filter(lambda sym: len(set(parity_tails(sym))) == 1).map(Doubled),
    max_leaves=2,
)
symbol_texts = st.one_of(
    st.builds(lambda sym: json.dumps(to_obj(sym)), valid_symbols),
    st.builds("geometric:{}".format, st.sampled_from(COMPLEX_TEXT)),
    st.builds("indicator:{}".format, st.integers(-1, 60) | st.sampled_from(["", "x", "2.5"])),
    st.builds("truncgeom:{},{}".format, st.sampled_from(COMPLEX_TEXT), st.integers(-1, 60)),
    st.builds("constant:{}".format, st.sampled_from(COMPLEX_TEXT)),
    st.builds(
        "{}:{}".format,
        st.sampled_from(["finite", "from_measure", "parity_tail"]),
        st.builds(json.dumps, json_values),
    ),
    st.builds(json.dumps, fuzzed_symbol_objs),
    st.sampled_from(["nosuch:1", "", "{", "geometric", '{"family":"geometric","s":NaN}']),
)


def space_objs(dims, max_len, min_factors):
    factors = st.lists(dims, min_size=min_factors, max_size=3)
    return st.fixed_dictionaries({"factors": factors, "max_len": max_len})


space_texts = st.one_of(
    st.builds(json.dumps, space_objs(st.integers(1, 3), st.integers(1, 4), 1)),
    st.builds(json.dumps, space_objs(st.integers(-1, 3), st.integers(-1, 4), 0)),
    st.builds(json.dumps, json_values),
    st.sampled_from(["", "{", '{"factors":[1,1]}', '{"factors":[1],"max_len":1e400}']),
)
pairs = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
atoms = st.lists(st.fixed_dictionaries({"s": pairs, "w": pairs}), max_size=5)
measure_texts = st.one_of(
    st.builds(json.dumps, atoms),
    st.builds(lambda c, m: json.dumps({"c": c, "measure": m}), pairs, atoms),
    st.builds(json.dumps, json_values),
    st.sampled_from(["", "[", "[{}]"]),
)


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(["norm", "fock-verify", "cs-bound", "integral-check"]))
    argv = [command]
    mostly = st.sampled_from([True] * 9 + [False])
    if draw(mostly):  # -s is required everywhere but integral-check
        argv += ["-s", draw(symbol_texts)]
    if command in ("fock-verify", "cs-bound") and draw(mostly):
        argv += ["--space", draw(space_texts)]
    optional = {
        "norm": [["--cprime"]],
        "fock-verify": [["--max-word", draw(st.sampled_from(["0", "1", "2", "-1", "9", "x"]))]],
        "cs-bound": [],
        "integral-check": [
            ["--measure", draw(measure_texts)],
            ["--random-atoms", str(draw(st.integers(-1, 5)))],
            ["--seed", str(draw(st.integers(-1, 9)))],
        ],
    }[command]
    optional.append(["--format", draw(st.sampled_from(["json", "csv"] * 4 + ["xml"]))])
    if command != "norm":  # norm judges nothing, so it takes no tolerance
        tol = ["1e-10", "1e-3", "1"] * 3 + ["0", "-1", "nan", "inf", "x"]
        optional.append(["--tol", draw(st.sampled_from(tol))])
    for option in optional:
        if draw(st.booleans()):
            argv += option
    if not draw(mostly):  # an option the command may not take
        stray = ["--cprime", "--bogus", "--seed=1", "--max-word=1", "--tol=1e-3"]
        argv.append(draw(st.sampled_from(stray)))
    return argv


@settings(max_examples=200, deadline=None)
@given(cli_argvs())
def test_exit_code_contract_on_fuzzed_arguments(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("radial-mult: error:")
