"""Command-line front end.

Subcommands dispatch the library's norm computations and verification
suites and emit deterministic JSON (or CSV) reports.  Exit codes: 0 on
success, 1 on usage/configuration errors, 2 on mathematical failure
(divergence, non-convergence, or a violated bound).  Each command returns
its report and verdict; ``main`` alone writes the report and picks the
exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import NumericalFailure, TooLarge, UnsupportedTail
from .fock import build_space
from .hankel import c_norm, cprime_norm
from .integral import verify_doubling, verify_membership_bound
from .multiplier import _kraus_levels, build_plan, plan_cb_bound, verify_eigenaction
from .schema import (
    SCHEMA,
    _cplx_in,
    fock_spec_from_obj,
    measure_from_obj,
    symbol_from_obj,
    to_csv,
    to_obj,
)
from .symbols import (
    DEFAULT_TOL,
    DiscreteMeasure,
    Finite,
    Geometric,
    Indicator,
    TruncatedGeometric,
    eigenvalue_lower_bound,
    equality_allowance,
)


class CliError(Exception):
    """Usage or configuration problem (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise CliError(f"cannot parse complex number {text!r}") from exc


def _load_json_arg(text: str):
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def _tolerance(text: str) -> float:
    """A finite, positive ``--tol``; anything else is a usage error."""
    value = float(text)
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive: {text!r}")
    return value


def parse_symbol(text: str):
    """Symbol shorthand: family:args, inline JSON, or @file with JSON."""
    text = text.strip()
    family, _, arg = text.partition(":")
    fam = family.lower().replace("-", "_")
    try:
        if text.startswith("@") or text.startswith("{"):
            return symbol_from_obj(_load_json_arg(text))
        if fam == "geometric":
            return Geometric(_parse_complex(arg))
        if fam == "indicator":
            return Indicator(int(arg))
        if fam in ("truncated_geometric", "truncgeom"):
            r_text, n_text = arg.split(",")
            return TruncatedGeometric(float(r_text), int(n_text))
        if fam == "constant":
            return Finite((), _parse_complex(arg))
        if fam in ("finite", "from_measure", "parity_tail"):
            return symbol_from_obj({"family": fam, **_load_json_arg(arg)})
    except CliError:
        raise
    except (ValueError, OSError, KeyError, TypeError) as exc:
        raise CliError(f"bad symbol spec {text!r}: {exc}") from exc
    raise CliError(f"unknown symbol family {family!r}")


def _count(text: str) -> int:
    """A non-negative integer (``--random-atoms``, ``--seed``); anything else
    is a usage error."""
    try:
        value = int(text)
    except ValueError:  # argparse's own message for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer: {text!r}")
    return value


def parse_measure(text: str) -> tuple[complex, DiscreteMeasure]:
    try:
        obj = _load_json_arg(text)
        if isinstance(obj, list):
            return 0.0 + 0.0j, measure_from_obj(obj)
        if not isinstance(obj, dict):
            raise TypeError("expected an atom list or an object")
        return _cplx_in(obj.get("c", 0.0)), measure_from_obj(obj["measure"])
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise CliError(f"bad measure spec: {exc}") from exc


def parse_space(text: str):
    try:
        return fock_spec_from_obj(_load_json_arg(text))
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise CliError(f"bad space spec: {exc}") from exc


def _emit(args, obj: dict, header: list[str], rows):
    """Write obj as JSON, or with --format csv the table of rows under header."""
    if args.format == "csv":
        payload = to_csv(header, rows)
    else:
        payload = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# Each cmd_* returns (obj, header, rows, holds): the report without its
# schema/command envelope, its CSV table, and whether the mathematics holds.


def cmd_norm(args):
    sym = parse_symbol(args.symbol)
    try:
        report, failure = c_norm(sym), None
    except UnsupportedTail as exc:
        if not args.cprime:
            raise
        report, failure = None, exc  # h and k are not trace class, hhat is
    obj = {"symbol": to_obj(sym), "report": to_obj(report)}
    sections = {}
    if report is not None:
        sections = {"h": report.singular_values_h, "k": report.singular_values_k}
    if args.cprime:
        creport = cprime_norm(sym)
        obj["cprime_report"] = to_obj(creport)
        sections["hhat"] = creport.singular_values_hhat
    if failure is not None:
        print(f"radial-mult: mathematical failure: {failure}", file=sys.stderr)
    rows = ((name, i, sigma) for name, sv in sections.items() for i, sigma in enumerate(sv))
    return obj, ["matrix", "index", "sigma"], rows, failure is None


def cmd_fock_verify(args):
    sym, spec = parse_symbol(args.symbol), parse_space(args.space)
    if args.max_word > spec.max_len:
        raise CliError(
            f"max word length {args.max_word} exceeds the space cap "
            f"{spec.max_len}: no safe pairs to verify"
        )
    space = build_space(spec)
    report = verify_eigenaction(build_plan(sym), space, args.max_word)
    obj = {
        "symbol": to_obj(sym),
        "space": to_obj(spec),
        "max_word": args.max_word,
        "report": to_obj(report),
    }
    header = ["xi", "eta", "case", "k", "l", "expected_re", "expected_im", "residual"]
    rows = (
        (p["xi"], p["eta"], p["case"], p["k"], p["l"], *p["expected"], p["residual"])
        for p in obj["report"]["pairs"]
    )
    return obj, header, rows, report.worst_residual <= args.tol + report.rounding_bound


def _kraus_residual(space, vec, norm_sq: float, variant: int) -> float:
    """Largest gap of vec's Kraus row sum, level by level, to ||vec||^2, over ||vec||^2."""
    return float(np.abs(_kraus_levels(space, vec, variant) - norm_sq).max()) / norm_sq


def cmd_cs_bound(args):
    sym = parse_symbol(args.symbol)
    space = build_space(parse_space(args.space))
    plan = build_plan(sym)
    terms, kraus_residual = [], 0.0
    for kind, dec, variant in (("h", plan.decomposition_h, 1), ("k", plan.decomposition_k, 2)):
        # each Kraus row sum is ||v||^2 Id, so a term's bound sqrt(row * col)
        # is ||x|| ||y||; the largest term checks that identity
        rows, cols = ((v * v.conj()).real.sum(axis=1) for v in (dec.x, dec.y))
        for i, (row, col) in enumerate(zip(rows.tolist(), cols.tolist())):
            bound = float(np.sqrt(row * col))
            terms.append({"kind": kind, "index": i, "row": row, "col": col, "bound": bound})
        if len(rows):
            kraus_residual = max(
                kraus_residual,
                _kraus_residual(space, dec.x[0], rows[0], variant),
                _kraus_residual(space, dec.y[0], cols[0], variant),
            )
    bound_total = plan_cb_bound(plan)
    lower = eigenvalue_lower_bound(sym)
    rounding = equality_allowance(lower, bound_total)
    obj = {
        "symbol": to_obj(sym),
        "terms": terms,
        "plan_cb_bound": bound_total,
        "eigenvalue_lower_bound": lower,
        "kraus_residual": kraus_residual,
        "rounding_bound": rounding,
    }
    header = ["kind", "index", "row", "col", "bound"]
    holds = lower <= bound_total + args.tol + rounding and kraus_residual <= args.tol
    return obj, header, ([t[key] for key in header] for t in terms), holds


def _random_measure(rng: np.random.Generator, n_atoms: int) -> DiscreteMeasure:
    radii = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, n_atoms))
    angles = rng.uniform(0.0, 2.0 * np.pi, n_atoms)
    w_radii = np.sqrt(rng.uniform(0.0, 1.0, n_atoms))
    w_angles = rng.uniform(0.0, 2.0 * np.pi, n_atoms)
    atoms = tuple(
        (
            complex(r * np.exp(1j * a)),
            complex(wr * np.exp(1j * wa)),
        )
        for r, a, wr, wa in zip(radii, angles, w_radii, w_angles)
    )
    return DiscreteMeasure(atoms)


def _check(name: str, left: float, right: float, rep, **extra) -> dict:
    """One integral-check entry: both sides, rep's verdict and its rounding_bound."""
    entry = {"check": name, "left": left, "right": right, "holds": rep.holds}
    return {**entry, "rounding_bound": rep.rounding_bound, **extra}


def cmd_integral_check(args):
    """The membership bound for --measure and --random-atoms; for --symbol,
    that doubling keeps the norm."""
    if not (args.symbol or args.measure or args.random_atoms is not None):
        raise CliError("need --symbol, --measure, or --random-atoms")
    checks = []
    if args.measure:
        rep = verify_membership_bound(*parse_measure(args.measure), args.tol)
        checks.append(_check("membership", rep.difference_norms, rep.weight, rep))
    if args.random_atoms is not None:
        measure = _random_measure(np.random.default_rng(args.seed), args.random_atoms)
        rep = verify_membership_bound(0.0, measure, args.tol)
        extra = {"measure": to_obj(measure), "seed": args.seed}
        checks.append(_check("membership_random", rep.difference_norms, rep.weight, rep, **extra))
    if args.symbol:
        rep = verify_doubling(parse_symbol(args.symbol), args.tol)
        checks.append(_check("doubling", rep.base_total, rep.doubled_total, rep))
    header = ["check", "left", "right", "holds"]
    rows = ([entry[key] for key in header] for entry in checks)
    return {"checks": checks}, header, rows, all(entry["holds"] for entry in checks)


def build_parser() -> _Parser:
    parser = _Parser(prog="radial-mult", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    # only the commands that judge a result (exit 2 past it) take a tolerance
    judged = argparse.ArgumentParser(add_help=False, parents=[common])
    judged.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_TOL, help=f"tolerance (default {DEFAULT_TOL:g})"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", parents=[common], help="symbol norm report")
    p_norm.add_argument("-s", "--symbol", required=True)
    p_norm.add_argument("--cprime", action="store_true", help="also report the two-step norm")
    p_norm.set_defaults(func=cmd_norm)

    p_fock = sub.add_parser(
        "fock-verify", parents=[judged], help="word-pair eigenvalue verification"
    )
    p_fock.add_argument("-s", "--symbol", required=True)
    p_fock.add_argument("--space", required=True, help='JSON like {"factors":[1,1],"max_len":5}')
    p_fock.add_argument("--max-word", type=int, default=2)
    p_fock.set_defaults(func=cmd_fock_verify)

    p_cs = sub.add_parser("cs-bound", parents=[judged], help="Kraus-family norm bounds")
    p_cs.add_argument("-s", "--symbol", required=True)
    p_cs.add_argument("--space", required=True)
    p_cs.set_defaults(func=cmd_cs_bound)

    p_int = sub.add_parser(
        "integral-check", parents=[judged], help="measure representation checks"
    )
    p_int.add_argument("-s", "--symbol")
    p_int.add_argument("--measure", help="JSON atom list or {c, measure}, or @file")
    p_int.add_argument("--random-atoms", type=_count, help="check one seeded random measure")
    p_int.add_argument("--seed", type=_count, default=0, help="seed for --random-atoms")
    p_int.set_defaults(func=cmd_integral_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        obj, header, rows, holds = args.func(args)
        _emit(args, {"schema": SCHEMA, "command": args.command, **obj}, header, rows)
        return 0 if holds else 2
    except (CliError, TooLarge, OSError, ValueError) as exc:
        print(f"radial-mult: error: {exc}", file=sys.stderr)
        return 1
    except (UnsupportedTail, NumericalFailure) as exc:
        print(f"radial-mult: mathematical failure: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
