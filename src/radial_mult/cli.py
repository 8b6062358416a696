"""Command-line front end.

Subcommands dispatch the library's norm computations and verification
suites and emit deterministic JSON (or CSV) reports.  Exit codes: 0 on
success, 1 on usage/configuration errors, 2 on mathematical failure
(divergence, non-convergence, or a violated bound).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (
    NonConvergent,
    NumericalFailure,
    TooLarge,
    UnsupportedRepresentation,
    UnsupportedTail,
)
from .fock import build_space, fock_spec_from_obj
from .hankel import c_norm, cprime_norm
from .integral import (
    representation_for,
    verify_doubling,
    verify_membership_bound,
    weight,
)
from .multiplier import build_plan, cs_bound, plan_cb_bound, verify_eigenaction
from .symbols import (
    DiscreteMeasure,
    Finite,
    Geometric,
    Indicator,
    TruncatedGeometric,
    _cplx_in,
    eigenvalue_lower_bound,
    measure_from_obj,
    measure_to_obj,
    symbol_from_obj,
    symbol_to_obj,
)

SCHEMA = "radial-mult/1"
HEADROOM = 8.0 / np.pi


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


def parse_measure(text: str) -> tuple[complex, DiscreteMeasure]:
    obj = _load_json_arg(text)
    try:
        if isinstance(obj, list):
            return 0.0 + 0.0j, measure_from_obj(obj)
        if not isinstance(obj, dict):
            raise TypeError("expected an atom list or an object")
        return _cplx_in(obj.get("c", 0.0)), measure_from_obj(obj["measure"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad measure spec: {exc}") from exc


def parse_space(text: str):
    try:
        return fock_spec_from_obj(_load_json_arg(text))
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise CliError(f"bad space spec: {exc}") from exc


def _emit(args, obj: dict, csv_text: str | None):
    if args.format == "csv":
        if csv_text is None:
            raise CliError("this command has no CSV representation")
        payload = csv_text
    else:
        payload = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _sv_csv(sections: dict[str, np.ndarray]) -> str:
    lines = ["matrix,index,sigma"]
    for name, sv in sections.items():
        for i, sigma in enumerate(sv):
            lines.append(f"{name},{i},{float(sigma)!r}")
    return "\n".join(lines) + "\n"


def cmd_norm(args) -> int:
    sym = parse_symbol(args.symbol)
    report = c_norm(sym)
    obj = {
        "schema": SCHEMA,
        "command": "norm",
        "symbol": symbol_to_obj(sym),
        "report": report.to_obj(),
    }
    sections = {"h": report.singular_values_h, "k": report.singular_values_k}
    if args.cprime:
        creport = cprime_norm(sym)
        obj["cprime_report"] = creport.to_obj()
        sections["hhat"] = creport.singular_values_hhat
    _emit(args, obj, _sv_csv(sections))
    return 0


def cmd_fock_verify(args) -> int:
    sym = parse_symbol(args.symbol)
    spec = parse_space(args.space)
    if args.max_word > spec.max_len:
        raise CliError(
            f"max word length {args.max_word} exceeds the space cap "
            f"{spec.max_len}: no safe pairs to verify"
        )
    space = build_space(spec)
    plan = build_plan(sym)
    report = verify_eigenaction(plan, space, args.max_word)
    obj = {
        "schema": SCHEMA,
        "command": "fock-verify",
        "symbol": symbol_to_obj(sym),
        "space": {"factors": list(spec.factor_dims), "max_len": spec.max_len},
        "max_word": args.max_word,
        "report": report.to_obj(),
    }
    _emit(args, obj, report.to_csv())
    return 0 if report.worst_residual <= args.tol else 2


def cmd_cs_bound(args) -> int:
    sym = parse_symbol(args.symbol)
    spec = parse_space(args.space)
    space = build_space(spec)
    plan = build_plan(sym)
    terms = []
    for kind, dec, variant in (
        ("h", plan.decomposition_h, 1),
        ("k", plan.decomposition_k, 2),
    ):
        for i, (x, y) in enumerate(dec.terms):
            # the Cauchy-Schwarz bound is sqrt(row * col) = ||x|| ||y||
            row, col, product = cs_bound(space, x, y, variant)
            bound = float(np.sqrt(product))
            terms.append(
                {"kind": kind, "index": i, "row": row, "col": col, "bound": bound}
            )
    bound_total = plan_cb_bound(plan)
    lower = eigenvalue_lower_bound(sym)
    obj = {
        "schema": SCHEMA,
        "command": "cs-bound",
        "symbol": symbol_to_obj(sym),
        "terms": terms,
        "plan_cb_bound": bound_total,
        "eigenvalue_lower_bound": lower,
    }
    csv_lines = ["kind,index,row,col,bound"]
    csv_lines += [
        f"{t['kind']},{t['index']},{t['row']!r},{t['col']!r},{t['bound']!r}"
        for t in terms
    ]
    _emit(args, obj, "\n".join(csv_lines) + "\n")
    return 0 if lower <= bound_total + args.tol else 2


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


def cmd_integral_check(args) -> int:
    if not (args.symbol or args.measure or args.random_atoms):
        raise CliError("need --symbol, --measure, or --random-atoms")
    checks = []
    all_hold = True

    def record(name, left, right, holds, extra=None):
        nonlocal all_hold
        entry = {"check": name, "left": left, "right": right, "holds": holds}
        if extra:
            entry.update(extra)
        checks.append(entry)
        all_hold = all_hold and holds

    if args.measure:
        c, measure = parse_measure(args.measure)
        rep = verify_membership_bound(c, measure, args.tol)
        record("membership", rep.difference_norms, rep.weight, rep.holds)
    if args.random_atoms:
        rng = np.random.default_rng(args.seed)
        measure = _random_measure(rng, args.random_atoms)
        rep = verify_membership_bound(0.0, measure, args.tol)
        record(
            "membership_random",
            rep.difference_norms,
            rep.weight,
            rep.holds,
            {"measure": measure_to_obj(measure), "seed": args.seed},
        )
    if args.symbol:
        sym = parse_symbol(args.symbol)
        dbl = verify_doubling(sym, args.tol)
        record("doubling", dbl.base_total, dbl.doubled_total, dbl.holds)
        try:
            c, measure = representation_for(sym)
            mass = abs(c) + weight(measure)
            base = c_norm(sym).total
            record("headroom", mass, HEADROOM * base, mass <= HEADROOM * base + args.tol)
        except UnsupportedRepresentation:
            checks.append({"check": "representation", "holds": True, "note": "unsupported"})
    obj = {"schema": SCHEMA, "command": "integral-check", "checks": checks}
    csv_lines = ["check,left,right,holds"]
    for entry in checks:
        csv_lines.append(
            f"{entry['check']},{entry.get('left', '')!r},"
            f"{entry.get('right', '')!r},{entry['holds']}"
        )
    _emit(args, obj, "\n".join(csv_lines) + "\n")
    return 0 if all_hold else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="radial-mult", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=_tolerance, default=1e-10, help="tolerance (default 1e-10)"
    )
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", parents=[common], help="symbol norm report")
    p_norm.add_argument("-s", "--symbol", required=True)
    p_norm.add_argument("--cprime", action="store_true", help="also report the two-step norm")
    p_norm.set_defaults(func=cmd_norm)

    p_fock = sub.add_parser(
        "fock-verify", parents=[common], help="word-pair eigenvalue verification"
    )
    p_fock.add_argument("-s", "--symbol", required=True)
    p_fock.add_argument("--space", required=True, help='JSON like {"factors":[1,1],"max_len":5}')
    p_fock.add_argument("--max-word", type=int, default=2)
    p_fock.set_defaults(func=cmd_fock_verify)

    p_cs = sub.add_parser("cs-bound", parents=[common], help="Kraus-family norm bounds")
    p_cs.add_argument("-s", "--symbol", required=True)
    p_cs.add_argument("--space", required=True)
    p_cs.set_defaults(func=cmd_cs_bound)

    p_int = sub.add_parser(
        "integral-check", parents=[common], help="measure representation checks"
    )
    p_int.add_argument("-s", "--symbol")
    p_int.add_argument("--measure", help="JSON atom list or {c, measure}, or @file")
    p_int.add_argument("--random-atoms", type=int, help="check one seeded random measure")
    p_int.set_defaults(func=cmd_integral_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, TooLarge, OSError, ValueError) as exc:
        print(f"radial-mult: error: {exc}", file=sys.stderr)
        return 1
    except (NonConvergent, UnsupportedTail, NumericalFailure) as exc:
        print(f"radial-mult: mathematical failure: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
