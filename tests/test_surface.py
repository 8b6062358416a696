"""The public surface of radial_mult and of each of its modules: one name
per concept, and every name the benchmark reaches.

The benchmark is read as text (bench/spans.py and bench/workloads.py), not
imported, so a trim of the library that would break a traced span or a
gated workload fails here first.
"""

import ast
import dataclasses
import importlib
import re
import types
from pathlib import Path

import pytest

import radial_mult
from radial_mult.symbols import DiscreteMeasure, Form

BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE = Path(radial_mult.__file__).parent

PUBLIC = {
    # errors
    "DimensionMismatch",
    "NumericalFailure",
    "RadialMultError",
    "TooLarge",
    "UnsupportedTail",
    # fock
    "CASE_ONE",
    "CASE_TWO",
    "FockOperator",
    "FockSpace",
    "FockSpec",
    "build_space",
    "classify_case",
    "creation",
    "diagonal",
    "eps",
    "factor_end_projection",
    "rho",
    "right_word",
    "word_label",
    "word_operator",
    # hankel
    "CPrimeReport",
    "HankelReport",
    "RankOneDecomposition",
    "c_norm",
    "cprime_norm",
    "hankel_h",
    "hankel_hhat",
    "hankel_k",
    "rank_one_decompose",
    "singular_values",
    # integral
    "DoublingReport",
    "MembershipReport",
    "verify_doubling",
    "verify_membership_bound",
    "weight",
    # multiplier
    "ComponentReport",
    "EigenReport",
    "MultiplierPlan",
    "TensorReport",
    "apply_T",
    "apply_T1",
    "apply_T2",
    "build_plan",
    "cs_bound",
    "kraus_row_sum",
    "plan_cb_bound",
    "spectral_norm",
    "ucp_pi_apply",
    "verify_component_eigenaction",
    "verify_eigenaction",
    "verify_ucp_relations",
    # schema
    "fock_spec_from_obj",
    "measure_from_obj",
    "symbol_from_obj",
    "to_csv",
    "to_obj",
    # symbols
    "DiscreteMeasure",
    "Doubled",
    "Finite",
    "FromMeasure",
    "Geometric",
    "Indicator",
    "ParityTail",
    "RadialSymbol",
    "TruncatedGeometric",
    "double",
    "eigenvalue_lower_bound",
    "evaluate",
    "measure_atoms",
    "parity_tails",
    "psi1",
    "psi2",
    "tail_constant",
}

# The names each module defines at top level without a leading underscore
# (def, class and assignments), public or not in the package.
MODULES = {
    "__init__": set(),
    "cli": {
        "CliError",
        "build_parser",
        "cmd_cs_bound",
        "cmd_fock_verify",
        "cmd_integral_check",
        "cmd_norm",
        "main",
        "parse_measure",
        "parse_space",
        "parse_symbol",
        "run",
    },
    "errors": {
        "DimensionMismatch",
        "NumericalFailure",
        "RadialMultError",
        "TooLarge",
        "UnsupportedTail",
    },
    "fock": {
        "BASIS_CAP",
        "CASE_ONE",
        "CASE_TWO",
        "FockOperator",
        "FockSpace",
        "FockSpec",
        "LETTER_MAP_CAP",
        "Letter",
        "VACUUM",
        "Word",
        "build_space",
        "classify_case",
        "creation",
        "diagonal",
        "eps",
        "factor_end_projection",
        "rho",
        "right_word",
        "word_label",
        "word_operator",
    },
    "hankel": {
        "CPrimeReport",
        "H",
        "HHAT",
        "HankelReport",
        "K",
        "RANK_CUTOFF",
        "RankOneDecomposition",
        "SUPPORT_HEIGHT_CAP",
        "c_norm",
        "cprime_norm",
        "hankel_h",
        "hankel_hhat",
        "hankel_k",
        "rank_one_decompose",
        "singular_values",
    },
    "integral": {
        "DoublingReport",
        "MembershipReport",
        "verify_doubling",
        "verify_membership_bound",
        "weight",
    },
    "multiplier": {
        "ComponentRecord",
        "ComponentReport",
        "EigenRecord",
        "EigenReport",
        "MultiplierPlan",
        "TensorRecord",
        "TensorReport",
        "apply_T",
        "apply_T1",
        "apply_T2",
        "build_plan",
        "cs_bound",
        "kraus_row_sum",
        "plan_cb_bound",
        "spectral_norm",
        "ucp_pi_apply",
        "verify_component_eigenaction",
        "verify_eigenaction",
        "verify_ucp_relations",
    },
    "schema": {
        "SCHEMA",
        "fock_spec_from_obj",
        "measure_from_obj",
        "symbol_from_obj",
        "to_csv",
        "to_obj",
    },
    "symbols": {
        "ATOM_BOUNDARY_MARGIN",
        "DEFAULT_TOL",
        "DiscreteMeasure",
        "Doubled",
        "Finite",
        "Form",
        "FromMeasure",
        "Geometric",
        "Indicator",
        "POWER_BITS",
        "ParityTail",
        "ROUNDING",
        "RadialSymbol",
        "TruncatedGeometric",
        "VECTOR_HORIZON_CAP",
        "atom_powers",
        "double",
        "eigenvalue_lower_bound",
        "equality_allowance",
        "evaluate",
        "form",
        "measure_atoms",
        "one_minus_abs_squared",
        "parity_tails",
        "psi1",
        "psi2",
        "tail_constant",
        "vandermonde_horizon",
    },
}

# Names that only restated another, by module, with what replaces them:
# projections and the identity are diagonal() of a level mask, left words
# are word_operator() from the vacuum, right creations one-letter
# right_word(), rho powers repeated rho(), plan terms build_plan()'s, and a
# representation measure_atoms() with tail_constant().  A zero operator is
# diagonal() of zeros, a route hankel._route() of the form, a support length
# the form's, and the basis count build_space()'s own level sizes; the
# package, not integral.__all__, lists the public names.  The membership and
# cb allowances are symbols.equality_allowance(), and a difference row the
# form's differences().
RETIRED = {
    "fock": (
        "identity",
        "level_projection",
        "tail_projection",
        "left_word",
        "right_creation",
        "rho_power",
        "zero",
        "_word_count",
    ),
    "integral": ("eval_measure", "representation_for", "__all__", "MEMBERSHIP_ULPS"),
    "multiplier": ("CB_BOUND_ULPS", "cb_rounding_bound"),
    "errors": ("NonConvergent", "UnsupportedRepresentation"),
    "symbols": ("atom_arrays", "support_length"),
    "hankel": ("difference_decompositions", "exact_route", "_difference_row"),
}


def test_public_names_are_pinned():
    names = {
        name
        for name, value in vars(radial_mult).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in RETIRED.items() for name in names]
)
def test_retired_names_are_gone(module, name):
    assert not hasattr(radial_mult, name)
    assert not hasattr(importlib.import_module(f"radial_mult.{module}"), name)


def top_level_names(path: Path) -> set:
    """Names a module defines at top level without a leading underscore."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def test_module_names_are_pinned():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(MODULES)
    for module, names in MODULES.items():
        assert top_level_names(PACKAGE / f"{module}.py") == names, module


def test_retired_members_are_gone():
    # a measure is its atoms, and a doubled form reads its values off its base
    assert not hasattr(DiscreteMeasure, "__len__")
    assert [f.name for f in dataclasses.fields(Form)] == ["head", "even", "odd", "s", "w", "base"]


def bench_spans() -> dict:
    """The SPANS literal of bench/spans.py, read without importing it."""
    tree = ast.parse((BENCH / "spans.py").read_text(encoding="utf-8"))
    (node,) = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]
    ]
    return ast.literal_eval(node.value)


def test_benchmark_spans_resolve():
    targets = [target for targets in bench_spans().values() for target in targets]
    assert targets
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_benchmark_workload_names_resolve():
    text = (BENCH / "workloads.py").read_text(encoding="utf-8")
    called = set(re.findall(r"\brm\.([A-Za-z_]\w*)", text))
    assert {"c_norm", "build_plan", "build_space"} <= called
    assert sorted(name for name in called if not hasattr(radial_mult, name)) == []
