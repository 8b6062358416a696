"""The public surface of radial_mult: one name per concept, and every name
the benchmark reaches.

The benchmark is read as text (bench/spans.py and bench/workloads.py), not
imported, so a trim of the library that would break a traced span or a
gated workload fails here first.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import radial_mult

BENCH = Path(__file__).resolve().parents[1] / "bench"

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

# Names that only restated another, by module, with what replaces them:
# projections and the identity are diagonal() of a level mask, left words
# are word_operator() from the vacuum, right creations one-letter
# right_word(), rho powers repeated rho(), plan terms build_plan()'s, and a
# representation measure_atoms() with tail_constant().
RETIRED = {
    "fock": (
        "identity",
        "level_projection",
        "tail_projection",
        "left_word",
        "right_creation",
        "rho_power",
    ),
    "integral": ("eval_measure", "representation_for"),
    "errors": ("NonConvergent", "UnsupportedRepresentation"),
    "symbols": ("atom_arrays",),
    "hankel": ("difference_decompositions",),
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
