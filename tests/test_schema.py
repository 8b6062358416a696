"""The radial-mult/1 format: key sets written out literally, so a renamed
dataclass field fails here as a change of the format."""

import json

import numpy as np

from radial_mult import (
    DiscreteMeasure,
    Doubled,
    Finite,
    FockSpec,
    FromMeasure,
    Geometric,
    Indicator,
    ParityTail,
    TruncatedGeometric,
    build_plan,
    build_space,
    c_norm,
    cprime_norm,
    symbol_from_obj,
    to_csv,
    to_obj,
    verify_doubling,
    verify_eigenaction,
    verify_membership_bound,
)

HANKEL_KEYS = {
    "truncation",
    "trace_norm_h",
    "trace_norm_k",
    "tail_abs",
    "total",
    "converged",
    "route",
    "error_bound",
}
CPRIME_KEYS = {
    "truncation",
    "trace_norm_hhat",
    "c1",
    "c2",
    "total",
    "converged",
    "route",
    "error_bound",
}


def dumped(x):
    """to_obj(x) through JSON text, which also checks that it serializes."""
    return json.loads(json.dumps(to_obj(x)))


def test_report_key_sets():
    sym = FromMeasure(0.25, DiscreteMeasure(((0.5, 1.0),)))
    assert set(dumped(c_norm(sym))) == HANKEL_KEYS
    assert set(dumped(cprime_norm(sym))) == CPRIME_KEYS
    membership = dumped(verify_membership_bound(0.0, sym.measure))
    assert set(membership) == {"difference_norms", "weight", "holds", "hankel", "rounding_bound"}
    assert set(membership["hankel"]) == HANKEL_KEYS
    doubling = dumped(verify_doubling(sym))
    assert set(doubling) == {
        "base_total",
        "doubled_total",
        "holds",
        "base",
        "doubled",
        "rounding_bound",
    }
    assert set(doubling["base"]) == HANKEL_KEYS and set(doubling["doubled"]) == CPRIME_KEYS
    spec = FockSpec((1, 2), 3)
    assert dumped(spec) == {"factors": [1, 2], "max_len": 3}
    eigen = dumped(verify_eigenaction(build_plan(sym), build_space(spec), 1))
    assert set(eigen) == {"worst_residual", "rounding_bound", "pairs"}
    assert {frozenset(pair) for pair in eigen["pairs"]} == {
        frozenset({"xi", "eta", "case", "k", "l", "expected", "residual"})
    }
    assert dumped(sym.measure) == [{"s": [0.5, 0.0], "w": [1.0, 0.0]}]


def test_symbol_key_sets():
    measure = DiscreteMeasure(((0.5, 1.0),))
    objs = [
        dumped(sym)
        for sym in (
            Geometric(0.5j),
            Indicator(3),
            TruncatedGeometric(0.5, 2),
            Finite((1.0,), 0.5),
            FromMeasure(0.25, measure),
            ParityTail((1.0,), 0.5, 0.0),
            Doubled(Geometric(0.5)),
        )
    ]
    assert [(obj["family"], set(obj)) for obj in objs] == [
        ("geometric", {"family", "s"}),
        ("indicator", {"family", "n0"}),
        ("truncated_geometric", {"family", "r", "n0"}),
        ("finite", {"family", "values", "tail"}),
        ("from_measure", {"family", "c", "measure"}),
        ("parity_tail", {"family", "values", "tail_even", "tail_odd"}),
        ("doubled", {"family", "base"}),
    ]
    assert objs[0]["s"] == [0.0, 0.5]
    assert objs[6]["base"] == {"family": "geometric", "s": [0.5, 0.0]}
    for obj in objs:
        assert dumped(symbol_from_obj(obj)) == obj


def test_csv_cells():
    # numpy 2 would print np.float64(0.1); None leaves the cell empty
    rows = [(np.float64(0.1), True, None, 3, "h"), (1.0, np.bool_(False), 0.5, 0, "")]
    text = to_csv(["a", "b", "c", "d", "e"], rows)
    assert text == "a,b,c,d,e\n0.1,True,,3,h\n1.0,False,0.5,0,\n"
