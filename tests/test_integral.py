import cmath
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radial_mult.integral as integral_mod
from radial_mult import (
    DiscreteMeasure,
    Doubled,
    Finite,
    FromMeasure,
    Geometric,
    Indicator,
    ParityTail,
    TruncatedGeometric,
    UnsupportedTail,
    c_norm,
    cprime_norm,
    double,
    evaluate,
    measure_atoms,
    psi1,
    symbol_from_obj,
    tail_constant,
    to_obj,
    verify_doubling,
    verify_membership_bound,
    weight,
)
from radial_mult.symbols import DEFAULT_TOL, equality_allowance, form

DELTA_HALF = DiscreteMeasure(((0.5, 1.0),))


def random_measure(rng, n_atoms, radius=0.9):
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, n_atoms))
    angles = rng.uniform(0.0, 2.0 * np.pi, n_atoms)
    w_r = np.sqrt(rng.uniform(0.0, 1.0, n_atoms))
    w_a = rng.uniform(0.0, 2.0 * np.pi, n_atoms)
    return DiscreteMeasure(
        tuple(
            (complex(r * np.exp(1j * t)), complex(wr * np.exp(1j * wt)))
            for r, t, wr, wt in zip(radii, angles, w_r, w_a)
        )
    )


def test_eval_measure_examples():
    assert evaluate(FromMeasure(0.0, DELTA_HALF), 3) == 0.125
    empty = DiscreteMeasure(())
    assert evaluate(FromMeasure(2.0, empty), 7) == 2.0
    cancel = DiscreteMeasure(((0.5, 1.0), (-0.5, 1.0)))
    assert evaluate(FromMeasure(0.0, cancel), 1) == 0.0


def test_eval_measure_matches_symbol_evaluation():
    # c + sum_j w_j s_j**n, summed in the order of the atoms
    measure = DiscreteMeasure(((0.4 + 0.3j, 1.0 - 0.5j), (-0.2, 2.0)))
    sym = FromMeasure(0.75j, measure)
    for n in range(30):
        expected = 0.75j + (1.0 - 0.5j) * (0.4 + 0.3j) ** n + 2.0 * (-0.2 + 0j) ** n
        assert evaluate(sym, n) == expected


def test_weight_examples():
    assert abs(weight(DELTA_HALF) - 1.0) < 1e-15
    assert abs(weight(DiscreteMeasure(((-0.5, 1.0),))) - 3.0) < 1e-15
    assert weight(DiscreteMeasure(())) == 0.0


def test_membership_bound_delta_equality():
    rep = verify_membership_bound(0.0, DELTA_HALF)
    assert rep.holds
    assert abs(rep.difference_norms - 1.0) < 1e-8
    assert abs(rep.weight - 1.0) < 1e-15


def test_membership_bound_two_atoms():
    measure = DiscreteMeasure(((0.5, 1.0), (-0.5, 1.0)))
    rep = verify_membership_bound(0.0, measure)
    assert rep.holds
    assert rep.difference_norms <= 4.0 + 1e-12
    # independent oracle for the left side at a generous truncation
    sym = FromMeasure(0.0, measure)
    phi = lambda n: evaluate(sym, n)
    m = 128
    h = np.array([[phi(i + j) - phi(i + j + 1) for j in range(m)] for i in range(m)])
    k = np.array([[phi(i + j + 1) - phi(i + j + 2) for j in range(m)] for i in range(m)])
    oracle = np.linalg.svd(h, compute_uv=False).sum() + np.linalg.svd(
        k, compute_uv=False
    ).sum()
    assert abs(rep.difference_norms - oracle) < 1e-8


def test_membership_bound_random_measures():
    rng = np.random.default_rng(0)
    for _ in range(20):
        measure = random_measure(rng, 5)
        rep = verify_membership_bound(0.0, measure)
        assert rep.holds


def test_induced_symbol_total_bounded():
    rng = np.random.default_rng(1)
    for _ in range(5):
        measure = random_measure(rng, 4)
        c = complex(rng.standard_normal(), rng.standard_normal())
        total = c_norm(FromMeasure(c, measure)).total
        assert total <= abs(c) + weight(measure) + 1e-8


def test_representation_for():
    # a symbol's representation c + sum w s**n is its tail and its form's atoms
    root = cmath.sqrt(0.5)
    r = 0.9999992499997188
    for sym, c, atoms in (
        (Geometric(0.5), 0, ((0.5 + 0j, 1.0 + 0j),)),
        (FromMeasure(2.0, DELTA_HALF), 2.0, DELTA_HALF.atoms),
        (Finite((), 3.0), 3.0, ()),
        (ParityTail((2.0, 2.0), 2.0, 2.0), 2.0, ()),
        # a doubled measure is its form's atoms +-sqrt(s) with weights w/2
        (Doubled(Geometric(0.5)), 0, ((root, 0.5 + 0j), (-root, 0.5 + 0j))),
        # +-sqrt(s) may lie nearer the circle than a DiscreteMeasure atom may
        (Doubled(Geometric(0.9999985)), 0, ((r + 0j, 0.5 + 0j), (-r - 0j, 0.5 + 0j))),
    ):
        assert tail_constant(sym) == c and measure_atoms(sym) == atoms, sym


def test_doubling_examples():
    rep = verify_doubling(Geometric(0.5))
    assert rep.holds and abs(rep.base_total - 1.0) < 1e-8

    rep = verify_doubling(Indicator(1))
    expected = 1.0 + math.sqrt(5.0)
    assert rep.holds
    assert abs(rep.base_total - expected) < 1e-8
    assert abs(rep.doubled_total - expected) < 1e-8

    rep = verify_doubling(Finite((), 1.0))
    assert rep.holds
    assert rep.doubled.c1 == 0.5 and rep.doubled.c2 == 0.5
    assert rep.doubled.trace_norm_hhat < 1e-10


def test_doubling_of_an_indicator_past_the_head_cap_holds():
    # the doubled head holds 2 n0 + 2 values, past VECTOR_HORIZON_CAP, and
    # takes the same closed form as the base
    rep = verify_doubling(Indicator(600_000))
    assert rep.holds and rep.base_total == rep.doubled_total


def test_doubling_of_measure_without_tail_takes_vandermonde_route():
    # the doubled symbol is the measure with atoms +-sqrt(s) and weights w/2
    for sym in (
        Geometric(0.999),
        Geometric(0.8j),
        FromMeasure(0.0, DiscreteMeasure(((0.5 + 0.2j, 1.0), (-0.3, 0.5j), (0.0, 0.7)))),
    ):
        rep = verify_doubling(sym)
        assert rep.holds and rep.doubled.route == "vandermonde"
        assert abs(rep.doubled_total - rep.base_total) <= 1e-10 * rep.base_total


def test_doubling_with_tail_near_unit_circle_holds():
    # the tail moves to the parity constants, so the doubled symbol keeps
    # the Vandermonde route of its atoms +-sqrt(s)
    rep = verify_doubling(FromMeasure(1.0, DiscreteMeasure(((0.999, 1.0),))))
    assert rep.holds and rep.doubled.route == "vandermonde"
    assert abs(rep.doubled_total - rep.base_total) <= 1e-10


@pytest.mark.parametrize(
    "sym",
    [Geometric(0.999998j), Geometric(-0.999998), Geometric(0.9999 * cmath.exp(2.9j))],
    ids=["0.999998i", "-0.999998", "0.9999e^2.9i"],
)
def test_doubling_near_unit_circle_holds_within_rounding(sym):
    # Rounding the atoms +-sqrt(s) moves the doubled total by up to
    # ROUNDING / (1 - |s|) of itself; the gap sits inside that bound.
    rep = verify_doubling(sym)
    gap = abs(rep.base_total - rep.doubled_total)
    assert rep.holds and 0.0 < gap <= rep.rounding_bound
    assert to_obj(rep)["rounding_bound"] == rep.rounding_bound
    assert verify_doubling(Indicator(3)).rounding_bound == 0.0


def test_doubling_gap_past_the_bound_fails(monkeypatch):
    sym = Geometric(0.999998j)
    honest = verify_doubling(sym)
    slack = DEFAULT_TOL + honest.rounding_bound
    slack += honest.base.error_bound + honest.doubled.error_bound
    for total, holds in (
        (honest.base_total + 0.999 * slack, True),
        (honest.base_total + slack + 1e-9 * honest.base_total, False),
    ):
        doubled = dataclasses.replace(honest.doubled, total=total)
        monkeypatch.setattr(integral_mod, "cprime_norm", lambda _, d=doubled: d)
        assert verify_doubling(sym).holds is holds


def test_weight_keeps_relative_accuracy_near_unit_circle():
    # 1 - abs(s) cancels off the real axis; the exact 1 - |s|**2 does not.
    mpmath = pytest.importorskip("mpmath")
    for s in (-0.07842580907314954 + 0.9969178009390551j, 0.999998j, -0.999998):
        with mpmath.workdps(40):
            exact = abs(1 - mpmath.mpc(s)) / (1 - abs(mpmath.mpc(s)))
        got = weight(DiscreteMeasure(((s, 1.0),)))
        assert abs(got - float(exact)) <= 4e-16 * got


def test_membership_equality_case_within_rounding(monkeypatch):
    # one atom meets the bound with equality, up to rounding of both sides
    measure = DiscreteMeasure(((0.999998, 1.0),))
    rep = verify_membership_bound(0.0, measure)
    assert rep.holds and to_obj(rep)["rounding_bound"] == rep.rounding_bound
    assert rep.rounding_bound == equality_allowance(rep.difference_norms, rep.weight)
    left = rep.weight * (1 + 1e-9) + 1e-8
    inflated = dataclasses.replace(rep.hankel, trace_norm_h=left - rep.hankel.trace_norm_k)
    monkeypatch.setattr(integral_mod, "c_norm", lambda _: inflated)
    assert not verify_membership_bound(0.0, measure).holds


def test_measure_json_roundtrip():
    from radial_mult.schema import measure_from_obj

    measure = DiscreteMeasure(((0.4 + 0.3j, 1.0 - 0.5j), (-0.2, 2.0)))
    obj = to_obj(measure)
    assert obj == [
        {"s": [0.4, 0.3], "w": [1.0, -0.5]},
        {"s": [-0.2, 0.0], "w": [2.0, 0.0]},
    ]
    assert measure_from_obj(obj) == measure


def test_doubling_across_families():
    samples = [
        Geometric(0.3 + 0.4j),
        TruncatedGeometric(0.8, 6),
        Finite((1.0, 2 + 1j, -0.5), 0.25),
        FromMeasure(0.5 + 0.25j, DiscreteMeasure(((0.5, 1.0), (-0.3 + 0.2j, 0.7j)))),
    ]
    for sym in samples:
        rep = verify_doubling(sym)
        assert rep.holds, type(sym).__name__


disk = st.builds(cmath.rect, st.floats(0.0, 0.999), st.floats(0.0, 2 * np.pi))
small_complex = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
tails = st.one_of(st.just(0j), small_complex)
values = st.lists(small_complex, max_size=8).map(tuple)
base_symbols = st.one_of(
    st.builds(Geometric, disk),
    st.builds(Indicator, st.integers(0, 300)),
    st.builds(TruncatedGeometric, st.floats(0.01, 0.99), st.integers(0, 40)),
    st.builds(Finite, values, tails),
    st.builds(
        FromMeasure,
        tails,
        st.lists(st.tuples(disk, small_complex), max_size=4).map(
            lambda atoms: DiscreteMeasure(tuple(atoms))
        ),
    ),
    st.builds(lambda vals, tail: ParityTail(vals, tail, tail), values, tails),
)
all_symbols = st.one_of(
    base_symbols,
    base_symbols.filter(lambda sym: tail_constant(sym) == 0).map(Doubled),
)


@settings(max_examples=80, deadline=None)
@given(all_symbols)
def test_doubling_properties(sym):
    doubled = double(sym)
    for n in range(max(60, (form(sym).support_length or 0) + 2)):
        assert evaluate(doubled, 2 * n) == evaluate(sym, n)
        assert evaluate(doubled, 2 * n + 1) == 0

    base = c_norm(sym).total
    assert abs(cprime_norm(doubled).total - base) <= 1e-9 * max(1.0, base)
    # hhat = h + k, and equal tails give |c1| + |c2| = |c|
    assert cprime_norm(sym).total <= base + 1e-9 * max(1.0, base)

    if tail_constant(sym) == 0:
        psi1(doubled, 0)
    else:
        with pytest.raises(UnsupportedTail):
            psi1(doubled, 0)

    for s in (sym, doubled):
        assert symbol_from_obj(json.loads(json.dumps(to_obj(s)))) == s
