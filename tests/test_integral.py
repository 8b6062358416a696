import math

import numpy as np
import pytest

from radial_mult import (
    DiscreteMeasure,
    Finite,
    FromMeasure,
    Geometric,
    Indicator,
    TooLarge,
    TruncatedGeometric,
    UnsupportedRepresentation,
    c_norm,
    eval_measure,
    evaluate,
    representation_for,
    verify_doubling,
    verify_membership_bound,
    weight,
)

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
    assert eval_measure(0.0, DELTA_HALF, 3) == 0.125
    empty = DiscreteMeasure(())
    assert eval_measure(2.0, empty, 7) == 2.0
    cancel = DiscreteMeasure(((0.5, 1.0), (-0.5, 1.0)))
    assert eval_measure(0.0, cancel, 1) == 0.0


def test_eval_measure_matches_symbol_evaluation():
    measure = DiscreteMeasure(((0.4 + 0.3j, 1.0 - 0.5j), (-0.2, 2.0)))
    sym = FromMeasure(0.75j, measure)
    for n in range(30):
        assert eval_measure(0.75j, measure, n) == evaluate(sym, n)


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
        total = c_norm(FromMeasure(c, measure), 1e-9).total
        assert total <= abs(c) + weight(measure) + 1e-8


def test_representation_for():
    c, measure = representation_for(Geometric(0.5))
    assert c == 0 and measure.atoms == ((0.5 + 0j, 1.0 + 0j),)

    sym = FromMeasure(2.0, DELTA_HALF)
    assert representation_for(sym) == (2.0, DELTA_HALF)

    c, measure = representation_for(Finite((), 3.0))
    assert c == 3.0 and len(measure) == 0

    with pytest.raises(UnsupportedRepresentation):
        representation_for(Indicator(1))
    with pytest.raises(UnsupportedRepresentation):
        representation_for(TruncatedGeometric(0.5, 3))


def test_headroom_for_representable_symbols():
    headroom = 8.0 / math.pi
    for sym in (
        Geometric(0.5),
        Geometric(-0.5),
        Geometric(0.3 + 0.4j),
        FromMeasure(0.25, DiscreteMeasure(((0.6, 0.5), (-0.2 + 0.1j, 1.0)))),
    ):
        c, measure = representation_for(sym)
        mass = abs(c) + weight(measure)
        assert mass <= headroom * c_norm(sym, 1e-9).total + 1e-8


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


def test_doubling_with_tail_near_unit_circle_too_large():
    # double() stores about 39,000 half-values, so the doubled symbol's
    # support route would need a matrix past the height cap
    with pytest.raises(TooLarge):
        verify_doubling(FromMeasure(1.0, DiscreteMeasure(((0.999, 1.0),))))


def test_measure_json_roundtrip():
    from radial_mult.integral import measure_from_obj, measure_to_obj

    measure = DiscreteMeasure(((0.4 + 0.3j, 1.0 - 0.5j), (-0.2, 2.0)))
    obj = measure_to_obj(measure)
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
