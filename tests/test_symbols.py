import math

import numpy as np
import pytest

from radial_mult import (
    DiscreteMeasure,
    Doubled,
    Finite,
    FromMeasure,
    Geometric,
    Indicator,
    NonConvergent,
    ParityTail,
    TruncatedGeometric,
    UnsupportedTail,
    double,
    evaluate,
    parity_tails,
    psi1,
    psi2,
    symbol_from_json,
    symbol_from_obj,
    symbol_to_json,
    tail_constant,
)

FAMILIES = [
    Geometric(0.5),
    Geometric(-0.5),
    Geometric(0.3 + 0.4j),
    Indicator(0),
    Indicator(1),
    Indicator(3),
    TruncatedGeometric(0.8, 6),
    Finite((1.0, 2 + 1j, -0.5), 0.25),
    Finite((), 1.0),
    FromMeasure(
        0.5 + 0.25j,
        DiscreteMeasure(((0.5, 1.0), (-0.3 + 0.2j, 0.7 - 0.1j))),
    ),
]


def brute_psi1(sym, n, terms=4000):
    # independent oracle: plain partial sum of the difference series
    return sum(
        evaluate(sym, n + 2 * i) - evaluate(sym, n + 2 * i + 1) for i in range(terms)
    )


def test_eval_examples():
    assert evaluate(Geometric(0.5), 3) == 0.125
    assert evaluate(Indicator(1), 0) == 0
    assert evaluate(Indicator(1), 1) == 1
    assert evaluate(Finite((1.0, 2 + 1j), 0.3), 5) == 0.3


def test_eval_rejects_negative_index():
    with pytest.raises(ValueError):
        evaluate(Geometric(0.5), -1)


def test_geometric_requires_unit_disk():
    with pytest.raises(ValueError):
        Geometric(1.0)
    with pytest.raises(ValueError):
        Geometric(0.8 + 0.7j)


def test_measure_rejects_boundary_atoms():
    with pytest.raises(ValueError):
        DiscreteMeasure(((1.0 - 1e-7, 1.0),))


def test_tail_constants():
    assert tail_constant(Geometric(0.5)) == 0
    assert tail_constant(Finite((1.0, 1.0, 1.0), 0.25)) == 0.25
    assert tail_constant(FromMeasure(2.0, DiscreteMeasure(((0.5, 1.0),)))) == 2.0
    with pytest.raises(UnsupportedTail):
        tail_constant(ParityTail((), 1.0, 0.0))


def test_psi1_geometric_closed_form_matches_brute_force():
    sym = Geometric(0.5)
    assert abs(psi1(sym, 0) - 2.0 / 3.0) < 1e-14
    for n in range(6):
        assert abs(psi1(sym, n) - brute_psi1(sym, n)) < 1e-12


def test_psi1_indicator_values():
    sym = Indicator(1)
    assert psi1(sym, 0) == -1
    assert psi1(sym, 1) == 1
    assert psi1(sym, 2) == 0


def test_psi2_examples():
    assert abs(psi2(Geometric(0.5), 0) - 1.0 / 3.0) < 1e-14
    assert psi2(Indicator(1), 0) == 1
    for sym in FAMILIES:
        for n in (0, 3, 7):
            assert psi2(sym, n) == psi1(sym, n + 1)


@pytest.mark.parametrize("sym", FAMILIES, ids=lambda s: type(s).__name__)
def test_psi_decomposition(sym):
    tol = 1e-12
    c = tail_constant(sym)
    for n in range(65):
        total = psi1(sym, n) + psi2(sym, n) + c
        assert abs(total - evaluate(sym, n)) <= 10 * tol


@pytest.mark.parametrize("sym", FAMILIES, ids=lambda s: type(s).__name__)
def test_psi_difference_identity(sym):
    tol = 1e-12
    for n in range(20):
        lhs = psi1(sym, n) - psi1(sym, n + 2)
        rhs = evaluate(sym, n) - evaluate(sym, n + 1)
        assert abs(lhs - rhs) <= 10 * tol


def test_psi_decays_to_zero():
    assert abs(psi1(Geometric(0.5), 80)) < 1e-12
    assert psi1(Indicator(3), 10) == 0


def test_psi_nonconvergent_outside_class():
    # unequal even/odd tails keep the difference terms at +-1
    with pytest.raises(NonConvergent):
        psi1(ParityTail((), 1.0, 0.0), 0)


def test_psi1_late_indicator():
    # a long run of zero terms before the support does not end the sum
    assert psi1(Indicator(500), 0) == 1
    assert psi1(Indicator(500), 1) == -1
    assert psi1(Indicator(500), 501) == 0


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "make",
    [
        lambda: Geometric(NAN),
        lambda: Geometric(complex(0.1, INF)),
        lambda: DiscreteMeasure(((NAN, 1.0),)),
        lambda: DiscreteMeasure(((0.5, complex(INF, 0.0)),)),
        lambda: Finite((1.0, NAN), 0.0),
        lambda: Finite((1.0,), INF),
        lambda: ParityTail((complex(0.0, NAN),), 0.0, 0.0),
        lambda: ParityTail((), NAN, 0.0),
        lambda: ParityTail((), 0.0, -INF),
        lambda: FromMeasure(NAN, DiscreteMeasure(((0.5, 1.0),))),
    ],
)
def test_non_finite_parameters_rejected(make):
    with pytest.raises(ValueError, match="must be finite"):
        make()


@pytest.mark.parametrize("sym", FAMILIES, ids=lambda s: type(s).__name__)
def test_double_interleaves_exactly(sym):
    doubled = double(sym)
    for n in range(65):
        assert evaluate(doubled, 2 * n) == evaluate(sym, n)
        assert evaluate(doubled, 2 * n + 1) == 0


def test_double_special_forms():
    assert double(Indicator(1)) == Indicator(2)
    d = double(Finite((1.0,), 0.0))
    assert [evaluate(d, n) for n in range(4)] == [
        evaluate(Indicator(0), n) for n in range(4)
    ]
    g = double(Geometric(0.5))
    assert [evaluate(g, n) for n in range(6)] == [1.0, 0.0, 0.5, 0.0, 0.25, 0.0]


def test_double_nonzero_tail_gets_parity_constants():
    doubled = double(Finite((), 1.0))
    assert isinstance(doubled, Doubled)
    assert parity_tails(doubled) == (1.0, 0.0)
    with pytest.raises(UnsupportedTail):
        tail_constant(doubled)


def test_double_rejects_differing_parity_tails():
    # the doubled symbol would be 4-periodic at infinity
    with pytest.raises(UnsupportedTail):
        double(ParityTail((), 1.0, 0.0))
    with pytest.raises(UnsupportedTail):
        Doubled(ParityTail((), 1.0, 0.0))


def test_double_of_measure_with_constant():
    sym = FromMeasure(2.0, DiscreteMeasure(((0.5, 1.0),)))
    doubled = double(sym)
    assert parity_tails(doubled) == (2.0, 0.0)
    for n in range(50):
        assert evaluate(doubled, 2 * n) == evaluate(sym, n)


def test_serialization_roundtrip():
    for sym in FAMILIES + [ParityTail((1.0, 2.0), 0.5, -0.5j)]:
        again = symbol_from_json(symbol_to_json(sym))
        for n in range(10):
            assert evaluate(again, n) == evaluate(sym, n)


def test_serialization_accepts_re_im_objects():
    sym = symbol_from_obj({"family": "geometric", "s": {"re": 0.5, "im": 0.0}})
    assert sym == Geometric(0.5)
    sym2 = symbol_from_obj(
        {"family": "finite", "values": [[1, 0], [2, 1]], "tail": [0.3, 0]}
    )
    assert sym2 == Finite((1.0, 2.0 + 1.0j), 0.3)


def test_finite_requires_explicit_tail():
    with pytest.raises(TypeError):
        Finite((1.0, 2.0))  # no tail given
