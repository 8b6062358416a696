import cmath
import json
import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_hankel import decomposed_symbols, finite_support, late_or_complex_tail, tail_free

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
    cprime_norm,
    double,
    evaluate,
    parity_tails,
    psi1,
    psi2,
    symbol_from_obj,
    tail_constant,
    to_obj,
)
from radial_mult.symbols import form, measure_atoms

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
    # a geometric symbol is one atom, so it keeps the measure's margin
    with pytest.raises(ValueError, match="too close to or outside the unit circle"):
        Geometric(0.9999999)


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
    with pytest.raises(UnsupportedTail):
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


def test_bad_indices_and_non_symbols_are_rejected():
    with pytest.raises(ValueError, match="indicator index must be non-negative"):
        Indicator(-1)
    with pytest.raises(ValueError, match="cutoff must be non-negative"):
        TruncatedGeometric(0.5, -1)
    with pytest.raises(ValueError, match="index must be non-negative"):
        psi1(Geometric(0.5), -1)
    with pytest.raises(TypeError, match="not a radial symbol"):
        form(object())


def test_double_special_forms():
    # a doubled indicator has the shape of Indicator(2 n0) with one more
    # zero in its head, so it takes the same closed form
    for n0 in (0, 1, 5, 300, 4000):
        rep = cprime_norm(double(Indicator(n0)))
        assert rep.total == cprime_norm(Indicator(2 * n0)).total
        assert (rep.route, rep.truncation) == ("support", 2 * n0 + 2)
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
        again = symbol_from_obj(json.loads(json.dumps(to_obj(sym))))
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


# ---------------------------------------------------------------------------
# The normal form against the per-family formulas it replaced
# ---------------------------------------------------------------------------

# The reads each family had before every symbol went through symbols.form,
# kept literally as a reference.


def reference_value(sym, n):
    if isinstance(sym, Geometric):
        return sym.s**n
    if isinstance(sym, Indicator):
        return 1.0 + 0.0j if n == sym.n0 else 0.0 + 0.0j
    if isinstance(sym, TruncatedGeometric):
        return complex(sym.r**n) if n <= sym.n0 else 0.0 + 0.0j
    if isinstance(sym, Finite):
        return sym.values[n] if n < len(sym.values) else sym.tail
    if isinstance(sym, FromMeasure):
        acc = sym.c
        for s, w in sym.measure.atoms:
            acc += w * s**n
        return acc
    if isinstance(sym, ParityTail):
        if n < len(sym.values):
            return sym.values[n]
        return sym.tail_even if n % 2 == 0 else sym.tail_odd
    return 0j if n % 2 else reference_value(sym.base, n // 2)  # Doubled


def reference_parity_tails(sym):
    if isinstance(sym, (Geometric, Indicator, TruncatedGeometric)):
        return 0.0 + 0.0j, 0.0 + 0.0j
    if isinstance(sym, Finite):
        return sym.tail, sym.tail
    if isinstance(sym, FromMeasure):
        return sym.c, sym.c
    if isinstance(sym, ParityTail):
        return sym.tail_even, sym.tail_odd
    return reference_parity_tails(sym.base)[0], 0j  # Doubled


def reference_support_length(sym):
    if isinstance(sym, (Indicator, TruncatedGeometric)):
        return sym.n0 + 1
    if isinstance(sym, (Finite, ParityTail)):
        return len(sym.values)
    if isinstance(sym, FromMeasure) and not sym.measure.atoms:
        return 0
    if isinstance(sym, (Geometric, FromMeasure)):
        return None
    length = reference_support_length(sym.base)  # Doubled
    return None if length is None else 2 * length


def reference_atoms(sym):
    """The atoms before merging; () for the families without atoms."""
    if isinstance(sym, Geometric):
        return ((sym.s, 1.0 + 0.0j),)
    if isinstance(sym, FromMeasure):
        return sym.measure.atoms
    if isinstance(sym, Doubled):
        roots = [(cmath.sqrt(s), w / 2) for s, w in reference_atoms(sym.base)]
        return tuple(atom for r, w in roots for atom in ((r, w), (-r, w)))
    return ()


def merges(sym):
    """Whether form(sym) merges atoms or drops a zero weight, here or in a base."""
    atoms = reference_atoms(sym)
    clash = len({s for s, _ in atoms}) < len(atoms) or any(w == 0 for _, w in atoms)
    return clash or (isinstance(sym, Doubled) and merges(sym.base))


def bits(z, signed_zeros=True):
    """The bit pattern of a complex; z + 0j turns a zero part's sign to +."""
    z = complex(z) if signed_zeros else complex(z) + 0j
    return struct.pack("<dd", z.real, z.imag)


def exact_value(sym, n):
    """phi(n) of a symbol with atoms in 60-digit arithmetic, read from the
    family's fields (a Doubled symbol from its base at n // 2)."""
    if isinstance(sym, Doubled):
        return mpmath.mpc(0) if n % 2 else exact_value(sym.base, n // 2)
    if isinstance(sym, Geometric):
        return mpmath.mpc(sym.s) ** n
    atoms = sym.measure.atoms
    return mpmath.mpc(sym.c) + mpmath.fsum(mpmath.mpc(w) * mpmath.mpc(s) ** n for s, w in atoms)


def root_family(sym):
    while isinstance(sym, Doubled):
        sym = sym.base
    return type(sym)


# Two atoms at one location of modulus 1e-10, so s**32 is subnormal: three
# doublings of their measure read merged values at n = 256 that lie one
# subnormal spacing from the unmerged ones.
TINY = -4.1614683654714244e-11 + 9.092974268256818e-11j
SUBNORMAL_PAIR = DiscreteMeasure(((TINY, 1.5j), (TINY, 1.75j)))

every_symbol = st.one_of(
    decomposed_symbols,
    late_or_complex_tail,
    finite_support,
    tail_free.map(Doubled).map(Doubled),
    tail_free.map(Doubled).map(Doubled).map(Doubled),
)


@settings(max_examples=200, deadline=None)
@given(every_symbol)
@example(Doubled(Doubled(Geometric(0.5j))))
@example(Doubled(FromMeasure(0j, DiscreteMeasure(((0.5, 1.0), (0.5, 1.0), (0.3, 0.0))))))
@example(Doubled(Doubled(Doubled(TruncatedGeometric(0.7, 4)))))
@example(Doubled(Doubled(Doubled(FromMeasure(0j, SUBNORMAL_PAIR)))))
def test_form_reads_match_the_family_formulas(sym):
    # Bit for bit, with two exceptions.  A geometric symbol is read as the
    # measure 0 + 1 s**n, whose sum turns a -0.0 part of s**n into 0.0.
    # Merged atoms sum their weights before the powers, so there each side
    # is checked against 60-digit phi(n), within the per-value bound of
    # multiplier._scaling_rounding: e(n) = u (8n + N + 11) a(n) plus, for
    # gradual underflow, eta sum (8 bit_length(n) |w| + 4).
    f = form(sym)
    assert f is not form(sym)  # built per call, never cached on the symbol
    assert list(map(bits, parity_tails(sym))) == list(map(bits, reference_parity_tails(sym)))
    raw, atoms = reference_atoms(sym), measure_atoms(sym)
    assert atoms == tuple(zip(f.s.tolist(), f.w.tolist()))
    merged = merges(sym)
    if not merged:
        assert [tuple(map(bits, a)) for a in atoms] == [tuple(map(bits, a)) for a in raw]
    length = reference_support_length(sym)
    assert form(sym).support_length == (length if atoms or not raw else 0)
    signed = root_family(sym) is not Geometric
    u, eta, even, odd = 2.0**-53, 2.0**-1074, *reference_parity_tails(sym)
    for n in range(300):
        got, want = f.value(n), reference_value(sym, n)
        if merged:
            a = max(abs(even), abs(odd)) + sum(abs(wj) * abs(sj) ** n for sj, wj in raw)
            under = sum(8 * n.bit_length() * abs(wj) + 4 for _, wj in raw)
            e = u * (8 * n + len(raw) + 11) * a + eta * under
            with mpmath.workdps(60):
                exact = exact_value(sym, n)
                assert abs(got - exact) <= e and abs(want - exact) <= e, n
        else:
            assert bits(got, signed) == bits(want, signed), n
    assert bits(evaluate(sym, 299)) == bits(f.value(299))
    # the difference rows the Hankel matrices and the kernels read
    for offset, step in ((0, 1), (1, 1), (0, 2), (3, 2)):
        row = f.differences(64, offset, step).tolist()
        want = [f.value(offset + m) - f.value(offset + m + step) for m in range(64)]
        assert list(map(bits, row)) == list(map(bits, want)), (offset, step)
