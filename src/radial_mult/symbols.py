"""Radial symbols: complex-valued functions on the non-negative integers.

A symbol is given either by a closed-form family (geometric, indicator,
truncated geometric) or by finite data plus explicit tail behaviour.  The
module evaluates symbols, extracts their tail constants, bounds sup |phi|
from below, sums the alternating difference series ``psi1``/``psi2``, and
implements index doubling, phi~(2n) = phi(n) and phi~(2n+1) = 0, as the
``Doubled`` family.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass

from .errors import NonConvergent, UnsupportedTail

# Margin keeping measure atoms away from the unit circle, where the
# weight |1-s|/(1-|s|) blows up.
ATOM_BOUNDARY_MARGIN = 1e-6


def _finite_complex(z, what: str) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"{what} must be finite, got {z}")
    return z


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many atoms (location s strictly inside the unit disk, weight w)."""

    atoms: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        atoms = tuple(
            (_finite_complex(s, "atom location"), _finite_complex(w, "atom weight"))
            for s, w in self.atoms
        )
        for s, _ in atoms:
            if abs(s) >= 1.0 - ATOM_BOUNDARY_MARGIN:
                raise ValueError(
                    f"atom location {s} too close to the unit circle "
                    f"(|s| must be < 1 - {ATOM_BOUNDARY_MARGIN})"
                )
        object.__setattr__(self, "atoms", atoms)

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class Geometric:
    """phi(n) = s**n for a fixed complex s with |s| < 1."""

    s: complex

    def __post_init__(self):
        object.__setattr__(self, "s", _finite_complex(self.s, "geometric ratio"))
        if abs(self.s) >= 1.0:
            raise ValueError(f"geometric ratio must satisfy |s| < 1, got {self.s}")


@dataclass(frozen=True)
class Indicator:
    """phi(n) = 1 if n == n0 else 0."""

    n0: int

    def __post_init__(self):
        if self.n0 < 0:
            raise ValueError("indicator index must be non-negative")


@dataclass(frozen=True)
class TruncatedGeometric:
    """phi(n) = r**n for n <= n0, and 0 beyond."""

    r: float
    n0: int

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        if self.n0 < 0:
            raise ValueError("cutoff must be non-negative")


@dataclass(frozen=True)
class Finite:
    """Explicit leading values followed by a constant tail.

    The tail is mandatory: it is never estimated from the data.
    """

    values: tuple[complex, ...]
    tail: complex

    def __post_init__(self):
        object.__setattr__(
            self, "values", tuple(_finite_complex(v, "value") for v in self.values)
        )
        object.__setattr__(self, "tail", _finite_complex(self.tail, "tail"))


@dataclass(frozen=True)
class FromMeasure:
    """phi(n) = c + sum_j w_j * s_j**n over the atoms of a discrete measure."""

    c: complex
    measure: DiscreteMeasure

    def __post_init__(self):
        object.__setattr__(self, "c", _finite_complex(self.c, "constant"))


@dataclass(frozen=True)
class ParityTail:
    """Explicit leading values, then separate constant tails on even/odd indices.

    Such a symbol is 2-periodic at infinity and has no single tail constant.
    """

    values: tuple[complex, ...]
    tail_even: complex
    tail_odd: complex

    def __post_init__(self):
        object.__setattr__(
            self, "values", tuple(_finite_complex(v, "value") for v in self.values)
        )
        object.__setattr__(self, "tail_even", _finite_complex(self.tail_even, "even tail"))
        object.__setattr__(self, "tail_odd", _finite_complex(self.tail_odd, "odd tail"))


@dataclass(frozen=True)
class Doubled:
    """The index doubling of ``base``: phi~(2n) = phi(n) and phi~(2n+1) = 0.

    A base tail c makes the doubled symbol 2-periodic at infinity with
    even/odd limits (c, 0), so its two-step-difference constants are
    c1 = c2 = c/2.  A base whose even and odd tails differ is rejected with
    UnsupportedTail: its doubling would be 4-periodic at infinity.
    """

    base: RadialSymbol

    def __post_init__(self):
        even, odd = parity_tails(self.base)
        if even != odd:
            raise UnsupportedTail(
                "cannot double a symbol whose even/odd tails differ "
                "(the result would be 4-periodic at infinity)"
            )


RadialSymbol = (
    Geometric | Indicator | TruncatedGeometric | Finite | FromMeasure | ParityTail | Doubled
)


def evaluate(sym: RadialSymbol, n: int) -> complex:
    """Return phi(n) for the represented family."""
    if n < 0:
        raise ValueError("symbols are defined on non-negative integers")
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
    if isinstance(sym, Doubled):
        return 0j if n % 2 else evaluate(sym.base, n // 2)
    raise TypeError(f"not a radial symbol: {sym!r}")


def parity_tails(sym: RadialSymbol) -> tuple[complex, complex]:
    """Limits of phi along even and odd indices."""
    if isinstance(sym, (Geometric, Indicator, TruncatedGeometric)):
        return 0.0 + 0.0j, 0.0 + 0.0j
    if isinstance(sym, Finite):
        return sym.tail, sym.tail
    if isinstance(sym, FromMeasure):
        return sym.c, sym.c
    if isinstance(sym, ParityTail):
        return sym.tail_even, sym.tail_odd
    if isinstance(sym, Doubled):
        return parity_tails(sym.base)[0], 0j
    raise TypeError(f"not a radial symbol: {sym!r}")


def tail_constant(sym: RadialSymbol) -> complex:
    """The limit of phi(n); raises UnsupportedTail if even/odd limits differ."""
    even, odd = parity_tails(sym)
    if even != odd:
        raise UnsupportedTail(
            "symbol is 2-periodic at infinity; use parity_tails() for its "
            f"even/odd limits ({even}, {odd})"
        )
    return even


def support_length(sym: RadialSymbol) -> int | None:
    """Index from which phi is constant on the even and on the odd indices.

    Every difference of a finite-support symbol vanishes from there on.
    Measure symbols with atoms never settle and give None.
    """
    if isinstance(sym, (Indicator, TruncatedGeometric)):
        return sym.n0 + 1
    if isinstance(sym, (Finite, ParityTail)):
        return len(sym.values)
    if isinstance(sym, FromMeasure) and not sym.measure.atoms:
        return 0
    if isinstance(sym, (Geometric, FromMeasure)):
        return None
    if isinstance(sym, Doubled):
        length = support_length(sym.base)
        return None if length is None else 2 * length
    raise TypeError(f"not a radial symbol: {sym!r}")


def eigenvalue_lower_bound(sym: RadialSymbol) -> float:
    """max |phi(n)| over a window of indices, a lower bound for sup_n |phi(n)|.

    A finite-support symbol is constant on the even and on the odd indices
    from its support length on, so the window up to support + 2 covers both
    parity tails and the bound is the sup itself.  Measure symbols never
    settle; they scan n < 33, which still gives a valid lower bound.
    """
    length = support_length(sym)
    window = 33 if length is None else length + 2
    return max(abs(evaluate(sym, n)) for n in range(window))


def measure_atoms(sym: RadialSymbol) -> tuple[tuple[complex, complex], ...]:
    """Atoms (s, w) with phi(n) = tail + sum w * s**n, for the measure families.

    A doubled measure symbol has the atoms (+-sqrt(s), w/2): w s**(m/2) for
    even m and 0 for odd m is (w/2) (r**m + (-r)**m) with r**2 = s.  Its
    tail c doubles to c (1 + (-1)**m)/2, which the parity tails carry, not
    the atoms.
    """
    if isinstance(sym, Geometric):
        return ((sym.s, 1.0 + 0.0j),)
    if isinstance(sym, FromMeasure):
        return sym.measure.atoms
    if isinstance(sym, Doubled):
        roots = [(cmath.sqrt(s), w / 2) for s, w in measure_atoms(sym.base)]
        return tuple(atom for r, w in roots for atom in ((r, w), (-r, w)))
    raise TypeError(f"{type(sym).__name__} has no measure representation")


def psi1(sym: RadialSymbol, n: int) -> complex:
    """Sum of the alternating difference series starting at index n.

    psi1(n) = sum_{i>=0} (phi(n+2i) - phi(n+2i+1)), in closed form: a measure
    symbol gives sum_j w_j s_j**n / (1 + s_j), and a finite-support symbol a
    finite sum up to its support length.  When the even and odd tails differ
    the terms tend to +-(even - odd), so the series diverges and
    NonConvergent is raised.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    even, odd = parity_tails(sym)
    if even != odd:
        raise NonConvergent(
            f"difference terms tend to +-{even - odd} (even/odd tails differ), "
            "so the series diverges"
        )
    length = support_length(sym)
    if length is None:
        return sum((w * s**n / (1.0 + s) for s, w in measure_atoms(sym)), 0.0 + 0.0j)
    return sum(
        (evaluate(sym, i) - evaluate(sym, i + 1) for i in range(n, length, 2)),
        0.0 + 0.0j,
    )


def psi2(sym: RadialSymbol, n: int) -> complex:
    """psi2(n) = psi1(n+1)."""
    return psi1(sym, n + 1)


def double(sym: RadialSymbol) -> RadialSymbol:
    """The symbol with phi~(2n) = phi(n) and phi~(2n+1) = 0.

    Indicators keep their closed form, Indicator(2 n0); every other symbol
    becomes Doubled(sym), which evaluates, and takes its exact norm route,
    through its base.
    """
    if isinstance(sym, Indicator):
        return Indicator(2 * sym.n0)
    return Doubled(sym)


# ---------------------------------------------------------------------------
# JSON serialization.  Complex numbers are [re, im] pairs; {"re":..,"im":..}
# objects and bare numbers are accepted on input.
# ---------------------------------------------------------------------------


def _cplx_out(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _int_in(obj) -> int:
    """A JSON integer; floats, booleans and strings are rejected, not truncated."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    raise ValueError(f"expected an integer, got {obj!r}")


def _real_in(obj) -> float:
    """A JSON real: an integer or a float; booleans and strings are rejected."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        try:
            return float(obj)
        except OverflowError as exc:
            raise ValueError(f"real number out of range: {obj!r}") from exc
    raise ValueError(f"expected a real number, got {obj!r}")


def _cplx_in(obj) -> complex:
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(_real_in(obj[0]), _real_in(obj[1]))
    if isinstance(obj, dict) and set(obj) <= {"re", "im"}:
        return complex(_real_in(obj.get("re", 0.0)), _real_in(obj.get("im", 0.0)))
    return complex(_real_in(obj))


def measure_to_obj(measure: DiscreteMeasure) -> list:
    return [{"s": _cplx_out(s), "w": _cplx_out(w)} for s, w in measure.atoms]


def measure_from_obj(obj) -> DiscreteMeasure:
    atoms = tuple((_cplx_in(entry["s"]), _cplx_in(entry["w"])) for entry in obj)
    return DiscreteMeasure(atoms)


def symbol_to_obj(sym: RadialSymbol) -> dict:
    if isinstance(sym, Geometric):
        return {"family": "geometric", "s": _cplx_out(sym.s)}
    if isinstance(sym, Indicator):
        return {"family": "indicator", "n0": sym.n0}
    if isinstance(sym, TruncatedGeometric):
        return {"family": "truncated_geometric", "r": float(sym.r), "n0": sym.n0}
    if isinstance(sym, Finite):
        return {
            "family": "finite",
            "values": [_cplx_out(v) for v in sym.values],
            "tail": _cplx_out(sym.tail),
        }
    if isinstance(sym, FromMeasure):
        return {
            "family": "from_measure",
            "c": _cplx_out(sym.c),
            "measure": measure_to_obj(sym.measure),
        }
    if isinstance(sym, ParityTail):
        return {
            "family": "parity_tail",
            "values": [_cplx_out(v) for v in sym.values],
            "tail_even": _cplx_out(sym.tail_even),
            "tail_odd": _cplx_out(sym.tail_odd),
        }
    if isinstance(sym, Doubled):
        return {"family": "doubled", "base": symbol_to_obj(sym.base)}
    raise TypeError(f"not a radial symbol: {sym!r}")


def symbol_from_obj(obj: dict) -> RadialSymbol:
    family = str(obj["family"]).replace("-", "_").lower()
    if family == "geometric":
        return Geometric(_cplx_in(obj["s"]))
    if family == "indicator":
        return Indicator(_int_in(obj["n0"]))
    if family == "truncated_geometric":
        return TruncatedGeometric(_real_in(obj["r"]), _int_in(obj["n0"]))
    if family == "finite":
        return Finite(tuple(_cplx_in(v) for v in obj["values"]), _cplx_in(obj["tail"]))
    if family == "from_measure":
        return FromMeasure(_cplx_in(obj.get("c", 0.0)), measure_from_obj(obj["measure"]))
    if family == "parity_tail":
        return ParityTail(
            tuple(_cplx_in(v) for v in obj["values"]),
            _cplx_in(obj["tail_even"]),
            _cplx_in(obj["tail_odd"]),
        )
    if family == "doubled":
        return Doubled(symbol_from_obj(obj["base"]))
    raise ValueError(f"unknown symbol family {obj.get('family')!r}")


def symbol_to_json(sym: RadialSymbol) -> str:
    return json.dumps(symbol_to_obj(sym), sort_keys=True)


def symbol_from_json(text: str) -> RadialSymbol:
    return symbol_from_obj(json.loads(text))
