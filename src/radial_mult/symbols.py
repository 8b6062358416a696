"""Radial symbols: complex-valued functions on the non-negative integers.

A symbol is given either by a closed-form family (geometric, indicator,
truncated geometric) or by finite data plus explicit tail behaviour.  The
module evaluates symbols, extracts their tail constants, bounds sup |phi|
from below, sums the alternating difference series ``psi1``/``psi2``, and
implements index doubling, phi~(2n) = phi(n) and phi~(2n+1) = 0, as the
``Doubled`` family.  It is the one home of measure arithmetic: atom arrays,
the Vandermonde horizon, and exact squares, powers and 1 - |s|**2 of atoms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, UnsupportedTail

# Margin keeping measure atoms away from the unit circle, where the
# weight |1-s|/(1-|s|) blows up.
ATOM_BOUNDARY_MARGIN = 1e-6

# The Vandermonde horizon M of a measure symbol is the first power of two
# with max|s|**M at or below this level, so the powers past M carry nothing
# a double can hold.
ROUNDING = float(np.finfo(float).eps)

# Significant bits kept by the exact squarings behind atom_powers.
POWER_BITS = 128

# Longest power sequences built; atoms with |s| above about 1 - 3.4e-5 need more.
VECTOR_HORIZON_CAP = 1 << 20


def _finite_complex(z, what: str) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"{what} must be finite, got {z}")
    return z


def _atom_location(s, what: str) -> complex:
    s = _finite_complex(s, what)
    if abs(s) >= 1.0 - ATOM_BOUNDARY_MARGIN:
        raise ValueError(
            f"{what} {s} too close to or outside the unit circle "
            f"(|s| must be < 1 - {ATOM_BOUNDARY_MARGIN})"
        )
    return s


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many atoms (location s strictly inside the unit disk, weight w)."""

    atoms: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        atoms = tuple(
            (_atom_location(s, "atom location"), _finite_complex(w, "atom weight"))
            for s, w in self.atoms
        )
        object.__setattr__(self, "atoms", atoms)

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class Geometric:
    """phi(n) = s**n for a fixed complex s, kept off the unit circle as a measure atom."""

    s: complex

    def __post_init__(self):
        object.__setattr__(self, "s", _atom_location(self.s, "geometric ratio"))


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
    """sup_n |phi(n)|, up to rounding: a lower bound for the multiplier's norm.

    A finite-support symbol is constant on the even and on the odd indices
    from its support length on, so the window up to support + 2 covers both
    parity tails.  A measure symbol phi(n) = c_n + sum w s**n, with c_n its
    even or odd tail, has sup max(|c_even|, |c_odd|, max_n |phi(n)|); past N
    every |phi(n)| is at most max |c_n| + sum |w| |s|**N.  The window N
    doubles from 32 until that bound drops to the maximum found, or until
    the Vandermonde horizon, where the powers fall below rounding.  A
    horizon past VECTOR_HORIZON_CAP stops the scan there, which still gives
    a lower bound.
    """
    length = support_length(sym)
    if length is not None:
        return max(abs(evaluate(sym, n)) for n in range(length + 2))
    even, odd = parity_tails(sym)
    s, w = atom_arrays(sym)
    radius, size = np.abs(s), np.abs(w)
    limit = max(abs(even), abs(odd))
    horizon = min(vandermonde_horizon(s), VECTOR_HORIZON_CAP)
    n = 32
    while True:
        phi = atom_powers(s, n) @ w
        phi[0::2] += even
        phi[1::2] += odd
        best = max(limit, float(np.abs(phi).max()))
        if limit + size @ radius**n <= best or n >= horizon:
            return best
        n *= 2


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


def atom_arrays(sym: RadialSymbol) -> tuple[np.ndarray, np.ndarray]:
    """The locations s and weights w of measure_atoms(sym), as complex arrays."""
    atoms = measure_atoms(sym)
    s = np.array([a for a, _ in atoms], dtype=complex)
    w = np.array([b for _, b in atoms], dtype=complex)
    return s, w


def vandermonde_horizon(s: np.ndarray) -> int:
    """First power of two M with max|s|**M <= ROUNDING."""
    m, power = 1, float(np.abs(s).max())
    while power > ROUNDING:
        power *= power
        m *= 2
    return m


def _dyadic(z: complex) -> tuple[int, int, int]:
    """Integers (re, im, exp <= 0) with z = (re + i im) 2**exp exactly."""
    (a, p), (b, q) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    den = max(p, q)  # both denominators are powers of two
    return a * (den // p), b * (den // q), 1 - den.bit_length()


def one_minus_abs_squared(s: complex) -> float:
    """1 - |s|**2 on the integers of s's dyadic split, rounded once.

    1 - abs(s)**2 cancels near the circle, where abs(s) carries a rounding:
    up to 5e-11 of 1 - |s| at |s| = 1 - 2e-6 off the real axis.
    """
    re, im, exp = _dyadic(complex(s))
    den = 1 << -2 * exp
    return (den - re * re - im * im) / den


def _squares(s: np.ndarray, levels: int) -> np.ndarray:
    """s**(2**k) for k < levels, each within a rounding or two of the exact power.

    Squaring in double precision doubles the relative error at every step,
    and s**r carries r times the rounding of arg(s) in its phase, so the
    squares are taken on the integers of s's dyadic split, kept to
    POWER_BITS significant bits, and rounded to double once.
    """
    parts = []  # re, im of each square, atom by atom
    for z in s.astype(complex).tolist():
        re, im, exp = _dyadic(z)
        for _ in range(levels):
            shift = (abs(re) | abs(im)).bit_length() - POWER_BITS
            if shift > 0:
                re, im, exp = re >> shift, im >> shift, exp + shift
            parts += math.ldexp(re, exp), math.ldexp(im, exp)
            re, im, exp = (re + im) * (re - im), re * im << 1, 2 * exp
    squares = np.array(parts).view(complex).reshape(s.size, levels).T
    return squares if s.dtype.kind == "c" else squares.real


def atom_powers(s: np.ndarray, m: int) -> np.ndarray:
    """V[i, a] = s_a**i for i < m, built by doubling: V[r:2r] = V[:r] s**r.

    Every entry is a product of at most log2(m) of the squares s**(2**k),
    each rounded once, so its relative error grows with log2(i), not with i.
    """
    v = np.empty((m, s.size), dtype=s.dtype)
    v[:1] = 1
    for level, factor in enumerate(_squares(s, max(m - 1, 0).bit_length())):
        rows = 1 << level
        np.multiply(v[: min(rows, m - rows)], factor, out=v[rows : 2 * rows])
    return v


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
