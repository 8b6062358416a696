"""Radial symbols: complex-valued functions on the non-negative integers.

A symbol is given either by a closed-form family (geometric, indicator,
truncated geometric) or by finite data plus explicit tail behaviour, and
``Doubled`` is the index doubling phi~(2n) = phi(n), phi~(2n+1) = 0.
Every family is read through one normal form (``form``, a ``Form``): a head
of values, even and odd tails, and atoms w s**n; every read of a symbol
(values, difference rows, tails, atoms, sup |phi|, ``psi1``/``psi2``) is a
read of that form.  The module is also the one home of measure arithmetic
(Vandermonde horizon, exact squares, powers and 1 - |s|**2 of atoms) and of
the rules judged comparisons share: DEFAULT_TOL and equality_allowance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge, UnsupportedTail

# Margin keeping measure atoms away from the unit circle, where the
# weight |1-s|/(1-|s|) blows up.
ATOM_BOUNDARY_MARGIN = 1e-6

# The Vandermonde horizon M of a measure symbol is the first power of two
# with max|s|**M at or below this level, so the powers past M carry nothing
# a double can hold.
ROUNDING = float(np.finfo(float).eps)

# Default tolerance of verify_membership_bound, verify_doubling and --tol.
DEFAULT_TOL = 1e-10

# Significant bits kept by the exact squarings behind atom_powers.
POWER_BITS = 128

# Longest power sequences built (atoms with |s| above about 1 - 3.4e-5 need
# more) and longest heads of indicators and truncated geometrics.
VECTOR_HORIZON_CAP = 1 << 20


def equality_allowance(left: float, right: float) -> float:
    """What a rule met with equality forgives on top of the tolerance: 64
    roundings of left + right, its two computed sides.  One atom meets the
    membership bound with equality, and c_norm's one-atom total was within
    17 of them of the weight on 240 atoms with 1 - |s| from 1e-6 to 1e-3.
    A positive measure (atoms in [0, 1), w >= 0, c >= 0) meets the cb
    bracket: its H and K are positive semidefinite, so plan_cb_bound is
    c + psi1(0) + psi1(1) = phi(0) = sup |phi|, both sums of terms of one
    sign, and sup |phi| passed plan_cb_bound by at most 7.4 of them over
    about 1500 seeded positive measure symbols of 1 to 5 atoms, 1 - s from
    3e-5 to 1, w and c to 1e9.  Away from equality the gap is the symbol's.
    """
    return 64 * ROUNDING * (left + right)


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
        object.__setattr__(self, "values", tuple(_finite_complex(v, "value") for v in self.values))
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
        object.__setattr__(self, "values", tuple(_finite_complex(v, "value") for v in self.values))
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


@dataclass(frozen=True, eq=False)
class Form:
    """The normal form every symbol is read through (Kronecker's finite-rank
    Hankel theorem): phi(n) = head[n] for n < len(head), and from there on
    phi(n) = t(n) + sum_a w_a s_a**n, with t(n) the even or odd tail.

    The atoms (s, w) have distinct locations and nonzero weights.  A doubled
    form keeps its ``base``, whose own arithmetic gives its values.
    """

    head: tuple[complex, ...]
    even: complex
    odd: complex
    s: np.ndarray
    w: np.ndarray
    base: Form | None

    @property
    def atoms(self) -> tuple[tuple[complex, complex], ...]:
        return tuple(zip(self.s.tolist(), self.w.tolist()))

    @property
    def support_length(self) -> int | None:
        """Index from which phi is constant on the even and on the odd indices,
        so that every difference vanishes; None with atoms, which never settle."""
        return None if self.s.size else len(self.head)

    def value(self, n: int) -> complex:
        if n < len(self.head):
            return self.head[n]
        if self.base is not None:
            return 0j if n % 2 else self.base.value(n // 2)
        acc = self.odd if n % 2 else self.even
        for s, w in self.atoms if self.s.size else ():
            acc += w * s**n
        return acc

    def tail_constant(self) -> complex:
        if self.even != self.odd:
            raise UnsupportedTail(
                "symbol is 2-periodic at infinity; use parity_tails() for its "
                f"even/odd limits ({self.even}, {self.odd})"
            )
        return self.even

    def differences(self, length: int, offset: int, step: int) -> np.ndarray:
        """phi(offset + m) - phi(offset + m + step) for m < length, complex."""
        end = offset + length + step
        past = map(self.value, range(max(offset, len(self.head)), end))
        values = np.array([*self.head[offset:end], *past], dtype=complex)
        return values[:length] - values[step:]

    def psi1(self, n: int) -> complex:
        if n < 0:
            raise ValueError("index must be non-negative")
        if self.even != self.odd:
            raise UnsupportedTail(
                f"difference terms tend to +-{self.even - self.odd} (even/odd tails "
                "differ), so the series diverges"
            )
        if self.s.size:
            return sum((w * s**n / (1.0 + s) for s, w in self.atoms), 0.0 + 0.0j)
        return sum(self.differences(max(len(self.head) - n, 0), n, 1)[::2].tolist(), 0.0 + 0.0j)


def form(sym: RadialSymbol) -> Form:
    """The normal form of sym: the one reading of the families' fields.

    A Doubled symbol is a transform of its base's form, which it keeps as
    ``base`` for its values: the head is interleaved with exact zeros, each
    atom s becomes +-sqrt(s) with weight w/2, and a tail c becomes the tails
    (c, 0).  So an indicator doubles to the shape of Indicator(2 n0) with
    one more zero.  Atoms at equal locations (such as +-sqrt(0)) are merged
    into the first, and zero weights dropped.
    """
    head, tails, atoms, base = (), (0j, 0j), (), None
    if isinstance(sym, (Indicator, TruncatedGeometric)) and sym.n0 >= VECTOR_HORIZON_CAP:
        raise TooLarge(f"a head of {sym.n0 + 1} values (cap {VECTOR_HORIZON_CAP})")
    if isinstance(sym, Doubled):
        base = form(sym.base)
        head = [0j] * (2 * len(base.head))
        head[::2] = base.head
        roots = [(cmath.sqrt(s), w / 2) for s, w in base.atoms]
        atoms = [atom for r, w in roots for atom in ((r, w), (-r, w))]
        tails = (base.even, 0j)
    elif isinstance(sym, Geometric):
        atoms = ((sym.s, 1.0 + 0.0j),)
    elif isinstance(sym, Indicator):
        head = (0j,) * sym.n0 + (1.0 + 0.0j,)
    elif isinstance(sym, TruncatedGeometric):
        head = [complex(sym.r**n) for n in range(sym.n0 + 1)]
    elif isinstance(sym, Finite):
        head, tails = sym.values, (sym.tail, sym.tail)
    elif isinstance(sym, FromMeasure):
        tails, atoms = (sym.c, sym.c), sym.measure.atoms
    elif isinstance(sym, ParityTail):
        head, tails = sym.values, (sym.tail_even, sym.tail_odd)
    else:
        raise TypeError(f"not a radial symbol: {sym!r}")
    merged: dict[complex, complex] = {}
    for s, w in atoms:
        merged[s] = merged[s] + w if s in merged else w
    atoms = tuple((s, w) for s, w in merged.items() if w)
    s, w = np.array(atoms, dtype=complex).reshape(-1, 2).T.copy()
    return Form(tuple(head), *tails, s, w, base)


def evaluate(sym: RadialSymbol, n: int) -> complex:
    """Return phi(n)."""
    if n < 0:
        raise ValueError("symbols are defined on non-negative integers")
    return form(sym).value(n)


def parity_tails(sym: RadialSymbol) -> tuple[complex, complex]:
    """Limits of phi along even and odd indices."""
    f = form(sym)
    return f.even, f.odd


def tail_constant(sym: RadialSymbol) -> complex:
    """The limit of phi(n); raises UnsupportedTail if even/odd limits differ."""
    return form(sym).tail_constant()


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
    f = form(sym)
    if (length := f.support_length) is not None:
        return max(abs(f.value(n)) for n in range(length + 2))
    radius, size = np.abs(f.s), np.abs(f.w)
    limit = max(abs(f.even), abs(f.odd))
    horizon = min(vandermonde_horizon(f.s), VECTOR_HORIZON_CAP)
    n = 32
    while True:
        phi = atom_powers(f.s, n) @ f.w
        phi[0::2] += f.even
        phi[1::2] += f.odd
        best = max(limit, float(np.abs(phi).max()))
        if limit + size @ radius**n <= best or n >= horizon:
            return best
        n *= 2


def measure_atoms(sym: RadialSymbol) -> tuple[tuple[complex, complex], ...]:
    """Atoms (s, w) with phi(n) = tail + sum w * s**n past the head (see form):
    w s**(m/2) for even m and 0 for odd m is (w/2) (r**m + (-r)**m), r**2 = s.
    A symbol without a head is the measure symbol tail_constant(sym) plus
    these atoms; form(sym).s and .w hold them as arrays."""
    return form(sym).atoms


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

    psi1(n) = sum_{i>=0} (phi(n+2i) - phi(n+2i+1)), in closed form: a symbol
    with atoms gives sum_j w_j s_j**n / (1 + s_j), and a finite-support
    symbol a finite sum up to its support length.  When the even and odd
    tails differ the terms tend to +-(even - odd), so the series diverges
    and UnsupportedTail is raised.
    """
    return form(sym).psi1(n)


def psi2(sym: RadialSymbol, n: int) -> complex:
    """psi2(n) = psi1(n+1)."""
    return psi1(sym, n + 1)


def double(sym: RadialSymbol) -> Doubled:
    """The symbol with phi~(2n) = phi(n) and phi~(2n+1) = 0, read through the
    doubling of its base's form."""
    return Doubled(sym)
