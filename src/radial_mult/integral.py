"""Finitely-atomic measure representations of radial symbols.

A symbol of the form phi(n) = c + sum_j w_j * s_j**n (atoms strictly inside
the unit disk) always has finite difference-Hankel trace norms, bounded by
the weighted mass sum_j |w_j| |1-s_j| / (1-|s_j|).  This module evaluates
such representations, checks the membership bound numerically, and
verifies that index doubling preserves the norm (the two-step-difference
norm of the doubled symbol equals the original symbol norm).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import UnsupportedRepresentation
from .hankel import CPrimeReport, HankelReport, c_norm, cprime_norm
from .symbols import (
    ATOM_BOUNDARY_MARGIN,
    DiscreteMeasure,
    Finite,
    FromMeasure,
    Geometric,
    ParityTail,
    RadialSymbol,
    double,
    evaluate,
    measure_atoms,
    measure_from_obj,
    measure_to_obj,
    tail_constant,
)

__all__ = [
    "DiscreteMeasure",
    "DoublingReport",
    "MembershipReport",
    "eval_measure",
    "measure_from_obj",
    "measure_to_obj",
    "representation_for",
    "verify_doubling",
    "verify_membership_bound",
    "weight",
]


@dataclass
class MembershipReport:
    """Both sides of the trace-norm-versus-weight inequality."""

    difference_norms: float
    weight: float
    holds: bool
    hankel: HankelReport

    def to_obj(self) -> dict:
        return {
            "difference_norms": self.difference_norms,
            "weight": self.weight,
            "holds": self.holds,
            "hankel": self.hankel.to_obj(),
        }


@dataclass
class DoublingReport:
    """Norm of a symbol against the two-step norm of its doubled version."""

    base_total: float
    doubled_total: float
    holds: bool
    base: HankelReport
    doubled: CPrimeReport

    def to_obj(self) -> dict:
        return {
            "base_total": self.base_total,
            "doubled_total": self.doubled_total,
            "holds": self.holds,
            "base": self.base.to_obj(),
            "doubled": self.doubled.to_obj(),
        }


def eval_measure(c: complex, measure: DiscreteMeasure, n: int) -> complex:
    """phi(n) = c + sum_j w_j * s_j**n (same arithmetic path as evaluate)."""
    return evaluate(FromMeasure(c, measure), n)


def weight(measure: DiscreteMeasure) -> float:
    """sum_j |w_j| * |1 - s_j| / (1 - |s_j|)."""
    return float(
        sum(abs(w) * abs(1.0 - s) / (1.0 - abs(s)) for s, w in measure.atoms)
    )


def verify_membership_bound(
    c: complex, measure: DiscreteMeasure, tol: float = 1e-8
) -> MembershipReport:
    """Check trace_norm_h + trace_norm_k <= weight(measure) + tol numerically."""
    report = c_norm(FromMeasure(c, measure), min(tol, 1e-9))
    left = report.trace_norm_h + report.trace_norm_k
    right = weight(measure)
    return MembershipReport(
        difference_norms=left,
        weight=right,
        holds=left <= right + tol,
        hankel=report,
    )


def representation_for(sym: RadialSymbol) -> tuple[complex, DiscreteMeasure]:
    """Exact finitely-atomic representation, where one is known.

    Geometric symbols are a single unit atom; measure symbols return their
    own data; constant symbols are an empty measure.  Everything else
    (indicators in particular) raises UnsupportedRepresentation rather
    than guessing.
    """
    if isinstance(sym, Geometric):
        return 0.0 + 0.0j, DiscreteMeasure(((sym.s, 1.0 + 0.0j),))
    if isinstance(sym, FromMeasure):
        return sym.c, sym.measure
    if isinstance(sym, Finite) and all(v == sym.tail for v in sym.values):
        return sym.tail, DiscreteMeasure(())
    if (
        isinstance(sym, ParityTail)
        and sym.tail_even == sym.tail_odd
        and all(v == sym.tail_even for v in sym.values)
    ):
        return sym.tail_even, DiscreteMeasure(())
    raise UnsupportedRepresentation(
        f"no exact finitely-atomic representation stored for {type(sym).__name__}"
    )


def _doubled(sym: RadialSymbol) -> RadialSymbol:
    """The doubled symbol, as a measure symbol where one represents it.

    Without a tail, sum_j w_j s_j**n doubles to sum_j (w_j/2) (r_j**m +
    (-r_j)**m) with r_j**2 = s_j: the odd terms cancel and the even ones
    are w_j s_j**(m/2).  Its two-step norm then takes the Vandermonde route,
    whose cost hardly depends on |s|, instead of an SVD of double()'s
    stored values, which grows with the cube of their horizon.  Symbols
    with a tail, and roots within ATOM_BOUNDARY_MARGIN of the unit circle,
    go through double().
    """
    if isinstance(sym, (Geometric, FromMeasure)) and tail_constant(sym) == 0:
        roots = [(cmath.sqrt(s), w / 2) for s, w in measure_atoms(sym)]
        if all(abs(r) < 1.0 - ATOM_BOUNDARY_MARGIN for r, _ in roots):
            atoms = tuple(atom for r, w in roots for atom in ((r, w), (-r, w)))
            return FromMeasure(0.0 + 0.0j, DiscreteMeasure(atoms))
    return double(sym)


def verify_doubling(sym: RadialSymbol, tol: float = 1e-8) -> DoublingReport:
    """Check that doubling preserves the norm within tol.

    The doubled symbol is that of double(), except that measure symbols
    without a tail double to the equivalent measure symbol (see _doubled).
    """
    inner_tol = min(tol, 1e-9)
    base = c_norm(sym, inner_tol)
    doubled = cprime_norm(_doubled(sym), inner_tol)
    return DoublingReport(
        base_total=base.total,
        doubled_total=doubled.total,
        holds=abs(base.total - doubled.total) <= tol,
        base=base,
        doubled=doubled,
    )
