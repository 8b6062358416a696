"""Finitely-atomic measure representations of radial symbols.

A symbol of the form phi(n) = c + sum_j w_j * s_j**n (atoms strictly inside
the unit disk) always has finite difference-Hankel trace norms, bounded by
the weighted mass sum_j |w_j| |1-s_j| / (1-|s_j|).  This module checks the
membership bound numerically and verifies that index doubling preserves
the norm (the two-step-difference norm of the doubled symbol equals the
original symbol norm).  A symbol's representation is its normal form's
atoms (``symbols.measure_atoms``) and its tail (``symbols.tail_constant``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .hankel import CPrimeReport, HankelReport, c_norm, cprime_norm
from .symbols import (
    DEFAULT_TOL,
    ROUNDING,
    DiscreteMeasure,
    Form,
    FromMeasure,
    RadialSymbol,
    double,
    equality_allowance,
    form,
    one_minus_abs_squared,
)


@dataclass
class MembershipReport:
    """Both sides of the trace-norm-versus-weight inequality.

    ``rounding_bound`` is symbols.equality_allowance of the two sides, the
    rounding the comparison forgives on top of tol.
    """

    difference_norms: float
    weight: float
    holds: bool
    hankel: HankelReport
    rounding_bound: float


@dataclass
class DoublingReport:
    """Norm of a symbol against the two-step norm of its doubled version.

    ``rounding_bound`` bounds how far rounding the atoms +-sqrt(s) of the
    doubled symbol moves its norm (zero for finite-support symbols).
    """

    base_total: float
    doubled_total: float
    holds: bool
    base: HankelReport
    doubled: CPrimeReport
    rounding_bound: float


def weight(measure: DiscreteMeasure) -> float:
    """sum_j |w_j| * |1 - s_j| / (1 - |s_j|), with 1 - |s_j| taken as
    (1 - |s_j|**2) / (1 + |s_j|), which does not cancel near the circle."""
    gaps = [one_minus_abs_squared(s) / (1.0 + abs(s)) for s, _ in measure.atoms]
    return float(sum(abs(w) * abs(1.0 - s) / gap for (s, w), gap in zip(measure.atoms, gaps)))


def verify_membership_bound(
    c: complex, measure: DiscreteMeasure, tol: float = DEFAULT_TOL
) -> MembershipReport:
    """Check trace_norm_h + trace_norm_k <= weight(measure) + tol + rounding,
    the equality allowance of both sides: one atom meets the bound exactly."""
    report = c_norm(FromMeasure(c, measure))
    left = report.trace_norm_h + report.trace_norm_k
    right = weight(measure)
    rounding = equality_allowance(left, right)
    return MembershipReport(
        difference_norms=left,
        weight=right,
        holds=left <= right + tol + rounding,
        hankel=report,
        rounding_bound=rounding,
    )


def _doubling_rounding(doubled: Form, total: float) -> float:
    """How far rounding the atoms r = +-sqrt(s) of a doubled symbol moves its norm.

    Rounding r moves 1 - |r|**2 = 1 - |s| by about ROUNDING, and an atom's
    share of the norm scales like 1 / (1 - |r|**2), so the doubled total
    moves by up to ROUNDING / (1 - max|s|) of itself.  Finite-support
    symbols double exactly.
    """
    if not doubled.s.size:
        return 0.0
    gap = min(one_minus_abs_squared(r) for r in doubled.s.tolist())
    return ROUNDING * total / gap


def verify_doubling(sym: RadialSymbol, tol: float = DEFAULT_TOL) -> DoublingReport:
    """Check that doubling preserves the norm within tol and the bounds.

    The doubled side is the two-step-difference norm of double(sym), so a
    measure symbol takes the Vandermonde route with atoms +-sqrt(s) on both
    sides, tail or not.  The two totals may differ by tol, the rounding of
    those atoms (``rounding_bound``) and both routes' error bounds.
    """
    base = c_norm(sym)
    doubled_sym = double(sym)
    doubled = cprime_norm(doubled_sym)
    rounding = _doubling_rounding(form(doubled_sym), base.total)
    slack = tol + rounding + base.error_bound + doubled.error_bound
    return DoublingReport(
        base_total=base.total,
        doubled_total=doubled.total,
        holds=abs(base.total - doubled.total) <= slack,
        base=base,
        doubled=doubled,
        rounding_bound=rounding,
    )
