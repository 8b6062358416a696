"""Measure representations, the membership bound, and index doubling.

Symbols of the form c + sum_j w_j s_j^n always have finite difference
norms: the trace norms are bounded by the weighted atomic mass
sum |w| |1-s| / (1-|s|).  Doubling a symbol (interleaving it with zeros)
preserves its norm, with the two-step-difference norm on the doubled side.
"""

import numpy as np

from radial_mult import (
    DiscreteMeasure,
    Doubled,
    FromMeasure,
    Geometric,
    Indicator,
    TruncatedGeometric,
    evaluate,
    measure_atoms,
    tail_constant,
    verify_doubling,
    verify_membership_bound,
    weight,
)

# --- single atoms reproduce geometric symbols exactly ----------------------------

delta = DiscreteMeasure(((0.5, 1.0),))
print("atom at 0.5 vs geometric 0.5:",
      all(evaluate(FromMeasure(0.0, delta), n) == evaluate(Geometric(0.5), n) for n in range(64)))
print("weight of the atom:", weight(delta))

rep = verify_membership_bound(0.0, delta)
print(f"membership bound: {rep.difference_norms:.9f} <= {rep.weight:.9f} "
      f"(equality for a single positive atom)")

# --- random measures stay below their weight --------------------------------------

rng = np.random.default_rng(1)
for trial in range(3):
    radii = 0.9 * np.sqrt(rng.uniform(size=5))
    angles = rng.uniform(0, 2 * np.pi, 5)
    ws = np.sqrt(rng.uniform(size=5)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    measure = DiscreteMeasure(
        tuple((complex(r * np.exp(1j * a)), complex(w))
              for r, a, w in zip(radii, angles, ws))
    )
    rep = verify_membership_bound(0.0, measure)
    print(f"trial {trial}: {rep.difference_norms:.6f} <= {rep.weight:.6f} -> {rep.holds}")

# --- reading a symbol's representation c + sum_j w_j s_j^n ----------------------------

# The tail is c and the atoms are those of the symbol's normal form.  A doubled
# symbol has the atoms +-sqrt(s) with weights w/2.  A finite-support symbol,
# such as a truncated geometric, has no atoms: it is its head of values, then c.
for sym, name in (
    (Geometric(-0.5), "geometric -0.5"),
    (FromMeasure(1.0, delta), "atom plus constant"),
    (Doubled(Geometric(0.25)), "doubled geometric 0.25"),
    (TruncatedGeometric(0.5, 3), "truncated geometric 0.5 to n = 3"),
):
    print(f"{name}: c = {tail_constant(sym)}, atoms {measure_atoms(sym)}")

# --- doubling preserves the norm ----------------------------------------------------

for sym, name in (
    (Geometric(0.5), "geometric 0.5"),
    (Indicator(1), "indicator 1"),
    (FromMeasure(1.0, delta), "atom plus constant"),
):
    rep = verify_doubling(sym)
    print(
        f"{name}: base norm {rep.base_total:.9f}, doubled two-step norm "
        f"{rep.doubled_total:.9f} ({rep.doubled.route} route), "
        f"constants ({rep.doubled.c1}, {rep.doubled.c2})"
    )
