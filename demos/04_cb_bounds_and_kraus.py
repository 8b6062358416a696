"""Norm control: Kraus families, row identities, and the bound chain.

Each elementary transformation is a sum of conjugations by explicit Kraus
operators.  Their row sums telescope to ||x||^2 times the identity, which
bounds the map norm by ||x|| ||y|| per rank term and hence the whole
multiplier by the symbol norm.
"""

import numpy as np

from radial_mult import (
    FockSpec,
    Geometric,
    build_plan,
    build_space,
    c_norm,
    cs_bound,
    eigenvalue_lower_bound,
    kraus_row_sum,
    plan_cb_bound,
)

space = build_space(FockSpec((2, 2), 4))
rng = np.random.default_rng(0)

# --- the row identity, entrywise ------------------------------------------------

x = rng.standard_normal(space.max_len + 1) + 1j * rng.standard_normal(space.max_len + 1)
for variant in (1, 2):
    row = kraus_row_sum(space, x, variant).to_dense()
    dev = np.abs(row - np.linalg.norm(x) ** 2 * np.eye(space.dim)).max()
    print(f"variant {variant}: || sum u u* - ||x||^2 I ||_max = {dev:.2e}")

# --- row/column spectral norms and their product --------------------------------

e0 = np.zeros(space.max_len + 1, dtype=complex)
e0[0] = 1.0
row, col, bound = cs_bound(space, e0, e0, 1)
print(f"unit vectors: row {row:.3f}, col {col:.3f}, product {bound:.3f}")

# --- bound chain for whole plans -------------------------------------------------

for s in (0.5, -0.5):
    sym = Geometric(s)
    plan = build_plan(sym)
    bound = plan_cb_bound(plan)
    total = c_norm(sym).total
    lower = eigenvalue_lower_bound(sym)
    print(
        f"s = {s:+.1f}: sup |phi| = {lower:.3f} <= plan bound {bound:.6f} "
        f"= symbol norm {total:.6f}"
    )
