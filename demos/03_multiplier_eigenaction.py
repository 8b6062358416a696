"""Assembling the multiplier map and checking its eigen-action.

The plan decomposes both difference Hankel matrices into rank-one terms,
the certificate that T is completely bounded; T itself is read off the
symbol and rescales every word-pair operator L_xi L_eta^* by the symbol
value at the combined length (shifted by one when the last letters share
a factor).
"""

import numpy as np

from radial_mult import (
    FockSpec,
    Geometric,
    Indicator,
    apply_T,
    apply_T1,
    apply_T2,
    build_plan,
    build_space,
    diagonal,
    evaluate,
    psi1,
    psi2,
    verify_component_eigenaction,
    verify_eigenaction,
    word_label,
    word_operator,
)

space = build_space(FockSpec((2, 1), 4))
sym = Geometric(0.5)
plan = build_plan(sym)
print(
    f"plan for geometric 0.5: {len(plan.decomposition_h.terms)} + "
    f"{len(plan.decomposition_k.terms)} rank terms, c = {plan.c}"
)

# T on the identity returns phi(0) times the identity
out = apply_T(plan, space, diagonal(space, np.ones(space.max_len + 1)))
print("T(identity) diagonal value:", out.to_dense()[0, 0], "= phi(0) =", evaluate(sym, 0))

# two pairs with the same lengths but different case
case1 = (((0, 0),), ((1, 0),))  # last letters in distinct factors -> phi(k+l)
case2 = (((0, 0),), ((0, 1),))  # shared factor -> phi(k+l-1)
for xi, eta in (case1, case2):
    a = word_operator(space, xi, eta)
    ta = apply_T(plan, space, a).to_dense()
    col = space.index[eta]
    row = space.index[xi]
    print(
        f"T scales ({word_label(xi)}, {word_label(eta)}) by {ta[row, col].real:.4f}"
    )

# full sweep over word pairs
report = verify_eigenaction(plan, space, max_word=3)
print(f"eigen-action over {len(report.records)} pairs, worst residual "
      f"{report.worst_residual:.2e}")

# the two halves act by the difference series psi1 / psi2
chi = Indicator(2)
chi_plan = build_plan(chi)
comp = verify_component_eigenaction(chi_plan, space, max_word=3)
print(f"component residual for indicator 2: {comp.worst_residual:.2e}")
sample = comp.records[7]
print(
    f"sample pair ({word_label(sample.xi)}, {word_label(sample.eta)}): "
    f"T1 eigenvalue {sample.expected_t1.real:+.3f} = psi1({sample.k + sample.l}) "
    f"= {psi1(chi, sample.k + sample.l).real:+.3f}"
)
