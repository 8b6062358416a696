"""Radial symbols and their trace-norm based symbol norm.

A radial symbol assigns a complex value to every word length.  Its norm is
the sum of the trace norms of the two difference Hankel matrices plus the
absolute tail constant.  The library computes it exactly: one SVD at
support + 2 for finite-support symbols (at most 4096 rows; indicators in
closed form), and for
geometric and measure symbols a small matrix from a QR factorization of the
Vandermonde matrix of the atoms, cut where the powers fall below rounding.  Each report names its
route, the matrix height it used and an error bound.
"""

import numpy as np

from radial_mult import (
    DiscreteMeasure,
    Finite,
    FromMeasure,
    Geometric,
    Indicator,
    c_norm,
    evaluate,
    psi1,
    psi2,
    tail_constant,
)

# --- evaluating the families ------------------------------------------------

geo = Geometric(0.5)
print("geometric 0.5:", [evaluate(geo, n).real for n in range(6)])

chi2 = Indicator(2)
print("indicator 2: ", [evaluate(chi2, n).real for n in range(6)])

measured = FromMeasure(0.25, DiscreteMeasure(((0.5, 1.0), (-0.3, 0.5))))
print("measure sym: ", [round(evaluate(measured, n).real, 4) for n in range(6)])

# --- the difference series --------------------------------------------------

# psi1 sums phi(n+2i) - phi(n+2i+1); together with psi2 and the tail it
# reassembles the symbol exactly.
for sym, name in ((geo, "geometric"), (chi2, "indicator")):
    c = tail_constant(sym)
    worst = max(
        abs(psi1(sym, n) + psi2(sym, n) + c - evaluate(sym, n))
        for n in range(40)
    )
    print(f"psi decomposition residual for {name}: {worst:.2e}")

# --- norms with known closed forms -------------------------------------------

for s in (0.5, -0.5, 0.3 + 0.4j):
    report = c_norm(Geometric(s))
    closed = abs(1 - s) / (1 - abs(s))
    print(
        f"s = {s}: computed {report.total:.12f}, closed form {closed:.12f}, "
        f"{report.route} route at height {report.truncation}, "
        f"error bound {report.error_bound:.1e}"
    )

report = c_norm(Indicator(1))
print(f"indicator 1: {report.total:.12f} vs 1 + sqrt(5) = {1 + np.sqrt(5):.12f}")

# the constant symbol has no difference mass at all
constant = Finite((), 1.0)
report = c_norm(constant)
print(
    f"constant 1: h-norm {report.trace_norm_h:.1e}, k-norm {report.trace_norm_k:.1e}, "
    f"tail {report.tail_abs}, total {report.total}"
)
