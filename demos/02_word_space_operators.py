"""The truncated word space and its operator zoo.

Words alternate between factors; creations prepend or append a letter and
truncate to zero beyond the length cap.  The append-average rho and the
last-letter compression eps satisfy exact matrix identities against the
word-pair operators.
"""

import numpy as np

from radial_mult import (
    FockSpec,
    build_space,
    classify_case,
    creation,
    diagonal,
    eps,
    factor_end_projection,
    rho,
    word_label,
    word_operator,
)

space = build_space(FockSpec((2, 2, 2), 2))
print("factors (2,2,2), max_len 2 ->", space.dim, "basis words")
print("level sizes:", [len(space.words_of_length(n)) for n in range(3)])
print("sample words:", [word_label(w) for w in space.basis[:9]])

# --- creations are partial isometries -----------------------------------------

L = creation(space, (0, 0))
print("L L* L = L deviation:", np.abs((L @ L.H @ L - L).to_dense()).max())

# --- projections: diagonals of 0/1 masks over the levels -------------------------

levels = np.arange(space.max_len + 1)
I = diagonal(space, levels >= 0)
Q1 = diagonal(space, levels >= 1).to_dense()  # the words of length >= 1
total = sum(diagonal(space, levels == n).to_dense() for n in levels)
print("sum of level projections = identity:", np.array_equal(total, np.eye(space.dim)))
q_total = sum(
    factor_end_projection(space, i).to_dense() for i in range(3)
)
print("sum of last-letter projections = off-vacuum projection:", np.array_equal(q_total, Q1))

# --- rho and eps ----------------------------------------------------------------

print("rho(identity) = Q1:", np.array_equal(rho(space, I).to_dense(), Q1))

# iterating rho on a word-pair operator just multiplies by a tail projection
xi = ((0, 0),)
eta = ((1, 1),)
a = word_operator(space, xi, eta)
power = a
for n in range(3):
    rhs = (a @ diagonal(space, levels >= len(eta) + n)).to_dense()
    print(f"rho^{n} identity exact:", np.array_equal(power.to_dense(), rhs))
    power = rho(space, power)

# eps acts by case: distinct last factors reduce to rho, shared ones fix the operator
case1 = (((0, 0),), ((1, 1),))
case2 = (((0, 0), (1, 0)), ((2, 1), (1, 1)))
for xi, eta in (case1, case2):
    a = word_operator(space, xi, eta)
    compressed = eps(space, a).to_dense()
    if classify_case(xi, eta) == 1:
        match = np.array_equal(compressed, rho(space, a).to_dense())
        print(f"({word_label(xi)}, {word_label(eta)}) distinct factors: eps = rho ->", match)
    else:
        match = np.array_equal(compressed, a.to_dense())
        print(f"({word_label(xi)}, {word_label(eta)}) shared factor: eps = id ->", match)
