"""Multiplier maps of radial symbols on truncated word spaces.

The map T = T1 + T2 + c Id rescales each word-pair operator L_xi L_eta^*
by the symbol value at the pair's combined length (shifted by one when the
last letters share a factor).  ``apply_T`` and the verifiers read T off the
symbol: T1 and T2 act through level kernels, the h and k Hankel truncations
G and W[a, b] = psi1(a + b) and psi2(a + b), at O(max_len^2) scalar
evaluations whatever the symbol's rank.

A plan is the certificate that T is completely bounded: rank-one terms
(x_i, y_i) and (z_i, w_i) of the two difference Hankel matrices plus the
tail constant c, with

    T(A) = sum_i Phi1_{x_i, y_i}(A) + sum_i Phi2_{z_i, w_i}(A) + c * A

and ||T||_cb at most sum_i ||x_i|| ||y_i|| + sum_i ||z_i|| ||w_i|| + |c|.
Its vectors end at the height of the symbol's exact route, past which the
differences vanish or lie below rounding.  ``phi1_apply``/``phi2_apply``
keep the per-term formula as the reference that ties the certificate to
the map.  The module also bounds the map through explicit Kraus families
and realizes the unital completely positive tensor extensions, whose images
on the word space times C^d are returned as COO triplets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .errors import DimensionMismatch, TooLarge
from .fock import (
    CASE_TWO,
    FockOperator,
    FockSpace,
    Word,
    _concat,
    _diagonal,
    _eps_triplets,
    _prepend_targets,
    _rho_triplets,
    _summed,
    _word_triplets,
    classify_case,
    eps,
    rho,
    word_label,
    zero,
)
from .hankel import (
    RankOneDecomposition,
    difference_decompositions,
    exact_route,
    hankel_h,
    hankel_k,
)
from .symbols import RadialSymbol, evaluate, psi1, psi2, tail_constant

# Longest plan vectors built; atoms with |s| above about 1 - 3.4e-5 would
# need more.
VECTOR_HORIZON_CAP = 1 << 20


@dataclass
class MultiplierPlan:
    """A symbol with its rank-one certificate that the multiplier is cb."""

    symbol: RadialSymbol
    decomposition_h: RankOneDecomposition
    decomposition_k: RankOneDecomposition
    c: complex


@dataclass
class EigenRecord:
    xi: Word
    eta: Word
    case: int
    k: int
    l: int
    expected: complex
    residual: float


@dataclass
class EigenReport:
    """Residuals of T against its expected word-pair eigenvalues."""

    records: list[EigenRecord]
    worst_residual: float

    def to_obj(self) -> dict:
        return {
            "worst_residual": self.worst_residual,
            "pairs": [
                {
                    "xi": word_label(r.xi),
                    "eta": word_label(r.eta),
                    "case": r.case,
                    "k": r.k,
                    "l": r.l,
                    "expected": [r.expected.real, r.expected.imag],
                    "residual": r.residual,
                }
                for r in self.records
            ],
        }

    def to_csv(self) -> str:
        lines = ["xi,eta,case,k,l,expected_re,expected_im,residual"]
        for r in self.records:
            lines.append(
                f"{word_label(r.xi)},{word_label(r.eta)},{r.case},{r.k},{r.l},"
                f"{r.expected.real!r},{r.expected.imag!r},{r.residual!r}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class ComponentRecord:
    xi: Word
    eta: Word
    case: int
    k: int
    l: int
    expected_t1: complex
    residual_t1: float
    expected_t2: complex
    residual_t2: float


@dataclass
class ComponentReport:
    records: list[ComponentRecord]
    worst_residual: float


@dataclass
class TensorRecord:
    xi: Word
    eta: Word
    case: int
    residual: float


@dataclass
class TensorReport:
    variant: int
    records: list[TensorRecord]
    worst_residual: float


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------


def build_plan(sym: RadialSymbol) -> MultiplierPlan:
    """Decompose both difference Hankel matrices into rank-one terms.

    The vectors are as long as the symbol's exact route needs: support + 2,
    or the Vandermonde horizon M of a measure symbol.  Past that height the
    differences vanish, or lie below rounding, so the plan applies on a
    space of any length.  Raises TooLarge when the vectors would need more
    than VECTOR_HORIZON_CAP entries.
    """
    c = tail_constant(sym)
    m = exact_route(sym)[1]
    if m > VECTOR_HORIZON_CAP:
        raise TooLarge(
            f"plan vectors would need {m} entries (cap {VECTOR_HORIZON_CAP}): "
            "atoms too close to the unit circle"
        )
    dec_h, dec_k = difference_decompositions(sym, m)
    return MultiplierPlan(symbol=sym, decomposition_h=dec_h, decomposition_k=dec_k, c=c)


def plan_cb_bound(plan: MultiplierPlan) -> float:
    """Upper bound sum_i ||x_i|| ||y_i|| + sum_i ||z_i|| ||w_i|| + |c|.

    Each term carries sqrt(sigma_i) on both sides, so the sums are the
    decompositions' nuclear_sum.
    """
    return abs(plan.c) + plan.decomposition_h.nuclear_sum + plan.decomposition_k.nuclear_sum


# ---------------------------------------------------------------------------
# The transformations Phi1 / Phi2 term by term, and T through level kernels
# ---------------------------------------------------------------------------


def _shift_values(vec: np.ndarray, levels: np.ndarray, shift: int) -> np.ndarray:
    """Diagonal values vec[level + shift], zero outside the vector's support."""
    idx = levels + shift
    out = np.zeros(len(levels), dtype=vec.dtype)
    ok = (idx >= 0) & (idx < len(vec))
    out[ok] = vec[idx[ok]]
    return out


def _correlation_weights(x: np.ndarray, y: np.ndarray, max_level: int) -> np.ndarray:
    """W[a, b] = sum_t x[a+t] * conj(y[b+t]) for levels a, b <= max_level."""
    w = np.zeros((max_level + 1, max_level + 1), dtype=complex)
    for a in range(max_level + 1):
        for b in range(max_level + 1):
            t = min(len(x) - a, len(y) - b)
            if t > 0:
                w[a, b] = np.dot(x[a : a + t], y[b : b + t].conj())
    return w


def _first_sum(space: FockSpace, x, y, op: FockOperator) -> FockOperator:
    """sum_n D_{(S*)^n x} A D*_{(S*)^n y}, collapsed to entrywise level weights."""
    w = _correlation_weights(x, y, space.max_len)
    lv = space.levels
    return FockOperator(space, (op.row, op.col, op.data * w[lv[op.row], lv[op.col]]))


def _deep_sum(space: FockSpace, x, y, deep: list) -> FockOperator:
    """sum_{n>=1} D_{S^n x} deep[n] D*_{S^n y}."""
    total = zero(space)
    for n in range(1, len(deep)):
        dx = _diagonal(space, _shift_values(x, space.levels, -n))
        dy = _diagonal(space, _shift_values(y, space.levels, -n).conj())
        total = total + dx @ deep[n] @ dy
    return total


def _rho_chain(space: FockSpace, op: FockOperator, count: int) -> list:
    """[A, rho(A), ..., rho^count(A)]."""
    chain = [op]
    for _ in range(count):
        if op.nnz:
            op = rho(space, op)
        chain.append(op)
    return chain


def phi1_apply(space: FockSpace, x, y, op: FockOperator) -> FockOperator:
    """Apply the first elementary transformation for vectors x, y."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    deep = _rho_chain(space, op, space.max_len)  # deep[n] = rho^n(A)
    return _first_sum(space, x, y, op) + _deep_sum(space, x, y, deep)


def phi2_apply(space: FockSpace, x, y, op: FockOperator) -> FockOperator:
    """Apply the second elementary transformation (compressed deep part)."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    # deep[n] = rho^(n-1)(eps(A))
    deep = [None] + _rho_chain(space, eps(space, op), space.max_len - 1)
    return _first_sum(space, x, y, op) + _deep_sum(space, x, y, deep)


def _kernels(plan: MultiplierPlan, space: FockSpace, c=0.0, h=False, k=False):
    """(c, W, [(G, compressed)]) of the map c A + the chosen parts of T:
    T(A) = c A + A o W[lv_r, lv_c] + sum_n G[lv_r - n, lv_c - n] deep[n],
    with deep[n] = rho^n(A), or rho^(n-1)(eps(A)) for the compressed k part.

    The kernels are read off ``plan.symbol``: G is the h or k truncation at
    max_len + 1, and W sums G along each diagonal, which telescopes to
    W[a, b] = psi1(a + b) for h and psi2(a + b) = psi1(a + b + 1) for k.
    A part whose G vanishes on the space has no deep terms."""
    sym, size = plan.symbol, space.max_len + 1
    psi = np.array([psi1(sym, n) for n in range(2 * size)])
    sums = np.add.outer(np.arange(size), np.arange(size))
    first = np.zeros((size, size), dtype=complex)
    deep = []
    for hankel, shift, compressed, chosen in ((hankel_h, 0, False, h), (hankel_k, 1, True, k)):
        if chosen:
            first += psi[sums + shift]
            g = hankel(sym, size)
            if g.any():
                deep.append((g, compressed))
    return c, first, deep


def _deep_chain(space: FockSpace, row, col, data, compressed: bool):
    """Yield (n, triplets of deep[n]) for n = 1..max_len: rho^n(A), or
    rho^(n-1)(eps(A)) when compressed.  deep[n] sits at levels >= n."""
    step = _eps_triplets if compressed else _rho_triplets
    row, col, data = step(space, row, col, data)
    for n in range(1, space.max_len + 1):
        if not len(data):
            return
        yield n, row, col, data
        row, col, data = _rho_triplets(space, row, col, data)


def _apply(space: FockSpace, kernels, row, col, data) -> list:
    """T(A) from the triplets of A, as triplets whose positions may repeat."""
    c, first, deep = kernels
    lv = space.levels
    out = [(row, col, data * (c + first[lv[row], lv[col]]))]
    for g, compressed in deep:
        out += [
            (r, q, v * g[lv[r] - n, lv[q] - n])
            for n, r, q, v in _deep_chain(space, row, col, data, compressed)
        ]
    return out


def _apply_map(space: FockSpace, op: FockOperator, kernels) -> FockOperator:
    if op.space is not space and op.space.spec != space.spec:
        raise DimensionMismatch("operator lives on a different space")
    return FockOperator(space, _concat(_apply(space, kernels, *op.triplets)))


def apply_T(plan: MultiplierPlan, space: FockSpace, op: FockOperator) -> FockOperator:
    """T(A) = T1(A) + T2(A) + c A."""
    return _apply_map(space, op, _kernels(plan, space, plan.c, h=True, k=True))


def apply_T1(plan: MultiplierPlan, space: FockSpace, op: FockOperator) -> FockOperator:
    """T1(A), the first-difference part of T."""
    return _apply_map(space, op, _kernels(plan, space, h=True))


def apply_T2(plan: MultiplierPlan, space: FockSpace, op: FockOperator) -> FockOperator:
    """T2(A), the shifted-difference part of T."""
    return _apply_map(space, op, _kernels(plan, space, k=True))


# ---------------------------------------------------------------------------
# Verification over word pairs
# ---------------------------------------------------------------------------


def _iter_pairs(space: FockSpace, max_word: int, max_pair_sum: int | None):
    top = min(max_word, space.max_len)
    for k, l in product(range(top + 1), repeat=2):
        if max_pair_sum is None or k + l <= max_pair_sum:
            for xi, eta in product(space.words_of_length(k), space.words_of_length(l)):
                yield k, l, xi, eta


def _safe_columns(space: FockSpace, k: int, l: int, eta: Word) -> np.ndarray:
    """Columns where truncation cannot interfere: extensions of eta whose
    image level k + len - l stays within the space."""
    extensions = _prepend_targets(space, eta)
    mask = np.zeros(space.dim, dtype=bool)
    mask[extensions[extensions >= 0]] = True
    return mask & (space.levels - l + k <= space.max_len)


def _max_abs_summed(row, col, data, ncols: int) -> float:
    """Largest |entry| once the triplets sharing a position are summed."""
    return float(np.abs(_summed(row, col, data, ncols)[2]).max(initial=0.0))


def _verify_pairs(space: FockSpace, max_word: int, max_pair_sum, checks, width: int = 1):
    """The word-pair driver of the three verifiers.

    Per pair it builds the triplets of A = L_xi L_eta^* and runs each
    check(k, l, case, A) -> (expected, triplets of the difference to the
    target); the residual is the difference's largest entry over the
    pair's truncation-safe columns, each widened to ``width`` columns.
    Returns rows (k, l, xi, eta, case, [(expected, residual)]) and the worst.
    """
    if max_word < 0:
        raise ValueError("max_word must be non-negative")
    rows = []
    for k, l, xi, eta in _iter_pairs(space, max_word, max_pair_sum):
        a = _word_triplets(space, xi, eta)
        case = classify_case(xi, eta)
        mask = np.repeat(_safe_columns(space, k, l, eta), width)
        results = []
        for check in checks:
            expected, (row, col, data) = check(k, l, case, a)
            keep = mask[col]
            resid = _max_abs_summed(row[keep], col[keep], data[keep], len(mask))
            results.append((expected, resid))
        rows.append((k, l, xi, eta, case, results))
    return rows, max((r for row in rows for _, r in row[5]), default=0.0)


def _scaling_check(space: FockSpace, kernels, expected):
    """The check that the kernel map scales A by expected(k, l, case)."""

    def check(k, l, case, a):
        lam = expected(k, l, case)
        row, col, data = a
        return lam, _concat(_apply(space, kernels, row, col, data) + [(row, col, -lam * data)])

    return check


def verify_eigenaction(
    plan: MultiplierPlan,
    space: FockSpace,
    max_word: int,
    max_pair_sum: int | None = None,
) -> EigenReport:
    """Compare T on every word-pair operator against its expected eigenvalue.

    The expected value is phi(k+l) when either word is empty or their last
    letters lie in distinct factors, and phi(k+l-1) otherwise.  Residuals
    are measured entrywise over the truncation-safe columns.
    """
    phi = cache(lambda n: evaluate(plan.symbol, n))
    kernels = _kernels(plan, space, plan.c, h=True, k=True)
    check = _scaling_check(space, kernels, lambda k, l, case: phi(k + l - (case == CASE_TWO)))
    rows, worst = _verify_pairs(space, max_word, max_pair_sum, [check])
    records = [EigenRecord(xi, eta, case, k, l, *r[0]) for k, l, xi, eta, case, r in rows]
    return EigenReport(records, worst)


def verify_component_eigenaction(
    plan: MultiplierPlan,
    space: FockSpace,
    max_word: int,
    max_pair_sum: int | None = None,
) -> ComponentReport:
    """Check T1 and T2 separately against their difference-series eigenvalues.

    T1 scales every safe pair by psi1(k+l); T2 scales by psi2(k+l) in the
    distinct-factor case and psi2(k+l-2) otherwise.
    """
    sym = plan.symbol
    t1, t2 = cache(lambda n: psi1(sym, n)), cache(lambda n: psi2(sym, n))
    checks = [
        _scaling_check(space, _kernels(plan, space, h=True), lambda k, l, case: t1(k + l)),
        _scaling_check(
            space,
            _kernels(plan, space, k=True),
            lambda k, l, case: t2(k + l - 2 * (case == CASE_TWO)),
        ),
    ]
    rows, worst = _verify_pairs(space, max_word, max_pair_sum, checks)
    records = [
        ComponentRecord(xi, eta, case, k, l, *r[0], *r[1]) for k, l, xi, eta, case, r in rows
    ]
    return ComponentReport(records, worst)


# ---------------------------------------------------------------------------
# Completely bounded norm estimates via explicit Kraus families
# ---------------------------------------------------------------------------


def spectral_norm(op: FockOperator) -> float:
    """Spectral norm of a diagonal operator: its largest |entry|.

    The Kraus sums bounded here are diagonal by construction.  Raises
    ValueError on an off-diagonal entry, so a general matrix never gets a
    wrong answer.
    """
    if (op.row != op.col).any():
        raise ValueError("spectral_norm needs a diagonal operator")
    return float(np.abs(op.data).max(initial=0.0))


def kraus_row_sum(space: FockSpace, vec, variant: int) -> FockOperator:
    """Sum u u^* over the row Kraus family of one vector, as a diagonal operator.

    Variant 1 pairs the shifted diagonals with whole-word right creations;
    variant 2 shortens the appended word by one and compresses by the
    last-letter factor projections.  Every member is a weighted partial
    isometry u e_j = d(t_j) e_{t_j} with an injective target map t, so
    u u^* is diagonal with |d|^2 at the targets, and the sum is one real
    diagonal.  Appending the words of length m hits each word of length >= m
    once, with a weight set by its length, so the sum is one value per length.
    For any vector the sum telescopes to ||vec||^2 times the identity on the
    truncated space.
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    vec = np.asarray(vec, dtype=complex)
    weight = (vec * vec.conj()).real
    lv = np.arange(space.max_len + 1)
    diag = np.zeros(space.max_len + 1)
    for n in range(len(weight)):  # the shifted diagonals D_{(S*)^n vec}
        diag += _shift_values(weight, lv, n)
    # Level n appends the words of length n + 1 - variant and shifts vec by -n;
    # the vacuum, which variant 2's projections drop, would carry vec[-1] = 0.
    for n in range(1, space.max_len + variant):
        diag[n + 1 - variant :] += _shift_values(weight, lv[n + 1 - variant :], -n)
    return _diagonal(space, diag[space.levels])


def cs_bound(space: FockSpace, x, y, variant: int) -> tuple[float, float, float]:
    """Spectral norms of the row/column Kraus sums and their product.

    The column family's Gram sum has the same form as the row sum built
    from y, so both sides reduce to one diagonal each, and each norm is the
    largest entry of its diagonal.
    """
    row = spectral_norm(kraus_row_sum(space, x, variant))
    col = spectral_norm(kraus_row_sum(space, y, variant))
    return row, col, row * col


# ---------------------------------------------------------------------------
# Unital completely positive tensor extensions
# ---------------------------------------------------------------------------


def tensor_shift(dim: int) -> np.ndarray:
    """Truncated coordinate shift e_i -> e_{i+1} on C^dim, as a dense matrix."""
    return np.eye(dim, k=-1, dtype=complex)


def ucp_pi_apply(space: FockSpace, tensor_dim: int, variant: int, op: FockOperator):
    """Apply the unital completely positive tensor extension to an operator.

    Returns the triplets (row, col, data) of the image on the product of
    the word space with C^d (index word * d + slot), one per position.
    Requires tensor_dim >= max_len + 1 so that every level has a tensor
    slot.  Layer n puts level m in tensor slot m - n; it carries A for
    n <= 0 and deep[n] of variant 1 or 2 for n >= 1, so the layers fill
    distinct slots.
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if tensor_dim < space.max_len + 1:
        raise DimensionMismatch(
            f"tensor_dim {tensor_dim} must be at least max_len + 1 = {space.max_len + 1}"
        )
    if op.space is not space and op.space.spec != space.spec:
        raise DimensionMismatch("operator lives on a different space")
    layers = [(n, *op.triplets) for n in range(1 - tensor_dim, 1)]
    layers += _deep_chain(space, *op.triplets, compressed=variant == 2)
    lv, d = space.levels, tensor_dim
    parts = []
    for n, row, col, data in layers:
        # slots lv - n are never negative: layer n >= 1 sits at levels >= n
        slot_r, slot_c = lv[row] - n, lv[col] - n
        ok = (slot_r < d) & (slot_c < d)
        parts.append((row[ok] * d + slot_r[ok], col[ok] * d + slot_c[ok], data[ok]))
    return _concat(parts)


def verify_ucp_relations(
    space: FockSpace,
    tensor_dim: int,
    variant: int,
    max_word: int,
    max_pair_sum: int | None = None,
) -> TensorReport:
    """Check the tensor extension against its word-pair tensor form.

    The extension must send L_xi L_eta^* to L_xi L_eta^* tensor S^k S*^l,
    with both exponents lowered by one in the shared-last-factor case of
    variant 2.  Residuals are taken over safe columns (every tensor slot).
    """
    d = tensor_dim

    def check(k, l, case, a):
        drop = int(variant == 2 and case == CASE_TWO)
        k, l = k - drop, l - drop
        # S^k S*^l has a 1 at (j + k, j + l) for j < d - max(k, l)
        j = np.arange(max(d - max(k, l), 0))
        row, col, data = (np.repeat(t, len(j)) for t in a)
        target = (row * d + np.tile(j + k, len(a[0])), col * d + np.tile(j + l, len(a[0])), -data)
        lhs = ucp_pi_apply(space, d, variant, FockOperator(space, a))
        return None, _concat([lhs, target])

    rows, worst = _verify_pairs(space, max_word, max_pair_sum, [check], width=d)
    records = [TensorRecord(xi, eta, case, res[0][1]) for k, l, xi, eta, case, res in rows]
    return TensorReport(variant, records, worst)
