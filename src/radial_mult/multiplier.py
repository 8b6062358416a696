"""Multiplier maps of radial symbols on truncated word spaces.

The map T = T1 + T2 + c Id rescales each word-pair operator L_xi L_eta^*
by the symbol value at the pair's combined length (shifted by one when the
last letters share a factor).  The multiplier is radial, so every kernel
of T is a function of the level sum s of an entry: with
d(n) = phi(n) - phi(n+1),

    T(A) = A o (c + w[s]) + sum_{n>=0} rho^n( rho(A o d[s]) + eps(A) o d[s-1] ),
    w[s] = psi1(s) + psi2(s).

It holds because rho moves an entry at levels (a, b) to (a + 1, b + 1)
and eps keeps its levels, so each entry of rho^n(A) keeps the weight d of
its source's level sum, and each entry after eps the weight one below.
``apply_T`` reads w and d off the symbol, at O(max_len) scalar evaluations
whatever the symbol's rank, and runs one rho chain.  The scaling checks
read T(A) at each entry of A = sum_eta L_xi L_eta^* off the entry and its
rho ancestors, in one pass down A's chain tree.  The tensor check counts
the extension's image of A layer by layer, as the code under test builds it.

A plan is the certificate that T is completely bounded: rank-one terms
(x_i, y_i) and (z_i, w_i) of the two difference Hankel matrices plus the
tail constant c, with

    T(A) = sum_i Phi1_{x_i, y_i}(A) + sum_i Phi2_{z_i, w_i}(A) + c * A

and ||T||_cb at most sum_i ||x_i|| ||y_i|| + sum_i ||z_i|| ||w_i|| + |c|.
Its vectors end at the height of the symbol's exact route, past which the
differences vanish or lie below rounding.  The module also bounds the map
through explicit Kraus families and realizes the unital completely
positive tensor extensions, whose images on the word space times C^d are
returned as COO triplets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DimensionMismatch
from .fock import (
    CASE_ONE,
    CASE_TWO,
    FockOperator,
    FockSpace,
    Word,
    _chain,
    _concat,
    _diagonal,
    _eps_triplets,
    _rho_triplets,
    _same_space,
)
from .hankel import RankOneDecomposition, _decompositions
from .symbols import ROUNDING, Form, RadialSymbol, form


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
    """Residuals of T against its expected word-pair eigenvalues.

    Each residual is zero in exact arithmetic; ``rounding_bound`` bounds
    what rounding leaves of any of them (see _scaling_rounding).
    """

    records: list[EigenRecord]
    worst_residual: float
    rounding_bound: float


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

    The vectors are as long as the symbol's exact route needs: the support,
    or the Vandermonde horizon M of a measure symbol.  Past that height the
    differences vanish, or lie below rounding, so the plan applies on a
    space of any length.  Raises TooLarge when the vectors would need more
    than symbols.VECTOR_HORIZON_CAP entries.
    """
    f = form(sym)
    dec_h, dec_k = _decompositions(f)
    return MultiplierPlan(sym, dec_h, dec_k, f.tail_constant())


def plan_cb_bound(plan: MultiplierPlan) -> float:
    """Upper bound sum_i ||x_i|| ||y_i|| + sum_i ||z_i|| ||w_i|| + |c|.

    Each term carries sqrt(sigma_i) on both sides, so the sums are the
    decompositions' nuclear_sum.  sup |phi| is at most this bound, and meets
    it for a positive measure (see symbols.equality_allowance).
    """
    return abs(plan.c) + plan.decomposition_h.nuclear_sum + plan.decomposition_k.nuclear_sum


# ---------------------------------------------------------------------------
# T through level-sum kernels
# ---------------------------------------------------------------------------


def _kernels(f: Form, space: FockSpace, c=0.0, h=False, k=False):
    """(w, dh, dk), indexed by the level sum s of an entry, of the map
    c A + the chosen parts of T:

        T(A) = A o w[s] + sum_{n>=0} rho^n( rho(A o dh[s]) + eps(A) o dk[s] ),

    with d(n) = phi(n) - phi(n+1), dh[s] = d(s) for h and dk[s] = d(s - 1)
    for k, and w[s] = c + psi1(s) for h + psi2(s) for k.  A kernel of a part
    not chosen is zero.

    Why: summed over its rank-one terms, T1 weights the entry of rho^n(A)
    at row and column levels (a, b) by d(a + b - 2n), and T2 weights that
    of rho^(n-1)(eps(A)) by d(a + b - 2n + 1).  rho moves an entry at
    levels (a, b) to (a + 1, b + 1) and eps keeps its levels, so either
    weight is d at the level sum of the entry's source in A (less one after
    eps), and weighting A once before the chain gives the same map.  The
    part without rho weights A by sum_t d(s + 2t), which is psi1(s) for h
    and psi2(s) = psi1(s + 1) for k.  As psi1(n) = d(n) + psi1(n + 2),
    each parity class of psi1 is a reversed cumulative sum of d."""
    top = 2 * space.max_len + 1  # level sums 0 .. 2 max_len
    d = f.differences(top + 1, 0, 1)
    psi = np.empty(top + 1, dtype=complex)
    for parity in (0, 1):
        run = np.append(d[parity::2], f.psi1(top + 1 + parity))
        psi[parity::2] = np.cumsum(run[::-1])[::-1][:-1]
    zero = np.zeros(top, dtype=complex)
    w = (psi[:top] if h else zero) + (psi[1:] if k else zero)
    dh = d[:top] if h else zero
    # level sum 0 is the vacuum pair, which eps drops
    dk = np.append(0.0, d[: top - 1]) if k else zero
    return c + w, dh, dk


def _apply(space: FockSpace, kernels, row, col, data) -> list:
    """T(A) from the triplets of A, as triplets whose positions may repeat.

    An entry whose kernel value is zero starts no deep terms; the filter
    reads the kernel, not the weighted data, so a non-finite entry still
    meets every nonzero weight."""
    w, dh, dk = kernels
    lv = space.levels
    s = lv[row] + lv[col]
    h, k = dh[s] != 0, dk[s] != 0
    start = _concat(
        [
            _rho_triplets(space, row[h], col[h], data[h] * dh[s[h]]),
            _eps_triplets(space, row[k], col[k], data[k] * dk[s[k]]),
        ]
    )
    return [(row, col, data * w[s]), *_chain(space, *start)]


def _apply_map(space: FockSpace, op: FockOperator, kernels) -> FockOperator:
    _same_space(space, op.space)
    return FockOperator(space, _concat(_apply(space, kernels, *op.triplets)))


def apply_T(plan: MultiplierPlan, space: FockSpace, op: FockOperator) -> FockOperator:
    """T(A) = T1(A) + T2(A) + c A."""
    return _apply_map(space, op, _kernels(form(plan.symbol), space, plan.c, h=True, k=True))


def apply_T1(plan: MultiplierPlan, space: FockSpace, op: FockOperator) -> FockOperator:
    """T1(A), the first-difference part of T."""
    return _apply_map(space, op, _kernels(form(plan.symbol), space, h=True))


def apply_T2(plan: MultiplierPlan, space: FockSpace, op: FockOperator) -> FockOperator:
    """T2(A), the shifted-difference part of T."""
    return _apply_map(space, op, _kernels(form(plan.symbol), space, k=True))


# ---------------------------------------------------------------------------
# Verification over word pairs
# ---------------------------------------------------------------------------


def _blocks(space: FockSpace, max_word: int, max_pair_sum):
    """Yield (k, l, i, etas, cases, pairs) per word xi = word i of length k and
    length l: the words eta of length l, each pair's case and the pairs
    (xi, eta, case).  The rho chain from the corners (xi, eta) is A = sum_eta L_xi L_eta^*."""
    if max_word < 0:
        raise ValueError("max_word must be non-negative")
    if max_pair_sum is not None and max_pair_sum < 0:
        raise ValueError("max_pair_sum must be non-negative")
    bounds, lf = [*space.level_offsets, space.dim], space.last_factor
    for k, l in product(range(min(max_word, space.max_len) + 1), repeat=2):
        etas, words = np.arange(bounds[l], bounds[l + 1]), space.words_of_length(l)
        if (max_pair_sum is not None and k + l > max_pair_sum) or not len(etas):
            continue
        for xi, i in zip(space.words_of_length(k), range(bounds[k], bounds[k + 1])):
            cases = np.where((lf[i] >= 0) & (lf[etas] == lf[i]), CASE_TWO, CASE_ONE)
            yield k, l, i, etas, cases, [(xi, *p) for p in zip(words, cases.tolist())]


def _scaling_rows(space: FockSpace, max_word: int, max_pair_sum, parts):
    """Rows (k, l, (xi, eta, case), [(expected, residual)]) and the worst
    residual of the checks that each part (kernels, f) scales L_xi L_eta^* by
    f(k + l, case).  Each entry of A (value 1) is appended from its parent,
    up to the corners.  In T's kernel form (see _kernels) rho(A o dh) reaches
    an entry from its strict ancestors and eps(A) o dk, chained, from itself
    and its ancestors, so an entry e of level sum s and eps mask m has
    T(A)[e] = w[s] + m dk[s] + P(e), with P zero at the corners and
    P(child) = P(e) + dh[s] + m dk[s], handed down one depth at a time."""
    lv, lf, rows = space.levels, space.last_factor, []
    for k, l, i, etas, cases, pairs in _blocks(space, max_word, max_pair_sum):
        lams = [[f(k + l, c) for _, f in parts] for c in cases.tolist()]
        lam = np.array(lams).T
        residual, carry = np.zeros(lam.shape), np.zeros(lam.shape, dtype=complex)
        row, col, pair = np.full(len(etas), i), etas, np.arange(len(etas))  # the corners
        while len(pair):
            s, m = lv[row] + lv[col], (lf[row] >= 0) & (lf[row] == lf[col])
            for res, acc, v, ((w, dh, dk), _) in zip(residual, carry, lam, parts):
                own = np.where(m, dk[s], 0)
                np.maximum.at(res, pair, np.abs(w[s] + own + acc - v[pair]))
                acc += dh[s] + own
            row, col, at = _rho_triplets(space, row, col, np.arange(len(row)))
            pair, carry = pair.take(at), carry.take(at, axis=1)
        rows += [(k, l, p, list(zip(e, r))) for p, e, r in zip(pairs, lams, residual.T.tolist())]
    return rows, max((x for *_, r in rows for _, x in r), default=0.0)


def _scaling_rounding(f: Form, space: FockSpace) -> float:
    """A bound on what rounding leaves of any residual verify_eigenaction
    reads on the space; each is zero in exact arithmetic.  With
    u = ROUNDING / 2 and top = 2 max_len + 1:

    * phi(n) evaluates within e(n) = u a(n), a(n) = |phi(n)|, for a
      finite-support symbol (stored values or one real power), and within
      e(n) = u (8n + N + 11) a(n) for a form with N atoms, with
      a(n) = max(|c_even|, |c_odd|) + sum |w| |s|**n: a complex power s**n
      carries up to (7.3n + 4) u of relative error (the modulus raised to
      n, the angle times n), its product with w 2.3 u, and each of the N
      additions u a(n).
    * Gradual underflow adds to e(n) an absolute error: a product, quotient
      or power with a subnormal result is off by up to eta = 2**-1074 (a
      subnormal sum is exact): a real power by one eta.  s**n takes at
      most 2 bit_length(n) complex products of factors of modulus below 1
      (CPython squares up to n = 100; past it, hypot, pow and two products),
      of 4 real products each, and w s**n scales their errors by |w| and
      adds 4: eta sum (8 bit_length(n) |w| + 4) over the atoms, which covers
      a doubled form's base at n // 2 (no more atoms, the same sum of |w|).
    * A residual w[s] + m dk[s] + P(e) - lambda (see _scaling_rows) reads
      each difference d(n) = phi(n) - phi(n+1), n <= top, at most once:
      psi[s] + psi[s+1] in w the d(i) for i >= s, m dk[s] and P(e) those
      below.  Each d(n) is within e(n) + e(n+1) + u (a(n) + a(n+1)).
    * Each parity's cumsum in psi starts from psi1(top + 1) or
      psi1(top + 2).  A measure symbol's is within u (8n + N + 17) b(n),
      b(n) = sum |w| |s|**n / |1 + s| >= |psi1(n)| (a power, a product, a
      sum and a quotient per atom), plus eta ((16 bit_length(n) |w| + 10) /
      |1 + s| + 2) per atom: Smith's quotient by 1 + s mixes the parts of
      w s**n in two products and divides twice by at least |1 + s|.  A
      finite-support symbol's is a sum of differences d(i), i >= n of its
      parity, each within 2 u (a(i) + a(i+1)) + 2 eta, whose additions round
      by at most u times the running sum of |d(i)|.
    * Additions of values of size at most M, with M >= |phi|, |psi1| up to
      top + 2: the cumsums' max_len + 1 per parity (each partial sum is a
      psi1 value), the two of w = c + psi[s] + psi[s+1] (at most 3M), and as
      in the tests' scaling_gap_bound, 2t + 3 <= 2 max_len + 3 of partial
      sums at most 3M (a value, a difference of two, or a value plus one d).
    * lambda = phi(n), n <= 2 max_len, is within e(n).
    """
    u, eta, top, length = ROUNDING / 2, 2.0**-1074, 2 * space.max_len + 1, f.support_length
    n = np.arange(top + 3 if length is None else max(top + 3, length + 2))
    if length is None:
        s, w = f.s, f.w
        terms = np.abs(w)[:, None] * np.abs(s)[:, None] ** n
        a = max(abs(f.even), abs(f.odd)) + terms.sum(axis=0)
        power = 8 * np.array([m.bit_length() for m in n.tolist()]) * np.abs(w)[:, None]
        e = u * (8 * n + s.size + 11) * a + eta * (power + 4).sum(axis=0)
        b = (terms / np.abs(1 + s)[:, None]).sum(axis=0)
        quotient = eta * ((2 * power + 10) / np.abs(1 + s)[:, None] + 2).sum(axis=0)
        psi_rounding = u * (8 * n + s.size + 17) * b + quotient
        tails, big = psi_rounding[top + 1] + psi_rounding[top + 2], max(a.max(), b.max())
    else:
        phi = f.values(0, len(n))
        a, diff = np.abs(phi), np.abs(phi[:-1] - phi[1:])
        e, pairs = u * a + eta, a[:-1] + a[1:]
        run = [(pairs[m:length:2], diff[m:length:2]) for m in (top + 1, top + 2)]
        tails = sum(u * (2 * p.sum() + np.cumsum(d).sum()) + 2 * eta * len(d) for p, d in run)
        big = max(a.max(), diff[:length].sum())  # |psi1| is at most the variation
    kernels = (e[: top + 1] + e[1 : top + 2] + u * (a[: top + 1] + a[1 : top + 2])).sum()
    additions = 2 * (space.max_len + 1) + 2 * 3 + 3 * (2 * space.max_len + 3)
    return float(kernels + tails + e[:top].max() + u * big * additions)


def verify_eigenaction(
    plan: MultiplierPlan,
    space: FockSpace,
    max_word: int,
    max_pair_sum: int | None = None,
) -> EigenReport:
    """Compare T on every word-pair operator against its expected eigenvalue.

    The expected value is phi(k+l) when either word is empty or their last
    letters lie in distinct factors, and phi(k+l-1) otherwise.  Residuals
    are measured entrywise.
    """
    f = form(plan.symbol)
    kernels = _kernels(f, space, plan.c, h=True, k=True)
    phi = f.values(0, 2 * min(max_word, space.max_len) + 1).tolist()
    parts = [(kernels, lambda n, case: phi[n - (case == CASE_TWO)])]
    rows, worst = _scaling_rows(space, max_word, max_pair_sum, parts)
    records = [EigenRecord(*p, k, l, *r[0]) for k, l, p, r in rows]
    return EigenReport(records, worst, _scaling_rounding(f, space))


def verify_component_eigenaction(
    plan: MultiplierPlan,
    space: FockSpace,
    max_word: int,
    max_pair_sum: int | None = None,
) -> ComponentReport:
    """Check T1 and T2 separately against their difference-series eigenvalues.

    T1 scales every pair by psi1(k+l); T2 scales by psi2(k+l) in the
    distinct-factor case and psi2(k+l-2) otherwise.
    """
    f = form(plan.symbol)
    psi = [f.psi1(n) for n in range(2 * min(max_word, space.max_len) + 2)]
    kh, kk = _kernels(f, space, h=True), _kernels(f, space, k=True)
    parts = [(kh, lambda n, _: psi[n]), (kk, lambda n, case: psi[n + 1 - 2 * (case == CASE_TWO)])]
    rows, worst = _scaling_rows(space, max_word, max_pair_sum, parts)
    return ComponentReport([ComponentRecord(*p, k, l, *r[0], *r[1]) for k, l, p, r in rows], worst)


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


def _kraus_levels(space: FockSpace, vec, variant: int) -> np.ndarray:
    """The row Kraus sum of one vector at each non-empty level 0, 1, ...
    (see kraus_row_sum), which the sum takes at every word of that level."""
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    vec, size = np.asarray(vec, dtype=complex), space.max_len + 1
    weight = np.pad((vec * vec.conj()).real, (0, max(size - len(vec), 0)))
    # Level L gets weight[L:] from the shifted diagonals D_{(S*)^n vec} and
    # weight[:L] from the appended words, which shift vec by -n at level n;
    # the vacuum, which variant 2's projections drop, would carry vec[-1] = 0.
    shifted = np.cumsum(weight[::-1])[::-1][:size]
    appended = np.concatenate(([0.0], np.cumsum(weight[: size - 1])))
    return (shifted + appended)[: space.levels[-1] + 1]


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
    return _diagonal(space, _kraus_levels(space, vec, variant)[space.levels])


def cs_bound(space: FockSpace, x, y, variant: int) -> tuple[float, float, float]:
    """Spectral norms of the row/column Kraus sums and their product.

    The column family's Gram sum has the same form as the row sum built
    from y, so both sides reduce to one diagonal each, and each norm is the
    largest value of its diagonal, which is one value per level.
    """
    row, col = (float(_kraus_levels(space, v, variant).max()) for v in (x, y))
    return row, col, row * col


# ---------------------------------------------------------------------------
# Unital completely positive tensor extensions
# ---------------------------------------------------------------------------


def _check_tensor(space: FockSpace, tensor_dim: int, variant: int):
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if tensor_dim < (need := space.max_len + 1):
        raise DimensionMismatch(f"tensor_dim {tensor_dim} must be at least max_len + 1 = {need}")


def _tensor_layers(space: FockSpace, d: int, variant: int, row, col, data):
    """The tensor extension's image of A's triplets, one layer at a time, as
    (row, col, data, row slot, col slot).  Layer n puts level m in slot m - n,
    kept below d; it carries A for n <= 0, and for n >= 1 rho^n(A) in variant
    1 or rho^(n-1)(eps(A)) in variant 2, so the layers fill distinct slots."""
    top = np.maximum(lr := space.levels[row], lc := space.levels[col])
    for n in range(1 - d, 1):
        ok = top < d + n
        yield row[ok], col[ok], data[ok], lr[ok] - n, lc[ok] - n
    step = _eps_triplets if variant == 2 else _rho_triplets
    # layer n >= 1 sits at levels n .. max_len, so at slots below max_len < d
    for n, (r, c, x) in enumerate(_chain(space, *step(space, row, col, data)), start=1):
        yield r, c, x, space.levels[r] - n, space.levels[c] - n


def ucp_pi_apply(space: FockSpace, tensor_dim: int, variant: int, op: FockOperator):
    """Apply the unital completely positive tensor extension to an operator.

    Returns the triplets (row, col, data) of the image on the product of
    the word space with C^d (index word * d + slot), one per position, layer
    by layer.  Requires tensor_dim >= max_len + 1 so that every level has a
    tensor slot.
    """
    _check_tensor(space, tensor_dim, variant)
    _same_space(space, op.space)
    d, layers = tensor_dim, _tensor_layers(space, tensor_dim, variant, *op.triplets)
    return _concat([(r * d + sr, c * d + sc, x) for r, c, x, sr, sc in layers])


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
    variant 2.  Residuals are measured entrywise over every tensor slot: each
    column of A = sum_eta L_xi L_eta^* holds one entry, whose image triplets
    count at their row slots if on its row and slot diagonal (col slot - row
    slot = l - k), and add their |data| if not, layer by layer.
    """
    _check_tensor(space, tensor_dim, variant)
    d, records, slots = tensor_dim, [], np.arange(tensor_dim)
    for k, l, i, etas, cases, pairs in _blocks(space, max_word, max_pair_sum):
        corners = np.full(len(etas), i), etas, np.arange(len(etas))
        row, col, pair = _concat(list(_chain(space, *corners)))
        entry = np.full(space.dim, -1)  # each column's entry, -1 off A (a faulty image)
        entry[col] = np.arange(len(col))
        owner = np.append(pair, -1)  # each entry's pair; off A counts toward the last pair
        count, residual = np.zeros((len(row), d)), np.zeros(len(etas))
        for r, c, x, sr, sc in _tensor_layers(space, d, variant, row, col, np.ones(len(row))):
            e = entry[c]
            on = (e >= 0) & (r == row[e]) & (sc - sr == l - k) & (sr >= 0) & (sr < d)
            np.add.at(count, (e[on], sr[on]), x[on])
            np.maximum.at(residual, owner[e[~on]], np.abs(x[~on]))
        # S^k' S*^l' is 1 at row slots k' .. d - max(0, l - k) - 1 on the slot diagonal
        low = k - ((cases[pair] == CASE_TWO) & (variant == 2))  # k' per entry
        count -= (slots >= low[:, None]) & (slots < d - max(l - k, 0))
        np.maximum.at(residual, pair, np.abs(count, out=count).max(axis=1))
        del count  # the next block's count is allocated before this name is rebound
        records += [TensorRecord(*p, r) for p, r in zip(pairs, residual.tolist())]
    return TensorReport(variant, records, max((r.residual for r in records), default=0.0))
