"""Multiplier maps assembled from rank-one Hankel decompositions.

A plan stores rank-one terms (x_i, y_i) and (z_i, w_i) for the two
difference Hankel matrices plus the tail constant c.  The induced map

    T(A) = sum_i Phi1_{x_i, y_i}(A) + sum_i Phi2_{z_i, w_i}(A) + c * A

acts on operators over a truncated word space and rescales each
word-pair operator L_xi L_eta^* by the symbol value at the pair's
combined length (shifted by one when the last letters share a factor).
The module also bounds the map through explicit Kraus families and
realizes the unital completely positive tensor extensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, NumericalFailure, TooLarge
from .fock import (
    CASE_TWO,
    FockOperator,
    FockSpace,
    Word,
    _cached_factor_projs,
    _cached_prefix_index,
    classify_case,
    eps,
    rho,
    right_word,
    word_label,
    word_operator,
)
from .hankel import RankOneDecomposition, difference_decompositions, exact_route
from .symbols import RadialSymbol, evaluate, psi1, psi2, tail_constant

DENSE_EIG_LIMIT = 512

# Plan vectors hold at least this many entries, so a plan built without an
# explicit horizon covers every space with max_len up to 32.
MIN_VECTOR_HORIZON = 32
# Longest plan vectors built; atoms with |s| above about 1 - 3.4e-5 would
# need more.
VECTOR_HORIZON_CAP = 1 << 20


@dataclass
class MultiplierPlan:
    """Rank-one data driving the multiplier map for one symbol."""

    symbol: RadialSymbol
    decomposition_h: RankOneDecomposition
    decomposition_k: RankOneDecomposition
    c: complex
    rank_cap: int | None
    vector_horizon: int
    beyond_horizon_mass: float


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


def build_plan(
    sym: RadialSymbol,
    tol: float = 1e-10,
    horizon: int | None = None,
    rank_cap: int | None = None,
) -> MultiplierPlan:
    """Decompose both difference Hankel matrices into rank-one terms.

    The vectors are as long as the symbol's exact route needs (support + 2,
    or the Vandermonde horizon of a measure symbol), at least
    MIN_VECTOR_HORIZON, and enlarged to ``horizon`` when that is bigger.
    When ``horizon`` is smaller, the stored vectors are cut to that many
    entries and the discarded correlation mass is reported in
    ``beyond_horizon_mass`` so callers can tell whether eigenvalue sums
    were affected.  ``tol`` is only checked to be positive.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    c = tail_constant(sym)
    m = max(exact_route(sym)[1], MIN_VECTOR_HORIZON)
    if m > VECTOR_HORIZON_CAP:
        raise TooLarge(
            f"plan vectors would need {m} entries (cap {VECTOR_HORIZON_CAP}): "
            "atoms too close to the unit circle"
        )
    if horizon is not None:
        if horizon < 1:
            raise ValueError("horizon must be positive")
        m = max(m, horizon)
    dec_h, dec_k = difference_decompositions(sym, m)
    if rank_cap is not None:
        dec_h = RankOneDecomposition(
            dec_h.terms[:rank_cap],
            sum(np.linalg.norm(x) * np.linalg.norm(y) for x, y in dec_h.terms[:rank_cap]),
        )
        dec_k = RankOneDecomposition(
            dec_k.terms[:rank_cap],
            sum(np.linalg.norm(x) * np.linalg.norm(y) for x, y in dec_k.terms[:rank_cap]),
        )
    beyond = 0.0
    if horizon is not None and horizon < m:
        dec_h, lost_h = _truncate_terms(dec_h, horizon)
        dec_k, lost_k = _truncate_terms(dec_k, horizon)
        beyond = lost_h + lost_k
    return MultiplierPlan(
        symbol=sym,
        decomposition_h=dec_h,
        decomposition_k=dec_k,
        c=c,
        rank_cap=rank_cap,
        vector_horizon=horizon if horizon is not None else m,
        beyond_horizon_mass=beyond,
    )


def _truncate_terms(dec: RankOneDecomposition, horizon: int):
    terms = []
    lost = 0.0
    for x, y in dec.terms:
        lost += np.linalg.norm(x[horizon:]) * np.linalg.norm(y)
        lost += np.linalg.norm(x[:horizon]) * np.linalg.norm(y[horizon:])
        terms.append((x[:horizon], y[:horizon]))
    nuclear = sum(np.linalg.norm(x) * np.linalg.norm(y) for x, y in terms)
    return RankOneDecomposition(terms, float(nuclear)), float(lost)


def plan_cb_bound(plan: MultiplierPlan) -> float:
    """Upper bound sum_i ||x_i|| ||y_i|| + sum_i ||z_i|| ||w_i|| + |c|."""
    total = abs(plan.c)
    for x, y in plan.decomposition_h.terms:
        total += float(np.linalg.norm(x) * np.linalg.norm(y))
    for z, w in plan.decomposition_k.terms:
        total += float(np.linalg.norm(z) * np.linalg.norm(w))
    return total


# ---------------------------------------------------------------------------
# The transformations Phi1 / Phi2 and their sums
# ---------------------------------------------------------------------------


def _shift_values(vec: np.ndarray, levels: np.ndarray, shift: int) -> np.ndarray:
    """Diagonal values vec[level + shift], zero outside the vector's support."""
    idx = levels + shift
    out = np.zeros(len(levels), dtype=complex)
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


def _first_sum(space: FockSpace, x, y, mat) -> sp.csr_matrix:
    """sum_n D_{(S*)^n x} A D*_{(S*)^n y}, collapsed to entrywise level weights."""
    coo = mat.tocoo()
    if coo.nnz == 0:
        return sp.csr_matrix(mat.shape, dtype=complex)
    w = _correlation_weights(x, y, space.max_len)
    lv = space.levels
    data = coo.data * w[lv[coo.row], lv[coo.col]]
    return sp.csr_matrix((data, (coo.row, coo.col)), shape=mat.shape)


def _deep_sum(space: FockSpace, x, y, deep: list) -> sp.csr_matrix:
    """sum_{n>=1} D_{S^n x} deep[n] D*_{S^n y} with deep[n] a sparse matrix."""
    lv = space.levels
    rows, cols, data = [], [], []
    for n in range(1, len(deep)):
        inner = deep[n]
        if inner is None or inner.nnz == 0:
            continue
        dx = _shift_values(x, lv, -n)
        dy = _shift_values(y, lv, -n)
        if not dx.any() or not dy.any():
            continue
        coo = inner.tocoo()
        rows.append(coo.row)
        cols.append(coo.col)
        data.append(coo.data * dx[coo.row] * dy[coo.col].conj())
    if not rows:
        return sp.csr_matrix((space.dim, space.dim), dtype=complex)
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.dim, space.dim),
    )


def _rho_chain(space: FockSpace, mat, count: int) -> list:
    """[A, rho(A), ..., rho^count(A)] as sparse matrices."""
    chain = [mat]
    cur = mat
    for _ in range(count):
        if cur.nnz:
            cur = rho(space, FockOperator(space, cur)).mat
        chain.append(cur)
    return chain


def _phi_deep_variant1(space: FockSpace, mat) -> list:
    # deep[n] = rho^n(A); index 0 unused by the deep sum
    return _rho_chain(space, mat, space.max_len)


def _phi_deep_variant2(space: FockSpace, mat) -> list:
    # deep[n] = rho^(n-1)(eps(A))
    eps_mat = eps(space, FockOperator(space, mat)).mat
    chain = _rho_chain(space, eps_mat, space.max_len - 1)
    return [None] + chain


def phi1_apply(space: FockSpace, x, y, op: FockOperator) -> FockOperator:
    """Apply the first elementary transformation for vectors x, y."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    deep = _phi_deep_variant1(space, op.mat)
    return FockOperator(space, _first_sum(space, x, y, op.mat) + _deep_sum(space, x, y, deep))


def phi2_apply(space: FockSpace, x, y, op: FockOperator) -> FockOperator:
    """Apply the second elementary transformation (compressed deep part)."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    deep = _phi_deep_variant2(space, op.mat)
    return FockOperator(space, _first_sum(space, x, y, op.mat) + _deep_sum(space, x, y, deep))


def _apply_terms(space: FockSpace, terms, mat, deep) -> sp.csr_matrix:
    total = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    for x, y in terms:
        total = total + _first_sum(space, x, y, mat)
        total = total + _deep_sum(space, x, y, deep)
    return total


def _check_plan_space(plan: MultiplierPlan, space: FockSpace, op: FockOperator):
    if op.space is not space and op.space.spec != space.spec:
        raise DimensionMismatch("operator lives on a different space")
    if plan.vector_horizon < space.max_len:
        raise DimensionMismatch(
            f"plan horizon {plan.vector_horizon} does not cover max_len {space.max_len}"
        )


def apply_T(plan: MultiplierPlan, space: FockSpace, op: FockOperator) -> FockOperator:
    """T(A) = T1(A) + T2(A) + c A."""
    _check_plan_space(plan, space, op)
    mat = op.mat
    out = (plan.c * mat).tocsr()
    if plan.decomposition_h.terms:
        deep1 = _phi_deep_variant1(space, mat)
        out = out + _apply_terms(space, plan.decomposition_h.terms, mat, deep1)
    if plan.decomposition_k.terms:
        deep2 = _phi_deep_variant2(space, mat)
        out = out + _apply_terms(space, plan.decomposition_k.terms, mat, deep2)
    return FockOperator(space, out)


def apply_T1(plan: MultiplierPlan, space: FockSpace, op: FockOperator) -> FockOperator:
    """The rank-term sum over the first-difference decomposition alone."""
    _check_plan_space(plan, space, op)
    deep1 = _phi_deep_variant1(space, op.mat)
    return FockOperator(space, _apply_terms(space, plan.decomposition_h.terms, op.mat, deep1))


def apply_T2(plan: MultiplierPlan, space: FockSpace, op: FockOperator) -> FockOperator:
    """The rank-term sum over the shifted-difference decomposition alone."""
    _check_plan_space(plan, space, op)
    deep2 = _phi_deep_variant2(space, op.mat)
    return FockOperator(space, _apply_terms(space, plan.decomposition_k.terms, op.mat, deep2))


# ---------------------------------------------------------------------------
# Verification over word pairs
# ---------------------------------------------------------------------------


def _iter_pairs(space: FockSpace, max_word: int, max_pair_sum: int | None):
    top = min(max_word, space.max_len)
    for k in range(top + 1):
        for l in range(top + 1):
            if max_pair_sum is not None and k + l > max_pair_sum:
                continue
            for xi in space.words_of_length(k):
                for eta in space.words_of_length(l):
                    yield k, l, xi, eta


def _safe_columns(space: FockSpace, k: int, l: int, eta: Word) -> np.ndarray:
    """Columns where truncation cannot interfere: extensions of eta whose
    image level k + len - l stays within the space."""
    prefix = _cached_prefix_index(space, l)
    return (prefix == space.index[eta]) & (space.levels - l + k <= space.max_len)


def _column_residual(diff: sp.csr_matrix, mask: np.ndarray) -> float:
    if not mask.any():
        return 0.0
    sub = diff.tocsc()[:, np.flatnonzero(mask)]
    if sub.nnz == 0:
        return 0.0
    return float(np.abs(sub.data).max())


def verify_eigenaction(
    plan: MultiplierPlan,
    space: FockSpace,
    max_word: int,
    tol: float = 1e-10,
    max_pair_sum: int | None = None,
) -> EigenReport:
    """Compare T on every word-pair operator against its expected eigenvalue.

    The expected value is phi(k+l) when either word is empty or their last
    letters lie in distinct factors, and phi(k+l-1) otherwise.  Residuals
    are measured entrywise over the truncation-safe columns.
    """
    sym = plan.symbol
    records: list[EigenRecord] = []
    worst = 0.0
    for k, l, xi, eta in _iter_pairs(space, max_word, max_pair_sum):
        a = word_operator(space, xi, eta)
        case = classify_case(xi, eta)
        n_eff = k + l if case == 1 else k + l - 1
        lam = evaluate(sym, n_eff)
        diff = apply_T(plan, space, a).mat - lam * a.mat
        resid = _column_residual(diff.tocsr(), _safe_columns(space, k, l, eta))
        worst = max(worst, resid)
        records.append(EigenRecord(xi, eta, case, k, l, lam, resid))
    return EigenReport(records, worst)


def verify_component_eigenaction(
    plan: MultiplierPlan,
    space: FockSpace,
    max_word: int,
    tol: float = 1e-10,
    max_pair_sum: int | None = None,
) -> ComponentReport:
    """Check T1 and T2 separately against their difference-series eigenvalues.

    T1 scales every safe pair by psi1(k+l); T2 scales by psi2(k+l) in the
    distinct-factor case and psi2(k+l-2) otherwise.
    """
    sym = plan.symbol
    records: list[ComponentRecord] = []
    worst = 0.0
    series_tol = min(tol, 1e-12)
    for k, l, xi, eta in _iter_pairs(space, max_word, max_pair_sum):
        a = word_operator(space, xi, eta)
        case = classify_case(xi, eta)
        mask = _safe_columns(space, k, l, eta)
        deep1 = _phi_deep_variant1(space, a.mat)
        deep2 = _phi_deep_variant2(space, a.mat)
        t1 = _apply_terms(space, plan.decomposition_h.terms, a.mat, deep1)
        t2 = _apply_terms(space, plan.decomposition_k.terms, a.mat, deep2)
        lam1 = psi1(sym, k + l, series_tol)
        lam2 = (
            psi2(sym, k + l, series_tol)
            if case == 1
            else psi2(sym, k + l - 2, series_tol)
        )
        r1 = _column_residual((t1 - lam1 * a.mat).tocsr(), mask)
        r2 = _column_residual((t2 - lam2 * a.mat).tocsr(), mask)
        worst = max(worst, r1, r2)
        records.append(ComponentRecord(xi, eta, case, k, l, lam1, r1, lam2, r2))
    return ComponentReport(records, worst)


# ---------------------------------------------------------------------------
# Completely bounded norm estimates via explicit Kraus families
# ---------------------------------------------------------------------------


def spectral_norm(op, tol: float = 1e-12, max_iter: int = 5000) -> float:
    """Largest absolute eigenvalue of a Hermitian operator.

    Dense eigendecomposition below DENSE_EIG_LIMIT; power iteration above,
    raising NumericalFailure when the iteration stalls.
    """
    mat = op.mat if isinstance(op, FockOperator) else sp.csr_matrix(op, dtype=complex)
    dim = mat.shape[0]
    if dim <= DENSE_EIG_LIMIT:
        try:
            vals = np.linalg.eigvalsh(mat.toarray())
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
        return float(np.abs(vals).max()) if vals.size else 0.0
    rng = np.random.default_rng(0)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(max_iter):
        w = mat @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(norm - prev) < tol * max(1.0, norm):
            return float(norm)
        prev = norm
    raise NumericalFailure("power iteration did not converge")


def kraus_row_sum(space: FockSpace, vec, variant: int) -> FockOperator:
    """Materialize the row Kraus family for one vector and sum u u^*.

    Variant 1 pairs the shifted diagonals with whole-word right creations;
    variant 2 shortens the appended word by one and compresses by the
    last-letter factor projections.  For any vector the sum telescopes to
    ||vec||^2 times the identity on the truncated space.
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    vec = np.asarray(vec, dtype=complex)
    lv = space.levels
    total = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    for n in range(len(vec)):
        d = _shift_values(vec, lv, n)
        if not d.any():
            continue
        u = sp.diags(d).tocsr()
        total = total + u @ u.conjugate().transpose()
    for n in range(1, space.max_len + 1):
        d = _shift_values(vec, lv, -n)
        if not d.any():
            continue
        dn = sp.diags(d).tocsr()
        if variant == 1:
            for zeta in space.words_of_length(n):
                u = dn @ right_word(space, zeta).mat
                total = total + u @ u.conjugate().transpose()
        else:
            for zeta in space.words_of_length(n - 1):
                rz = dn @ right_word(space, zeta).mat
                for q in _cached_factor_projs(space):
                    u = rz @ q.mat
                    total = total + u @ u.conjugate().transpose()
    return FockOperator(space, total)


def cs_bound(space: FockSpace, x, y, variant: int) -> tuple[float, float, float]:
    """Spectral norms of the row/column Kraus sums and their product.

    The column family's Gram sum has the same form as the row sum built
    from y, so both sides reduce to one materialization each.
    """
    row = spectral_norm(kraus_row_sum(space, x, variant))
    col = spectral_norm(kraus_row_sum(space, y, variant))
    return row, col, row * col


# ---------------------------------------------------------------------------
# Unital completely positive tensor extensions
# ---------------------------------------------------------------------------


def tensor_shift(dim: int) -> sp.csr_matrix:
    """Truncated coordinate shift e_i -> e_{i+1} on C^dim."""
    return sp.diags(np.ones(dim - 1, dtype=complex), -1).tocsr()


def _tensor_window(space: FockSpace, tensor_dim: int, n: int) -> sp.csr_matrix:
    """The partial isometry pairing level m with tensor slot m - n."""
    dim = space.dim * tensor_dim
    rows, cols = [], []
    for b in range(space.dim):
        i = int(space.levels[b]) - n
        if 0 <= i < tensor_dim:
            rows.append(b * tensor_dim + i)
            cols.append(b * tensor_dim)
    data = np.ones(len(rows), dtype=complex)
    return sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))


def ucp_pi_apply(
    space: FockSpace, tensor_dim: int, variant: int, op: FockOperator
) -> sp.csr_matrix:
    """Apply the unital completely positive tensor extension to an operator.

    Returns a sparse matrix on the product of the word space with C^d
    (word index major).  Requires tensor_dim >= max_len + 1 so that every
    level has a tensor slot.
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if tensor_dim < space.max_len + 1:
        raise DimensionMismatch(
            f"tensor_dim {tensor_dim} must be at least max_len + 1 = {space.max_len + 1}"
        )
    if op.space is not space and op.space.spec != space.spec:
        raise DimensionMismatch("operator lives on a different space")
    mat = op.mat
    deep1 = _phi_deep_variant1(space, mat)
    deep2 = _phi_deep_variant2(space, mat) if variant == 2 else None
    eye = sp.identity(tensor_dim, dtype=complex, format="csr")
    dim = space.dim * tensor_dim
    out = sp.csr_matrix((dim, dim), dtype=complex)
    for n in range(-(tensor_dim - 1), space.max_len + 1):
        u = _tensor_window(space, tensor_dim, n)
        if u.nnz == 0:
            continue
        if n <= 0:
            inner = mat
        elif variant == 1:
            inner = deep1[n]
        else:
            inner = deep2[n]
        if inner is None or inner.nnz == 0:
            continue
        out = out + u @ sp.kron(inner, eye, format="csr") @ u.conjugate().transpose()
    return out.tocsr()


def verify_ucp_relations(
    space: FockSpace,
    tensor_dim: int,
    variant: int,
    max_word: int,
    tol: float = 1e-10,
    max_pair_sum: int | None = None,
) -> TensorReport:
    """Check the tensor extension against its word-pair tensor form.

    The extension must send L_xi L_eta^* to L_xi L_eta^* tensor S^k S*^l,
    with both exponents lowered by one in the shared-last-factor case of
    variant 2.  Residuals are taken over safe columns (every tensor slot).
    """
    shift = tensor_shift(tensor_dim)
    records: list[TensorRecord] = []
    worst = 0.0
    for k, l, xi, eta in _iter_pairs(space, max_word, max_pair_sum):
        a = word_operator(space, xi, eta)
        case = classify_case(xi, eta)
        lhs = ucp_pi_apply(space, tensor_dim, variant, a)
        if variant == 2 and case == CASE_TWO:
            t_op = (shift ** (k - 1)) @ (shift.conjugate().transpose() ** (l - 1))
        else:
            t_op = (shift**k) @ (shift.conjugate().transpose() ** l)
        rhs = sp.kron(a.mat, t_op, format="csr")
        diff = (lhs - rhs).tocsc()
        fock_mask = _safe_columns(space, k, l, eta)
        col_idx = [
            b * tensor_dim + j
            for b in np.flatnonzero(fock_mask)
            for j in range(tensor_dim)
        ]
        sub = diff[:, col_idx]
        resid = float(np.abs(sub.data).max()) if sub.nnz else 0.0
        worst = max(worst, resid)
        records.append(TensorRecord(xi, eta, case, resid))
    return TensorReport(variant, records, worst)
