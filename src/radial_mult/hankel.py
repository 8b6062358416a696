"""Hankel matrices of symbol differences and their exact trace norms.

Every symbol family has one exact, finite-dimensional route to the trace
norms of its difference Hankel matrices:

* support route: finite-support symbols (indicators, truncated geometrics,
  finite data, parity tails, and the Doubled form of any of these) have
  differences that vanish beyond the support, so one SVD at support + 2
  holds the whole spectrum (heights past SUPPORT_HEIGHT_CAP raise
  TooLarge).  Indicators skip the SVD: their difference matrices are signed
  shifts with singular values and vectors in closed form;
* Vandermonde route: a measure symbol phi(n) = c + sum_a w_a s_a**n has
  H = V diag(d) V^T with V[i, a] = s_a**i (Kronecker's finite-rank Hankel
  theorem).  With the thin QR V = QR cut at a horizon M where max|s|**M is
  below rounding, the nonzero singular values of H are those of the small
  matrix R diag(d) R^T, and the rows dropped past M move the trace norm by
  at most the reported geometric-tail bound.  The Doubled form of a
  measure symbol is the measure with atoms +-sqrt(s) and weights w/2.

The same factorization feeds the rank-one decompositions that certify the
multiplier map completely bounded.  The map itself is read off the symbol
through ``hankel_h``/``hankel_k``, not through these terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, TooLarge
from .symbols import (
    Indicator,
    RadialSymbol,
    evaluate,
    measure_atoms,
    parity_tails,
    support_length,
    tail_constant,
)

# Singular values below this relative level are double-precision noise.
RANK_CUTOFF = 1e-14

# The support route assembles dense m x m complex matrices; one at this
# height already takes 268 MB, so taller ones raise TooLarge.
SUPPORT_HEIGHT_CAP = 4096

# Longest rank-one vectors built; atoms with |s| above about 1 - 3.4e-5 need more.
VECTOR_HORIZON_CAP = 1 << 20

# The Vandermonde horizon M is the first power of two with max|s|**M at or
# below this level, so the rows past M carry nothing a double can hold.
ROUNDING = float(np.finfo(float).eps)


@dataclass
class HankelReport:
    """Trace norms of the first-difference Hankel matrices and their total.

    ``truncation`` is the matrix height the route used: support + 2 on the
    support route, the Vandermonde horizon M otherwise.  ``error_bound``
    bounds what the rows past that height add to the trace norms (zero on
    the support route).  ``converged`` is always True: both routes are exact.
    """

    truncation: int
    trace_norm_h: float
    trace_norm_k: float
    tail_abs: float
    total: float
    converged: bool
    route: str
    error_bound: float
    singular_values_h: np.ndarray
    singular_values_k: np.ndarray

    def to_obj(self) -> dict:
        return {
            "truncation": self.truncation,
            "trace_norm_h": self.trace_norm_h,
            "trace_norm_k": self.trace_norm_k,
            "tail_abs": self.tail_abs,
            "total": self.total,
            "converged": self.converged,
            "route": self.route,
            "error_bound": self.error_bound,
        }


@dataclass
class CPrimeReport:
    """Trace norm of the two-step-difference Hankel matrix with parity constants.

    ``truncation``, ``route``, ``error_bound`` and ``converged`` are as in
    HankelReport.
    """

    truncation: int
    trace_norm_hhat: float
    c1: complex
    c2: complex
    total: float
    converged: bool
    route: str
    error_bound: float
    singular_values_hhat: np.ndarray

    def to_obj(self) -> dict:
        return {
            "truncation": self.truncation,
            "trace_norm_hhat": self.trace_norm_hhat,
            "c1": [self.c1.real, self.c1.imag],
            "c2": [self.c2.real, self.c2.imag],
            "total": self.total,
            "converged": self.converged,
            "route": self.route,
            "error_bound": self.error_bound,
        }


@dataclass
class RankOneDecomposition:
    """Terms (x_i, y_i) with A[p, q] = sum_i x_i[p] * conj(y_i[q])."""

    terms: list[tuple[np.ndarray, np.ndarray]]
    nuclear_sum: float

    def reconstruct(self, dim: int) -> np.ndarray:
        out = np.zeros((dim, dim), dtype=complex)
        if self.terms:
            x, y = (np.array(v) for v in zip(*self.terms))
            out[: x.shape[1], : y.shape[1]] = x.T @ y.conj()
        return out


def _difference_row(sym: RadialSymbol, length: int, offset: int, step: int) -> np.ndarray:
    values = np.array([evaluate(sym, offset + m) for m in range(length + step)])
    return values[:length] - values[step : length + step]


def _hankel_from_sequence(seq: np.ndarray, m: int) -> np.ndarray:
    return seq[np.add.outer(np.arange(m), np.arange(m))]


def hankel_h(sym: RadialSymbol, m: int) -> np.ndarray:
    """Matrix with entry (i, j) = phi(i+j) - phi(i+j+1), size m x m."""
    if m < 1:
        raise ValueError("truncation must be at least 1")
    return _hankel_from_sequence(_difference_row(sym, 2 * m - 1, 0, 1), m)


def hankel_k(sym: RadialSymbol, m: int) -> np.ndarray:
    """Matrix with entry (i, j) = phi(i+j+1) - phi(i+j+2), size m x m."""
    if m < 1:
        raise ValueError("truncation must be at least 1")
    return _hankel_from_sequence(_difference_row(sym, 2 * m - 1, 1, 1), m)


def hankel_hhat(sym: RadialSymbol, m: int) -> np.ndarray:
    """Matrix with entry (i, j) = phi(i+j) - phi(i+j+2), size m x m."""
    if m < 1:
        raise ValueError("truncation must be at least 1")
    return _hankel_from_sequence(_difference_row(sym, 2 * m - 1, 0, 2), m)


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a matrix, descending."""
    try:
        return np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values."""
    return float(singular_values(a).sum())


def _atom_arrays(sym: RadialSymbol) -> tuple[np.ndarray, np.ndarray]:
    atoms = measure_atoms(sym)
    s = np.array([a for a, _ in atoms], dtype=complex)
    w = np.array([b for _, b in atoms], dtype=complex)
    return s, w


def _vandermonde_horizon(s: np.ndarray) -> int:
    """First power of two M with max|s|**M <= ROUNDING."""
    m, power = 1, float(np.abs(s).max())
    while power > ROUNDING:
        power *= power
        m *= 2
    return m


def exact_route(sym: RadialSymbol) -> tuple[str, int]:
    """The symbol's exact route and its matrix height.

    ("support", support + 2) for finite-support symbols, ("vandermonde", M)
    for measure symbols.  Raises TooLarge when the support route would need
    a matrix taller than SUPPORT_HEIGHT_CAP.
    """
    length = support_length(sym)
    if length is None:
        return "vandermonde", _vandermonde_horizon(_atom_arrays(sym)[0])
    m = length + 2
    if m > SUPPORT_HEIGHT_CAP:
        raise TooLarge(
            f"support route would need {m} x {m} matrices (cap {SUPPORT_HEIGHT_CAP})"
        )
    return "support", m


def _vandermonde_r(s: np.ndarray, m: int) -> np.ndarray:
    """Triangular factor of the thin QR of V[i, a] = s_a**i cut at m rows.

    ``m`` is a power of two.  Rows [M, 2M) of V are V_M diag(s**M), so
    V_2M = diag(Q_M, Q_M) [R_M; R_M diag(s**M)] and R_2M is the triangular
    factor of that 2N x N stack: doubling from the first row never forms V.
    """
    r = np.ones((1, s.size), dtype=complex)
    rows = 1
    while rows < m:
        # s**rows directly: repeated squaring would double its relative
        # error at every step.
        r = np.linalg.qr(np.vstack([r, r * s**rows]), mode="r")
        rows *= 2
    return r


# Each difference matrix has entries phi(i+j+offset) - phi(i+j+offset+step).
H, K, HHAT = (0, 1), (1, 1), (0, 2)


def _diagonal(s: np.ndarray, w: np.ndarray, offset: int, step: int) -> np.ndarray:
    """d(s, w) with V diag(d) V^T equal to the (offset, step) difference matrix.

    1 - s**2 is formed as (1 - s)(1 + s): the difference cancels for s near
    1, the product keeps full relative accuracy.
    """
    factor = (1 - s) * (1 + s) if step == 2 else 1 - s**step
    return w * s**offset * factor


def _chain_angles(n: int) -> np.ndarray:
    """theta_k = (2k-1) pi / (2n+1) for k = n, ..., 1 (descending).

    The n x n matrix B = I - N (N the upper shift) has B^T B equal to the
    path Laplacian with one free end, whose eigenvalues are 2 - 2 cos theta_k
    with eigenvectors cos((j + 1/2) theta_k), so B has singular values
    2 sin(theta_k / 2).
    """
    k = np.arange(n, 0, -1)
    return (2 * k - 1) * np.pi / (2 * n + 1)


def _indicator_spectrum(n0: int, offset: int, step: int, m: int) -> np.ndarray:
    """Singular values of the m x m (offset, step) difference matrix of Indicator(n0).

    The matrix is +1 on the antidiagonal i + j = n0 - offset and -1 on
    i + j = n0 - offset - step.  Reversing its first n = n0 - offset + 1
    columns gives I - N**step, which splits into ``step`` chains I - N.
    """
    n = max(n0 - offset + 1, 0)
    chains = [2.0 * np.sin(_chain_angles(len(range(r, n, step))) / 2) for r in range(step)]
    return np.sort(np.concatenate([*chains, np.zeros(m - n)]))[::-1]


def _indicator_decomposition(n0: int, offset: int, m: int) -> RankOneDecomposition:
    """Rank-one terms of the m x m (offset, 1) difference matrix of Indicator(n0).

    With P the reversal of the first n = n0 - offset + 1 columns, the matrix
    is B P for B = I - N, so each singular triple (sigma, u, v) of B gives
    x = sqrt(sigma) u and y = sqrt(sigma) P v, largest sigma first.
    """
    n = n0 - offset + 1
    if n <= 0:
        return RankOneDecomposition([], 0.0)
    theta = _chain_angles(n)
    sigma = 2.0 * np.sin(theta / 2)
    v = np.cos(np.outer(theta, np.arange(n) + 0.5))
    v /= np.linalg.norm(v, axis=1)[:, None]
    u = v.copy()
    u[:, :-1] -= v[:, 1:]
    u /= sigma[:, None]
    root = np.sqrt(sigma)[:, None]
    x = np.zeros((n, m), dtype=complex)
    y = np.zeros((n, m), dtype=complex)
    x[:, :n] = root * u
    y[:, :n] = root * v[:, ::-1]
    return RankOneDecomposition(list(zip(x, y)), float(sigma.sum()))


def _exact_spectra(sym: RadialSymbol, matrices):
    """Route, matrix height, spectra and error bound of some difference matrices.

    ``matrices`` holds (assemble, offset, step) per matrix: the support
    route calls assemble(sym, m), or for indicators takes the closed form,
    and the Vandermonde route uses d = w s**offset (1 - s**step).  There, Q
    and conj(Q) are isometries, so Q R diag(d) R^T Q^T has the singular
    values of the small matrix R diag(d) R^T.  For one atom, the rows past M
    change d v v^T in trace norm by at most
    2 |d| ||v|| ||v past M|| = 2 |d| |s|**M / (1 - |s|^2); the bound sums
    these over atoms and matrices.
    """
    route, m = exact_route(sym)
    if route == "support":
        if isinstance(sym, Indicator):
            spectra = [_indicator_spectrum(sym.n0, o, t, m) for _, o, t in matrices]
        else:
            spectra = [singular_values(assemble(sym, m)) for assemble, _, _ in matrices]
        return route, m, spectra, 0.0
    s, w = _atom_arrays(sym)
    r = _vandermonde_r(s, m)
    radius = np.abs(s)
    tail = 2.0 * radius**m / ((1.0 - radius) * (1.0 + radius))
    spectra, bound = [], 0.0
    for _, offset, step in matrices:
        d = _diagonal(s, w, offset, step)
        spectra.append(singular_values((r * d) @ r.T))
        bound += float(np.abs(d) @ tail)
    return route, m, spectra, bound


def c_norm(sym: RadialSymbol) -> HankelReport:
    """Symbol norm: trace norms of both difference Hankel matrices plus |tail|.

    Finite-support symbols take one SVD per matrix at support + 2 (TooLarge
    past SUPPORT_HEIGHT_CAP; indicators use the closed form); measure
    symbols take the Vandermonde route with d = w(1-s) for h and w s(1-s)
    for k.  A symbol whose even and odd tails differ raises UnsupportedTail.
    """
    tail_abs = abs(tail_constant(sym))
    route, m, (sv_h, sv_k), bound = _exact_spectra(sym, ((hankel_h, *H), (hankel_k, *K)))
    tn_h = float(sv_h.sum())
    tn_k = float(sv_k.sum())
    return HankelReport(
        truncation=m,
        trace_norm_h=tn_h,
        trace_norm_k=tn_k,
        tail_abs=tail_abs,
        total=tn_h + tn_k + tail_abs,
        converged=True,
        route=route,
        error_bound=bound,
        singular_values_h=sv_h,
        singular_values_k=sv_k,
    )


def cprime_norm(sym: RadialSymbol) -> CPrimeReport:
    """Two-step-difference norm: |c1| + |c2| + trace norm of hhat.

    The parity constants come from the even/odd tail limits:
    c1 = (even + odd)/2 and c2 = (even - odd)/2.  The two-step differences
    of every parity-tail symbol vanish beyond its stored values, so it takes
    the support route; measure symbols take the Vandermonde route with
    d = w(1-s^2).  So does a Doubled measure symbol with a tail c: its
    c (1 + (-1)**n)/2 part is annihilated by the two-step difference and
    enters only as c1 = c2 = c/2.
    """
    even, odd = parity_tails(sym)
    c1 = (even + odd) / 2
    c2 = (even - odd) / 2
    route, m, (sv,), bound = _exact_spectra(sym, ((hankel_hhat, *HHAT),))
    tn = float(sv.sum())
    return CPrimeReport(
        truncation=m,
        trace_norm_hhat=tn,
        c1=c1,
        c2=c2,
        total=abs(c1) + abs(c2) + tn,
        converged=True,
        route=route,
        error_bound=bound,
        singular_values_hhat=sv,
    )


def rank_one_decompose(a: np.ndarray) -> RankOneDecomposition:
    """Split a matrix into rank-one terms via SVD.

    Each retained singular triple (sigma, u, v) becomes the pair
    x = sqrt(sigma) u, y = sqrt(sigma) v, so that the two vectors carry
    equal norms and sum_i ||x_i|| ||y_i|| equals the retained trace norm.
    Singular values below RANK_CUTOFF times the largest are dropped.
    """
    a = np.asarray(a, dtype=complex)
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    if not (s.size and s[0] > 0.0):
        return RankOneDecomposition(terms=[], nuclear_sum=0.0)
    kept = s[: int(np.count_nonzero(s >= RANK_CUTOFF * s[0]))]
    root = np.sqrt(kept)
    x = np.ascontiguousarray((u[:, : kept.size] * root).T)
    y = root[:, None] * vh[: kept.size].conj()
    return RankOneDecomposition(terms=list(zip(x, y)), nuclear_sum=sum(kept.tolist()))


def difference_decompositions(
    sym: RadialSymbol,
) -> tuple[RankOneDecomposition, RankOneDecomposition]:
    """Rank-one terms of h and k with vectors as long as exact_route(sym)'s
    height m, which carry the whole operators (TooLarge past VECTOR_HORIZON_CAP).

    Finite-support symbols decompose the m x m truncations, indicators in
    closed form.  Measure symbols reuse the Vandermonde factorization:
    with V_m = QR and R diag(d) R^T = U Sigma W^*, the truncation is
    (QU) Sigma (conj(Q) W)^*, so x_i = sqrt(sigma_i) Q u_i and
    y_i = sqrt(sigma_i) conj(Q) w_i.
    """
    route, m = exact_route(sym)
    if m > VECTOR_HORIZON_CAP:
        raise TooLarge(
            f"plan vectors would need {m} entries (cap {VECTOR_HORIZON_CAP}): "
            "atoms too close to the unit circle"
        )
    if route == "support":
        if isinstance(sym, Indicator):
            return _indicator_decomposition(sym.n0, 0, m), _indicator_decomposition(sym.n0, 1, m)
        return rank_one_decompose(hankel_h(sym, m)), rank_one_decompose(hankel_k(sym, m))
    s, w = _atom_arrays(sym)
    q, r = np.linalg.qr(s[None, :] ** np.arange(m)[:, None])
    out = []
    for offset, step in (H, K):
        small = rank_one_decompose((r * _diagonal(s, w, offset, step)) @ r.T)
        terms = [(q @ x, q.conj() @ y) for x, y in small.terms]
        out.append(RankOneDecomposition(terms, small.nuclear_sum))
    return out[0], out[1]

