"""Hankel matrices of symbol differences and their exact trace norms.

Each symbol is read through its normal form (``symbols.form``: a head of
values, even and odd tails, atoms w s**n), which picks one exact,
finite-dimensional route to the trace norms of its difference matrices:

* support route: without atoms the differences vanish from the end of the
  head on, so one SVD at the head's length holds the whole spectrum (past
  SUPPORT_HEIGHT_CAP, TooLarge), each matrix a read-only Hankel view of one
  difference row per step (real when the row is).  An indicator shape (a
  head of one 1 among zeros, zero tails) skips the SVD and the cap: its
  difference matrices are signed shifts with singular values and vectors in
  closed form, though its plan vectors stay capped;
* Vandermonde route: with atoms, phi(n) = c + sum_a w_a s_a**n has
  H = V diag(d) V^T with V[i, a] = s_a**i (Kronecker's finite-rank Hankel
  theorem).  With the thin QR V = QR cut at a horizon M where max|s|**M is
  below rounding, the nonzero singular values of H are those of the small
  matrix R diag(d) R^T, and the rows dropped past M move the trace norm by
  at most the reported geometric-tail bound.

The form and the measure arithmetic (exact powers, 1 - |s|**2, horizon) are
in ``symbols``.  The same routes feed the rank-one decompositions that
certify the multiplier map completely bounded.  The map itself is read off
the symbol's difference row, not through these terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, TooLarge
from .symbols import (
    VECTOR_HORIZON_CAP,
    Form,
    RadialSymbol,
    _squares,
    atom_powers,
    form,
    one_minus_abs_squared,
    vandermonde_horizon,
)

# Singular values below this relative level are double-precision noise.
RANK_CUTOFF = 1e-14

# The support route's matrices are strided views of one row, but the SVD
# takes a dense m x m copy: 268 MB at this height for a complex one, so
# taller ones raise TooLarge.
SUPPORT_HEIGHT_CAP = 4096


@dataclass
class HankelReport:
    """Trace norms of the first-difference Hankel matrices and their total.

    ``truncation`` is the matrix height the route used: the support (at
    least 1) on the support route, the Vandermonde horizon M otherwise.
    ``error_bound`` bounds what the rows past that height add to the trace
    norms (zero on the support route).  ``converged`` is always True: both
    routes are exact.
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


@dataclass
class RankOneDecomposition:
    """Terms (x_i, y_i), the rows of ``x`` and ``y``, with
    A[p, q] = sum_i x_i[p] * conj(y_i[q]).

    ``x`` and ``y`` are (rank, length) arrays, real when the matrix is.
    """

    x: np.ndarray
    y: np.ndarray
    nuclear_sum: float

    @property
    def terms(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The pairs (x_i, y_i), largest singular value first."""
        return list(zip(self.x, self.y))

    def reconstruct(self, dim: int) -> np.ndarray:
        out = np.zeros((dim, dim), dtype=complex)
        out[: self.x.shape[1], : self.y.shape[1]] = self.x.T @ self.y.conj()
        return out


# Each difference matrix has entries phi(i+j+offset) - phi(i+j+offset+step).
H, K, HHAT = (0, 1), (1, 1), (0, 2)


def _difference_matrices(f: Form, m: int, matrices) -> list[np.ndarray]:
    """The m x m (offset, step) difference matrices d[i+j+offset], with
    d(n) = phi(n) - phi(n+step) for n < 2m: read-only Hankel views of one
    row per step, real when it is.  Offsets are 0 or 1, so every view stays
    inside its row."""
    if m < 1:
        raise ValueError("truncation must be at least 1")
    steps = {step for _, step in matrices}
    rows = {step: _real_if_real(f.differences(2 * m, 0, step))[0] for step in steps}
    view = np.lib.stride_tricks.as_strided
    return [view(rows[s][o:], (m, m), rows[s].strides * 2, writeable=False) for o, s in matrices]


def hankel_h(sym: RadialSymbol, m: int) -> np.ndarray:
    """Matrix with entry (i, j) = phi(i+j) - phi(i+j+1), size m x m."""
    return _difference_matrices(form(sym), m, (H,))[0]


def hankel_k(sym: RadialSymbol, m: int) -> np.ndarray:
    """Matrix with entry (i, j) = phi(i+j+1) - phi(i+j+2), size m x m."""
    return _difference_matrices(form(sym), m, (K,))[0]


def hankel_hhat(sym: RadialSymbol, m: int) -> np.ndarray:
    """Matrix with entry (i, j) = phi(i+j) - phi(i+j+2), size m x m."""
    return _difference_matrices(form(sym), m, (HHAT,))[0]


def _svd(a: np.ndarray, compute_uv: bool = True):
    """Thin SVD of a matrix or a stack; the one place LAPACK failure is NumericalFailure."""
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a matrix, descending, in real arithmetic when it is real."""
    return _svd(np.asarray(a), compute_uv=False)


def _route(f: Form) -> tuple[str, int, int | None]:
    """The form's exact route, its matrix height, and n0 when f has the shape
    of Indicator(n0): a head of one 1 among zeros, zero tails and no atoms
    (else None).

    ("support", max(support, 1)) for finite-support forms,
    ("vandermonde", M) for forms with atoms.  Raises TooLarge when the
    support route would need a matrix taller than SUPPORT_HEIGHT_CAP; an
    indicator shape, which takes the closed form, needs none.
    """
    if f.s.size:
        return "vandermonde", vandermonde_horizon(f.s), None
    m, head = max(len(f.head), 1), f.head
    # complex literals keep these scans on the complex-with-complex fast path
    shape = not (f.even or f.odd) and head.count(0j) == len(head) - 1 and 1 + 0j in head
    if m > SUPPORT_HEIGHT_CAP and not shape:
        raise TooLarge(f"support route would need {m} x {m} matrices (cap {SUPPORT_HEIGHT_CAP})")
    return "support", m, head.index(1 + 0j) if shape else None


def _vandermonde_r(s: np.ndarray, m: int) -> np.ndarray:
    """Triangular factor of the thin QR of V[i, a] = s_a**i cut at m rows.

    ``m`` is a power of two.  Rows [M, 2M) of V are V_M diag(s**M), so
    V_2M = diag(Q_M, Q_M) [R_M; R_M diag(s**M)] and R_2M is the triangular
    factor of that 2N x N stack: doubling from the first row never forms V.
    The factors s**M are the exact squares that atom_powers multiplies.
    """
    r = np.ones((1, s.size), dtype=complex)
    for square in _squares(s, m.bit_length() - 1):
        r = np.linalg.qr(np.concatenate((r, r * square)), mode="r")
    return r


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

    With c = 2 / sqrt(2n+1), v_k[j] = c cos(theta_k (j + 1/2)) is a unit
    vector (the sum of cos(theta_k (2j+1)) over j < n is
    sin(2n theta_k) / (2 sin theta_k) = 1/2), and u_k = B v_k / sigma_k is
    u_k[j] = c sin(theta_k (j + 1)), at j = n - 1 too.  In units of
    pi / (2(2n+1)) the sine is at t = (2k-1)(2j+2), read off one period after
    reducing t mod 4(2n+1) in exact integer arithmetic.  As theta_k (n + 1/2)
    = (2k-1) pi / 2, P v_k = (-1)^(k+1) u_k: each y is its x up to sign.
    """
    n = max(n0 - offset + 1, 0)
    x = np.zeros((n, m))
    period = 4 * (2 * n + 1)
    table = np.sin(np.arange(period) * (np.pi / (2 * (2 * n + 1))))
    k = np.arange(n, 0, -1)
    sigma = 2.0 * np.sin(_chain_angles(n) / 2)
    root = np.sqrt(sigma)[:, None] * (2.0 / np.sqrt(2 * n + 1))
    np.multiply(root, table[np.outer(2 * k - 1, 2 * np.arange(1, n + 1)) % period], out=x[:, :n])
    y = x * np.where(k % 2, 1.0, -1.0)[:, None]
    return RankOneDecomposition(x, y, float(sigma.sum()))


def _exact_spectra(f: Form, matrices):
    """Route, matrix height, spectra and error bound of some difference matrices.

    ``matrices`` holds the (offset, step) of each matrix: the support route
    takes the SVD of each of _difference_matrices, or for an indicator shape
    the closed form, and the Vandermonde route uses d = w s**offset (1 - s**step).
    There, Q and conj(Q) are isometries, so Q R diag(d) R^T Q^T has the
    singular values of the small matrix R diag(d) R^T.  For one atom, the
    rows past M change d v v^T in trace norm by at most
    2 |d| ||v|| ||v past M|| = 2 |d| |s|**M / (1 - |s|^2); the bound sums
    these over atoms and matrices.
    """
    route, m, n0 = _route(f)
    if n0 is not None:
        return route, m, [_indicator_spectrum(n0, *pair, m) for pair in matrices], 0.0
    if route == "support":
        return route, m, [singular_values(a) for a in _difference_matrices(f, m, matrices)], 0.0
    s, w = f.s, f.w
    r = _vandermonde_r(s, m)
    tail = 2.0 * np.abs(s) ** m / np.array([one_minus_abs_squared(z) for z in s.tolist()])
    spectra, bound = [], 0.0
    for offset, step in matrices:
        d = _diagonal(s, w, offset, step)
        spectra.append(singular_values((r * d) @ r.T))
        bound += float(np.abs(d) @ tail)
    return route, m, spectra, bound


def c_norm(sym: RadialSymbol) -> HankelReport:
    """Symbol norm: trace norms of both difference Hankel matrices plus |tail|.

    Finite-support symbols take one SVD per matrix at the support (TooLarge
    past SUPPORT_HEIGHT_CAP; indicator shapes use the closed form at any
    height up to symbols.VECTOR_HORIZON_CAP); symbols with atoms take the
    Vandermonde route with d = w(1-s) for h and w s(1-s) for k.  A symbol
    whose even and odd tails differ raises UnsupportedTail.
    """
    f = form(sym)
    tail_abs = abs(f.tail_constant())
    route, m, (sv_h, sv_k), bound = _exact_spectra(f, (H, K))
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
    f = form(sym)
    c1 = (f.even + f.odd) / 2
    c2 = (f.even - f.odd) / 2
    route, m, (sv,), bound = _exact_spectra(f, (HHAT,))
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


def _real_if_real(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays' real parts when none has an imaginary part, else the arrays."""
    if any(a.imag.any() for a in arrays):
        return arrays
    return tuple(a.real for a in arrays)


def _rank_one_terms(u, sigma, vh, q=None) -> list[RankOneDecomposition]:
    """Rank-one terms of a stack of SVDs A_b = u_b diag(sigma_b) vh_b, as in
    rank_one_decompose.

    With ``q`` the terms of Q A_b Q^T are returned instead:
    x = sqrt(sigma) Q u and y = sqrt(sigma) conj(Q) v, one matmul per side
    for the whole stack.
    """
    kept = sigma > RANK_CUTOFF * sigma[:, :1]
    root = np.sqrt(sigma)
    # sigma is descending, so each matrix keeps a leading run of its triples.
    x = (u * root[:, None, :]).transpose(0, 2, 1)[kept]
    y = (root[..., None] * vh.conj())[kept]
    if q is not None:
        x, y = x @ q.T, y @ q.conj().T
    out, start = [], 0
    for sv, rank in zip(sigma, kept.sum(axis=1).tolist()):
        end = start + rank
        nuclear = sum(sv[:rank].tolist(), 0.0)
        out.append(RankOneDecomposition(x[start:end], y[start:end], nuclear))
        start = end
    return out


def rank_one_decompose(a: np.ndarray) -> RankOneDecomposition:
    """Split a matrix into rank-one terms via SVD.

    Each retained singular triple (sigma, u, v) becomes the pair
    x = sqrt(sigma) u, y = sqrt(sigma) v, so that the two vectors carry
    equal norms and sum_i ||x_i|| ||y_i|| equals the retained trace norm.
    Singular values at or below RANK_CUTOFF times the largest are dropped.
    """
    u, s, vh = _svd(np.asarray(a))
    return _rank_one_terms(u[None], s[None], vh[None])[0]


def _measure_decompositions(s: np.ndarray, w: np.ndarray, m: int) -> list[RankOneDecomposition]:
    """h and k of a measure symbol at the Vandermonde horizon m.

    With V_m = QR and R diag(d) R^T = U Sigma W^*, the truncation is
    (QU) Sigma (conj(Q) W)^*: one QR, one SVD of both N x N cores, and one
    matmul per side through Q.  Real atoms and weights keep it all real.
    """
    s, w = _real_if_real(s, w)
    q, r = np.linalg.qr(atom_powers(s, m))
    d = np.stack([_diagonal(s, w, *H), _diagonal(s, w, *K)])
    cores = (r * d[:, None, :]) @ r.T
    return _rank_one_terms(*_svd(cores), q)


def _atom_decompositions(s: np.ndarray, w: np.ndarray, m: int) -> list[RankOneDecomposition]:
    """h and k of a one-atom measure symbol at the Vandermonde horizon m.

    Each matrix is d v v^T with v = (s**i), so its one term is
    x = (d / sqrt|d|) v and y = sqrt|d| conj(v), with nuclear sum
    |d| ||v||^2; d = 0 gives no term.  d / sqrt|d| rounds once per
    component and stays finite for a subnormal d, where d / |d| overflows.
    Real atoms and weights stay real.  ||v||^2 is a pairwise sum: a BLAS
    dot loses 1e-14 of it at |s| = 0.9999.
    """
    s, w = _real_if_real(s, w)
    v = atom_powers(s, m)[:, 0]
    gram = float((v * v.conj()).real.sum())
    out = []
    for d in (_diagonal(s, w, *H)[0], _diagonal(s, w, *K)[0]):
        size = abs(d)
        if size == 0:
            empty = np.empty((0, m), dtype=v.dtype)
            out.append(RankOneDecomposition(empty, empty, 0.0))
            continue
        root = np.sqrt(size)
        x, y = (d / root) * v, root * v.conj()
        out.append(RankOneDecomposition(x[None], y[None], float(size) * gram))
    return out


def _decompositions(f: Form) -> tuple[RankOneDecomposition, ...]:
    """Rank-one terms of h and k with vectors as long as the exact route's
    height m, which carry the whole operators (the terms of build_plan).

    Finite-support symbols decompose the m x m truncations through one
    stacked SVD of both, indicator shapes in closed form; either raises
    TooLarge past SUPPORT_HEIGHT_CAP, as an indicator's vectors fill an
    n0 x n0 array.  Symbols with atoms reuse the Vandermonde factorization
    (TooLarge past VECTOR_HORIZON_CAP), and a single atom reads its one term
    per matrix off its powers.  A symbol whose even and odd tails differ
    raises UnsupportedTail: its differences do not vanish, so h and k are
    not trace class.
    """
    f.tail_constant()
    route, m, n0 = _route(f)
    if n0 is not None:
        if m > SUPPORT_HEIGHT_CAP:
            raise TooLarge(
                f"indicator plan vectors would need {m} x {m} entries (cap {SUPPORT_HEIGHT_CAP})"
            )
        return tuple(_indicator_decomposition(n0, offset, m) for offset in (0, 1))
    if route == "support":
        return tuple(_rank_one_terms(*_svd(np.stack(_difference_matrices(f, m, (H, K))))))
    if m > VECTOR_HORIZON_CAP:
        raise TooLarge(
            f"plan vectors would need {m} entries (cap {VECTOR_HORIZON_CAP}): "
            "atoms too close to the unit circle"
        )
    s, w = f.s, f.w
    decompose = _atom_decompositions if s.size == 1 else _measure_decompositions
    return tuple(decompose(s, w, m))
