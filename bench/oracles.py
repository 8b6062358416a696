"""Reference values computed without the code under test.

Every function here uses numpy and the symbol's own parameters only; none
imports radial_mult.  Symbols are described by plain tuples so that the
benchmark can compute its references before it touches the library:

    ("geometric", s)
    ("measure", c, ((s, w), ...))
    ("support", values, tail)   phi(n) = values[n] for n < len(values), else tail

Indicators, truncated geometrics and finite data are all ``support``
symbols: their difference sequences vanish beyond the stored values.
"""

from __future__ import annotations

import numpy as np


def phi(sym, n: int) -> complex:
    """The symbol value at n."""
    kind = sym[0]
    if kind == "geometric":
        return complex(sym[1]) ** n
    if kind == "measure":
        return complex(sym[1]) + sum(complex(w) * complex(s) ** n for s, w in sym[2])
    values, tail = sym[1], sym[2]
    return complex(values[n]) if n < len(values) else complex(tail)


def psi1(sym, n: int) -> complex:
    """sum_{i>=0} phi(n+2i) - phi(n+2i+1), by closed form or finite sum."""
    kind = sym[0]
    if kind == "geometric":
        s = complex(sym[1])
        return s**n / (1.0 + s)
    if kind == "measure":
        return sum(complex(w) * complex(s) ** n / (1.0 + complex(s)) for s, w in sym[2])
    # Terms vanish once both indices reach the constant tail.
    total = 0j
    i = n
    while i < len(sym[1]):
        total += phi(sym, i) - phi(sym, i + 1)
        i += 2
    return total


def psi2(sym, n: int) -> complex:
    return psi1(sym, n + 1)


def _cauchy_norms(atoms, scale_h, scale_k) -> tuple[float, float]:
    """Trace norms of V diag(scale) V^T with Vandermonde V[i, a] = s_a**i.

    V^* V is the Cauchy matrix 1/(1 - conj(s_a) s_b) = L L^*, so V = Q L^*
    with Q an isometry and the nonzero singular values of V D V^T are those
    of the small matrix L^* D conj(L) (Kronecker's finite-rank theorem).
    """
    s = np.array([complex(a) for a, _ in atoms])
    gram = 1.0 / (1.0 - np.conj(s)[:, None] * s[None, :])
    chol = np.linalg.cholesky(gram)
    out = []
    for scale in (scale_h, scale_k):
        small = chol.conj().T @ np.diag(scale) @ chol.conj()
        out.append(float(np.linalg.svd(small, compute_uv=False).sum()))
    return out[0], out[1]


def measure_difference_norms(atoms) -> tuple[float, float]:
    """(||h||_1, ||k||_1) of phi(n) = c + sum_a w_a s_a**n, exactly."""
    if not atoms:
        return 0.0, 0.0
    s = np.array([complex(a) for a, _ in atoms])
    w = np.array([complex(b) for _, b in atoms])
    return _cauchy_norms(atoms, w * (1.0 - s), w * s * (1.0 - s))


def weight(atoms) -> float:
    """sum_a |w_a| |1 - s_a| / (1 - |s_a|)."""
    return float(sum(abs(w) * abs(1.0 - s) / (1.0 - abs(s)) for s, w in atoms))


def support_difference_norms(values, tail) -> tuple[float, float]:
    """(||h||_1, ||k||_1) by a dense SVD at the support size plus two."""
    size = len(values) + 2
    seq = np.array([complex(v) for v in values] + [complex(tail)] * (2 * size + 1))
    diff = seq[:-1] - seq[1:]
    idx = np.add.outer(np.arange(size), np.arange(size))
    h = diff[idx]
    k = diff[idx + 1]
    return (
        float(np.linalg.svd(h, compute_uv=False).sum()),
        float(np.linalg.svd(k, compute_uv=False).sum()),
    )


def support_hhat_norm(values, tail) -> float:
    """||hhat||_1 with hhat[i, j] = phi(i+j) - phi(i+j+2), by a dense SVD."""
    size = len(values) + 2
    seq = np.array([complex(v) for v in values] + [complex(tail)] * (2 * size + 2))
    idx = np.add.outer(np.arange(size), np.arange(size))
    return float(np.linalg.svd(seq[idx] - seq[idx + 2], compute_uv=False).sum())


def c_norm(sym) -> float:
    """||h||_1 + ||k||_1 + |tail| of the symbol."""
    kind = sym[0]
    if kind == "geometric":
        s = complex(sym[1])
        return abs(1.0 - s) / (1.0 - abs(s))
    if kind == "measure":
        tn_h, tn_k = measure_difference_norms(sym[2])
        return tn_h + tn_k + abs(complex(sym[1]))
    tn_h, tn_k = support_difference_norms(sym[1], sym[2])
    return tn_h + tn_k + abs(complex(sym[2]))


def word_counts(factor_dims, max_len: int) -> list[int]:
    """Number of alternating words of each length 0..max_len."""
    # ending[f]: words of the current length whose last letter is in factor f
    ending = list(factor_dims)
    counts = [1, sum(ending)]
    for _ in range(2, max_len + 1):
        ending = [(sum(ending) - ending[f]) * d for f, d in enumerate(factor_dims)]
        counts.append(sum(ending))
    return counts[: max_len + 1]


def pair_count(factor_dims, max_len: int, max_word: int, max_pair_sum=None) -> int:
    """Word pairs (xi, eta) with |xi|, |eta| <= max_word and |xi| + |eta| capped."""
    counts = word_counts(factor_dims, max_len)
    top = min(max_word, max_len)
    return sum(
        counts[k] * counts[l]
        for k in range(top + 1)
        for l in range(top + 1)
        if max_pair_sum is None or k + l <= max_pair_sum
    )


def pair_case(xi, eta) -> int:
    """1 when a word is empty or the last letters sit in distinct factors, else 2."""
    if not xi or not eta or xi[-1][0] != eta[-1][0]:
        return 1
    return 2


def close(value, ref, rel: float) -> bool:
    """|value - ref| <= rel * max(1, |ref|), false for non-finite values."""
    value = complex(value)
    return bool(np.isfinite(value)) and abs(value - complex(ref)) <= rel * max(1.0, abs(ref))
