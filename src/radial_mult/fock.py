"""Truncated free-product word spaces and the operators acting on them.

Basis vectors are words: sequences of letters, each letter belonging to one
of finitely many factors, with consecutive letters from distinct factors.
Words of length up to ``max_len`` are kept; any creation that would exceed
the cap yields zero.  All operators are sparse complex matrices in the
graded-lexicographic word basis, so sparsity patterns and dumps are
deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, TooLarge

Letter = tuple[int, int]  # (factor index, letter index within the factor)
Word = tuple[Letter, ...]
VACUUM: Word = ()

BASIS_CAP = 200_000

CASE_ONE = 1
CASE_TWO = 2


@dataclass(frozen=True)
class FockSpec:
    """Dimensions of the mean-zero part of each factor, plus the length cap."""

    factor_dims: tuple[int, ...]
    max_len: int

    def __post_init__(self):
        object.__setattr__(self, "factor_dims", tuple(int(d) for d in self.factor_dims))
        if not self.factor_dims:
            raise ValueError("at least one factor is required")
        if any(d < 1 for d in self.factor_dims):
            raise ValueError("factor dimensions must be positive")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")


def _level_counts(spec: FockSpec) -> list[int]:
    # words of length n ending in factor f, accumulated over the
    # alternation constraint
    dims = spec.factor_dims
    counts = [1]
    ending = [dims[f] for f in range(len(dims))]
    counts.append(sum(ending))
    for _ in range(2, spec.max_len + 1):
        total = sum(ending)
        ending = [(total - ending[f]) * dims[f] for f in range(len(dims))]
        counts.append(sum(ending))
    return counts[: spec.max_len + 1]


class FockSpace:
    """Enumerated word basis of a truncated product space.

    The basis and index are fixed after construction; derived operators
    (letter creations, append maps, projections) are memoized lazily, so
    concurrent readers at worst duplicate work.
    """

    def __init__(self, spec: FockSpec, basis: list[Word], level_offsets: list[int]):
        self.spec = spec
        self.basis = basis
        self.index = {w: i for i, w in enumerate(basis)}
        self.level_offsets = level_offsets
        self.dim = len(basis)
        self.levels = np.array([len(w) for w in basis], dtype=int)
        self.last_factor = np.array([w[-1][0] if w else -1 for w in basis], dtype=int)
        self._prepend_targets: dict[Word, np.ndarray] = {}
        self._factor_projs: list[FockOperator] | None = None
        self._append_maps: list[np.ndarray] | None = None

    @property
    def max_len(self) -> int:
        return self.spec.max_len

    def letters(self) -> list[Letter]:
        return [
            (f, a)
            for f, d in enumerate(self.spec.factor_dims)
            for a in range(d)
        ]

    def words_of_length(self, n: int) -> list[Word]:
        if n < 0 or n > self.max_len:
            return []
        start = self.level_offsets[n]
        end = self.level_offsets[n + 1] if n + 1 < len(self.level_offsets) else self.dim
        return self.basis[start:end]


def build_space(spec: FockSpec, cap: int = BASIS_CAP) -> FockSpace:
    """Enumerate all words of length <= max_len in graded-lexicographic order."""
    counts = _level_counts(spec)
    if sum(counts) > cap:
        raise TooLarge(f"basis would hold {sum(counts)} words (cap {cap})")
    letters = [
        (f, a) for f, d in enumerate(spec.factor_dims) for a in range(d)
    ]
    basis: list[Word] = [VACUUM]
    level_offsets = [0]
    previous: list[Word] = [VACUUM]
    for _ in range(spec.max_len):
        level_offsets.append(len(basis))
        current: list[Word] = []
        for w in previous:
            for letter in letters:
                if w and w[-1][0] == letter[0]:
                    continue
                current.append(w + (letter,))
        current.sort()
        basis.extend(current)
        previous = current
    return FockSpace(spec, basis, level_offsets)


class FockOperator:
    """A sparse complex matrix tied to one word space."""

    __slots__ = ("space", "mat")

    def __init__(self, space: FockSpace, mat):
        mat = sp.csr_matrix(mat, dtype=complex)
        if mat.shape != (space.dim, space.dim):
            raise DimensionMismatch(
                f"matrix shape {mat.shape} does not fit space of dim {space.dim}"
            )
        self.space = space
        self.mat = mat

    def _check(self, other: "FockOperator"):
        if self.space is not other.space and self.space.spec != other.space.spec:
            raise DimensionMismatch("operators live on different spaces")

    @property
    def nnz(self) -> int:
        return self.mat.nnz

    def adjoint(self) -> "FockOperator":
        return FockOperator(self.space, self.mat.conjugate().transpose())

    @property
    def H(self) -> "FockOperator":
        return self.adjoint()

    def to_dense(self) -> np.ndarray:
        return self.mat.toarray()

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._check(other)
        return FockOperator(self.space, self.mat @ other.mat)

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self._check(other)
        return FockOperator(self.space, self.mat + other.mat)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        self._check(other)
        return FockOperator(self.space, self.mat - other.mat)

    def __mul__(self, scalar) -> "FockOperator":
        return FockOperator(self.space, self.mat * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "FockOperator":
        return FockOperator(self.space, -self.mat)


def identity(space: FockSpace) -> FockOperator:
    return FockOperator(space, sp.identity(space.dim, dtype=complex, format="csr"))


def zero(space: FockSpace) -> FockOperator:
    return FockOperator(space, sp.csr_matrix((space.dim, space.dim), dtype=complex))


def _prepend_targets(space: FockSpace, word: Word) -> np.ndarray:
    """Index of word + w for every basis word w (-1 where that is no word of the space)."""
    cached = space._prepend_targets
    if word not in cached:
        cached[word] = np.array([space.index.get(word + w, -1) for w in space.basis])
    return cached[word]


def _append_targets(space: FockSpace, word: Word) -> np.ndarray:
    """Index of w + word for every basis word w (-1 where that is no word of the space)."""
    return np.array([space.index.get(w + word, -1) for w in space.basis])


def _partial_isometry(space: FockSpace, targets: np.ndarray) -> FockOperator:
    """e_j -> e_targets[j], zero where targets[j] is -1."""
    ok = targets >= 0
    return _from_triplets(space, (targets[ok], np.flatnonzero(ok), np.ones(int(ok.sum()))))


def _checked(space: FockSpace, word: Word) -> Word:
    dims = space.spec.factor_dims
    for f, a in word:
        if not (0 <= f < len(dims) and 0 <= a < dims[f]):
            raise ValueError(f"invalid letter {(f, a)} for factors {dims}")
    return word


def creation(space: FockSpace, letter: Letter) -> FockOperator:
    """Prepend a letter; zero on words starting in its factor or of full length."""
    return left_word(space, (letter,))


def right_creation(space: FockSpace, letter: Letter) -> FockOperator:
    """Append a letter; zero on words ending in its factor or of full length."""
    return right_word(space, (letter,))


def left_word(space: FockSpace, word: Word) -> FockOperator:
    """Product of left creations along the word (identity for the vacuum).

    The first letter of the word is the outermost factor of the product.
    """
    return _partial_isometry(space, _prepend_targets(space, _checked(space, word)))


def right_word(space: FockSpace, word: Word) -> FockOperator:
    """Operator appending the whole word at the right end (identity for the vacuum)."""
    return _partial_isometry(space, _append_targets(space, _checked(space, word)))


def _word_triplets(space: FockSpace, xi: Word, eta: Word):
    """COO triplets of L_xi L_eta^*: a 1 at (xi w, eta w) for every w."""
    rx = _prepend_targets(space, xi)
    re = _prepend_targets(space, eta)
    ok = (rx >= 0) & (re >= 0)
    return rx[ok], re[ok], np.ones(int(ok.sum()), dtype=complex)


def word_operator(space: FockSpace, xi: Word, eta: Word) -> FockOperator:
    """The rank-style operator L_xi L_eta^*."""
    return _from_triplets(space, _word_triplets(space, _checked(space, xi), _checked(space, eta)))


def diagonal(space: FockSpace, a) -> FockOperator:
    """Operator multiplying every word of length n by a[n]."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 1 or len(a) < space.max_len + 1:
        raise ValueError(f"need at least {space.max_len + 1} diagonal values")
    return FockOperator(space, sp.diags(a[space.levels]).tocsr())


def level_projection(space: FockSpace, n: int) -> FockOperator:
    """Orthogonal projection onto words of length exactly n."""
    if not 0 <= n <= space.max_len:
        raise ValueError(f"level must lie in [0, {space.max_len}]")
    return FockOperator(
        space, sp.diags((space.levels == n).astype(complex)).tocsr()
    )


def tail_projection(space: FockSpace, n: int) -> FockOperator:
    """Projection onto words of length >= n (empty sum, i.e. zero, beyond the cap)."""
    if n < 0:
        raise ValueError("level must be non-negative")
    return FockOperator(
        space, sp.diags((space.levels >= n).astype(complex)).tocsr()
    )


def factor_end_projection(space: FockSpace, factor: int) -> FockOperator:
    """Projection onto non-vacuum words whose last letter lies in the factor."""
    if not 0 <= factor < len(space.spec.factor_dims):
        raise ValueError(f"invalid factor {factor}")
    mask = (space.last_factor == factor).astype(complex)
    return FockOperator(space, sp.diags(mask).tocsr())


def _cached_factor_projs(space: FockSpace) -> list[FockOperator]:
    if space._factor_projs is None:
        space._factor_projs = [
            factor_end_projection(space, f)
            for f in range(len(space.spec.factor_dims))
        ]
    return space._factor_projs


def _cached_append_maps(space: FockSpace) -> list[np.ndarray]:
    """Per letter, the map j -> index of basis[j] with the letter appended
    (-1 where the appending partial isometry kills the word)."""
    if space._append_maps is None:
        space._append_maps = [_append_targets(space, (letter,)) for letter in space.letters()]
    return space._append_maps


def _concat(parts):
    """One COO triplet (row, col, data) from a list of them."""
    return tuple(np.concatenate(column) for column in zip(*parts))


def _rho_triplets(space: FockSpace, row, col, data):
    """rho on COO triplets; distinct entries have distinct images."""
    parts = []
    for t in _cached_append_maps(space):
        ok = (t[row] >= 0) & (t[col] >= 0)
        parts.append((t[row[ok]], t[col[ok]], data[ok]))
    return _concat(parts)


def _eps_triplets(space: FockSpace, row, col, data):
    """eps on COO triplets: the entries whose row and column end in one factor."""
    lf = space.last_factor
    ok = (lf[row] >= 0) & (lf[row] == lf[col])
    return row[ok], col[ok], data[ok]


def _from_triplets(space: FockSpace, triplets) -> FockOperator:
    row, col, data = triplets
    return FockOperator(space, sp.csr_matrix((data, (row, col)), shape=(space.dim,) * 2))


def rho(space: FockSpace, op: FockOperator) -> FockOperator:
    """Sum of R_gamma A R_gamma^* over all single letters.

    Each conjugation relocates the entry (i, j) to (i + gamma, j + gamma)
    when both appends are legal, so the sum is assembled directly from
    remapped triplets.
    """
    coo = op.mat.tocoo()
    return _from_triplets(space, _rho_triplets(space, coo.row, coo.col, coo.data))


def rho_power(space: FockSpace, op: FockOperator, n: int) -> FockOperator:
    """n-fold iteration of rho."""
    if n < 0:
        raise ValueError("power must be non-negative")
    out = op
    for _ in range(n):
        out = rho(space, out)
    return out


def eps(space: FockSpace, op: FockOperator) -> FockOperator:
    """Block-diagonal compression q_i A q_i summed over last-letter factors.

    Keeps exactly the entries whose row and column words end in the same
    factor (the vacuum belongs to none of the blocks).
    """
    coo = op.mat.tocoo()
    return _from_triplets(space, _eps_triplets(space, coo.row, coo.col, coo.data))


def classify_case(xi: Word, eta: Word) -> int:
    """1 when either word is empty or their last letters sit in distinct factors."""
    if not xi or not eta:
        return CASE_ONE
    return CASE_TWO if xi[-1][0] == eta[-1][0] else CASE_ONE


def word_label(word: Word) -> str:
    """Compact deterministic rendering used in reports ('e' is the vacuum)."""
    if not word:
        return "e"
    return "|".join(f"{f}.{a}" for f, a in word)


def fock_spec_to_obj(spec: FockSpec) -> dict:
    return {"factors": list(spec.factor_dims), "max_len": spec.max_len}


def fock_spec_from_obj(obj: dict) -> FockSpec:
    return FockSpec(tuple(int(d) for d in obj["factors"]), int(obj["max_len"]))


def fock_spec_from_json(text: str) -> FockSpec:
    return fock_spec_from_obj(json.loads(text))


def operator_to_csv(op: FockOperator) -> str:
    """Triplet dump (row, col, re, im), row-major, for inspection."""
    coo = op.mat.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = ["row,col,re,im"]
    for i in order:
        v = coo.data[i]
        lines.append(f"{coo.row[i]},{coo.col[i]},{v.real!r},{v.imag!r}")
    return "\n".join(lines) + "\n"
