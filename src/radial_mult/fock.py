"""Truncated free-product word spaces and the operators acting on them.

Basis vectors are words: sequences of letters, each letter belonging to one
of finitely many factors, with consecutive letters from distinct factors.
Words of length up to ``max_len`` are kept; any creation that would exceed
the cap yields zero.  Every operator is a sparse complex matrix in the
graded-lexicographic word basis, held as row-major COO triplets with one
entry per position, so sparsity patterns and dumps are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooLarge
from .symbols import _int_in

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


def _word_count(spec: FockSpec, cap: int) -> int:
    """Number of words of length <= max_len, counted level by level until
    the running total passes the cap."""
    dims = spec.factor_dims
    ending = list(dims)  # words of the current length ending in factor f
    total = 1 + sum(ending)
    for _ in range(2, spec.max_len + 1):
        if total > cap:
            break
        level = sum(ending)
        ending = [(level - e) * d for e, d in zip(ending, dims)]
        total += sum(ending)
    return total


class FockSpace:
    """Enumerated word basis of a truncated product space.

    The basis and index are fixed after construction; letter maps and word
    targets are memoized lazily, so concurrent readers at worst duplicate work.
    """

    def __init__(self, spec: FockSpec, basis: list[Word], level_offsets: list[int]):
        self.spec = spec
        self.basis = basis
        self.index = {w: i for i, w in enumerate(basis)}
        self.level_offsets = level_offsets
        self.dim = len(basis)
        self.levels = np.array([len(w) for w in basis], dtype=int)
        self.last_factor = np.array([w[-1][0] if w else -1 for w in basis], dtype=int)
        self._letter_maps: dict[Letter, tuple[np.ndarray, np.ndarray]] | None = None
        self._prepend_targets: dict[Word, np.ndarray] = {}

    @property
    def max_len(self) -> int:
        return self.spec.max_len

    def letters(self) -> list[Letter]:
        return _letters(self.spec)

    def words_of_length(self, n: int) -> list[Word]:
        if n < 0 or n > self.max_len:
            return []
        start = self.level_offsets[n]
        end = self.level_offsets[n + 1] if n + 1 < len(self.level_offsets) else self.dim
        return self.basis[start:end]


def _letters(spec: FockSpec) -> list[Letter]:
    """Every letter, sorted by factor and then by index within the factor."""
    return [(f, a) for f, d in enumerate(spec.factor_dims) for a in range(d)]


def build_space(spec: FockSpec, cap: int = BASIS_CAP) -> FockSpace:
    """Enumerate all words of length <= max_len in graded-lexicographic order:
    each level extends the sorted level below by the sorted letters."""
    if _word_count(spec, cap) > cap:
        raise TooLarge(f"basis would hold more than {cap} words")
    letters = _letters(spec)
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
        basis.extend(current)
        previous = current
    return FockSpace(spec, basis, level_offsets)


def _summed(row, col, data, ncols: int):
    """Row-major triplets with one entry per position: the data of the
    triplets sharing a position summed, zero sums dropped."""
    keys, at = np.unique(row.astype(np.int64) * ncols + col, return_inverse=True)
    summed = np.bincount(at, data.real, len(keys)) + 1j * np.bincount(at, data.imag, len(keys))
    nz = summed != 0
    return keys[nz] // ncols, keys[nz] % ncols, summed[nz]


class FockOperator:
    """A sparse complex matrix tied to one word space.

    Built from COO triplets (row, col, data) whose positions may repeat;
    it stores them summed and row-major, one non-zero entry per position.
    """

    __slots__ = ("space", "row", "col", "data")

    def __init__(self, space: FockSpace, triplets):
        row, col, data = triplets
        row, col = np.asarray(row, dtype=np.int64), np.asarray(col, dtype=np.int64)
        data = np.asarray(data, dtype=complex)
        if not ((row >= 0) & (row < space.dim) & (col >= 0) & (col < space.dim)).all():
            raise DimensionMismatch(f"triplet indices do not fit space of dim {space.dim}")
        self.space = space
        self.row, self.col, self.data = _summed(row, col, data, space.dim)

    def _check(self, other: "FockOperator"):
        if self.space is not other.space and self.space.spec != other.space.spec:
            raise DimensionMismatch("operators live on different spaces")

    @property
    def triplets(self):
        return self.row, self.col, self.data

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def H(self) -> "FockOperator":
        return FockOperator(self.space, (self.col, self.row, self.data.conj()))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.space.dim,) * 2, dtype=complex)
        out[self.row, self.col] = self.data
        return out

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        """Index join of each entry (i, k) with the entries (k, j) of other's row k."""
        self._check(other)
        start = np.searchsorted(other.row, self.col, "left")
        count = np.searchsorted(other.row, self.col, "right") - start
        left = np.repeat(np.arange(len(self.data)), count)
        right = np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())
        return FockOperator(
            self.space, (self.row[left], other.col[right], self.data[left] * other.data[right])
        )

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self._check(other)
        return FockOperator(self.space, _concat([self.triplets, other.triplets]))

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return self + (-other)

    def __mul__(self, scalar) -> "FockOperator":
        return FockOperator(self.space, (self.row, self.col, self.data * complex(scalar)))

    __rmul__ = __mul__

    def __neg__(self) -> "FockOperator":
        return FockOperator(self.space, (self.row, self.col, -self.data))


def _diagonal(space: FockSpace, values) -> FockOperator:
    """The diagonal operator with the given value at every basis index."""
    index = np.arange(space.dim)
    return FockOperator(space, (index, index, values))


def identity(space: FockSpace) -> FockOperator:
    return _diagonal(space, np.ones(space.dim))


def zero(space: FockSpace) -> FockOperator:
    return _diagonal(space, np.zeros(space.dim))


def _letter_maps(space: FockSpace) -> dict[Letter, tuple[np.ndarray, np.ndarray]]:
    """Per letter g, the index of (g,) + w and of w + (g,) for every basis word w:
    -1 where that is no word of the space, and -1 in one extra trailing slot,
    so that a map sends -1 to -1 and maps compose by indexing."""
    if space._letter_maps is None:
        def targets(words):
            return np.array([*(space.index.get(v, -1) for v in words), -1])

        space._letter_maps = {
            g: (targets((g,) + w for w in space.basis), targets(w + (g,) for w in space.basis))
            for g in space.letters()
        }
    return space._letter_maps


def _prepend_targets(space: FockSpace, word: Word) -> np.ndarray:
    """Index of word + w for every basis word w (-1 where that is no word of the space)."""
    cached = space._prepend_targets
    if word not in cached:
        maps, out = _letter_maps(space), np.arange(space.dim)
        for letter in reversed(word):
            out = maps[letter][0][out]
        cached[word] = out
    return cached[word]


def _append_targets(space: FockSpace, word: Word) -> np.ndarray:
    """Index of w + word for every basis word w (-1 where that is no word of the space)."""
    maps, out = _letter_maps(space), np.arange(space.dim)
    for letter in word:
        out = maps[letter][1][out]
    return out


def _partial_isometry(space: FockSpace, targets: np.ndarray) -> FockOperator:
    """e_j -> e_targets[j], zero where targets[j] is -1."""
    ok = targets >= 0
    return FockOperator(space, (targets[ok], np.flatnonzero(ok), np.ones(int(ok.sum()))))


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
    return FockOperator(space, _word_triplets(space, _checked(space, xi), _checked(space, eta)))


def diagonal(space: FockSpace, a) -> FockOperator:
    """Operator multiplying every word of length n by a[n]."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 1 or len(a) < space.max_len + 1:
        raise ValueError(f"need at least {space.max_len + 1} diagonal values")
    return _diagonal(space, a[space.levels])


def level_projection(space: FockSpace, n: int) -> FockOperator:
    """Orthogonal projection onto words of length exactly n."""
    if not 0 <= n <= space.max_len:
        raise ValueError(f"level must lie in [0, {space.max_len}]")
    return _diagonal(space, space.levels == n)


def tail_projection(space: FockSpace, n: int) -> FockOperator:
    """Projection onto words of length >= n (empty sum, i.e. zero, beyond the cap)."""
    if n < 0:
        raise ValueError("level must be non-negative")
    return _diagonal(space, space.levels >= n)


def factor_end_projection(space: FockSpace, factor: int) -> FockOperator:
    """Projection onto non-vacuum words whose last letter lies in the factor."""
    if not 0 <= factor < len(space.spec.factor_dims):
        raise ValueError(f"invalid factor {factor}")
    return _diagonal(space, space.last_factor == factor)


def _concat(parts):
    """One COO triplet (row, col, data) from a list of them."""
    return tuple(np.concatenate(column) for column in zip(*parts))


def _rho_triplets(space: FockSpace, row, col, data):
    """rho on COO triplets; distinct entries have distinct images."""
    parts = []
    for _, t in _letter_maps(space).values():
        ok = (t[row] >= 0) & (t[col] >= 0)
        parts.append((t[row[ok]], t[col[ok]], data[ok]))
    return _concat(parts)


def _eps_triplets(space: FockSpace, row, col, data):
    """eps on COO triplets: the entries whose row and column end in one factor."""
    lf = space.last_factor
    ok = (lf[row] >= 0) & (lf[row] == lf[col])
    return row[ok], col[ok], data[ok]


def rho(space: FockSpace, op: FockOperator) -> FockOperator:
    """Sum of R_gamma A R_gamma^* over all single letters.

    Each conjugation relocates the entry (i, j) to (i + gamma, j + gamma)
    when both appends are legal, so the sum is assembled directly from
    remapped triplets.
    """
    return FockOperator(space, _rho_triplets(space, *op.triplets))


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
    return FockOperator(space, _eps_triplets(space, *op.triplets))


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
    return FockSpec(tuple(_int_in(d) for d in obj["factors"]), _int_in(obj["max_len"]))


def fock_spec_from_json(text: str) -> FockSpec:
    return fock_spec_from_obj(json.loads(text))


def operator_to_csv(op: FockOperator) -> str:
    """Triplet dump (row, col, re, im), row-major, for inspection."""
    lines = ["row,col,re,im"]
    for r, c, v in zip(*(t.tolist() for t in op.triplets)):
        lines.append(f"{r},{c},{v.real!r},{v.imag!r}")
    return "\n".join(lines) + "\n"
