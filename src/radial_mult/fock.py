"""Truncated free-product word spaces and the operators acting on them.

Basis vectors are words: sequences of letters, each letter belonging to one
of finitely many factors, with consecutive letters from distinct factors.
Words of length up to ``max_len`` are kept; any creation that would exceed
the cap yields zero.  A space holds its words as index arrays, with tuples
as lazy labels.  Every operator is a sparse complex matrix in the graded-lex
word basis, held as row-major COO triplets with one entry per position.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, TooLarge
from .symbols import _int_in

Letter = tuple[int, int]  # (factor index, letter index within the factor)
Word = tuple[Letter, ...]
VACUUM: Word = ()

BASIS_CAP = 200_000
# Entries of each (dim + 1) x letters int64 letter-map table; two tables at
# this cap take 64 MB.  BASIS_CAP bounds words, not letters, so a space of
# many letters passes it with tables far larger than this.
LETTER_MAP_CAP = 1 << 22
_NONE = np.array([-1])  # the vacuum's parent, letter and last factor

CASE_ONE = 1
CASE_TWO = 2


@dataclass(frozen=True)
class FockSpec:
    """Dimensions of the mean-zero part of each factor, plus the length cap."""

    factor_dims: tuple[int, ...]
    max_len: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "factor_dims", tuple(map(operator.index, self.factor_dims)))
            object.__setattr__(self, "max_len", operator.index(self.max_len))
        except TypeError as exc:
            raise ValueError(f"factor dimensions and max_len must be integers: {exc}") from None
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
    """Word basis of a truncated product space, as index arrays: word i > 0 is
    word parent[i] plus letter letters()[letter[i]], of length levels[i] and last
    factor last_factor[i] (-1 for the vacuum, word 0).  The tuple labels basis,
    index and words_of_length, the letter maps and the word targets are built on
    first use and memoized, so concurrent readers at worst duplicate work."""

    def __init__(self, spec: FockSpec, parent, letter, last_factor, level_offsets: list[int]):
        self.spec = spec
        self.parent = parent
        self.letter = letter
        self.last_factor = last_factor
        self.level_offsets = level_offsets
        self.dim = len(parent)
        self.levels = np.repeat(np.arange(spec.max_len + 1), np.diff([*level_offsets, self.dim]))
        self._letter_maps: tuple[np.ndarray, np.ndarray] | None = None
        self._prepend_targets: dict[Word, np.ndarray] = {}

    @property
    def max_len(self) -> int:
        return self.spec.max_len

    def letters(self) -> list[Letter]:
        """Every letter, sorted by factor and then by index within the factor."""
        return [(f, a) for f, d in enumerate(self.spec.factor_dims) for a in range(d)]

    def words_of_length(self, n: int) -> list[Word]:
        if n < 0 or n > self.max_len:
            return []
        start, end = [*self.level_offsets, self.dim][n : n + 2]
        return self.basis[start:end]

    @cached_property
    def basis(self) -> list[Word]:
        letters, basis = self.letters(), [VACUUM]
        for p, g in zip(self.parent[1:].tolist(), self.letter[1:].tolist()):
            basis.append(basis[p] + (letters[g],))
        return basis

    @cached_property
    def index(self) -> dict[Word, int]:
        return {w: i for i, w in enumerate(self.basis)}


def build_space(spec: FockSpec, cap: int = BASIS_CAP) -> FockSpace:
    """Enumerate all words of length <= max_len in graded-lexicographic order:
    level m + 1 is the children of level m in order, one per letter outside
    the parent's last factor, so one np.nonzero of letter masks gives a level."""
    if _word_count(spec, cap) > cap:
        raise TooLarge(f"basis would hold more than {cap} words")
    dims = spec.factor_dims
    # the factor of each letter column, and -1 at index -1 for the vacuum
    factors = np.repeat([*range(len(dims)), -1], [*dims, 1])
    # row f marks the letters outside factor f; the last row, which the
    # vacuum's factor -1 picks, marks every letter
    allowed = np.arange(len(dims) + 1)[:, None] != factors[:-1]
    parents, letters, level_offsets = [_NONE], [_NONE], [0]
    last = _NONE  # the last factor of each word of the level
    for _ in range(spec.max_len):
        level_offsets.append(level_offsets[-1] + len(last))
        parent, letter = allowed.take(last, axis=0).nonzero()
        parents.append(parent + level_offsets[-2])
        letters.append(letter)
        last = factors.take(letter)
    letter = np.concatenate(letters)
    return FockSpace(spec, np.concatenate(parents), letter, factors[letter], level_offsets)


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


def _letter_maps(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Prepend and append tables: the index of (g,) + w and of w + (g,) at row
    w and letter column g, -1 off the space and in a trailing row, so that maps
    compose by indexing.  (g,) + w + (h,) appends h to (g,) + w, level by level.
    Raises TooLarge before allocating when a table would pass LETTER_MAP_CAP."""
    if space._letter_maps is None:
        entries = (space.dim + 1) * sum(space.spec.factor_dims)
        if entries > LETTER_MAP_CAP:
            raise TooLarge(f"letter maps would need {entries} entries (cap {LETTER_MAP_CAP})")
        parent, letter = space.parent, space.letter
        append = np.full((space.dim + 1, sum(space.spec.factor_dims)), -1)
        append[parent[1:], letter[1:]] = np.arange(1, space.dim)
        prepend = np.full_like(append, -1)
        prepend[0] = append[0]
        for start, end in zip(space.level_offsets[1:], [*space.level_offsets[2:], space.dim]):
            prepend[start:end] = append[prepend[parent[start:end]], letter[start:end, None]]
        space._letter_maps = prepend, append
    return space._letter_maps


def _prepend_targets(space: FockSpace, word: Word) -> np.ndarray:
    """Index of word + w for every basis word w (-1 where that is no word of the space)."""
    cached = space._prepend_targets
    if word not in cached:
        prepend, columns, out = _letter_maps(space)[0], space.letters(), np.arange(space.dim)
        for letter in reversed(word):
            out = prepend[out, columns.index(letter)]
        cached[word] = out
    return cached[word]


def _append_targets(space: FockSpace, word: Word) -> np.ndarray:
    """Index of w + word for every basis word w (-1 where that is no word of the space)."""
    append, columns, out = _letter_maps(space)[1], space.letters(), np.arange(space.dim)
    for letter in word:
        out = append[out, columns.index(letter)]
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
    """rho on COO triplets, letter by letter; distinct entries have distinct images."""
    append = _letter_maps(space)[1]
    rows, cols = append[row].T, append[col].T
    ok = (rows >= 0) & (cols >= 0)
    return rows[ok], cols[ok], np.broadcast_to(data, rows.shape)[ok]


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
