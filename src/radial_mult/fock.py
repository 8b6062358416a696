"""Truncated free-product word spaces and the operators acting on them.

Basis vectors are words: sequences of letters, each letter belonging to one
of finitely many factors, with consecutive letters from distinct factors.
Words of length up to ``max_len`` are kept; any creation that would exceed
the cap yields zero.  A space holds its words as index arrays, with tuples
as lazy labels.  Every operator is a sparse complex matrix in the graded-lex
word basis, held as row-major COO triplets with one entry per position.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, TooLarge

Letter = tuple[int, int]  # (factor index, letter index within the factor)
Word = tuple[Letter, ...]
VACUUM: Word = ()

BASIS_CAP = 200_000
# Entries of the (dim + 1) x letters int64 append table, 32 MB at this cap.
# BASIS_CAP bounds words, not letters, so a space of many letters passes it
# with a table far larger than this.
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


class FockSpace:
    """Word basis of a truncated product space, as index arrays: word i > 0 is
    word parent[i] plus letter letters()[letter[i]], of length levels[i] and last
    factor last_factor[i] (-1 for the vacuum, word 0).  The tuple labels (per
    level, basis, index) and the append table are built on first use and
    memoized, so concurrent readers at worst duplicate work."""

    def __init__(self, spec: FockSpec, parent, letter, last_factor, level_offsets: list[int]):
        self.spec = spec
        self.parent = parent
        self.letter = letter
        self.last_factor = last_factor
        self.level_offsets = level_offsets
        self.dim = len(parent)
        self.levels = np.repeat(np.arange(spec.max_len + 1), np.diff([*level_offsets, self.dim]))
        self._letter_maps: np.ndarray | None = None
        self._words: dict[int, list[Word]] = {0: [VACUUM]}  # labels by level

    @property
    def max_len(self) -> int:
        return self.spec.max_len

    def letters(self) -> list[Letter]:
        """Every letter, sorted by factor and then by index within the factor."""
        return [(f, a) for f, d in enumerate(self.spec.factor_dims) for a in range(d)]

    def words_of_length(self, n: int) -> list[Word]:
        """The words of length n, labelled level by level from their parents'."""
        bounds, letters = [*self.level_offsets, self.dim], self.letters()
        if n < 0 or n > self.max_len or bounds[n] == bounds[n + 1]:
            return []
        for m in range(1, n + 1):
            if m not in self._words:
                level = slice(bounds[m], bounds[m + 1])
                at = zip((self.parent[level] - bounds[m - 1]).tolist(), self.letter[level].tolist())
                self._words[m] = [self._words[m - 1][p] + (letters[g],) for p, g in at]
        return list(self._words[n])

    @cached_property
    def basis(self) -> list[Word]:
        self.words_of_length(top := int(self.levels[-1]))
        return [w for m in range(top + 1) for w in self._words[m]]

    @cached_property
    def index(self) -> dict[Word, int]:
        return {w: i for i, w in enumerate(self.basis)}


def build_space(spec: FockSpec) -> FockSpace:
    """Enumerate all words of length <= max_len in graded-lexicographic order:
    level m + 1 is the children of level m in order, one per letter outside
    the parent's last factor, so one np.nonzero of letter masks gives a level.
    The levels past the first empty one (a single factor has no words past
    length 1) all start at dim.  Each level is sized before it is built, so
    a basis past BASIS_CAP raises TooLarge without allocating it."""
    if spec.max_len > BASIS_CAP:  # array entries per level, even empty
        raise TooLarge(f"max_len {spec.max_len} gives more than {BASIS_CAP} levels")
    dims = spec.factor_dims
    # the factor of each letter column, and -1 at index -1 for the vacuum
    factors = np.repeat([*range(len(dims)), -1], [*dims, 1])
    # row f marks the letters outside factor f; the last row, which the
    # vacuum's factor -1 picks, marks every letter
    allowed = np.arange(len(dims) + 1)[:, None] != factors[:-1]
    widths = allowed.sum(axis=1)  # the children of a word, by its last factor
    parents, letters, level_offsets = [_NONE], [_NONE], [0]
    last = _NONE  # the last factor of each word of the level
    for _ in range(spec.max_len):
        level_offsets.append(total := level_offsets[-1] + len(last))
        # the next level has widths.take(last).sum() <= len(last) * sum(dims)
        # words, summed only when that bound would pass the cap
        bound = len(last) * sum(dims)
        if total + bound > BASIS_CAP and total + widths.take(last).sum() > BASIS_CAP:
            raise TooLarge(f"basis would hold more than {BASIS_CAP} words")
        parent, letter = allowed.take(last, axis=0).nonzero()
        if not len(letter):
            break
        parents.append(parent + level_offsets[-2])
        letters.append(letter)
        last = factors.take(letter)
    level_offsets += [level_offsets[-1]] * (spec.max_len + 1 - len(level_offsets))
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


def _letter_maps(space: FockSpace) -> np.ndarray:
    """The append table: the index of w + (g,) at row w and letter column g, -1
    off the space and in a trailing row, so that appends compose by indexing.
    Raises TooLarge before allocating when it would pass LETTER_MAP_CAP."""
    if space._letter_maps is None:
        entries = (space.dim + 1) * sum(space.spec.factor_dims)
        if entries > LETTER_MAP_CAP:
            raise TooLarge(f"letter maps would need {entries} entries (cap {LETTER_MAP_CAP})")
        append = np.full((space.dim + 1, sum(space.spec.factor_dims)), -1)
        append[space.parent[1:], space.letter[1:]] = np.arange(1, space.dim)
        space._letter_maps = append
    return space._letter_maps


def _append_targets(space: FockSpace, word: Word, start):
    """Index of w + word for each basis index w in start (-1 where that is no
    word of the space), one append-table lookup per letter."""
    append, columns = _letter_maps(space), space.letters()
    for letter in word:
        start = append[start, columns.index(letter)]
    return start


def _checked(space: FockSpace, word: Word) -> Word:
    dims = space.spec.factor_dims
    for f, a in word:
        if not (0 <= f < len(dims) and 0 <= a < dims[f]):
            raise ValueError(f"invalid letter {(f, a)} for factors {dims}")
    return word


def creation(space: FockSpace, letter: Letter) -> FockOperator:
    """Prepend a letter; zero on words starting in its factor or of full length."""
    return word_operator(space, (letter,), VACUUM)


def right_word(space: FockSpace, word: Word) -> FockOperator:
    """Operator appending the whole word at the right end (identity for the vacuum):
    e_w -> e_{w + word}, zero where that is no word of the space."""
    targets = _append_targets(space, _checked(space, word), np.arange(space.dim))
    ok = targets >= 0
    return FockOperator(space, (targets[ok], np.flatnonzero(ok), np.ones(int(ok.sum()))))


def word_operator(space: FockSpace, xi: Word, eta: Word) -> FockOperator:
    """The rank-style operator L_xi L_eta^*, a 1 at (xi w, eta w) for every w;
    with eta the vacuum it is L_xi, the left creations along xi.

    It is sum_n rho^n(e_xi e_eta^*), the rho chain from its corner entry
    (xi, eta), and zero when either word is no word of the space.  A word's
    index is the vacuum's append target, one lookup per letter.
    """
    xi, eta = _checked(space, xi), _checked(space, eta)
    i, j = (_append_targets(space, w, 0) for w in (xi, eta))
    if i < 0 or j < 0:
        return _diagonal(space, np.zeros(space.dim))
    corner = np.array([i]), np.array([j]), np.ones(1, dtype=complex)
    return FockOperator(space, _concat(list(_chain(space, *corner))))


def diagonal(space: FockSpace, a) -> FockOperator:
    """Operator multiplying every word of length n by a[n]; a 0/1 mask over
    the levels np.arange(max_len + 1) gives a projection, such as the
    identity, the words of one length or those of lengths >= n."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 1 or len(a) < space.max_len + 1:
        raise ValueError(f"need at least {space.max_len + 1} diagonal values")
    return _diagonal(space, a[space.levels])


def factor_end_projection(space: FockSpace, factor: int) -> FockOperator:
    """Projection onto non-vacuum words whose last letter lies in the factor."""
    if not 0 <= factor < len(space.spec.factor_dims):
        raise ValueError(f"invalid factor {factor}")
    return _diagonal(space, space.last_factor == factor)


def _concat(parts):
    """One COO triplet (row, col, data) from a list of them."""
    return tuple(np.concatenate(column) for column in zip(*parts))


def _rho_triplets(space: FockSpace, row, col, data):
    """rho on COO triplets, entry by entry and then letter by letter; distinct
    entries have distinct images, and the images of the entries at one
    position keep their order."""
    append = _letter_maps(space)
    rows, cols = append.take(row, axis=0), append.take(col, axis=0)
    at = np.flatnonzero((rows >= 0) & (cols >= 0))
    return rows.ravel().take(at), cols.ravel().take(at), data.take(at // rows.shape[1])


def _chain(space: FockSpace, row, col, data):
    """Yield the triplets of B, rho(B), rho^2(B), ... while they are non-empty.
    rho^n(B) sits n levels above B, so the chain ends by max_len + 1 steps."""
    while len(data):
        yield row, col, data
        row, col, data = _rho_triplets(space, row, col, data)


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
