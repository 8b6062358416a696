import json
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from radial_mult import (
    CASE_ONE,
    CASE_TWO,
    DimensionMismatch,
    FockOperator,
    FockSpec,
    TooLarge,
    build_space,
    classify_case,
    creation,
    diagonal,
    eps,
    factor_end_projection,
    fock_spec_from_obj,
    rho,
    right_word,
    spectral_norm,
    to_obj,
    word_operator,
)


@pytest.fixture(scope="module")
def two_line():
    return build_space(FockSpec((1, 1), 3))


@pytest.fixture(scope="module")
def triple():
    return build_space(FockSpec((2, 2, 2), 2))


def dense(op):
    return op.to_dense()


def from_dense(space, a):
    rows, cols = np.nonzero(a)
    return FockOperator(space, (rows, cols, a[rows, cols]))


def csr(op):
    """The operator as a scipy matrix, an oracle independent of FockOperator."""
    return sp.csr_matrix((op.data, (op.row, op.col)), shape=(op.space.dim,) * 2)


def test_basis_counts(two_line, triple):
    assert two_line.dim == 7  # 1 + 2 + 2 + 2
    assert triple.dim == 31  # 1 + 6 + 24
    single = build_space(FockSpec((3,), 4))
    assert single.dim == 4  # levels beyond 1 are empty
    assert single.words_of_length(2) == []


def test_basis_is_graded_lex(two_line):
    lengths = [len(w) for w in two_line.basis]
    assert lengths == sorted(lengths)
    for n in range(two_line.max_len + 1):
        level = two_line.words_of_length(n)
        assert level == sorted(level)
    assert all(two_line.index[w] == i for i, w in enumerate(two_line.basis))


def test_alternation_constraint(triple):
    for w in triple.basis:
        for a, b in zip(w, w[1:]):
            assert a[0] != b[0]


@pytest.mark.parametrize(
    "dims, max_len",
    [((2.5,), 3), ((2,), 2.5), ((2, "2"), 3), ((2,), None), (3, 2), ((), 2), ((0,), 2), ((1,), 0)],
)
def test_spec_rejects_malformed_fields(dims, max_len):
    with pytest.raises(ValueError):
        FockSpec(dims, max_len)


def test_spec_accepts_numpy_integers():
    spec = FockSpec((np.int64(2), np.int32(1)), np.int64(3))
    assert spec == FockSpec((2, 1), 3)
    assert all(type(d) is int for d in spec.factor_dims) and type(spec.max_len) is int


def test_build_space_cap():
    # counting the levels stops at the cap, long before the 6000-digit count
    # of 20000 levels
    with pytest.raises(TooLarge, match="more than 200000 words"):
        build_space(FockSpec((2, 2), 20000))
    # 600 letters could give level 2 up to 360000 words; it has 180000
    assert build_space(FockSpec((300, 300), 2)).dim == 1 + 600 + 180000
    # two words a level, one past the cap only at the last of 100000 levels:
    # the counts refuse it before any level is built
    deep = FockSpec((1, 1), 100_000)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="more than 200000 words"):
        build_space(deep)
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="more than 200000 words"):
            build_space(deep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert build_space(FockSpec((1, 1), 99_999)).dim == 199_999


def test_build_space_level_cap():
    # one factor has no words past length 1, so the word count never reaches
    # the cap; the level count refuses before any per-level loop or array
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="max_len 1000000000 gives more than 200000 levels"):
        build_space(FockSpec((3,), 10**9))
    assert time.perf_counter() - start < 1.0


def test_single_factor_space_stops_at_its_last_word():
    # one factor has no words past length 1: the build stops there, and the
    # 199999 empty levels past it count 0 words, so each starts at dim
    tracemalloc.start()
    try:
        space = build_space(FockSpec((3,), 200_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.dim == 4 and space.words_of_length(2) == []
    assert space.words_of_length(1) == [((0, 0),), ((0, 1),), ((0, 2),)]
    assert peak < 20 * 2**20
    assert word_operator(space, ((0, 1),), ()).nnz == 1


def test_empty_level_takes_no_letter_mask():
    # one factor of 5000 letters: level 2 counts 0 words, so the build stops
    # before taking the 5001 x 5000 letter mask of level 1's words (25 MB)
    tracemalloc.start()
    try:
        space = build_space(FockSpec((5000,), 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.level_offsets == [0, 1, 5001] and space.dim == 5001
    assert peak < 4 * 2**20


def test_letter_map_cap():
    # 100001 words pass BASIS_CAP, but each letter-map table would hold 1e10
    # entries; the cap refuses before allocating anything of that size
    wide = build_space(FockSpec((100_000,), 1))
    with pytest.raises(TooLarge, match="letter maps would need 10000200000 entries"):
        word_operator(wide, (), ())
    # (2, 2, 2) at length 8, dim 131071, needs 786432 entries and stays under it
    deep = build_space(FockSpec((2, 2, 2), 8))
    # L_(0,0) takes the vacuum and the two thirds of the 2 (4^7 - 1) words of
    # lengths 1 to 7 that start outside factor 0
    assert word_operator(deep, ((0, 0),), ()).nnz == 1 + 2 * (4**7 - 1) * 2 // 3


def test_creation_action(two_line):
    gamma = (0, 0)
    L = creation(two_line, gamma)
    vac = two_line.index[()]
    assert dense(L)[two_line.index[(gamma,)], vac] == 1
    # kills words starting in the same factor
    start_same = two_line.index[(gamma, (1, 0))]
    assert not dense(L)[:, start_same].any()
    # kills words of full length
    full = two_line.index[((1, 0), (0, 0), (1, 0))]
    assert not dense(L)[:, full].any()


def test_annihilation_orthogonality(triple):
    # L_gamma^* L_delta = 0 for distinct single letters
    letters = triple.letters()
    ops = {g: creation(triple, g) for g in letters}
    for g in letters:
        for d in letters:
            prod = dense(ops[g].H @ ops[d])
            if g == d:
                assert prod[triple.index[()], triple.index[()]] == 1
            else:
                assert not prod.any()


def test_right_creation_mirror(two_line):
    gamma, delta = (0, 0), (1, 0)
    R = right_word(two_line, (gamma,))
    assert dense(R)[two_line.index[(gamma,)], two_line.index[()]] == 1
    ends_same = two_line.index[((1, 0), (0, 0))]
    assert not dense(R)[:, ends_same].any()
    # left and right creations at distinct factors commute on the vacuum
    L = creation(two_line, gamma)
    Rd = right_word(two_line, (delta,))
    vac = np.zeros(two_line.dim)
    vac[two_line.index[()]] = 1
    both = two_line.index[(gamma, delta)]
    assert (dense(L @ Rd) @ vac)[both] == 1
    assert np.array_equal(dense(L @ Rd) @ vac, dense(Rd @ L) @ vac)


def test_partial_isometries_and_grading(triple):
    for g in triple.letters():
        for op in (creation(triple, g), right_word(triple, (g,))):
            m = dense(op)
            assert abs(m @ m.conj().T @ m - m).max() == 0
        L = dense(creation(triple, g))
        for n in range(triple.max_len):
            block = L[:, triple.levels == n]
            hit_levels = triple.levels[np.abs(block).sum(axis=1) > 0]
            assert all(hit_levels == n + 1)


def test_word_operator_examples(two_line):
    assert np.array_equal(dense(word_operator(two_line, (), ())), np.eye(7))
    gamma = ((0, 0),)
    assert np.array_equal(
        dense(word_operator(two_line, gamma, ())), dense(creation(two_line, (0, 0)))
    )


def test_word_operator_direct_action(triple):
    # independent oracle: L_xi L_eta^* maps eta+zeta to xi+zeta when legal
    xi = ((0, 0),)
    eta = ((1, 1), (2, 0))
    expected = np.zeros((triple.dim, triple.dim), dtype=complex)
    for j, w in enumerate(triple.basis):
        if len(w) < len(eta) or w[: len(eta)] != eta:
            continue
        zeta = w[len(eta) :]
        if zeta and xi and xi[-1][0] == zeta[0][0]:
            continue
        if len(xi) + len(zeta) > triple.max_len:
            continue
        expected[triple.index[xi + zeta], j] = 1
    assert np.array_equal(dense(word_operator(triple, xi, eta)), expected)


def test_diagonal_examples(two_line):
    ones = diagonal(two_line, np.ones(4))
    assert np.array_equal(dense(ones), np.eye(7))
    e0 = diagonal(two_line, np.array([1.0, 0, 0, 0]))
    assert np.array_equal(dense(e0), np.diag(two_line.levels == 0))
    a = np.array([0.3, -2.0, 1.5, 0.25])
    assert abs(spectral_norm(diagonal(two_line, a)) - 2.0) < 1e-12


def test_projections(two_line):
    # projections are diagonals of 0/1 masks over the levels
    levels = np.arange(two_line.max_len + 1)
    assert np.array_equal(dense(diagonal(two_line, levels >= 0)), np.eye(7))
    total = sum(dense(diagonal(two_line, levels == n)) for n in levels)
    assert np.array_equal(total, np.eye(7))
    assert np.array_equal(
        dense(diagonal(two_line, levels >= 1)),
        np.eye(7) - dense(diagonal(two_line, levels == 0)),
    )
    # beyond the cap the tail sum is empty
    assert not dense(diagonal(two_line, levels >= two_line.max_len + 2)).any()


def test_diagonal_and_factor_projection_reject_bad_input(two_line):
    with pytest.raises(ValueError, match="need at least 4 diagonal values"):
        diagonal(two_line, np.ones(3))
    with pytest.raises(ValueError, match="invalid factor 2"):
        factor_end_projection(two_line, 2)


def test_factor_end_projections(triple):
    total = sum(
        dense(factor_end_projection(triple, i))
        for i in range(len(triple.spec.factor_dims))
    )
    assert np.array_equal(total, dense(diagonal(triple, np.arange(triple.max_len + 1) >= 1)))
    q0 = dense(factor_end_projection(triple, 0))
    assert not q0[:, triple.index[()]].any()
    gamma = triple.index[((0, 1),)]
    assert q0[gamma, gamma] == 1
    other = triple.index[((1, 0),)]
    assert q0[other, other] == 0


def rho_reference(space, op):
    # dual route: explicit operator products
    total = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    for g in space.letters():
        r = csr(right_word(space, (g,)))
        total = total + r @ csr(op) @ r.getH()
    return total.toarray()


def eps_reference(space, op):
    total = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    for i in range(len(space.spec.factor_dims)):
        q = csr(factor_end_projection(space, i))
        total = total + q @ csr(op) @ q
    return total.toarray()


def test_rho_against_reference(triple):
    rng = np.random.default_rng(11)
    a = sp.random(
        triple.dim, triple.dim, density=0.1, random_state=np.random.RandomState(5)
    ).astype(complex)
    a = (a + 1j * sp.random(
        triple.dim, triple.dim, density=0.1, random_state=np.random.RandomState(6)
    )).tocoo()
    op = FockOperator(triple, (a.row, a.col, a.data))
    assert np.abs(dense(rho(triple, op)) - rho_reference(triple, op)).max() < 1e-14
    assert np.abs(dense(eps(triple, op)) - eps_reference(triple, op)).max() < 1e-14


def test_rho_basics(two_line):
    levels = np.arange(two_line.max_len + 1)
    I, q1 = diagonal(two_line, levels >= 0), dense(diagonal(two_line, levels >= 1))
    assert np.array_equal(dense(rho(two_line, I)), q1)
    p0 = diagonal(two_line, levels == 0)
    assert np.array_equal(dense(rho(two_line, p0)), dense(diagonal(two_line, levels == 1)))
    assert np.array_equal(dense(eps(two_line, I)), q1)


def test_rho_power_word_identity(triple):
    # rho^n (L_xi L_eta^*) = L_xi L_eta^* Q_{l+n}, exactly
    pairs = [((), ()), (((0, 0),), ()), (((0, 0),), ((1, 1),)), (((1, 0), (2, 1)), ((1, 1),))]
    levels = np.arange(triple.max_len + 1)
    for xi, eta in pairs:
        a = word_operator(triple, xi, eta)
        power = a
        for n in range(3):
            rhs = dense(a @ diagonal(triple, levels >= len(eta) + n))
            assert np.array_equal(dense(power), rhs)
            power = rho(triple, power)


def test_eps_case_split(triple):
    case1 = (((0, 0),), ((1, 1),))
    case2 = (((0, 0), (1, 0)), ((2, 1), (1, 1)))
    a1 = word_operator(triple, *case1)
    assert classify_case(*case1) == CASE_ONE
    assert np.array_equal(dense(eps(triple, a1)), dense(rho(triple, a1)))
    a2 = word_operator(triple, *case2)
    assert classify_case(*case2) == CASE_TWO
    assert np.array_equal(dense(eps(triple, a2)), dense(a2))


def test_eps_is_contractive_compression(triple):
    rng = np.random.default_rng(2)
    a = rng.standard_normal((triple.dim, triple.dim)) + 1j * rng.standard_normal(
        (triple.dim, triple.dim)
    )
    op = from_dense(triple, a)
    compressed = eps(triple, op)
    twice = eps(triple, compressed)
    assert np.abs(dense(twice) - dense(compressed)).max() < 1e-14
    assert np.linalg.norm(dense(compressed), 2) <= np.linalg.norm(a, 2) + 1e-12


def test_classify_case():
    assert classify_case((), ()) == CASE_ONE
    assert classify_case((), ((0, 0),)) == CASE_ONE
    assert classify_case(((0, 0),), ((1, 0),)) == CASE_ONE
    assert classify_case(((1, 0), (0, 1)), ((0, 0),)) == CASE_TWO


def test_single_factor_embedding_reproduces_matrix_units():
    # the front-embedded rank-one units of one factor act like L / L* / L L*
    space = build_space(FockSpec((3, 2), 3))
    factor = 0
    dim_factor = space.spec.factor_dims[factor]

    def embedding(unit_row, unit_col):
        # direct action of the embedded unit e_{row,col} on basis words;
        # index 0 plays the distinguished vector, letters are 1..dim
        out = np.zeros((space.dim, space.dim), dtype=complex)
        for j, w in enumerate(space.basis):
            if not w or w[0][0] != factor:
                # acts on the distinguished vector component
                if unit_col != 0:
                    continue
                if unit_row == 0:
                    out[j, j] += 1
                else:
                    target = ((factor, unit_row - 1),) + w
                    if len(target) <= space.max_len:
                        out[space.index[target], j] += 1
            else:
                first = w[0][1]
                if unit_col != first + 1:
                    continue
                rest = w[1:]
                if unit_row == 0:
                    out[space.index[rest], j] += 1
                else:
                    target = ((factor, unit_row - 1),) + rest
                    out[space.index[target], j] += 1
        return out

    for row in range(dim_factor + 1):
        for col in range(dim_factor + 1):
            if row == 0 and col == 0:
                continue
            if row == 0:
                op = creation(space, (factor, col - 1)).H
            elif col == 0:
                op = creation(space, (factor, row - 1))
            else:
                op = creation(space, (factor, row - 1)) @ creation(space, (factor, col - 1)).H
            assert np.array_equal(dense(op), embedding(row, col)), (row, col)


def test_operator_algebra_and_mismatch(two_line, triple):
    I = diagonal(two_line, np.ones(two_line.max_len + 1))
    with pytest.raises(DimensionMismatch):
        I @ diagonal(triple, np.ones(triple.max_len + 1))
    op = 2.0 * I - I
    assert np.array_equal(dense(op), np.eye(7))


def test_spec_serialization(two_line):
    spec = fock_spec_from_obj(json.loads('{"factors":[1,1],"max_len":3}'))
    assert spec == two_line.spec
    assert to_obj(spec) == {"factors": [1, 1], "max_len": 3}


def test_right_word_appends(two_line):
    word = ((0, 0), (1, 0))
    op = right_word(two_line, word)
    vac = two_line.index[()]
    assert dense(op)[two_line.index[word], vac] == 1


def test_invalid_letters_rejected(two_line):
    # factor 2 does not exist and factor 0 has one letter only
    for bad in ((2, 0), (0, 1), (-1, 0)):
        for make in (
            lambda: creation(two_line, bad),
            lambda: right_word(two_line, ((1, 0), bad)),
            lambda: word_operator(two_line, ((0, 0), bad), ()),
            lambda: right_word(two_line, (bad,)),
            lambda: word_operator(two_line, ((1, 0),), (bad,)),
        ):
            with pytest.raises(ValueError, match="invalid letter"):
                make()


# --- property: the triplet operator against scipy.sparse -------------------

SPACES = [build_space(FockSpec((1, 1), 3)), build_space(FockSpec((2, 1), 2))]
# Gaussian integers keep every sum and product exact, so cancellations are exact zeros.
small_gaussian = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def triplets(draw, dim):
    """Triplets with repeated positions, and a cancelling copy of some entries."""
    entries = draw(
        st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), small_gaussian))
    )
    entries += [(r, c, -v) for r, c, v in entries if draw(st.booleans())]
    row, col, data = np.array(entries, dtype=complex).reshape(-1, 3).T
    return row.real.astype(int), col.real.astype(int), data


@st.composite
def operator_cases(draw):
    space = draw(st.sampled_from(SPACES))
    a, b = draw(triplets(space.dim)), draw(triplets(space.dim))
    return space, a, b, draw(small_gaussian)


@settings(max_examples=80, deadline=None)
@given(operator_cases())
def test_operator_matches_scipy(case):
    space, a, b, z = case
    A, B = FockOperator(space, a), FockOperator(space, b)
    shape = (space.dim,) * 2
    sa = sp.coo_matrix((a[2], (a[0], a[1])), shape=shape).tocsr()
    sb = sp.coo_matrix((b[2], (b[0], b[1])), shape=shape).tocsr()
    # canonical: row-major, one entry per position, no zeros
    keys = A.row * space.dim + A.col
    assert np.all(np.diff(keys) > 0) and np.all(A.data != 0)
    assert np.array_equal(dense(A), sa.toarray())
    assert A.nnz == np.count_nonzero(sa.toarray())
    for got, want in (
        (A @ B, sa @ sb),
        (A + B, sa + sb),
        (A - B, sa - sb),
        (A.H, sa.conj().T),
        (z * A, sa * z),
        (A * z, sa * z),
        (-A, -sa),
    ):
        assert np.array_equal(dense(got), want.toarray())
        assert got.nnz == np.count_nonzero(want.toarray())


@pytest.mark.parametrize("bad", [([7], [0]), ([0], [7]), ([-1], [0]), ([0], [-1])])
def test_operator_rejects_out_of_range_indices(two_line, bad):
    with pytest.raises(DimensionMismatch):
        FockOperator(two_line, (*bad, [1.0]))


# --- property: the index arrays against an itertools enumeration -----------


def enumerate_words(factors, max_len):
    """Every alternating word of length <= max_len, sorted by (length, word),
    enumerated over all letter strings independently of build_space."""
    letters = [(f, a) for f, d in enumerate(factors) for a in range(d)]
    words = [
        w
        for n in range(max_len + 1)
        for w in product(letters, repeat=n)
        if all(x[0] != y[0] for x, y in zip(w, w[1:]))
    ]
    return sorted(words, key=lambda w: (len(w), w))


small_specs = st.builds(
    FockSpec, st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple), st.integers(1, 4)
)


@settings(max_examples=60, deadline=None)
@given(small_specs)
def test_basis_matches_enumeration(spec):
    space = build_space(spec)
    words = enumerate_words(spec.factor_dims, spec.max_len)
    lengths = [len(w) for w in words]
    assert space.dim == len(words)
    assert space.basis == words
    assert space.index == {w: i for i, w in enumerate(words)}
    starts = [sum(m < n for m in lengths) for n in range(spec.max_len + 1)]
    assert space.level_offsets == starts
    assert space.levels.tolist() == lengths
    assert space.last_factor.tolist() == [w[-1][0] if w else -1 for w in words]
    for n in range(spec.max_len + 1):
        assert space.words_of_length(n) == [w for w in words if len(w) == n]


# --- property: word targets against the literal tuple lookup ----------------


@st.composite
def word_cases(draw):
    """A fresh small space and two words of its letters, adjacent letters from
    one factor and lengths past max_len allowed."""
    factors = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    space = build_space(FockSpec(factors, draw(st.integers(1, 3))))
    words = st.lists(st.sampled_from(space.letters()), max_size=space.max_len + 2).map(tuple)
    return space, draw(words), draw(words)


def literal_targets(space, join):
    """Per enumerated word w, the enumeration index of join(w), -1 off the space."""
    words = enumerate_words(space.spec.factor_dims, space.max_len)
    index = {w: i for i, w in enumerate(words)}
    return [index.get(join(w), -1) for w in words]


def units(space, rows, cols):
    """Dense 0/1 matrix with a 1 at every (row, col) pair with both indices >= 0."""
    out = np.zeros((space.dim, space.dim))
    for r, c in zip(rows, cols):
        if r >= 0 and c >= 0:
            out[r, c] = 1
    return out


@settings(max_examples=80, deadline=None)
@given(word_cases())
def test_word_targets_match_literal_lookup(case):
    space, xi, eta = case
    every = range(space.dim)
    prepended = literal_targets(space, lambda w: xi + w)
    appended = literal_targets(space, lambda w: w + xi)
    eta_prepended = literal_targets(space, lambda w: eta + w)
    assert np.array_equal(dense(word_operator(space, xi, ())), units(space, prepended, every))
    assert np.array_equal(dense(right_word(space, xi)), units(space, appended, every))
    assert np.array_equal(
        dense(word_operator(space, xi, eta)), units(space, prepended, eta_prepended)
    )
