import tracemalloc
from dataclasses import fields, replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radial_mult import multiplier
from radial_mult import (
    CASE_ONE,
    CASE_TWO,
    DimensionMismatch,
    DiscreteMeasure,
    Doubled,
    Finite,
    FromMeasure,
    Geometric,
    Indicator,
    ParityTail,
    TruncatedGeometric,
    TooLarge,
    apply_T,
    apply_T1,
    apply_T2,
    build_plan,
    build_space,
    classify_case,
    cs_bound,
    diagonal,
    evaluate,
    factor_end_projection,
    FockSpec,
    FockOperator,
    hankel_h,
    hankel_k,
    kraus_row_sum,
    plan_cb_bound,
    psi1,
    psi2,
    right_word,
    spectral_norm,
    to_obj,
    ucp_pi_apply,
    verify_component_eigenaction,
    verify_eigenaction,
    verify_ucp_relations,
    word_label,
    word_operator,
)
from radial_mult.fock import (
    _chain,
    _concat,
    _diagonal,
    _eps_triplets,
    _letter_maps,
    _rho_triplets,
    _summed,
    eps,
    rho,
)
from radial_mult.multiplier import (
    ComponentRecord,
    ComponentReport,
    EigenRecord,
    EigenReport,
    TensorRecord,
    TensorReport,
    _apply,
    _kernels,
)
from radial_mult.symbols import form

SYMBOLS = [
    Geometric(0.5),
    Geometric(-0.5),
    Indicator(2),
    Finite((), 1.0),
]


@pytest.fixture(scope="module")
def line5():
    return build_space(FockSpec((1, 1), 5))


@pytest.fixture(scope="module")
def pair4():
    return build_space(FockSpec((2, 1), 4))


def dense_from(size, triplets):
    """Dense matrix of triplets, summing the ones that share a position."""
    row, col, data = triplets
    out = np.zeros((size, size), dtype=complex)
    np.add.at(out, (row, col), data)
    return out


def unit(n, length):
    v = np.zeros(length, dtype=complex)
    v[n] = 1.0
    return v


def eig_sum(x, y, k, l):
    # oracle: sum_t x[k+t] conj(y[l+t]) with negative indices treated as zero
    total = 0.0 + 0.0j
    for t in range(max(len(x), len(y))):
        if 0 <= k + t < len(x) and 0 <= l + t < len(y):
            total += x[k + t] * np.conj(y[l + t])
    return total


# --- the literal per-term formula, the oracle for T --------------------------


def _shift_values(vec: np.ndarray, levels: np.ndarray, shift: int) -> np.ndarray:
    """Diagonal values vec[level + shift], zero outside the vector's support."""
    idx = levels + shift
    out = np.zeros(len(levels), dtype=vec.dtype)
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


def _first_sum(space, x, y, op):
    """sum_n D_{(S*)^n x} A D*_{(S*)^n y}, collapsed to entrywise level weights."""
    w = _correlation_weights(x, y, space.max_len)
    lv = space.levels
    return FockOperator(space, (op.row, op.col, op.data * w[lv[op.row], lv[op.col]]))


def _deep_sum(space, x, y, deep: list):
    """sum_{n>=1} D_{S^n x} deep[n] D*_{S^n y}."""
    total = diagonal(space, np.zeros(space.max_len + 1))
    for n in range(1, len(deep)):
        dx = _diagonal(space, _shift_values(x, space.levels, -n))
        dy = _diagonal(space, _shift_values(y, space.levels, -n).conj())
        total = total + dx @ deep[n] @ dy
    return total


def _rho_chain(space, op, count: int) -> list:
    """[A, rho(A), ..., rho^count(A)]."""
    chain = [op]
    for _ in range(count):
        if op.nnz:
            op = rho(space, op)
        chain.append(op)
    return chain


def phi1_apply(space, x, y, op):
    """Apply the first elementary transformation for vectors x, y."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    deep = _rho_chain(space, op, space.max_len)  # deep[n] = rho^n(A)
    return _first_sum(space, x, y, op) + _deep_sum(space, x, y, deep)


def phi2_apply(space, x, y, op):
    """Apply the second elementary transformation (compressed deep part)."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    # deep[n] = rho^(n-1)(eps(A))
    deep = [None] + _rho_chain(space, eps(space, op), space.max_len - 1)
    return _first_sum(space, x, y, op) + _deep_sum(space, x, y, deep)


def kernels_from_terms(dec, size):
    """G[a, b] = sum_i x_i[a] conj(y_i[b]) and W[a, b] = sum_t G[a+t, b+t] for
    a, b < size, each diagonal of every term summed to the end of its vectors."""
    g, w = np.zeros((2, size, size), dtype=complex)
    for x, y in dec.terms:
        for a, b in np.ndindex(size, size):
            t = min(len(x) - a, len(y) - b)
            if t > 0:
                diagonal = x[a : a + t] * y[b : b + t].conj()
                g[a, b] += diagonal[0]
                w[a, b] += diagonal.sum()
    return g, w


def test_phi1_identity_on_vacuum_vectors(line5):
    I = diagonal(line5, np.ones(6))
    out = phi1_apply(line5, unit(0, 8), unit(0, 8), I)
    assert np.abs(out.to_dense() - np.eye(line5.dim)).max() < 1e-14


def test_phi1_word_eigenvalue(line5):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    xi = ((0, 0), (1, 0))
    eta = ((1, 0),)
    a = word_operator(line5, xi, eta)
    out = phi1_apply(line5, x, y, a)
    lam = eig_sum(x, y, len(xi), len(eta))
    diff = out.to_dense() - lam * a.to_dense()
    # safe columns: extensions of eta with image level within the cap
    for j, w in enumerate(line5.basis):
        if len(w) >= 1 and w[:1] == eta and len(w) - 1 + 2 <= line5.max_len:
            assert np.abs(diff[:, j]).max() < 1e-12


def test_phi1_zero_vectors(line5):
    a = word_operator(line5, ((0, 0),), ())
    out = phi1_apply(line5, np.zeros(6), np.ones(6), a)
    assert out.nnz == 0


def test_phi2_case_eigenvalues(pair4):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    case1 = (((0, 0),), ((1, 0),))
    case2 = (((0, 0),), ((0, 1),))
    for (xi, eta), shift in ((case1, 0), (case2, -1)):
        a = word_operator(pair4, xi, eta)
        out = phi2_apply(pair4, x, y, a)
        k, l = len(xi), len(eta)
        lam = eig_sum(x, y, k + shift, l + shift)
        diff = out.to_dense() - lam * a.to_dense()
        for j, w in enumerate(pair4.basis):
            if len(w) >= l and w[:l] == eta and len(w) - l + k <= pair4.max_len:
                assert np.abs(diff[:, j]).max() < 1e-12, (xi, eta)


def test_phi2_identity_with_shifted_unit(line5):
    out = phi2_apply(line5, unit(1, 8), unit(1, 8), diagonal(line5, np.ones(6)))
    assert np.abs(out.to_dense() - np.eye(line5.dim)).max() < 1e-14


def test_build_plan_ranks():
    plan = build_plan(Geometric(0.5))
    assert len(plan.decomposition_h.terms) == 1
    assert len(plan.decomposition_k.terms) == 1
    assert plan.c == 0

    plan = build_plan(Indicator(1))
    assert len(plan.decomposition_h.terms) == 2
    assert len(plan.decomposition_k.terms) == 1

    plan = build_plan(Finite((), 1.0))
    assert plan.decomposition_h.terms == []
    assert plan.decomposition_k.terms == []
    assert plan.c == 1.0


def test_apply_T_on_identity(line5):
    for sym in SYMBOLS:
        plan = build_plan(sym)
        out = apply_T(plan, line5, diagonal(line5, np.ones(6)))
        expected = evaluate(sym, 0) * np.eye(line5.dim)
        # identity is the pair (vacuum, vacuum): every column is safe
        assert np.abs(out.to_dense() - expected).max() < 1e-10, sym


def test_apply_T_case_values(pair4):
    sym = Geometric(0.5)
    plan = build_plan(sym)
    case1 = (((0, 0),), ((1, 0),))  # distinct factors: value at k+l
    case2 = (((0, 0),), ((0, 1),))  # same factor: value at k+l-1
    for (xi, eta), expected in ((case1, 0.25), (case2, 0.5)):
        a = word_operator(pair4, xi, eta)
        out = apply_T(plan, pair4, a)
        l = len(eta)
        for j, w in enumerate(pair4.basis):
            if len(w) >= l and w[:l] == eta and len(w) - l + 1 <= pair4.max_len:
                col = out.to_dense()[:, j] - expected * a.to_dense()[:, j]
                assert np.abs(col).max() < 1e-10


def test_verify_eigenaction_exact_rank(line5):
    plan = build_plan(Geometric(0.5))
    report = verify_eigenaction(plan, line5, max_word=2)
    assert report.worst_residual < 1e-10
    assert all(r.case in (1, 2) for r in report.records)


def test_eigenvalue_consistency_with_series(line5):
    sym = Geometric(-0.5)
    plan = build_plan(sym)
    report = verify_eigenaction(plan, line5, max_word=2)
    for rec in report.records:
        if rec.case == CASE_ONE:
            via_series = psi1(sym, rec.k + rec.l) + psi2(sym, rec.k + rec.l)
            assert abs(rec.expected - via_series) < 1e-10


def test_component_maps(line5):
    plan = build_plan(Geometric(0.5))
    report = verify_component_eigenaction(plan, line5, max_word=2)
    assert report.worst_residual < 1e-10


def test_component_values_by_hand(pair4):
    sym = Indicator(2)
    plan = build_plan(sym)
    xi, eta = ((0, 0),), ((0, 1),)  # same factor
    a = word_operator(pair4, xi, eta)
    t1 = apply_T1(plan, pair4, a).to_dense()
    t2 = apply_T2(plan, pair4, a).to_dense()
    lam1 = psi1(sym, 2)
    lam2 = psi2(sym, 0)
    for j, w in enumerate(pair4.basis):
        if len(w) >= 1 and w[:1] == eta and len(w) <= pair4.max_len:
            assert np.abs(t1[:, j] - lam1 * a.to_dense()[:, j]).max() < 1e-10
            assert np.abs(t2[:, j] - lam2 * a.to_dense()[:, j]).max() < 1e-10


def test_plan_vector_cap():
    # |s| = 1 - 1e-5 needs a Vandermonde horizon of 2**22 rows
    with pytest.raises(TooLarge):
        build_plan(Geometric(1 - 1e-5))
    with pytest.raises(TooLarge):
        build_plan(Indicator(100_000))


def test_plan_applies_past_its_vectors():
    # Indicator(2) stores 4 entries and Geometric(0.3) 32; the space reaches 40
    space = build_space(FockSpec((1, 1), 40))
    for sym in (Indicator(2), Geometric(0.3)):
        plan = build_plan(sym)
        assert len(plan.decomposition_h.terms[0][0]) <= space.max_len
        report = verify_eigenaction(plan, space, max_word=2)
        assert report.worst_residual <= 1e-12, sym


def test_negative_max_word_rejected(line5):
    plan = build_plan(Geometric(0.5))
    with pytest.raises(ValueError, match="max_word"):
        verify_eigenaction(plan, line5, -1)
    with pytest.raises(ValueError, match="max_word"):
        verify_component_eigenaction(plan, line5, -1)
    with pytest.raises(ValueError, match="max_word"):
        verify_ucp_relations(line5, line5.max_len + 1, 1, -1)
    # a negative pair-sum cap leaves no pair, which is no pass; the tensor
    # arguments are checked before any pair is
    with pytest.raises(ValueError, match="max_pair_sum"):
        verify_eigenaction(plan, line5, 2, max_pair_sum=-1)
    with pytest.raises(ValueError, match="max_pair_sum"):
        verify_component_eigenaction(plan, line5, 2, max_pair_sum=-1)
    with pytest.raises(ValueError, match="max_pair_sum"):
        verify_ucp_relations(line5, line5.max_len + 1, 1, 2, max_pair_sum=-1)
    with pytest.raises(ValueError, match="variant"):
        verify_ucp_relations(line5, line5.max_len + 1, 5, 0, max_pair_sum=-1)
    with pytest.raises(DimensionMismatch, match="tensor_dim"):
        verify_ucp_relations(line5, line5.max_len, 1, 0, max_pair_sum=-1)


def test_pair_check_memory_does_not_grow_with_the_chain():
    # The eigen check on (1,1)/400 at max word 2 peaked at 26.3 MiB when it
    # built T(A) as one rho chain per block, whose entries grow as max_len^2.
    # The pass keeps one depth of A at a time; its peak is under 0.1 MiB, as
    # only the words up to max_word get tuple labels.
    space, plan = build_space(FockSpec((1, 1), 400)), build_plan(Geometric(0.5))
    tracemalloc.start()
    try:
        report = verify_eigenaction(plan, space, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.records) == 25 and report.worst_residual <= 1e-15
    assert peak < 4 * 2**20, peak


def test_tensor_check_memory_holds_one_layer():
    # The tensor check on (1,1)/400, variant 2, at max word 2 peaked at 47.4
    # MiB when it built each block's whole d-fold image and took image-sized
    # temporaries of it.  It reads the image one layer at a time, so what
    # remains is each block's (entries x d) slot count.
    space = build_space(FockSpec((1, 1), 400))
    space.words_of_length(2)  # the labels and the append table are the space's, built once
    _letter_maps(space)
    tracemalloc.start()
    try:
        report = verify_ucp_relations(space, space.max_len + 1, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.records) == 25 and report.worst_residual == 0.0
    assert peak < 20 * 2**20, peak


def test_kraus_row_identity(pair4):
    rng = np.random.default_rng(42)
    for variant in (1, 2):
        for _ in range(5):
            x = rng.standard_normal(pair4.max_len + 1) + 1j * rng.standard_normal(
                pair4.max_len + 1
            )
            row = kraus_row_sum(pair4, x, variant).to_dense()
            target = (np.linalg.norm(x) ** 2) * np.eye(pair4.dim)
            assert np.abs(row - target).max() < 1e-12


def test_cs_bound_examples(pair4):
    e0 = unit(0, pair4.max_len + 1)
    row, col, bound = cs_bound(pair4, e0, e0, 1)
    assert abs(row - 1.0) < 1e-12 and abs(col - 1.0) < 1e-12 and abs(bound - 1.0) < 1e-12
    rng = np.random.default_rng(5)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    row, col, bound = cs_bound(pair4, x, y, 2)
    assert bound <= (np.linalg.norm(x) ** 2) * (np.linalg.norm(y) ** 2) + 1e-10
    zrow, zcol, zbound = cs_bound(pair4, np.zeros(5), y, 1)
    assert zrow == 0.0 and zbound == 0.0


def test_plan_cb_bound_matches_norm():
    for sym, expected in ((Geometric(0.5), 1.0), (Geometric(-0.5), 3.0)):
        plan = build_plan(sym)
        assert abs(plan_cb_bound(plan) - expected) < 1e-8
    assert plan_cb_bound(build_plan(Finite((), 2.0))) == 2.0


def test_eigenvalues_below_cb_bound(line5):
    for sym in SYMBOLS:
        plan = build_plan(sym)
        bound = plan_cb_bound(plan)
        report = verify_eigenaction(plan, line5, max_word=2)
        measured = max(abs(r.expected) for r in report.records)
        assert measured <= bound + 1e-10


def test_spectral_norm_rejects_off_diagonal_operator(pair4):
    hermitian = FockOperator(pair4, ([0, 1], [1, 0], [1.0, 1.0]))
    with pytest.raises(ValueError, match="diagonal"):
        spectral_norm(hermitian)


def test_spectral_norm_of_a_601_dim_diagonal():
    space = build_space(FockSpec((1, 1), 300))
    assert space.dim > 512
    big = diagonal(space, np.linspace(-3.0, 2.0, 301))
    assert abs(spectral_norm(big) - 3.0) < 1e-9


def test_ucp_identity_and_examples(line5):
    d = line5.max_len + 1
    row, col, data = ucp_pi_apply(line5, d, 1, diagonal(line5, np.ones(6)))
    assert len(np.unique(row * line5.dim * d + col)) == len(data)  # distinct positions
    pi1 = dense_from(line5.dim * d, (row, col, data))
    assert np.abs(pi1 - np.eye(line5.dim * d)).max() < 1e-14

    gamma = ((0, 0),)
    a = word_operator(line5, gamma, ())
    out = dense_from(line5.dim * d, ucp_pi_apply(line5, d, 1, a))
    expected = np.kron(a.to_dense(), np.eye(d, k=-1))  # the shift e_i -> e_{i+1} on C^d
    assert np.abs(out - expected).max() < 1e-14


def test_ucp_case2_drops_one_shift(pair4):
    d = pair4.max_len + 2
    xi, eta = ((0, 0),), ((0, 1),)
    a = word_operator(pair4, xi, eta)
    out = dense_from(pair4.dim * d, ucp_pi_apply(pair4, d, 2, a))
    expected = np.kron(a.to_dense(), np.eye(d))
    # compare on safe columns (every tensor slot)
    diff = out - expected
    for j, w in enumerate(pair4.basis):
        if len(w) >= 1 and w[:1] == eta and len(w) <= pair4.max_len:
            block = diff[:, j * d : (j + 1) * d]
            assert np.abs(block).max() < 1e-14


def test_ucp_relations_and_dimension_guard(line5):
    for variant in (1, 2):
        report = verify_ucp_relations(line5, line5.max_len + 1, variant, max_word=3)
        assert report.worst_residual < 1e-12
    with pytest.raises(DimensionMismatch):
        ucp_pi_apply(line5, line5.max_len, 1, diagonal(line5, np.ones(6)))


@pytest.mark.parametrize(
    "fault", ["shifted slot", "wrapped slot", "wrong row", "dropped", "duplicated", "off A"]
)
def test_tensor_check_counts_every_fault(pair4, monkeypatch, fault):
    # Each fault touches the image of the vacuum column at col slot 0, the
    # corner of (xi, ()) in a block with eta empty, in layer 0; a block with
    # l >= 1 has no vacuum column, and the off-A fault writes there instead,
    # once per block, which counts toward the block's last pair.
    layers = multiplier._tensor_layers

    def faulty(space, d, variant, row, col, data):
        if fault == "off A" and not (col == 0).any():
            yield tuple(np.array([v]) for v in (0, 0, 1.0, 0, 0))
        for layer in layers(space, d, variant, row, col, data):
            at = np.flatnonzero((layer[1] == 0) & (layer[4] == 0))  # one triplet, or none
            if fault == "dropped":
                layer = tuple(np.delete(t, at) for t in layer)
            elif fault == "duplicated":
                layer = tuple(np.append(t, t[at]) for t in layer)
            elif fault != "off A":
                row_, col_, data_, slot, col_slot = (t.copy() for t in layer)
                if fault == "shifted slot":
                    col_slot[at] += 1  # col slot 1, off the slot diagonal
                elif fault == "wrapped slot":
                    slot[at] -= d  # on the diagonal, but below slot 0 by d
                    col_slot[at] -= d
                else:
                    row_[at] += 1  # the same slot of the next word's row
                layer = row_, col_, data_, slot, col_slot
            yield layer

    monkeypatch.setattr(multiplier, "_tensor_layers", faulty)
    last = {l: pair4.words_of_length(l)[-1] for l in range(3)}
    for variant in (1, 2):
        report = verify_ucp_relations(pair4, pair4.max_len + 1, variant, max_word=2)
        for r in report.records:
            if fault == "off A":
                hit = len(r.eta) > 0 and r.eta == last[len(r.eta)]
            else:
                hit = r.eta == ()
            assert (r.residual >= 1) if hit else (r.residual == 0), (fault, variant, r)


def test_maps_reject_operators_of_another_space(line5):
    # an operator of a smaller space has indices that fit line5, so only the
    # spec comparison tells them apart
    op = diagonal(build_space(FockSpec((1, 1), 2)), np.ones(3))
    with pytest.raises(DimensionMismatch, match="different space"):
        apply_T(build_plan(Geometric(0.5)), line5, op)
    with pytest.raises(DimensionMismatch, match="different space"):
        ucp_pi_apply(line5, line5.max_len + 1, 1, op)


def test_kraus_row_sum_rejects_unknown_variant(line5):
    with pytest.raises(ValueError, match="variant must be 1 or 2"):
        kraus_row_sum(line5, np.ones(6), 3)


def test_ucp_positivity_spot_check(pair4):
    d = pair4.max_len + 1
    rng = np.random.default_rng(9)
    a = rng.standard_normal((pair4.dim, pair4.dim)) + 1j * rng.standard_normal(
        (pair4.dim, pair4.dim)
    )
    rows, cols = np.indices(a.shape).reshape(2, -1)
    op = FockOperator(pair4, (rows, cols, a.ravel()))
    gram = op.H @ op
    for variant in (1, 2):
        out = dense_from(pair4.dim * d, ucp_pi_apply(pair4, d, variant, gram))
        for _ in range(5):
            v = rng.standard_normal(pair4.dim * d) + 1j * rng.standard_normal(
                pair4.dim * d
            )
            val = np.vdot(v, out @ v).real
            assert val >= -1e-10


def test_eigen_report_serialization(line5):
    plan = build_plan(Geometric(0.5))
    report = verify_eigenaction(plan, line5, max_word=1)
    obj = to_obj(report)
    assert obj["worst_residual"] == report.worst_residual and obj["pairs"]
    assert obj["rounding_bound"] == report.rounding_bound
    assert obj["pairs"] == [
        {
            "xi": word_label(r.xi),
            "eta": word_label(r.eta),
            "case": r.case,
            "k": r.k,
            "l": r.l,
            "expected": [r.expected.real, r.expected.imag],
            "residual": r.residual,
        }
        for r in report.records
    ]


# --- property: T read off the symbol equals the plan's literal per-term sums -

disk = st.builds(
    lambda r, t: r * np.exp(1j * t),
    st.floats(0.0, 0.9),
    st.floats(0.0, 2 * np.pi),
)
small_complex = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
tail_free = st.one_of(st.builds(Geometric, disk), st.builds(Indicator, st.integers(0, 6)))
symbols = st.one_of(
    tail_free,
    st.builds(TruncatedGeometric, st.floats(0.0, 0.95, exclude_min=True), st.integers(0, 6)),
    st.builds(Doubled, tail_free),
    st.builds(Finite, st.lists(small_complex, max_size=5).map(tuple), small_complex),
    st.builds(
        FromMeasure,
        small_complex,
        st.lists(st.tuples(disk.map(lambda s: 0.9 * s), small_complex), min_size=1, max_size=3)
        .map(tuple)
        .map(DiscreteMeasure),
    ),
)


@st.composite
def kernel_cases(draw):
    factors = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    max_len = draw(st.integers(1, 4 if len(factors) < 3 else 3))
    space = build_space(FockSpec(factors, max_len))
    sym = draw(symbols)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plan = build_plan(sym)
    nnz = draw(st.integers(1, 12))
    data = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
    rows, cols = rng.integers(0, space.dim, nnz), rng.integers(0, space.dim, nnz)
    op = FockOperator(space, (rows, cols, data))
    return space, plan, op


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_kernel_path_matches_literal_sums(case):
    space, plan, op = case
    a = op.to_dense()
    zero = np.zeros_like(a)
    t1 = sum((phi1_apply(space, x, y, op).to_dense() for x, y in plan.decomposition_h.terms), zero)
    t2 = sum((phi2_apply(space, z, w, op).to_dense() for z, w in plan.decomposition_k.terms), zero)
    literal = {apply_T: plan.c * a + t1 + t2, apply_T1: t1, apply_T2: t2}
    for fn, expected in literal.items():
        scale = max(np.abs(expected).max(), np.abs(a).max())
        err = np.abs(fn(plan, space, op).to_dense() - expected).max()
        assert err <= 1e-12 * scale, (fn.__name__, err, scale)


# --- property: every checked map keeps L_xi L_eta^* on its own positions ---


@st.composite
def pair_cases(draw):
    factors = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    space = build_space(FockSpec(factors, draw(st.integers(1, 4 if len(factors) < 3 else 3))))
    max_word = draw(st.integers(0, space.max_len))
    max_pair_sum = draw(st.none() | st.integers(0, 2 * max_word))
    return space, draw(symbols), max_word, max_pair_sum, draw(st.integers(0, 2))


def keys(space, row, col):
    """Sorted int64 keys of the positions (row, col)."""
    return np.sort(np.asarray(row, dtype=np.int64) * space.dim + col)


@settings(max_examples=40, deadline=None)
@given(pair_cases())
@example((build_space(FockSpec((3,), 4)), Geometric(-0.6 + 0.3j), 4, 3, 2))
@example((build_space(FockSpec((1,), 4)), Indicator(2), 4, None, 0))
def test_checked_maps_keep_word_pair_positions(case):
    # The scaling checks read T(A) only at A's entries and give each entry's
    # value to the corner (xi, eta) it was appended from; the tensor check
    # gives each entry of its difference to the eta that starts its column.
    # Both are each pair's own residual because T, T1, T2 and the tensor
    # extension (slots aside) map L_xi L_eta^* onto its own positions
    # (xi w, eta w), so truncation cuts it and its image alike, and because
    # an entry's value in T(A) comes only from the entry and its ancestors
    # under rho, which the pass sums.  Two checks give that for every pair:
    # (a) on each block A = sum_eta L_xi L_eta^*, eta of one length l, each
    #     map's image lies on A's positions;
    # (b) rho sends an entry (r, c) only to (r g, c g) for one letter g, and
    #     eps keeps a subset of its input entries.
    # The maps only weight entries, relabel tensor slots and chain rho and
    # eps, so by (b) the image of L_xi L_eta^* keeps the row prefix xi and the
    # column prefix eta.  The columns of A that start with eta are those of
    # L_xi L_eta^* (the etas of one length are distinct prefixes), so with (a)
    # the image lies on the positions of L_xi L_eta^*.
    space, sym, max_word, max_pair_sum, extra_slots = case
    plan = build_plan(sym)
    kernels = [
        _kernels(form(sym), space, plan.c, h=True, k=True),
        _kernels(form(sym), space, h=True),
        _kernels(form(sym), space, k=True),
    ]
    d = space.max_len + 1 + extra_slots
    bounds, top = [*space.level_offsets, space.dim], min(max_word, space.max_len)
    for k, l in product(range(top + 1), repeat=2):
        etas = np.arange(bounds[l], bounds[l + 1])
        if (max_pair_sum is not None and k + l > max_pair_sum) or not len(etas):
            continue
        for i in range(bounds[k], bounds[k + 1]):
            corners = np.full(len(etas), i), etas, np.ones(len(etas), dtype=complex)
            a = _concat(list(_chain(space, *corners)))
            positions = keys(space, *a[:2])
            # (a)
            for kern in kernels:
                row, col, _ = _concat(_apply(space, kern, *a))
                assert np.isin(keys(space, row, col), positions).all(), (i, l)
            for variant in (1, 2):
                row, col, _ = ucp_pi_apply(space, d, variant, FockOperator(space, a))
                assert np.isin(keys(space, row // d, col // d), positions).all(), (i, l, variant)
            # (b), each image traced to its source by the source's index as data
            source = np.arange(len(a[0]))
            row, col, at = _rho_triplets(space, a[0], a[1], source)
            assert np.array_equal(space.parent[row], a[0][at])
            assert np.array_equal(space.parent[col], a[1][at])
            assert np.array_equal(space.letter[row], space.letter[col])
            row, col, at = _eps_triplets(space, a[0], a[1], source)
            assert np.array_equal(row, a[0][at]) and np.array_equal(col, a[1][at])


# --- the per-pair driver, the oracle for the block driver -------------------


def literal_pairs(space, max_word, max_pair_sum):
    """(k, l, xi, eta, case, triplets of L_xi L_eta^*) per pair in report
    order, the operator a 1 at (xi w, eta w) for every w such that both are
    words, looked up by tuple."""
    top = min(max_word, space.max_len)
    targets = {}  # word -> index of word + w for every w, -1 off the space
    for n in range(top + 1):
        for word in space.words_of_length(n):
            targets[word] = np.array([space.index.get(word + w, -1) for w in space.basis])
    for k, l in product(range(top + 1), repeat=2):
        if max_pair_sum is None or k + l <= max_pair_sum:
            for xi, eta in product(space.words_of_length(k), space.words_of_length(l)):
                ok = (targets[xi] >= 0) & (targets[eta] >= 0)
                a = targets[xi][ok], targets[eta][ok], np.ones(int(ok.sum()), dtype=complex)
                yield k, l, xi, eta, classify_case(xi, eta), a


def per_pair_rows(space, max_word, max_pair_sum, checks):
    """Rows (k, l, xi, eta, case, [(expected, residual)]), one check(k, l,
    case, A) -> (expected, difference triplets) per pair and check, each
    residual the largest entry of that pair's summed difference."""
    rows = []
    for k, l, xi, eta, case, a in literal_pairs(space, max_word, max_pair_sum):
        results = []
        for check in checks:
            expected, (row, col, data) = check(k, l, case, a)
            summed = _summed(row, col, data, int(col.max(initial=0)) + 1)[2]
            results.append((expected, float(np.abs(summed).max(initial=0.0))))
        rows.append((k, l, xi, eta, case, results))
    return rows


def per_pair_reports(space, plan, max_word, max_pair_sum, tensor_dim):
    """The reports of verify_eigenaction, verify_component_eigenaction and
    verify_ucp_relations (variants 1 and 2), one pair at a time."""
    sym, d = plan.symbol, tensor_dim

    def scaling(kernels, expected):
        def check(k, l, case, a):
            lam = expected(k, l, case)
            row, col, data = a
            return lam, _concat(_apply(space, kernels, row, col, data) + [(row, col, -lam * data)])

        return check

    def tensor(variant):
        def check(k, l, case, a):
            drop = int(variant == 2 and case == CASE_TWO)
            k, l = k - drop, l - drop
            j = np.arange(max(d - max(k, l), 0))
            row, col, data = (np.repeat(t, len(j)) for t in a)
            slots = np.tile(j + k, len(a[0])), np.tile(j + l, len(a[0]))
            target = row * d + slots[0], col * d + slots[1], -data
            return None, _concat([ucp_pi_apply(space, d, variant, FockOperator(space, a)), target])

        return check

    checks = [
        scaling(
            _kernels(form(sym), space, plan.c, h=True, k=True),
            lambda k, l, case: evaluate(sym, k + l - (case == CASE_TWO)),
        ),
        scaling(_kernels(form(sym), space, h=True), lambda k, l, case: psi1(sym, k + l)),
        scaling(
            _kernels(form(sym), space, k=True),
            lambda k, l, case: psi2(sym, k + l - 2 * (case == CASE_TWO)),
        ),
        tensor(1),
        tensor(2),
    ]
    rows = per_pair_rows(space, max_word, max_pair_sum, checks)

    def worst(*at):
        return max((row[5][i][1] for row in rows for i in at), default=0.0)

    eigen = [EigenRecord(xi, eta, c, k, l, *r[0]) for k, l, xi, eta, c, r in rows]
    parts = [ComponentRecord(xi, eta, c, k, l, *r[1], *r[2]) for k, l, xi, eta, c, r in rows]
    tensors = [
        TensorReport(v, [TensorRecord(*row[2:5], row[5][2 + v][1]) for row in rows], worst(2 + v))
        for v in (1, 2)
    ]
    rounding = multiplier._scaling_rounding(form(sym), space)
    return [EigenReport(eigen, worst(0), rounding), ComponentReport(parts, worst(1, 2)), *tensors]


@st.composite
def oracle_cases(draw):
    """pair_cases on smaller spaces, as the oracle pays a chain per pair."""
    factors = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    space = build_space(FockSpec(factors, draw(st.integers(1, 4 if len(factors) < 3 else 3))))
    max_word = draw(st.integers(0, min(space.max_len, 2)))
    max_pair_sum = draw(st.none() | st.integers(0, 2 * max_word))
    return space, draw(symbols), max_word, max_pair_sum, draw(st.integers(0, 2))


def scaling_gap_bound(sym, max_len):
    """How far apart two sums of one scaling residual's terms in different
    orders can round: u (2 max_len + 3) 3 M each, with u = 2^-53.

    An entry at depth t of its chain tree gets at most 2t + 3 terms (its
    kernel w, each ancestor's d terms, its own eps term and -lambda), so at
    most 2t + 3 roundings in either order, and t <= max_len.  A complex
    addition rounds by at most u times its result.  Either order's partial
    sums telescope to a phi or psi1 value, a difference of two, or a value
    plus one d = phi(n) - phi(n+1), so none passes 3 M, where M bounds 1
    and |phi| and |psi1| at every level sum the kernels read."""
    n = range(2 * max_len + 3)
    scale = max(1.0, *(abs(evaluate(sym, m)) for m in n), *(abs(psi1(sym, m)) for m in n))
    return 2 * (2 * max_len + 3) * 3 * scale * 2.0**-53


@settings(max_examples=30, deadline=None)
@given(oracle_cases())
@example((build_space(FockSpec((2, 2, 2), 3)), Geometric(-0.6 + 0.3j), 2, None, 0))
@example((build_space(FockSpec((3,), 4)), Indicator(1), 4, 3, 2))
@example((build_space(FockSpec((2, 1), 4)), TruncatedGeometric(0.7, 4), 3, 4, 1))
def test_block_driver_matches_per_pair_oracle(case):
    # The records of all three verifiers against the oracle's: order, words,
    # case, expected values and the types of every field (repr shows
    # np.float64 and exact digits) exactly, and the tensor residuals bit for
    # bit.  The scaling residuals sum the same terms in another order (the
    # pass adds an entry's ancestors' terms from the corner down, the oracle
    # from the entry up), so they agree up to scaling_gap_bound.
    space, sym, max_word, max_pair_sum, extra_slots = case
    plan = build_plan(sym)
    d = space.max_len + 1 + extra_slots
    bound = scaling_gap_bound(sym, space.max_len)
    reports = [
        verify_eigenaction(plan, space, max_word, max_pair_sum),
        verify_component_eigenaction(plan, space, max_word, max_pair_sum),
        *(verify_ucp_relations(space, d, v, max_word, max_pair_sum) for v in (1, 2)),
    ]
    # every scaling residual, in either order, is rounding within the a-priori bound
    oracle = per_pair_reports(space, plan, max_word, max_pair_sum, d)
    assert max(reports[0].worst_residual, oracle[0].worst_residual) <= reports[0].rounding_bound
    for got, want in zip(reports, oracle):
        assert len(got.records) == len(want.records)
        scaling = not isinstance(got, TensorReport)
        tops = replace(got, records=[]), replace(want, records=[])
        for g, w in [tops, *zip(got.records, want.records)]:
            moved = [f.name for f in fields(g) if scaling and "residual" in f.name]
            assert repr(replace(g, **dict.fromkeys(moved, 0.0))) == repr(
                replace(w, **dict.fromkeys(moved, 0.0))
            )
            for name in moved:
                a, b = getattr(g, name), getattr(w, name)
                assert type(a) is type(b) and abs(a - b) <= bound, (g, w, bound)


# --- the Kraus row sum against the product of its Kraus operators -----------


def kraus_row_sum_from_products(space, vec, variant):
    """sum u u^* over the row Kraus family, each u built as an operator product."""
    vec = np.asarray(vec, dtype=complex)

    def shifted(shift):
        values = [vec[m + shift] if 0 <= m + shift < len(vec) else 0 for m in space.levels]
        return FockOperator(space, (np.arange(space.dim), np.arange(space.dim), values))

    kraus = [shifted(n) for n in range(len(vec))]
    for n in range(1, space.max_len + 1):
        if variant == 1:
            kraus += [shifted(-n) @ right_word(space, z) for z in space.words_of_length(n)]
        else:
            kraus += [
                shifted(-n) @ right_word(space, z) @ factor_end_projection(space, f)
                for z in space.words_of_length(n - 1)
                for f in range(len(space.spec.factor_dims))
            ]
    total = diagonal(space, np.zeros(space.max_len + 1))
    for u in kraus:
        total = total + u @ u.H
    return total


@st.composite
def kraus_cases(draw):
    factors = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    space = build_space(FockSpec(factors, draw(st.integers(1, 3))))
    length = draw(st.integers(1, space.max_len + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vec = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return space, vec * draw(st.sampled_from([0.0, 1.0])), draw(st.sampled_from([1, 2]))


# a vector far longer than the space, whose tail past max_len still counts
LONG_VEC = np.random.default_rng(5).standard_normal(200) * (1 - 0.5j)


@settings(max_examples=60, deadline=None)
@given(kraus_cases())
@example((build_space(FockSpec((2, 1), 3)), LONG_VEC, 1))
@example((build_space(FockSpec((2, 1), 3)), LONG_VEC, 2))
def test_kraus_row_sum_matches_operator_products(case):
    space, vec, variant = case
    expected = kraus_row_sum_from_products(space, vec, variant).to_dense()
    got = kraus_row_sum(space, vec, variant).to_dense()
    sq = np.linalg.norm(vec) ** 2
    scale = max(1.0, sq)
    assert np.abs(got - expected).max() <= 1e-12 * scale
    err = np.abs(np.subtract(cs_bound(space, vec, vec, variant), (sq, sq, sq**2)))
    assert (err <= 1e-12 * np.array([scale, scale, scale**2])).all(), err


# --- full plans: the level kernels are the symbol's Hankel data -------------


@pytest.mark.parametrize(
    "sym",
    [
        Geometric(0.5),
        Geometric(-0.6 + 0.3j),
        Indicator(3),
        TruncatedGeometric(0.8, 4),
        Finite((1.0, 0.5, -0.2), 0.3),
        FromMeasure(0.1, DiscreteMeasure(((0.5, 1.0), (-0.3 + 0.2j, 0.5j)))),
        ParityTail((1.0, 0.2, 0.4), 0.3, 0.3),
        Doubled(Geometric(0.5)),
        Doubled(Indicator(3)),
    ],
    ids=repr,
)
def test_level_kernels_are_the_symbol(sym):
    """G = the h or k truncation and W[a, b] = psi1 or psi2 at a + b: the
    telescoping of T's eigenvalues as a scalar identity."""
    plan, max_len = build_plan(sym), 5
    size = max_len + 1
    for dec, hankel, psi in (
        (plan.decomposition_h, hankel_h, psi1),
        (plan.decomposition_k, hankel_k, psi2),
    ):
        g, w = kernels_from_terms(dec, size)
        expected_g = hankel(sym, size)
        expected_w = np.array([[psi(sym, a + b) for b in range(size)] for a in range(size)])
        scale = max(1.0, np.abs(expected_g).max(), np.abs(expected_w).max())
        assert np.abs(g - expected_g).max() <= 1e-12 * scale
        assert np.abs(w - expected_w).max() <= 1e-12 * scale


@pytest.mark.parametrize(
    "sym",
    [
        Geometric(0.5),
        Geometric(0.999),
        Geometric(-0.6 + 0.3j),
        Indicator(3),
        TruncatedGeometric(0.8, 4),
        TruncatedGeometric(0.999, 300),
        Finite((1.0, 0.5, -0.2), 0.3),
        FromMeasure(0.1, DiscreteMeasure(((0.5, 1.0), (-0.3 + 0.2j, 0.5j)))),
        Doubled(Geometric(0.5)),
        Doubled(Indicator(3)),
    ],
    ids=repr,
)
def test_kernel_psi_matches_psi1(sym):
    """The kernels' one-pass psi sequence against psi1/psi2 at every level sum."""
    space = build_space(FockSpec((1, 1), 8))
    for part, psi in (({"h": True}, psi1), ({"k": True}, psi2)):
        w, _, _ = _kernels(form(sym), space, **part)
        expected = np.array([psi(sym, n) for n in range(2 * space.max_len + 1)])
        assert len(w) == len(expected)
        assert np.abs(w - expected).max() <= 1e-14 * max(1.0, np.abs(expected).max())

