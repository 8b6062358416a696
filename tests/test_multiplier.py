import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radial_mult import (
    CASE_ONE,
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
    c_norm,
    classify_case,
    cs_bound,
    diagonal,
    evaluate,
    factor_end_projection,
    FockSpec,
    FockOperator,
    hankel_h,
    hankel_k,
    identity,
    kraus_row_sum,
    phi1_apply,
    phi2_apply,
    plan_cb_bound,
    psi1,
    psi2,
    right_word,
    spectral_norm,
    tensor_shift,
    ucp_pi_apply,
    verify_component_eigenaction,
    verify_eigenaction,
    verify_ucp_relations,
    word_operator,
)
from radial_mult.fock import zero

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


def test_phi1_identity_on_vacuum_vectors(line5):
    I = identity(line5)
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
    out = phi2_apply(line5, unit(1, 8), unit(1, 8), identity(line5))
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
        out = apply_T(plan, line5, identity(line5))
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
    row, col, data = ucp_pi_apply(line5, d, 1, identity(line5))
    assert len(np.unique(row * line5.dim * d + col)) == len(data)  # distinct positions
    pi1 = dense_from(line5.dim * d, (row, col, data))
    assert np.abs(pi1 - np.eye(line5.dim * d)).max() < 1e-14

    gamma = ((0, 0),)
    a = word_operator(line5, gamma, ())
    out = dense_from(line5.dim * d, ucp_pi_apply(line5, d, 1, a))
    expected = np.kron(a.to_dense(), tensor_shift(d))
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
        ucp_pi_apply(line5, line5.max_len, 1, identity(line5))


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
    obj = report.to_obj()
    assert "worst_residual" in obj and obj["pairs"]
    csv_text = report.to_csv()
    assert csv_text.startswith("xi,eta,case,k,l,expected_re,expected_im,residual")
    assert len(csv_text.strip().split("\n")) == 1 + len(report.records)


# --- property: T read off the symbol equals the plan's literal per-term sums -

disk = st.builds(
    lambda r, t: r * np.exp(1j * t),
    st.floats(0.0, 0.9),
    st.floats(0.0, 2 * np.pi),
)
small_complex = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
symbols = st.one_of(
    st.builds(Geometric, disk),
    st.builds(Indicator, st.integers(0, 6)),
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
    total = zero(space)
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


@settings(max_examples=60, deadline=None)
@given(kraus_cases())
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
