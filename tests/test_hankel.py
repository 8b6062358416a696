import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radial_mult.hankel as hankel_mod
from radial_mult import (
    DiscreteMeasure,
    Doubled,
    Finite,
    FromMeasure,
    Geometric,
    Indicator,
    ParityTail,
    TooLarge,
    TruncatedGeometric,
    UnsupportedTail,
    build_plan,
    c_norm,
    cprime_norm,
    double,
    evaluate,
    hankel_h,
    hankel_hhat,
    hankel_k,
    psi1,
    psi2,
    rank_one_decompose,
    singular_values,
    tail_constant,
    to_obj,
)
from radial_mult.symbols import form, measure_atoms, parity_tails

SQRT5 = math.sqrt(5.0)


def trace_norm(a):
    # dense oracle: the sum of the singular values
    return float(np.linalg.svd(a, compute_uv=False).sum())


def brute_hankel(phi, m, offset, step):
    # independent oracle: direct nested-loop construction
    return np.array(
        [[phi(i + j + offset) - phi(i + j + offset + step) for j in range(m)] for i in range(m)]
    )


def test_hankel_h_examples():
    assert np.array_equal(hankel_h(Indicator(0), 2), np.array([[1, 0], [0, 0]]))
    assert np.array_equal(hankel_h(Indicator(1), 2), np.array([[-1, 1], [1, 0]]))
    s = 0.3 + 0.4j
    h = hankel_h(Geometric(s), 6)
    expected = np.array([[(1 - s) * s ** (i + j) for j in range(6)] for i in range(6)])
    assert np.abs(h - expected).max() < 1e-15


def test_hankel_k_examples():
    s = 0.5
    assert np.abs(hankel_k(Geometric(s), 8) - s * hankel_h(Geometric(s), 8)).max() < 1e-15
    assert np.array_equal(hankel_k(Indicator(1), 2), np.array([[1, 0], [0, 0]]))
    assert not hankel_k(Indicator(0), 5).any()


def test_hankel_matches_brute_force():
    sym = FromMeasure(0.25, DiscreteMeasure(((0.5, 1.0), (-0.4 + 0.1j, 0.5j))))
    phi = lambda n: evaluate(sym, n)
    assert np.abs(hankel_h(sym, 7) - brute_hankel(phi, 7, 0, 1)).max() < 1e-15
    assert np.abs(hankel_k(sym, 7) - brute_hankel(phi, 7, 1, 1)).max() < 1e-15
    assert np.abs(hankel_hhat(sym, 7) - brute_hankel(phi, 7, 0, 2)).max() < 1e-15


def test_trace_norm_examples():
    assert abs(singular_values(np.array([[1.0, 0.0], [0.0, 0.0]])).sum() - 1.0) < 1e-14
    assert abs(singular_values(np.array([[-1.0, 1.0], [1.0, 0.0]])).sum() - SQRT5) < 1e-14
    rng = np.random.default_rng(3)
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert abs(
        singular_values(np.outer(u, v.conj())).sum() - np.linalg.norm(u) * np.linalg.norm(v)
    ) < 1e-12


def test_c_norm_geometric_closed_form():
    report = c_norm(Geometric(0.5))
    assert abs(report.trace_norm_h - 2.0 / 3.0) < 1e-10
    assert abs(report.trace_norm_k - 1.0 / 3.0) < 1e-10
    assert abs(report.total - 1.0) < 1e-10
    assert report.converged
    assert abs(c_norm(Geometric(-0.5)).total - 3.0) < 1e-10


def test_c_norm_indicator_exact():
    assert abs(c_norm(Indicator(0)).total - 1.0) < 1e-12
    assert abs(c_norm(Indicator(1)).total - (1.0 + SQRT5)) < 1e-12


def test_merged_atoms_take_the_route_of_what_is_left():
    # Atoms at one location merge and zero weights drop.  This phi is 0, so
    # the support route at height 1 reads 0 (64 Vandermonde rows read 3.8e-16).
    zero = FromMeasure(0.0, DiscreteMeasure(((0.5, 1.0), (0.5, -1.0))))
    rep = c_norm(zero)
    assert (rep.route, rep.truncation, rep.total, rep.error_bound) == ("support", 1, 0.0, 0.0)
    twice = FromMeasure(0.0, DiscreteMeasure(((0.5, 1.0), (0.5, 1.0))))
    assert measure_atoms(twice) == ((0.5, 2.0),)
    assert c_norm(twice).total == c_norm(FromMeasure(0.0, DiscreteMeasure(((0.5, 2.0),)))).total
    # +-sqrt(0) are one atom: Doubled(Geometric(0)) is the delta at 0, as Geometric(0) is
    doubled = Doubled(Geometric(0))
    assert measure_atoms(doubled) == ((0j, 1 + 0j),)
    assert hankel_mod._route(form(doubled))[:2] == ("vandermonde", 1)
    assert c_norm(doubled).total == c_norm(Geometric(0)).total == 1.0
    assert cprime_norm(doubled).total == 1.0


def test_c_norm_report_invariants():
    for sym in (Geometric(0.5), Indicator(2), Finite((1.0, -2.0), 0.5)):
        rep = c_norm(sym)
        assert abs(rep.total - (rep.trace_norm_h + rep.trace_norm_k + rep.tail_abs)) < 1e-13
        for sv in (rep.singular_values_h, rep.singular_values_k):
            assert (sv >= 0).all()
            assert (np.diff(sv) <= 1e-12).all()
        assert abs(rep.singular_values_h.sum() - rep.trace_norm_h) < 1e-12


def brute_norm(phi, size):
    # h and k of the symbol by brute force, summed trace norms by dense SVD
    return sum(
        np.linalg.svd(brute_hankel(phi, size, offset, 1), compute_uv=False).sum()
        for offset in (0, 1)
    )


def test_c_norm_divergence():
    # Growing data with a finite support is trace class: the norm is exact.
    growing = Finite(tuple(float(2**k) for k in range(60)), 0.0)
    rep = c_norm(growing)
    oracle = brute_norm(lambda n: evaluate(growing, n), 62)
    assert rep.route == "support" and rep.error_bound == 0.0
    assert abs(rep.total - oracle) <= 1e-12 * oracle
    # Unequal even/odd tails are genuinely outside the class.
    with pytest.raises(UnsupportedTail):
        c_norm(ParityTail((), 1.0, 0.0))


@pytest.mark.parametrize("n0", [127, 128, 129, 300])
def test_c_norm_late_indicator(n0):
    rep = c_norm(Indicator(n0))
    oracle = brute_norm(lambda n: 1.0 if n == n0 else 0.0, n0 + 10)
    assert rep.converged and rep.truncation == n0 + 1
    assert abs(rep.total - oracle) <= 1e-10 * oracle


@pytest.mark.parametrize("n0", [0, 1, 2, 7, 40, 129])
def test_indicator_closed_form_matches_svd(n0):
    sym = Indicator(n0)
    m = n0 + 1
    rep, crep = c_norm(sym), cprime_norm(sym)
    pairs = (
        (rep.singular_values_h, hankel_h),
        (rep.singular_values_k, hankel_k),
        (crep.singular_values_hhat, hankel_hhat),
    )
    for sv, assemble in pairs:
        dense = np.linalg.svd(assemble(sym, m), compute_uv=False)
        assert sv.shape == dense.shape
        assert np.abs(sv - dense).max() <= 1e-12
    plan = build_plan(sym)
    for dec, assemble in ((plan.decomposition_h, hankel_h), (plan.decomposition_k, hankel_k)):
        target = assemble(sym, m)
        assert np.abs(dec.reconstruct(m) - target).max() <= 1e-12
        assert abs(dec.nuclear_sum - trace_norm(target)) <= 1e-12 * max(1.0, n0)


def test_c_norm_geometric_near_unit_circle():
    rep = c_norm(Geometric(0.999))
    assert abs(rep.total - 1.0) <= 1e-12
    assert rep.route == "vandermonde" and rep.error_bound <= 1e-20


def test_cprime_norm_near_unit_circle():
    # 1 - s**2 cancels for s near 1; (1 - s)(1 + s) does not
    sym = Geometric(0.999998)
    assert abs(cprime_norm(sym).total - 1.0) <= 1e-14
    assert abs(cprime_norm(double(sym)).total - c_norm(sym).total) <= 1e-14


def test_truncation_and_head_caps():
    with pytest.raises(ValueError, match="truncation must be at least 1"):
        hankel_h(Geometric(0.5), 0)
    # an indicator's head stops at VECTOR_HORIZON_CAP values
    with pytest.raises(TooLarge, match="a head of 1048577 values"):
        c_norm(Indicator(1 << 20))


def test_support_route_height_cap():
    cap = hankel_mod.SUPPORT_HEIGHT_CAP
    assert hankel_mod._route(form(Indicator(cap - 1)))[:2] == ("support", cap)
    # an indicator's norm is in closed form at any height: the singular values
    # of its h and k sum to f(n0 + 1) and f(n0)
    f = lambda n: 2 * math.sin(n * math.pi / (4 * n + 2)) ** 2 / math.sin(math.pi / (4 * n + 2))
    total, expected = c_norm(Indicator(100_000)).total, f(100_001) + f(100_000)
    assert abs(total - expected) <= 1e-12 * expected
    with pytest.raises(TooLarge):
        hankel_mod._route(form(TruncatedGeometric(0.9, cap)))  # a head of cap + 1 values
    with pytest.raises(TooLarge):
        build_plan(Indicator(cap))  # its plan vectors would be dense, n0 x n0
    with pytest.raises(TooLarge):
        cprime_norm(ParityTail((0.0,) * (cap + 1), 0.0, 0.0))


def test_c_norm_unsupported_tail():
    with pytest.raises(UnsupportedTail):
        c_norm(ParityTail((), 1.0, 0.0))


@pytest.mark.parametrize("sym", [ParityTail((), 1.0, 0.0), Doubled(Finite((), 1.0))])
def test_difference_decompositions_reject_parity_tails(sym):
    # d(n) = +-1 forever: h and k are not trace class at any height
    with pytest.raises(UnsupportedTail):
        build_plan(sym)


def test_cprime_norm_examples():
    rep = cprime_norm(double(Geometric(0.5)))
    assert abs(rep.total - 1.0) < 1e-10
    assert rep.c1 == 0 and rep.c2 == 0

    rep = cprime_norm(Finite((), 1.0))
    assert abs(rep.total - 1.0) < 1e-12
    assert rep.c1 == 1.0 and rep.c2 == 0.0
    assert rep.trace_norm_hhat < 1e-12

    # rank-one closed form: entries (1 - s^2) s^(i+j)
    s = 0.5
    rep = cprime_norm(Geometric(s))
    assert abs(rep.total - abs(1 - s * s) / (1 - s * s)) < 1e-10


def test_cprime_parity_constants():
    rep = cprime_norm(ParityTail((), 1.0, 0.0))
    assert rep.c1 == 0.5 and rep.c2 == 0.5
    assert abs(rep.total - 1.0) < 1e-12


def test_parity_block_identity():
    # even/even block of the doubled two-step matrix is h, odd/odd is k
    for sym in (Geometric(0.5), Indicator(2), TruncatedGeometric(0.7, 4)):
        base = c_norm(sym)
        doubled = cprime_norm(double(sym))
        assert abs(
            doubled.trace_norm_hhat - (base.trace_norm_h + base.trace_norm_k)
        ) < 1e-9


def test_rank_one_decompose_examples():
    dec = rank_one_decompose(hankel_h(Geometric(0.5), 64))
    assert len(dec.terms) == 1
    assert abs(dec.nuclear_sum - 2.0 / 3.0) < 1e-10

    dec = rank_one_decompose(hankel_h(Indicator(1), 8))
    assert len(dec.terms) == 2
    assert abs(dec.nuclear_sum - SQRT5) < 1e-12

    dec = rank_one_decompose(np.zeros((4, 4)))
    assert dec.terms == [] and dec.nuclear_sum == 0.0


def test_rank_one_reconstruction_property():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        dec = rank_one_decompose(a)
        assert np.abs(dec.reconstruct(9) - a).max() <= 1e-12
        assert abs(dec.nuclear_sum - trace_norm(a)) <= 1e-11
        for x, y in dec.terms:
            assert abs(np.linalg.norm(x) - np.linalg.norm(y)) < 1e-12


@pytest.mark.parametrize("n0", [300, 1000])
def test_indicator_closed_form_large_n0(n0):
    # x_i / sqrt(sigma_i) and y_i / sqrt(sigma_i) are the singular vectors, so
    # they are orthonormal; at n0 = 1000 the cosines run over angles up to 2000 rad
    sym = Indicator(n0)
    m = n0 + 3
    rep, plan = c_norm(sym), build_plan(sym)
    for dec, assemble, sv in (
        (plan.decomposition_h, hankel_h, rep.singular_values_h),
        (plan.decomposition_k, hankel_k, rep.singular_values_k),
    ):
        assert np.abs(dec.reconstruct(m) - assemble(sym, m)).max() <= 1e-13
        root = np.sqrt(sv[: len(dec.x)])[:, None]
        for vectors in (dec.x / root, dec.y / root):
            assert np.abs(vectors @ vectors.T - np.eye(len(root))).max() <= 1e-13


def exact_differences(sym, sums):
    """phi(n) - phi(n+1) at the given indices in 40 digits, for measure symbols."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        atoms = [(mpmath.mpc(s), mpmath.mpc(w)) for s, w in measure_atoms(sym)]
        values = {
            n: complex(mpmath.fsum(w * s**n * (1 - s) for s, w in atoms))
            for n in np.unique(sums).tolist()
        }
    return np.vectorize(values.__getitem__, otypes=[complex])(sums)


@pytest.mark.parametrize(
    "sym",
    [
        Geometric(0.999j),
        FromMeasure(0.0, DiscreteMeasure(((0.99, 1.0), (0.99 + 1e-6, -1.0)))),
    ],
    ids=["geometric-0.999i", "cluster-0.99"],
)
def test_plan_terms_accurate_near_unit_circle(sym):
    # The exact route's height is 65536 for 0.999i, too tall for a dense
    # matrix, so the reconstruction is checked on grids of rows and columns
    # that reach across it, against differences taken in 40 digits.
    plan = build_plan(sym)
    m = hankel_mod._route(form(sym))[1]
    assert plan.decomposition_h.x.shape[1] == m
    grids = (np.arange(64), np.arange(0, min(m, 4096), 16), np.arange(0, m, m // 256))
    for dec, offset in ((plan.decomposition_h, 0), (plan.decomposition_k, 1)):
        for grid in grids:
            sums = np.add.outer(grid, grid) + offset
            block = dec.x[:, grid].T @ dec.y[:, grid].conj()
            assert np.abs(block - exact_differences(sym, sums)).max() <= 2e-14


SINGLE_ATOMS = {
    "complex": Geometric(0.8 * cmath.exp(0.3j)),
    "real": Geometric(0.5),
    "negative": Geometric(-0.7),
    "near-circle": Geometric(0.999j),
    "measure-with-tail": FromMeasure(0.25 - 0.5j, DiscreteMeasure(((0.6 - 0.3j, 1.5 + 0.5j),))),
}


@pytest.mark.parametrize("name", sorted(SINGLE_ATOMS))
def test_single_atom_terms_match_qr_route(name):
    # One atom reads its term off v; the QR route on the same atom is the
    # reference.  Heights past 256 are compared on a grid across them.
    sym = SINGLE_ATOMS[name]
    f, plan = form(sym), build_plan(sym)
    m = hankel_mod._route(form(sym))[1]
    grid = np.unique(np.r_[np.arange(min(m, 64)), np.arange(0, m, max(m // 256, 1))])
    refs = hankel_mod._measure_decompositions(f.s, f.w, m)
    for dec, ref in zip((plan.decomposition_h, plan.decomposition_k), refs):
        assert dec.x.shape == dec.y.shape == ref.x.shape == (1, m)
        assert dec.x.dtype == ref.x.dtype and dec.y.dtype == ref.y.dtype
        block, ref_block = (d.x[:, grid].T @ d.y[:, grid].conj() for d in (dec, ref))
        assert np.abs(block - ref_block).max() <= 1e-13 * np.abs(ref_block).max()
        assert abs(dec.nuclear_sum - ref.nuclear_sum) <= 1e-13 * ref.nuclear_sum
        norm_x, norm_y = np.linalg.norm(dec.x), np.linalg.norm(dec.y)
        assert abs(norm_x - norm_y) <= 1e-13 * norm_y


def test_single_atom_zero_diagonals_give_no_terms():
    # a zero weight cancels both matrices; s = 0 leaves h = e_0 e_0^T, k = 0
    sym = FromMeasure(0.5, DiscreteMeasure(((0.6, 0.0),)))
    m, plan = hankel_mod._route(form(sym))[1], build_plan(sym)
    for dec in (plan.decomposition_h, plan.decomposition_k):
        assert dec.x.shape == dec.y.shape == (0, m) and dec.nuclear_sum == 0.0
    plan = build_plan(Geometric(0.0))
    dec_h, dec_k = plan.decomposition_h, plan.decomposition_k
    assert dec_h.x.shape == (1, 1) and dec_h.nuclear_sum == 1.0
    assert dec_h.reconstruct(2).tolist() == [[1, 0], [0, 0]]
    assert dec_k.x.shape == dec_k.y.shape == (0, 1) and dec_k.nuclear_sum == 0.0


def test_trace_norm_monotone_in_truncation():
    for sym in (
        Geometric(0.6),
        Indicator(3),
        FromMeasure(0.0, DiscreteMeasure(((0.7, 1.0), (-0.5, 0.5j)))),
    ):
        previous = 0.0
        for m in (8, 16, 32, 64):
            current = trace_norm(hankel_h(sym, m))
            assert current >= previous - 1e-12
            previous = current


def test_eval_bounded_by_norm():
    for sym in (Geometric(0.5), Geometric(-0.5), Indicator(2), Finite((3.0, 1.0), 0.2)):
        rep = c_norm(sym)
        peak = max(abs(evaluate(sym, n)) for n in range(rep.truncation))
        assert peak <= rep.total + 1e-10


def test_difference_sum_bounded_by_norms():
    for sym in (Geometric(0.5), Indicator(2), TruncatedGeometric(0.8, 5)):
        rep = c_norm(sym)
        total = sum(
            abs(evaluate(sym, n) - evaluate(sym, n + 1)) for n in range(rep.truncation)
        )
        assert total <= rep.trace_norm_h + rep.trace_norm_k + 1e-10


# --- properties: late-support indicators and complex tails ------------------

cplx = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
in_disk = st.builds(cmath.rect, st.floats(0, 0.95), st.floats(-math.pi, math.pi))
late_or_complex_tail = st.one_of(
    st.builds(Indicator, st.integers(100, 3000)),
    st.builds(Finite, st.lists(cplx, max_size=40).map(tuple), cplx),
    st.builds(ParityTail, st.lists(cplx, max_size=40).map(tuple), st.shared(cplx, key="tail"),
              st.shared(cplx, key="tail")),
    st.builds(
        FromMeasure,
        cplx,
        st.lists(st.tuples(in_disk, cplx), min_size=1, max_size=4).map(tuple).map(DiscreteMeasure),
    ),
)


@settings(max_examples=60, deadline=None)
@given(late_or_complex_tail, st.data())
def test_psi_parts_and_tail_add_up_to_phi(sym, data):
    # psi1(n) + psi2(n) sums every difference from n on, which telescopes to phi(n) - c
    length = form(sym).support_length
    top = 60 if length is None else length + 2
    n = data.draw(st.integers(0, top))
    c = tail_constant(sym)
    if length is None:  # psi1 in closed form, sum w s**n / (1 + s)
        scale = abs(c) + sum(abs(w) * max(1, 1 / abs(1 + s)) for s, w in measure_atoms(sym))
    else:  # psi1 sums up to length differences of stored values
        scale = max(abs(evaluate(sym, m)) for m in range(top))
    got = psi1(sym, n) + psi2(sym, n) + c
    assert abs(got - evaluate(sym, n)) <= 1e-14 * scale * (top + 1)
    if isinstance(sym, Indicator):  # sums of 0 and +-1 are exact
        assert psi1(sym, n) + psi2(sym, n) + c == evaluate(sym, n)


@settings(max_examples=40, deadline=None)
@given(late_or_complex_tail)
def test_cprime_norm_at_most_c_norm_when_tails_agree(sym):
    # hhat = H + K, so ||hhat||_1 <= ||H||_1 + ||K||_1, and equal tails give c1 = c, c2 = 0
    base, two_step = c_norm(sym), cprime_norm(sym)
    assert two_step.c2 == 0 and two_step.c1 == tail_constant(sym)
    assert two_step.total <= base.total * (1 + 1e-12) + two_step.error_bound + base.error_bound


def test_reports_record_route():
    rep = to_obj(c_norm(Indicator(3)))
    assert rep["route"] == "support" and rep["error_bound"] == 0.0
    assert rep["truncation"] == 4
    rep = to_obj(cprime_norm(Geometric(0.5)))
    assert rep["route"] == "vandermonde" and 0.0 < rep["error_bound"] < 1e-15


def test_measure_plan_terms_reconstruct_truncation():
    atoms = ((0.6, 1.0), (-0.4 + 0.3j, 0.5j), (0.6 + 1e-7, -1.0))
    sym = FromMeasure(0.25, DiscreteMeasure(atoms))
    plan = build_plan(sym)
    m = hankel_mod._route(form(sym))[1]
    for dec, dense in (
        (plan.decomposition_h, hankel_h(sym, m)),
        (plan.decomposition_k, hankel_k(sym, m)),
    ):
        assert np.abs(dec.reconstruct(m) - dense).max() <= 1e-13
        assert abs(dec.nuclear_sum - trace_norm(dense)) <= 1e-12


# ---------------------------------------------------------------------------
# High-precision oracle for the Vandermonde route
# ---------------------------------------------------------------------------


def mp_trace_norm(atoms, diagonal, height):
    """Trace norm of V diag(d) V^T with V cut at ``height`` rows (None: all rows).

    Computed in 50 digits from the Cauchy Gram matrix V^* V = L L^*: then
    V = Q L^* and the nonzero singular values are those of L^* D conj(L).
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        s = [mpmath.mpc(a) for a, _ in atoms]
        w = [mpmath.mpc(b) for _, b in atoms]
        n = len(s)
        gram = mpmath.matrix(n, n)
        for a in range(n):
            for b in range(n):
                z = mpmath.conj(s[a]) * s[b]
                gram[a, b] = (1 if height is None else 1 - z**height) / (1 - z)
        r = mpmath.cholesky(gram).H
        small = r * mpmath.diag([diagonal(s[a], w[a]) for a in range(n)]) * r.T
        return mpmath.fsum(mpmath.svd_c(small, compute_uv=False))


ORACLE_MEASURES = {
    "cluster-1e-6": ((0.5, 1.0), (0.5 + 1e-6, -1.0), (-0.2 + 0.6j, 0.3)),
    "cluster-1e-9": ((0.5, 1.0), (0.5 + 1e-9, -1.0)),
    "cluster-1e-9-complex": (
        (0.3 + 0.4j, 1.0 - 0.5j),
        (0.3 + 0.4j + 1e-9j, 0.5j),
        (-0.7, 0.2),
    ),
    "radius-0.99": ((0.99, 1.0), (-0.5 + 0.5j, 0.5 - 0.25j)),
    "radius-0.999": ((0.999j, 1.0), (0.999 - 1e-6, -0.5), (0.1, 1.0)),
    # horizons 2**22 and 2**26: as many doubling QRs in _vandermonde_r
    "radius-0.99999": ((0.99999 * cmath.exp(1j), 1.0), (-0.9999 + 0.001j, 0.5 - 0.25j)),
    "doubled-0.999998i": ((cmath.sqrt(0.999998j), 0.5), (-cmath.sqrt(0.999998j), 0.5)),
    # complex atoms 1e-4 apart in angle near the circle: s**r by numpy's
    # complex power carries r times the rounding of arg(s) in its phase
    "angle-gap-0.9999-at-0.7": (
        (0.9999 * cmath.exp(0.7j), 1.0),
        (0.9999 * cmath.exp(0.7001j), -1.0),
    ),
    "angle-gap-0.9999-at-2.7": (
        (0.9999 * cmath.exp(2.7j), 1.0),
        (0.9999 * cmath.exp(2.7001j), -1.0),
    ),
    "angle-gap-0.99999-at-0.3": (
        (0.99999 * cmath.exp(0.3j), 1.0),
        (0.99999 * cmath.exp(0.30001j), -1.0),
    ),
}


def assert_matches_mp_oracle(atoms):
    sym = FromMeasure(0.0, DiscreteMeasure(atoms))
    rep = c_norm(sym)
    crep = cprime_norm(sym)
    assert rep.route == crep.route == "vandermonde"
    for value, bound, diagonal in (
        (rep.trace_norm_h, rep.error_bound, lambda s, w: w * (1 - s)),
        (rep.trace_norm_k, rep.error_bound, lambda s, w: w * s * (1 - s)),
        (crep.trace_norm_hhat, crep.error_bound, lambda s, w: w * (1 - s * s)),
    ):
        # rounding scale: the sum of the rank-one trace norms |d| ||v||^2
        scale = sum(abs(complex(diagonal(s, w))) / (1 - abs(s) ** 2) for s, w in atoms)
        at_horizon = mp_trace_norm(atoms, diagonal, rep.truncation)
        assert abs(value - float(at_horizon)) <= 1e-14 * scale
        assert float(abs(mp_trace_norm(atoms, diagonal, None) - at_horizon)) <= bound


@pytest.mark.parametrize("name", sorted(ORACLE_MEASURES))
def test_vandermonde_route_matches_mp_oracle(name):
    assert_matches_mp_oracle(ORACLE_MEASURES[name])


@settings(max_examples=30, deadline=None)
@given(
    st.floats(1e-5, 1e-3),
    st.floats(1e-5, 1e-3),
    st.floats(0.0, 2 * np.pi),
    st.floats(1e-6, 1e-3),
)
def test_clustered_atoms_near_circle_match_mp_oracle(gap_a, gap_b, angle, spread):
    # two atoms with 1 - |s| in [1e-5, 1e-3], spread apart in angle by 1e-6
    # to 1e-3, and weights that cancel: the hard case for the powers
    atoms = (
        ((1 - gap_a) * cmath.exp(1j * angle), 1.0),
        ((1 - gap_b) * cmath.exp(1j * (angle + spread)), -1.0),
    )
    assert_matches_mp_oracle(atoms)


# ---------------------------------------------------------------------------
# Property: the plan's rank-one terms are the difference matrices
# ---------------------------------------------------------------------------

reals = st.floats(-2, 2)
complexes = st.builds(complex, reals, reals)
radii = st.floats(0.0, 0.99) | st.floats(0.9, 0.99)
disk = st.builds(lambda r, t: r * cmath.exp(1j * t), radii, st.floats(0.0, 2 * np.pi))
atoms = st.lists(st.tuples(disk, complexes), min_size=1, max_size=5).map(tuple)
truncated = st.builds(
    TruncatedGeometric, st.floats(0.0, 0.95, exclude_min=True), st.integers(0, 60)
)
# Doubling a tail c gives even/odd limits (c, 0), which no plan accepts.
tail_free = st.one_of(
    st.builds(Finite, st.lists(reals, max_size=15).map(tuple), st.just(0.0)),
    st.builds(Finite, st.lists(complexes, max_size=15).map(tuple), st.just(0j)),
    truncated,
    st.builds(Indicator, st.integers(0, 30)),
    st.builds(Geometric, disk),
    st.builds(FromMeasure, st.just(0j), atoms.map(DiscreteMeasure)),
)
decomposed_symbols = st.one_of(
    st.builds(Finite, st.lists(reals, max_size=30).map(tuple), reals),
    st.builds(Finite, st.lists(complexes, max_size=30).map(tuple), complexes),
    truncated,
    st.builds(Indicator, st.integers(0, 300)),
    st.builds(Geometric, disk),
    st.builds(FromMeasure, complexes, atoms.map(DiscreteMeasure)),
    st.builds(Doubled, tail_free),
)
NEAR_CIRCLE = ((0.99j, 1.0), (-0.98 + 0.1j, 0.5 - 1j), (0.99, -1.0), (0.5, 2.0), (0.3 - 0.4j, 1j))


@settings(max_examples=60, deadline=None)
@given(decomposed_symbols)
@example(Indicator(300))
@example(Geometric(5e-324 + 5e-324j))
@example(FromMeasure(0.5, DiscreteMeasure(NEAR_CIRCLE)))
@example(Doubled(FromMeasure(0.0, DiscreteMeasure(NEAR_CIRCLE[:3]))))
def test_difference_decompositions_property(sym):
    # Heights up to 320 are checked whole against the dense matrices; taller
    # ones (measures near the circle) on their leading 128 x 128 block, with
    # the nuclear sum against the trace norm c_norm takes from its own
    # Vandermonde factorization.
    m = hankel_mod._route(form(sym))[1]
    rep, plan = c_norm(sym), build_plan(sym)
    for dec, assemble, tn in (
        (plan.decomposition_h, hankel_h, rep.trace_norm_h),
        (plan.decomposition_k, hankel_k, rep.trace_norm_k),
    ):
        assert dec.x.shape == dec.y.shape and dec.x.shape[1] == m
        scale = max(1.0, tn)
        if m <= 320:
            dense = assemble(sym, m)
            assert np.abs(dec.reconstruct(m) - dense).max() <= 1e-12 * scale
            assert abs(dec.nuclear_sum - trace_norm(dense)) <= 1e-12 * scale
        else:
            block = dec.x[:, :128].T @ dec.y[:, :128].conj()
            assert np.abs(block - assemble(sym, 128)).max() <= 1e-12 * scale
            assert abs(dec.nuclear_sum - tn) <= 1e-12 * scale
        norms_x, norms_y = np.linalg.norm(dec.x, axis=1), np.linalg.norm(dec.y, axis=1)
        assert np.abs(norms_x - norms_y).max(initial=0.0) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Support route: Hankel views of one difference row, at the support's height
# ---------------------------------------------------------------------------


def test_difference_matrices_are_views_of_one_row():
    sym = Finite((1.0, 2j, -3.0, 0.5), 0.25)
    values = [evaluate(sym, n) for n in range(12)]
    pairs = (hankel_mod.H, hankel_mod.K, hankel_mod.HHAT)
    h, k, hhat = hankel_mod._difference_matrices(form(sym), 4, pairs)
    assert np.shares_memory(h, k) and not np.shares_memory(h, hhat)
    assert not any(a.flags.writeable for a in (h, k, hhat))
    for a, offset, step in ((h, 0, 1), (k, 1, 1), (hhat, 0, 2)):
        assert np.array_equal(a, brute_hankel(values.__getitem__, 4, offset, step))


def test_support_route_memory_holds_no_index_arrays():
    # m x m index arrays and the matrices gathered through them peaked at
    # 69.0 MiB on each of these; the views of one row need a few rows.
    rng = np.random.default_rng(0)
    values = tuple(complex(a, b) for a, b in rng.standard_normal((1500, 2)))
    cases = ((c_norm, TruncatedGeometric(0.99, 1500)), (cprime_norm, Finite(values, 0.5j)))
    for norm, sym in cases:
        tracemalloc.start()
        try:
            rep = norm(sym)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.route == "support" and rep.truncation == form(sym).support_length
        assert peak <= 5 * 2**20, peak


finite_bases = st.one_of(
    st.builds(Finite, st.lists(complexes, max_size=20).map(tuple), complexes),
    st.builds(TruncatedGeometric, st.floats(0.0, 0.99, exclude_min=True), st.integers(0, 30)),
    st.builds(Indicator, st.integers(0, 30)),
    st.builds(FromMeasure, complexes, st.just(DiscreteMeasure(()))),
)
finite_support = st.one_of(
    finite_bases,
    st.builds(ParityTail, st.lists(complexes, max_size=20).map(tuple), complexes, complexes),
    st.builds(Doubled, finite_bases),
)


def dense_spectra(sym, matrices):
    """Singular values of the difference matrices built whole at support + 2."""
    m = form(sym).support_length + 2
    values = [evaluate(sym, n) for n in range(2 * m + 2)]
    return [
        np.linalg.svd(brute_hankel(values.__getitem__, m, *pair), compute_uv=False)
        for pair in matrices
    ]


def assert_spectrum_matches(sv, dense, height, scale):
    # the support route drops two zero rows and columns: the same nonzero values
    assert sv.shape == (height,)
    assert np.abs(sv - dense[:height]).max() <= 1e-12 * scale
    assert dense[height:].max() <= 1e-12 * scale


@settings(max_examples=80, deadline=None)
@given(finite_support)
@example(Indicator(0))
@example(Finite((), 1.0 - 2j))
@example(FromMeasure(0.5j, DiscreteMeasure(())))
@example(Doubled(Finite((), 0.0)))
@example(Doubled(Indicator(0)))
@example(ParityTail((1j,), 1.0, -1.0))
@example(TruncatedGeometric(0.99, 40))
def test_support_route_matches_dense_oracle(sym):
    height = max(form(sym).support_length, 1)
    even, odd = parity_tails(sym)
    crep = cprime_norm(sym)
    (dense_hhat,) = dense_spectra(sym, ((0, 2),))
    oracle = abs((even + odd) / 2) + abs((even - odd) / 2) + dense_hhat.sum()
    assert crep.route == "support" and crep.truncation == height
    assert abs(crep.total - oracle) <= 1e-12 * oracle
    assert_spectrum_matches(crep.singular_values_hhat, dense_hhat, height, oracle)
    if even != odd:
        with pytest.raises(UnsupportedTail):
            c_norm(sym)
        return
    rep, plan = c_norm(sym), build_plan(sym)
    dense_h, dense_k = dense_spectra(sym, ((0, 1), (1, 1)))
    oracle = dense_h.sum() + dense_k.sum() + abs(even)
    assert rep.route == "support" and rep.truncation == height
    assert abs(rep.total - oracle) <= 1e-12 * oracle
    for sv, dense, tn, dec in (
        (rep.singular_values_h, dense_h, rep.trace_norm_h, plan.decomposition_h),
        (rep.singular_values_k, dense_k, rep.trace_norm_k, plan.decomposition_k),
    ):
        assert_spectrum_matches(sv, dense, height, oracle)
        assert dec.x.shape[1] == height
        assert abs(dec.nuclear_sum - tn) <= 1e-12 * oracle
