import math

import numpy as np
import pytest

import radial_mult.hankel as hankel_mod
from radial_mult import (
    DiscreteMeasure,
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
    rank_one_decompose,
    trace_norm,
)

SQRT5 = math.sqrt(5.0)


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
    assert abs(trace_norm(np.array([[1.0, 0.0], [0.0, 0.0]])) - 1.0) < 1e-14
    assert abs(trace_norm(np.array([[-1.0, 1.0], [1.0, 0.0]])) - SQRT5) < 1e-14
    rng = np.random.default_rng(3)
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert abs(
        trace_norm(np.outer(u, v.conj())) - np.linalg.norm(u) * np.linalg.norm(v)
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
    assert rep.converged and rep.truncation == n0 + 3
    assert abs(rep.total - oracle) <= 1e-10 * oracle


@pytest.mark.parametrize("n0", [0, 1, 2, 7, 40, 129])
def test_indicator_closed_form_matches_svd(n0):
    sym = Indicator(n0)
    m = n0 + 3
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
    for extra in (0, 5):
        dec_h, dec_k = hankel_mod.difference_decompositions(sym, m + extra)
        for dec, assemble in ((dec_h, hankel_h), (dec_k, hankel_k)):
            target = assemble(sym, m + extra)
            assert np.abs(dec.reconstruct(m + extra) - target).max() <= 1e-12
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


def test_support_route_height_cap():
    cap = hankel_mod.SUPPORT_HEIGHT_CAP
    assert hankel_mod.exact_route(Indicator(cap - 3)) == ("support", cap)
    with pytest.raises(TooLarge):
        hankel_mod.exact_route(Indicator(cap - 2))
    with pytest.raises(TooLarge):
        c_norm(Indicator(100_000))
    with pytest.raises(TooLarge):
        cprime_norm(ParityTail((0.0,) * (cap - 1), 0.0, 0.0))


def test_c_norm_unsupported_tail():
    with pytest.raises(UnsupportedTail):
        c_norm(ParityTail((), 1.0, 0.0))


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
        dec = rank_one_decompose(a, tol=1e-14)
        assert np.abs(dec.reconstruct(9) - a).max() <= 1e-12
        assert abs(dec.nuclear_sum - trace_norm(a)) <= 1e-11
        for x, y in dec.terms:
            assert abs(np.linalg.norm(x) - np.linalg.norm(y)) < 1e-12


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


def test_reports_record_route():
    rep = c_norm(Indicator(3)).to_obj()
    assert rep["route"] == "support" and rep["error_bound"] == 0.0
    assert rep["truncation"] == 6
    rep = cprime_norm(Geometric(0.5)).to_obj()
    assert rep["route"] == "vandermonde" and 0.0 < rep["error_bound"] < 1e-15


def test_measure_plan_terms_reconstruct_truncation():
    atoms = ((0.6, 1.0), (-0.4 + 0.3j, 0.5j), (0.6 + 1e-7, -1.0))
    sym = FromMeasure(0.25, DiscreteMeasure(atoms))
    plan = build_plan(sym)
    m = hankel_mod.exact_route(sym)[1]
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
}


@pytest.mark.parametrize("name", sorted(ORACLE_MEASURES))
def test_vandermonde_route_matches_mp_oracle(name):
    atoms = ORACLE_MEASURES[name]
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
