"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion.
"""

import math
import time

import numpy as np

from radial_mult import (
    DiscreteMeasure,
    Finite,
    FockSpec,
    FromMeasure,
    Geometric,
    Indicator,
    TruncatedGeometric,
    build_plan,
    build_space,
    c_norm,
    classify_case,
    cprime_norm,
    double,
    eigenvalue_lower_bound,
    eps,
    eval_measure,
    evaluate,
    kraus_row_sum,
    plan_cb_bound,
    psi1,
    psi2,
    rho,
    tail_constant,
    tail_projection,
    verify_component_eigenaction,
    verify_eigenaction,
    verify_ucp_relations,
    word_operator,
)

FAMILIES = [
    Geometric(0.5),
    Geometric(-0.5),
    Geometric(0.3 + 0.4j),
    Indicator(0),
    Indicator(2),
    TruncatedGeometric(0.8, 6),
    Finite((1.0, 2 + 1j, -0.5), 0.25),
    Finite((), 1.0),
    FromMeasure(0.5 + 0.25j, DiscreteMeasure(((0.5, 1.0), (-0.3 + 0.2j, 0.7 - 0.1j)))),
]

GRID_SYMBOLS = [Geometric(0.5), Geometric(-0.5), Indicator(2), Finite((), 1.0)]
GRID_SPACES = [((1, 1), 5), ((2, 2, 2), 3)]


def check(num, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_geometric_norm_closed_form():
    ok = True
    for s in (0.5, -0.5, 0.3 + 0.4j):
        start = time.perf_counter()
        total = c_norm(Geometric(s)).total
        elapsed = time.perf_counter() - start
        expected = abs(1 - s) / (1 - abs(s))
        ok = ok and abs(total - expected) < 1e-6 and elapsed < 5.0
    check(1, "geometric norm matches |1-s|/(1-|s|) within 1e-6 in under 5 s", ok)


def test_criterion_02_psi_decomposition():
    ok = True
    for sym in FAMILIES:
        c = tail_constant(sym)
        for n in range(65):
            lhs = psi1(sym, n) + psi2(sym, n) + c
            ok = ok and abs(lhs - evaluate(sym, n)) <= 1e-10
    check(2, "psi1 + psi2 + c reproduces the symbol to 1e-10 for n <= 64", ok)


def test_criterion_03_indicator_norms():
    ok = abs(c_norm(Indicator(0)).total - 1.0) <= 1e-10
    ok = ok and abs(c_norm(Indicator(1)).total - (1.0 + math.sqrt(5.0))) <= 1e-10
    for n in range(1, 11):
        total = c_norm(Indicator(n)).total
        ok = ok and total <= 4.0 * n + 1e-10
        # independent oracle: brute-force matrices and numpy SVD
        chi = lambda m: 1.0 if m == n else 0.0
        size = n + 2
        h = np.array(
            [[chi(i + j) - chi(i + j + 1) for j in range(size)] for i in range(size)]
        )
        k = np.array(
            [[chi(i + j + 1) - chi(i + j + 2) for j in range(size)] for i in range(size)]
        )
        oracle = (
            np.linalg.svd(h, compute_uv=False).sum()
            + np.linalg.svd(k, compute_uv=False).sum()
        )
        ok = ok and abs(total - oracle) <= 1e-10
    check(3, "indicator norms exact (1, 1+sqrt5) and bounded by 4n", ok)


def test_criterion_04_eigenaction():
    start = time.perf_counter()
    worst = 0.0
    for dims, max_len in GRID_SPACES:
        space = build_space(FockSpec(dims, max_len))
        for sym in GRID_SYMBOLS:
            plan = build_plan(sym)
            report = verify_eigenaction(
                plan, space, max_word=min(4, max_len), max_pair_sum=4
            )
            worst = max(worst, report.worst_residual)
    elapsed = time.perf_counter() - start
    check(
        4,
        f"eigen-action residual {worst:.2e} <= 1e-8 in {elapsed:.1f} s (< 30 s)",
        worst <= 1e-8 and elapsed < 30.0,
    )


def test_criterion_05_component_maps():
    worst = 0.0
    for dims, max_len in GRID_SPACES:
        space = build_space(FockSpec(dims, max_len))
        for sym in GRID_SYMBOLS:
            plan = build_plan(sym)
            report = verify_component_eigenaction(
                plan, space, max_word=min(4, max_len), max_pair_sum=4
            )
            worst = max(worst, report.worst_residual)
    check(5, f"component maps residual {worst:.2e} <= 1e-8", worst <= 1e-8)


def test_criterion_06_kraus_row_identity():
    space = build_space(FockSpec((2, 2), 4))
    rng = np.random.default_rng(0)
    eye = np.eye(space.dim)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(space.max_len + 1) + 1j * rng.standard_normal(
            space.max_len + 1
        )
        for variant in (1, 2):
            row = kraus_row_sum(space, x, variant).to_dense()
            dev = np.abs(row - (np.linalg.norm(x) ** 2) * eye).max()
            worst = max(worst, dev)
    check(6, f"Kraus row identity deviation {worst:.2e} <= 1e-12", worst <= 1e-12)


def test_criterion_07_cb_bound_chain():
    ok = True
    for sym in FAMILIES:
        plan = build_plan(sym)
        bound = plan_cb_bound(plan)
        total = c_norm(sym).total
        lower = eigenvalue_lower_bound(sym)
        ok = ok and abs(bound - total) <= 1e-8 and lower <= bound + 1e-8
    check(7, "plan bound equals the symbol norm and dominates sup |phi|", ok)


def test_criterion_08_compression_identities():
    space = build_space(FockSpec((2, 2), 5))
    worst = 0.0
    for k in range(5):
        for l in range(5):
            if k + l > 4:
                continue
            for xi in space.words_of_length(k):
                for eta in space.words_of_length(l):
                    a = word_operator(space, xi, eta)
                    # safe columns: extensions of eta with image level in range
                    mask = np.zeros(space.dim, dtype=bool)
                    for j, w in enumerate(space.basis):
                        mask[j] = (
                            len(w) >= l
                            and w[:l] == eta
                            and len(w) - l + k <= space.max_len
                        )
                    cur = a
                    for n in range(4):
                        rhs = (a @ tail_projection(space, l + n)).to_dense()
                        dev = np.abs((cur.to_dense() - rhs)[:, mask]).max()
                        worst = max(worst, dev)
                        if n < 3:
                            cur = rho(space, cur)
                    compressed = eps(space, a).to_dense()
                    if classify_case(xi, eta) == 1:
                        target = rho(space, a).to_dense()
                    else:
                        target = a.to_dense()
                    worst = max(worst, np.abs((compressed - target)[:, mask]).max())
    check(8, f"iterated-append and compression identities exact ({worst:.1e})", worst == 0.0)


def test_criterion_09_integral_representation():
    delta = DiscreteMeasure(((0.5, 1.0),))
    ok = all(
        eval_measure(0.0, delta, n) == evaluate(Geometric(0.5), n) for n in range(65)
    )
    rng = np.random.default_rng(0)
    for _ in range(100):
        radii = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 5))
        angles = rng.uniform(0.0, 2.0 * np.pi, 5)
        w_r = np.sqrt(rng.uniform(0.0, 1.0, 5))
        w_a = rng.uniform(0.0, 2.0 * np.pi, 5)
        measure = DiscreteMeasure(
            tuple(
                (complex(r * np.exp(1j * t)), complex(wr * np.exp(1j * wt)))
                for r, t, wr, wt in zip(radii, angles, w_r, w_a)
            )
        )
        rep = c_norm(FromMeasure(0.0, measure))
        left = rep.trace_norm_h + rep.trace_norm_k
        right = sum(abs(w) * abs(1 - s) / (1 - abs(s)) for s, w in measure.atoms)
        ok = ok and left <= right + 1e-8
    check(9, "atomic measures reproduce symbols and satisfy the weight bound", ok)


def test_criterion_10_doubling_identity():
    ok = True
    for sym in FAMILIES:
        base = c_norm(sym).total
        doubled = cprime_norm(double(sym)).total
        ok = ok and abs(base - doubled) <= 1e-8
    check(10, "two-step norm of the doubled symbol equals the symbol norm", ok)


def test_criterion_11_truncated_geometric_convergence():
    # The truncation error psi_n(m) = r^m 1[m > n] of phi_r(m) = r^m has a
    # norm total_n = ||h||_1 + ||k||_1 squeezed to zero from both sides:
    #   (2n+1) r^(n+1) <= total_n <= 4 r^(n+1)((n+1)(1-r)+r)/(1-r)^2.
    # Lower bound: h[i, j] = psi_n(i+j) - psi_n(i+j+1) is 0 where i + j < n
    # and -r^(n+1) where i + j = n; k[i, j] = psi_n(i+j+1) - psi_n(i+j+2) is
    # 0 where i + j < n - 1 and -r^(n+1) where i + j = n - 1. Pairing h
    # with the anti-identity on its first n+1 coordinates and k with the one
    # on its first n (both of operator norm 1) gives ||h||_1 >= (n+1) r^(n+1)
    # and ||k||_1 >= n r^(n+1).
    # The norm is not monotone in n: total_3 >= 7 r^4 = 2.867 > 2 >= total_0,
    # since psi_0 = Geometric(r) - Indicator(0) has norm at most 1 + 1. It
    # rises to its peak at n = 3 and falls strictly from there on.
    r = 0.8
    horizon = 200  # r**200 ~ 4e-20, well below the tolerances used
    size = horizon + 2
    idx = np.add.outer(np.arange(size), np.arange(size))
    totals = []
    tail_margin = lower_margin = math.inf
    oracle_err = 0.0
    for n in range(31):
        vals = [0.0] * (n + 1) + [r**k for k in range(n + 1, horizon)]
        tail_sym = Finite(tuple(vals), 0.0)
        total = c_norm(tail_sym).total
        bound = 4.0 * r ** (n + 1) * ((n + 1) * (1 - r) + r) / (1 - r) ** 2
        tail_margin = min(tail_margin, bound + 1e-8 - total)
        lower_margin = min(lower_margin, total - (2 * n + 1) * r ** (n + 1))
        # independent oracle: dense h and k from the raw sequence, numpy SVD
        psi = np.array([r**m if n < m < horizon else 0.0 for m in range(2 * size + 1)])
        oracle = (
            np.linalg.svd(psi[idx] - psi[idx + 1], compute_uv=False).sum()
            + np.linalg.svd(psi[idx + 1] - psi[idx + 2], compute_uv=False).sum()
        )
        oracle_err = max(oracle_err, abs(total - oracle))
        totals.append(total)
    drop = min(a - b for a, b in zip(totals[3:], totals[4:]))
    peak_gap = totals[3] - max(totals[:3])
    check(
        11,
        "truncation error squeezed to 0 for n <= 30: "
        f"total_n <= 4 r^(n+1)((n+1)(1-r)+r)/(1-r)^2 + 1e-8 (worst margin {tail_margin:.2e}), "
        f"total_n >= (2n+1) r^(n+1) (worst margin {lower_margin:.2e}), "
        f"dense SVD oracle within 1e-10 (worst error {oracle_err:.2e}), "
        f"peak at n = 3 (gap {peak_gap:.2e}) and strict decrease for n >= 3 "
        f"(smallest drop {drop:.2e})",
        tail_margin >= 0.0
        and lower_margin >= 0.0
        and oracle_err <= 1e-10
        and peak_gap > 0.0
        and drop > 0.0,
    )


def test_criterion_12_ucp_tensor_relations():
    space = build_space(FockSpec((1, 1), 4))
    worst = 0.0
    for variant in (1, 2):
        report = verify_ucp_relations(space, 6, variant, max_word=4)
        worst = max(worst, report.worst_residual)
    check(12, f"tensor extension relations residual {worst:.2e} <= 1e-10", worst <= 1e-10)
