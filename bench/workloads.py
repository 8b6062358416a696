"""The benchmark's workloads: seeded inputs, references and one round of ops.

A workload is built in three steps.  The constructor draws every input from
the seed and computes its reference with ``oracles`` (numpy only).
``build()`` imports radial_mult and makes the library objects the ops need
(spaces and plans for ``verify``).  ``warm_up()`` pays one-off costs (the
first BLAS call, lazily filled space caches, byte-compiling the CLI) before
anything is timed.  ``ops()`` then returns one round: a fixed list of ops
that the runner repeats.  The ops of a round, their kinds and their cost
levels are the same for every seed; the seed changes the numbers inside.
"""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Relative tolerances of the reference comparisons.
NORM_TOL = 1e-6
SERIES_TOL = 1e-7
RESIDUAL_TOL = 1e-8
KRAUS_TOL = 1e-9


@dataclass
class Op:
    """One public call; ``check`` maps its result to (ok, values checked)."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, int]]


def _library():
    import radial_mult

    return radial_mult


def own_peak_rss_kib() -> int:
    """Peak resident set of this process, in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _phase(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def _cnormal(rng, scale=1.0) -> complex:
    return complex(scale * (rng.standard_normal() + 1j * rng.standard_normal()))


def _atoms(rng, n_atoms: int, lead_lo: float, lead_hi: float):
    """Atoms with the largest radius in [lead_lo, lead_hi] and the rest inside it.

    Atoms are kept 0.1 apart and weights at modulus >= 0.3, so the exact
    Cauchy-matrix reference is well conditioned and no atom is negligible.
    """
    lead = rng.uniform(lead_lo, lead_hi)
    atoms = []
    while len(atoms) < n_atoms:
        radius = lead if not atoms else rng.uniform(0.05, lead)
        s = radius * _phase(rng)
        if all(abs(s - t) >= 0.1 for t, _ in atoms):
            atoms.append((s, rng.uniform(0.3, 1.0) * _phase(rng)))
    return tuple(atoms)


# ---------------------------------------------------------------------------
# Symbol cases: the oracle description plus a constructor of the library object
# ---------------------------------------------------------------------------


@dataclass
class Case:
    ref: tuple  # oracle description, see oracles.py
    make: Callable[[Any], Any]  # radial_mult module -> symbol


def geometric(s: complex) -> Case:
    return Case(("geometric", s), lambda rm: rm.Geometric(s))


def indicator(n0: int) -> Case:
    return Case(("support", (0.0,) * n0 + (1.0,), 0.0), lambda rm: rm.Indicator(n0))


def truncated(r: float, n0: int) -> Case:
    values = tuple(r**k for k in range(n0 + 1))
    return Case(("support", values, 0.0), lambda rm: rm.TruncatedGeometric(r, n0))


def finite(values, tail: complex) -> Case:
    return Case(("support", values, tail), lambda rm: rm.Finite(values, tail))


def measure(c: complex, atoms) -> Case:
    return Case(("measure", c, atoms), lambda rm: rm.FromMeasure(c, rm.DiscreteMeasure(atoms)))


def _draw(rng, family: str, lo, hi) -> Case:
    """A seeded symbol; (lo, hi) bounds |s|, n0, the support or the lead radius."""
    if family == "geometric":
        return geometric(complex(rng.uniform(lo, hi) * _phase(rng)))
    if family == "indicator":
        return indicator(int(rng.integers(lo, hi + 1)))
    if family == "truncated":
        return truncated(float(rng.uniform(0.3, 0.95)), int(rng.integers(lo, hi + 1)))
    if family == "finite":
        length = int(rng.integers(lo, hi + 1))
        return finite(tuple(_cnormal(rng) for _ in range(length)), _cnormal(rng, 0.5))
    if family == "measure":
        return measure(_cnormal(rng, 0.5), _atoms(rng, int(rng.integers(1, 6)), lo, hi))
    raise ValueError(family)


# ---------------------------------------------------------------------------
# norms: symbols, hankel and integral
# ---------------------------------------------------------------------------

# One round of the norms workload, one op per entry: (op, family, lo, hi),
# where (lo, hi) bounds |s|, n0, the support length or the lead atom radius.
# The bands sit inside one truncation level of the doubling loop in
# hankel.c_norm at the parent of the benchmark (|s| <= 0.66 and n0 or
# support <= 28 stop at 64; 0.72-0.81 and 34-60 at 128; 0.85-0.89 and
# 66-124 at 256; 0.92-0.95 at 512), so every seed draws the same cost mix,
# and the mix spans the SVD cliff between 256 and 512.  A round has ten ops
# of a few milliseconds, six at the 128 level, eight at 256 and one at 512:
# the 50th latency percentile falls among the 128-level c_norm ops and the
# 90th among the 256-level ones, never between two ops of unlike cost.
NORMS_MIX = (
    ("psi", "geometric", 0.05, 0.95),
    ("psi", "indicator", 0, 127),
    ("psi", "finite", 3, 28),
    ("psi", "measure", 0.3, 0.6),
    ("cprime_double", "finite", 3, 14),
    ("doubling", "truncated", 3, 14),
    ("membership", "measure", 0.3, 0.55),
    ("c_norm", "truncated", 3, 28),
    ("c_norm", "finite", 3, 28),
    ("c_norm", "indicator", 34, 60),
    ("c_norm", "measure", 0.72, 0.8),
    ("c_norm", "geometric", 0.72, 0.81),
    ("c_norm", "geometric", 0.72, 0.81),
    ("c_norm", "geometric", 0.72, 0.81),
    ("c_norm", "geometric", 0.72, 0.81),
    ("c_norm", "geometric", 0.72, 0.81),
    ("doubling", "geometric", 0.72, 0.81),
    ("c_norm", "indicator", 66, 124),
    ("c_norm", "geometric", 0.85, 0.89),
    ("c_norm", "geometric", 0.85, 0.89),
    ("c_norm", "geometric", 0.85, 0.89),
    ("c_norm", "geometric", 0.85, 0.89),
    ("c_norm", "geometric", 0.85, 0.89),
    ("c_norm", "geometric", 0.85, 0.89),
    ("c_norm", "geometric", 0.92, 0.95),
)
# Indicators at n0 >= 128 get wrong norms and psi1 values from the seed's
# stopping heuristics (a run of zeros looks converged).  The timed mix stays
# below that so no timed op fails; sweep() checks the whole range each run.
SWEEP_N0_MAX = 300
SWEEP_STRATA = 10
PSI_INDICES = (0, 1, 5)
PSI2_INDICES = (0, 3)


def _norms_reference(kind: str, case: Case):
    if kind == "psi":
        return [oracles.psi1(case.ref, n) for n in PSI_INDICES] + [
            oracles.psi2(case.ref, n) for n in PSI2_INDICES
        ]
    if kind == "membership":
        atoms = case.ref[2]
        return sum(oracles.measure_difference_norms(atoms)), oracles.weight(atoms)
    # c_norm, and the doubling identity: the two-step norm of the doubled
    # symbol equals the norm of the symbol.
    return oracles.c_norm(case.ref)


def _norms_op(rm, kind: str, label: str, sym, ref) -> Op:
    if kind == "c_norm":
        return Op(
            label,
            lambda: rm.c_norm(sym),
            lambda rep: (rep.converged and oracles.close(rep.total, ref, NORM_TOL), 1),
        )
    if kind == "cprime_double":
        return Op(
            label,
            lambda: rm.cprime_norm(rm.double(sym)),
            lambda rep: (rep.converged and oracles.close(rep.total, ref, NORM_TOL), 1),
        )
    if kind == "doubling":
        return Op(
            label,
            lambda: rm.verify_doubling(sym),
            lambda rep: (
                rep.holds
                and oracles.close(rep.base_total, ref, NORM_TOL)
                and oracles.close(rep.doubled_total, ref, NORM_TOL),
                2,
            ),
        )
    if kind == "membership":
        tn_ref, w_ref = ref
        return Op(
            label,
            lambda: rm.verify_membership_bound(sym.c, sym.measure),
            lambda rep: (
                rep.holds
                and rep.hankel.converged
                and oracles.close(rep.weight, w_ref, KRAUS_TOL)
                and oracles.close(rep.difference_norms, tn_ref, NORM_TOL),
                2,
            ),
        )
    return Op(
        label,
        lambda: [rm.psi1(sym, n) for n in PSI_INDICES] + [rm.psi2(sym, n) for n in PSI2_INDICES],
        lambda vals: (all(oracles.close(v, r, SERIES_TOL) for v, r in zip(vals, ref)), len(ref)),
    )


class Norms:
    name = "norms"
    peak_rss_kib = staticmethod(own_peak_rss_kib)

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.cases = [(kind, _draw(rng, family, lo, hi)) for kind, family, lo, hi in NORMS_MIX]
        self.refs = [_norms_reference(kind, case) for kind, case in self.cases]
        width = (SWEEP_N0_MAX + 1) // SWEEP_STRATA
        self.sweep_n0 = [int(rng.integers(i * width, (i + 1) * width)) for i in range(SWEEP_STRATA)]

    def build(self):
        self.rm = _library()
        self.symbols = [case.make(self.rm) for _, case in self.cases]

    def warm_up(self):
        # One round pays the first-BLAS-call cost and touches every SVD size.
        for op in self.ops():
            op.call()

    def ops(self) -> list[Op]:
        return [
            _norms_op(self.rm, kind, f"{kind}/{family}[{lo},{hi}]", sym, ref)
            for (kind, family, lo, hi), sym, ref in zip(NORMS_MIX, self.symbols, self.refs)
        ]

    def sweep(self) -> list[tuple[str, bool]]:
        """c_norm and psi1(., 0) of Indicator(n0) across 0..SWEEP_N0_MAX, untimed."""
        rm = self.rm
        out = []
        for n0 in self.sweep_n0:
            ref = indicator(n0).ref
            rep = rm.c_norm(rm.Indicator(n0))
            out.append((f"c_norm(Indicator({n0}))", rep.converged and oracles.close(rep.total, oracles.c_norm(ref), NORM_TOL)))
            value = rm.psi1(rm.Indicator(n0), 0)
            out.append((f"psi1(Indicator({n0}), 0)", oracles.close(value, oracles.psi1(ref, 0), SERIES_TOL)))
        return out


# ---------------------------------------------------------------------------
# plans: the set-up of a multiplier check (hankel, multiplier, fock)
# ---------------------------------------------------------------------------

# One round of the plans workload: per entry (family, lo, hi) one op builds
# a word space (cycling through SPACES) and the plan of a seeded symbol, as
# fock-verify and cs-bound do before they check anything.  The bands are
# those of NORMS_MIX: ten ops at the 64 level, six at 128 and nine at 256, so
# the 50th latency percentile falls among the 128-level plans and the 90th
# among the 256-level ones.  The 512 level is left out: one plan there takes
# over a second in the SVDs with singular vectors.
PLANS_MIX = (
    ("geometric", 0.05, 0.66),
    ("geometric", 0.05, 0.66),
    ("indicator", 0, 28),
    ("indicator", 0, 28),
    ("truncated", 3, 28),
    ("truncated", 3, 28),
    ("finite", 3, 28),
    ("finite", 3, 28),
    ("measure", 0.3, 0.66),
    ("measure", 0.3, 0.66),
    ("geometric", 0.72, 0.81),
    ("geometric", 0.72, 0.81),
    ("geometric", 0.72, 0.81),
    ("geometric", 0.72, 0.81),
    ("indicator", 34, 60),
    ("measure", 0.72, 0.8),
    ("geometric", 0.85, 0.89),
    ("geometric", 0.85, 0.89),
    ("geometric", 0.85, 0.89),
    ("geometric", 0.85, 0.89),
    ("geometric", 0.85, 0.89),
    ("geometric", 0.85, 0.89),
    ("indicator", 66, 124),
    ("indicator", 66, 124),
    ("measure", 0.85, 0.89),
)


def _difference_norms(ref: tuple) -> tuple[float, float, complex]:
    """(||h||_1, ||k||_1, tail) of an oracle symbol description."""
    if ref[0] == "geometric":
        s = complex(ref[1])
        gram = 1.0 / (1.0 - abs(s) ** 2)
        return abs(1 - s) * gram, abs(s) * abs(1 - s) * gram, 0j
    if ref[0] == "measure":
        return (*oracles.measure_difference_norms(ref[2]), complex(ref[1]))
    return (*oracles.support_difference_norms(ref[1], ref[2]), complex(ref[2]))


def _check_plan(result, ref) -> tuple[bool, int]:
    space, plan = result
    dim, (tn_h, tn_k, tail) = ref
    ok = space.dim == dim
    ok = ok and oracles.close(plan.decomposition_h.nuclear_sum, tn_h, NORM_TOL)
    ok = ok and oracles.close(plan.decomposition_k.nuclear_sum, tn_k, NORM_TOL)
    return ok and oracles.close(plan.c, tail, NORM_TOL), 4


class Plans:
    name = "plans"
    peak_rss_kib = staticmethod(own_peak_rss_kib)

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        self.cases = [_draw(rng, family, lo, hi) for family, lo, hi in PLANS_MIX]
        self.space_specs = [list(SPACES.values())[i % len(SPACES)][:2] for i in range(len(PLANS_MIX))]
        self.refs = [
            (sum(oracles.word_counts(*spec)), _difference_norms(case.ref))
            for spec, case in zip(self.space_specs, self.cases)
        ]

    def build(self):
        rm = self.rm = _library()
        self.symbols = [case.make(rm) for case in self.cases]
        self.specs = [rm.FockSpec(dims, max_len) for dims, max_len in self.space_specs]

    def warm_up(self):
        for op in self.ops():
            op.call()

    def ops(self) -> list[Op]:
        rm = self.rm
        return [
            Op(
                f"build_plan/{family}[{lo},{hi}]",
                lambda spec=spec, sym=sym: (rm.build_space(spec), rm.build_plan(sym)),
                lambda result, ref=ref: _check_plan(result, ref),
            )
            for (family, lo, hi), spec, sym, ref in zip(PLANS_MIX, self.specs, self.symbols, self.refs)
        ]


# ---------------------------------------------------------------------------
# verify: fock and multiplier
# ---------------------------------------------------------------------------

MAX_WORD = 2
# name -> (factor dims, max_len, max_pair_sum).  The pair-sum cap keeps one
# op on the two larger spaces under about a second at the parent.
SPACES = {
    "A": ((1, 1), 5, None),
    "B": ((2, 2), 4, 2),
    "C": ((2, 2, 2), 3, 2),
}
# Each symbol is checked on one space by verify_eigenaction and on another
# by verify_component_eigenaction, so every space sees ranks 0 to 6+5.  A
# round has 35 ops, which puts the 50th and 90th latency percentiles in the
# middle of one op's samples.
EIGEN_CASES = (
    ("geometric+", "A"),
    ("geometric-", "B"),
    ("measure", "C"),
    ("indicator2", "A"),
    ("indicator5", "B"),
    ("constant", "C"),
)
COMPONENT_CASES = (
    ("geometric+", "C"),
    ("geometric-", "A"),
    ("measure", "B"),
    ("indicator2", "B"),
    ("indicator5", "A"),
    ("constant", "A"),
)
UCP_CASES = ((1, "A"), (2, "A"), (1, "B"))
# cs_bound runs on every term of a plan: 4 + 5 + 11 terms.
KRAUS_CASES = (
    ("measure", "B"),
    ("indicator2", "C"),
    ("indicator5", "A"),
)


class Verify:
    name = "verify"
    peak_rss_kib = staticmethod(own_peak_rss_kib)

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.cases = {
            "geometric+": geometric(0.5 + 0j),
            "geometric-": geometric(-0.5 + 0j),
            "measure": measure(_cnormal(rng, 0.5), _atoms(rng, 2, 0.2, 0.5)),
            "indicator2": indicator(2),
            "indicator5": indicator(5),
            "constant": finite((), 1.0 + 0j),
        }
        # Expected eigenvalues phi(n) and psi1(n) for every n a pair can reach.
        top = 2 * MAX_WORD + 2
        self.phi = {k: [oracles.phi(c.ref, n) for n in range(top)] for k, c in self.cases.items()}
        self.psi1 = {k: [oracles.psi1(c.ref, n) for n in range(top + 1)] for k, c in self.cases.items()}
        self.pairs = {
            key: oracles.pair_count(dims, max_len, MAX_WORD, cap)
            for key, (dims, max_len, cap) in SPACES.items()
        }

    def build(self):
        rm = self.rm = _library()
        self.spaces = {
            key: rm.build_space(rm.FockSpec(dims, max_len))
            for key, (dims, max_len, _) in SPACES.items()
        }
        self.plans = {key: rm.build_plan(case.make(rm)) for key, case in self.cases.items()}
        # Kraus references: the row sum of a vector x telescopes to ||x||^2 Id.
        self.kraus_ref = {
            key: [
                (variant, x, y, float(np.vdot(x, x).real), float(np.vdot(y, y).real))
                for variant, dec in ((1, plan.decomposition_h), (2, plan.decomposition_k))
                for x, y in dec.terms
            ]
            for key, plan in self.plans.items()
        }

    def warm_up(self):
        # Fills each space's word, prefix, append-map, right-letter and
        # factor-projection caches, which every later op reuses.
        rm = self.rm
        for key, space in self.spaces.items():
            rm.verify_eigenaction(self.plans["geometric+"], space, MAX_WORD, max_pair_sum=SPACES[key][2])
            _, x, y, _, _ = self.kraus_ref["geometric+"][1]
            rm.cs_bound(space, x, y, 2)
        rm.verify_ucp_relations(self.spaces["A"], SPACES["A"][1] + 1, 1, MAX_WORD)

    def _check_eigen(self, key, space_key, rep) -> tuple[bool, int]:
        phi = self.phi[key]
        ok = len(rep.records) == self.pairs[space_key]
        for r in rep.records:
            case = oracles.pair_case(r.xi, r.eta)
            n = r.k + r.l if case == 1 else r.k + r.l - 1
            ok = ok and r.case == case and r.residual <= RESIDUAL_TOL
            ok = ok and oracles.close(r.expected, phi[n], NORM_TOL)
        return ok, len(rep.records)

    def _check_component(self, key, space_key, rep) -> tuple[bool, int]:
        psi1 = self.psi1[key]
        ok = len(rep.records) == self.pairs[space_key]
        for r in rep.records:
            case = oracles.pair_case(r.xi, r.eta)
            n2 = r.k + r.l if case == 1 else r.k + r.l - 2
            ok = ok and r.case == case
            ok = ok and r.residual_t1 <= RESIDUAL_TOL and r.residual_t2 <= RESIDUAL_TOL
            ok = ok and oracles.close(r.expected_t1, psi1[r.k + r.l], SERIES_TOL)
            ok = ok and oracles.close(r.expected_t2, psi1[n2 + 1], SERIES_TOL)
        return ok, len(rep.records)

    def _check_ucp(self, space_key, rep) -> tuple[bool, int]:
        ok = len(rep.records) == self.pairs[space_key]
        for r in rep.records:
            ok = ok and r.case == oracles.pair_case(r.xi, r.eta) and r.residual <= RESIDUAL_TOL
        return ok, len(rep.records)

    def ops(self) -> list[Op]:
        rm = self.rm
        out = []
        for key, sk in EIGEN_CASES:
            plan, space, cap = self.plans[key], self.spaces[sk], SPACES[sk][2]
            out.append(
                Op(
                    f"verify_eigenaction/{key}@{sk}",
                    lambda plan=plan, space=space, cap=cap: rm.verify_eigenaction(
                        plan, space, MAX_WORD, max_pair_sum=cap
                    ),
                    lambda rep, key=key, sk=sk: self._check_eigen(key, sk, rep),
                )
            )
        for key, sk in COMPONENT_CASES:
            plan, space, cap = self.plans[key], self.spaces[sk], SPACES[sk][2]
            out.append(
                Op(
                    f"verify_component_eigenaction/{key}@{sk}",
                    lambda plan=plan, space=space, cap=cap: rm.verify_component_eigenaction(
                        plan, space, MAX_WORD, max_pair_sum=cap
                    ),
                    lambda rep, key=key, sk=sk: self._check_component(key, sk, rep),
                )
            )
        for variant, sk in UCP_CASES:
            space, (_, max_len, cap) = self.spaces[sk], SPACES[sk]
            out.append(
                Op(
                    f"verify_ucp_relations/v{variant}@{sk}",
                    lambda space=space, variant=variant, d=max_len + 1, cap=cap: rm.verify_ucp_relations(
                        space, d, variant, MAX_WORD, max_pair_sum=cap
                    ),
                    lambda rep, sk=sk: self._check_ucp(sk, rep),
                )
            )
        kraus = []
        for key, sk in KRAUS_CASES:
            space = self.spaces[sk]
            for variant, x, y, xx, yy in self.kraus_ref[key]:
                kraus.append(
                    Op(
                        f"cs_bound/{key}@{sk}",
                        lambda space=space, x=x, y=y, variant=variant: rm.cs_bound(space, x, y, variant),
                        lambda res, xx=xx, yy=yy: (
                            oracles.close(res[0], xx, KRAUS_TOL)
                            and oracles.close(res[1], yy, KRAUS_TOL)
                            and oracles.close(res[2], xx * yy, KRAUS_TOL),
                            2,
                        ),
                    )
                )
        return out + kraus


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per op
# ---------------------------------------------------------------------------

CLI_SPACE_VERIFY = {"factors": [1, 1], "max_len": 4}
CLI_SPACE_BOUND = {"factors": [1, 1], "max_len": 3}
MALFORMED = (
    ["norm", "-s", "geometric:"],
    ["norm", "-s", "indicator:x"],
    ["fock-verify", "-s", "geometric:0.5", "--space", '{"factors":[1,1]}'],
    ["cs-bound", "-s", "nosuch:1", "--space", json.dumps(CLI_SPACE_BOUND)],
    ["integral-check"],
)


def _cplx_arg(s: complex) -> str:
    return f"{s.real:.6f}{s.imag:+.6f}i"


def _cli_ratio(rng, lo: float, hi: float) -> complex:
    """A seeded geometric ratio, rounded to what the CLI parses from _cplx_arg."""
    s = _draw(rng, "geometric", lo, hi).ref[1]
    return complex(_cplx_arg(s).replace("i", "j"))


def _parse_word(label: str):
    if label == "e":
        return ()
    return tuple(tuple(int(p) for p in letter.split(".")) for letter in label.split("|"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> tuple[int, bytes, bytes, int]:
    """Run a child to completion; return (exit code, stdout, stderr, peak RSS in KiB).

    The child is reaped with wait4 so that its own peak RSS is known.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, out, err[0], usage.ru_maxrss


class Cli:
    name = "cli"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        s_norm = _cli_ratio(rng, 0.05, 0.66)
        n0 = int(rng.integers(1, 29))
        s_verify = _cli_ratio(rng, 0.05, 0.6)
        s_bound = _cli_ratio(rng, 0.05, 0.6)
        atoms, atoms_seed = int(rng.integers(1, 6)), int(rng.integers(0, 10**6))
        self.commands = [
            ("norm", ["norm", "-s", f"geometric:{_cplx_arg(s_norm)}"]),
            ("norm-csv", ["norm", "-s", f"indicator:{n0}", "--cprime", "--format", "csv"]),
            (
                "fock-verify",
                ["fock-verify", "-s", f"geometric:{_cplx_arg(s_verify)}",
                 "--space", json.dumps(CLI_SPACE_VERIFY), "--max-word", "2"],
            ),
            ("cs-bound", ["cs-bound", "-s", f"geometric:{_cplx_arg(s_bound)}", "--space", json.dumps(CLI_SPACE_BOUND)]),
            ("integral-check", ["integral-check", "--random-atoms", str(atoms), "--seed", str(atoms_seed)]),
            ("malformed", list(MALFORMED[int(rng.integers(0, len(MALFORMED)))])),
        ]
        _, values, tail = indicator(n0).ref
        self.refs = {
            "norm": oracles.c_norm(("geometric", s_norm)),
            "norm-csv": oracles.support_difference_norms(values, tail)
            + (oracles.support_hhat_norm(values, tail),),
            "fock-verify": (s_verify, oracles.pair_count((1, 1), 4, 2)),
            "cs-bound": s_bound,
        }
        self.stdout_ref: dict[str, bytes] = {}
        self.child_rss_kib = 0

    def peak_rss_kib(self) -> int:
        """Peak resident set of the largest CLI child, in KiB."""
        return self.child_rss_kib

    def _run_cli(self, argv: list[str]):
        result = run_child([sys.executable, "-m", "radial_mult.cli", *argv])
        self.child_rss_kib = max(self.child_rss_kib, result[3])
        return result

    def build(self):
        pass

    def warm_up(self):
        # Byte-compiles the package and records each command's stdout, which
        # every timed repeat must reproduce byte for byte.
        for name, argv in self.commands:
            self.stdout_ref[name] = self._run_cli(argv)[1]

    def _check(self, name: str, result) -> tuple[bool, int]:
        code, out, err = result[0], result[1], result[2]
        if name == "malformed":
            return code == 1 and out == b"" and err.startswith(b"radial-mult: error:"), 1
        if code != 0 or out != self.stdout_ref.get(name):
            return False, 0
        if name == "norm-csv":
            sums = {"h": 0.0, "k": 0.0, "hhat": 0.0}
            for line in out.decode().splitlines()[1:]:
                matrix, _, sigma = line.split(",")
                sums[matrix] += float(sigma)
            refs = self.refs[name]
            return all(oracles.close(sums[m], r, NORM_TOL) for m, r in zip(("h", "k", "hhat"), refs)), 3
        obj = json.loads(out)
        if name == "norm":
            rep = obj["report"]
            return rep["converged"] and oracles.close(rep["total"], self.refs[name], NORM_TOL), 1
        if name == "fock-verify":
            s, n_pairs = self.refs[name]
            pairs = obj["report"]["pairs"]
            ok = len(pairs) == n_pairs
            for p in pairs:
                xi, eta = _parse_word(p["xi"]), _parse_word(p["eta"])
                case = oracles.pair_case(xi, eta)
                n = len(xi) + len(eta) - (case == 2)
                ok = ok and p["case"] == case and p["residual"] <= RESIDUAL_TOL
                ok = ok and oracles.close(complex(*p["expected"]), s**n, NORM_TOL)
            return ok, len(pairs)
        if name == "cs-bound":
            s = self.refs[name]
            gram = 1.0 / (1.0 - abs(s) ** 2)
            expect = {"h": abs(1 - s) * gram, "k": abs(s) * abs(1 - s) * gram}
            terms = obj["terms"]
            ok = sorted(t["kind"] for t in terms) == ["h", "k"]
            for t in terms:
                ok = ok and oracles.close(t["row"], expect[t["kind"]], KRAUS_TOL)
                ok = ok and oracles.close(t["col"], expect[t["kind"]], KRAUS_TOL)
            ok = ok and oracles.close(obj["plan_cb_bound"], oracles.c_norm(("geometric", s)), NORM_TOL)
            ok = ok and oracles.close(obj["eigenvalue_lower_bound"], 1.0, KRAUS_TOL)
            return ok, 2 * len(terms) + 2
        if name == "integral-check":
            (entry,) = obj["checks"]
            atoms = tuple((complex(*a["s"]), complex(*a["w"])) for a in entry["measure"])
            ok = entry["holds"] and oracles.close(entry["right"], oracles.weight(atoms), KRAUS_TOL)
            ok = ok and oracles.close(entry["left"], sum(oracles.measure_difference_norms(atoms)), NORM_TOL)
            return ok, 2
        raise ValueError(name)

    def ops(self, in_process: bool = False) -> list[Op]:
        out = []
        for name, argv in self.commands:
            if in_process:
                call = lambda argv=argv: run_main(argv)
            else:
                call = lambda argv=argv: self._run_cli(argv)
            out.append(Op(f"cli/{name}", call, lambda res, name=name: self._check(name, res)))
        return out


def run_main(argv: list[str]) -> tuple[int, bytes, bytes]:
    """radial_mult.cli.main in this process, with stdout and stderr captured."""
    from radial_mult import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


WORKLOADS = {cls.name: cls for cls in (Norms, Plans, Verify, Cli)}
