"""In-memory span tracing of radial_mult's layers, installed from outside.

The tracer wraps a layer's public functions by replacing the module
attributes that callers look up: every ``radial_mult`` module that holds
the original function object gets the wrapper, so internal calls such as
``c_norm -> singular_values`` or ``_rho_chain -> rho`` are seen too.  Spans
are aggregated as they close: per name the call count, the total time and
the self time (the span minus the time covered by its child spans).
"""

from __future__ import annotations

import sys
import time

# Span name -> (module, attribute) of each function it covers.
SPANS = {
    "symbols.evaluate": [("radial_mult.symbols", "evaluate")],
    "symbols.psi1": [("radial_mult.symbols", "psi1")],
    "symbols.double": [("radial_mult.symbols", "double")],
    "hankel.c_norm": [("radial_mult.hankel", "c_norm")],
    "hankel.cprime_norm": [("radial_mult.hankel", "cprime_norm")],
    "hankel.assembly": [
        ("radial_mult.hankel", "hankel_h"),
        ("radial_mult.hankel", "hankel_k"),
        ("radial_mult.hankel", "hankel_hhat"),
    ],
    "hankel.svd": [("radial_mult.hankel", "singular_values")],
    "hankel.rank_one_decompose": [("radial_mult.hankel", "rank_one_decompose")],
    "fock.build_space": [("radial_mult.fock", "build_space")],
    "fock.word_operator": [("radial_mult.fock", "word_operator")],
    "fock.rho": [("radial_mult.fock", "rho")],
    "fock.eps": [("radial_mult.fock", "eps")],
    "fock.right_word": [("radial_mult.fock", "right_word")],
    "multiplier.build_plan": [("radial_mult.multiplier", "build_plan")],
    "multiplier.apply_T": [("radial_mult.multiplier", "apply_T")],
    "multiplier.verify_eigenaction": [("radial_mult.multiplier", "verify_eigenaction")],
    "multiplier.verify_component_eigenaction": [
        ("radial_mult.multiplier", "verify_component_eigenaction")
    ],
    "multiplier.verify_ucp_relations": [("radial_mult.multiplier", "verify_ucp_relations")],
    "multiplier.ucp_pi_apply": [("radial_mult.multiplier", "ucp_pi_apply")],
    "multiplier.kraus_row_sum": [("radial_mult.multiplier", "kraus_row_sum")],
    "multiplier.spectral_norm": [("radial_mult.multiplier", "spectral_norm")],
    "multiplier.cs_bound": [("radial_mult.multiplier", "cs_bound")],
    "integral.verify_membership_bound": [("radial_mult.integral", "verify_membership_bound")],
    "integral.verify_doubling": [("radial_mult.integral", "verify_doubling")],
}

# Counters kept beside the spans; each is a whole number.
COUNTERS = (
    "hankel.svd.dim_max",
    "hankel.svd.work_m3",
    "hankel.unconverged",
    "fock.FockOperator.constructions",
    "multiplier.plan.rank_terms",
    "multiplier.pairs_checked",
)

_NORM_SPANS = ("hankel.c_norm", "hankel.cprime_norm")
_VERIFY_SPANS = (
    "multiplier.verify_eigenaction",
    "multiplier.verify_component_eigenaction",
    "multiplier.verify_ucp_relations",
)


class Tracer:
    """Aggregated spans and counters for one phase of a run."""

    def __init__(self):
        self.calls = {name: 0 for name in SPANS}
        self.total_s = {name: 0.0 for name in SPANS}
        self.self_s = {name: 0.0 for name in SPANS}
        self.counters = {name: 0 for name in COUNTERS}
        # Sigma m^3 of the SVDs inside adaptive norm loops, and the part of
        # it spent at the truncation each loop returned.
        self.norm_work_m3 = 0
        self.useful_work_m3 = 0
        self._stack: list[list[float]] = []
        self._svd_sizes: list[list[int]] = []

    # -- span bookkeeping --------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            child = [0.0]
            tracer._stack.append(child)
            if name in _NORM_SPANS:
                tracer._svd_sizes.append([])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.total_s[name] += elapsed
                tracer.self_s[name] += elapsed - child[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                sizes = tracer._svd_sizes.pop() if name in _NORM_SPANS else None
            tracer._observe(name, args, result, sizes)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _observe(self, name, args, result, sizes):
        if name == "hankel.svd":
            m = int(args[0].shape[0])
            self.counters["hankel.svd.dim_max"] = max(self.counters["hankel.svd.dim_max"], m)
            self.counters["hankel.svd.work_m3"] += m**3
            if self._svd_sizes:
                self._svd_sizes[-1].append(m)
        elif sizes is not None:
            self.norm_work_m3 += sum(m**3 for m in sizes)
            self.useful_work_m3 += sum(m**3 for m in sizes if m == result.truncation)
            if not result.converged:
                self.counters["hankel.unconverged"] += 1
        elif name == "multiplier.build_plan":
            self.counters["multiplier.plan.rank_terms"] += len(
                result.decomposition_h.terms
            ) + len(result.decomposition_k.terms)
        elif name in _VERIFY_SPANS:
            self.counters["multiplier.pairs_checked"] += len(result.records)

    def _count_operator(self, init):
        tracer = self

        def counted(op, *args, **kwargs):
            tracer.counters["fock.FockOperator.constructions"] += 1
            init(op, *args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch every radial_mult module attribute that holds a traced function."""
        import radial_mult.fock  # noqa: F401  (ensures submodules are loaded)

        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None
            and (mod_name == "radial_mult" or mod_name.startswith("radial_mult."))
        ]
        self._patched = []
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapper)
        fock_operator = sys.modules["radial_mult.fock"].FockOperator
        self._init = fock_operator.__init__
        fock_operator.__init__ = self._count_operator(self._init)

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []
        sys.modules["radial_mult.fock"].FockOperator.__init__ = self._init

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(setup: Tracer, loop: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer values for one set-up plus one round of the op mix.

    Set-up spans are taken once; loop spans are averaged over the traced
    rounds, so counts repeat exactly from run to run.
    """

    def per_round(a, b):
        return a + b / rounds

    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = per_round(setup.calls[name], loop.calls[name])
        out[f"{name}.self_s"] = per_round(setup.self_s[name], loop.self_s[name])
    for name in COUNTERS:
        if name == "hankel.svd.dim_max":
            out[name] = max(setup.counters[name], loop.counters[name])
        else:
            out[name] = per_round(setup.counters[name], loop.counters[name])
    norm_work = setup.norm_work_m3 + loop.norm_work_m3
    useful = setup.useful_work_m3 + loop.useful_work_m3
    out["hankel.svd.useful_share"] = useful / norm_work if norm_work else 1.0
    return out
