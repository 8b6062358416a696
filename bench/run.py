"""Benchmark of radial-mult: end-to-end metrics, and per-layer metrics when traced.

One run, as the metric contract in BENCHMARK.json expects it:

    python3 bench/run.py --workload norms --seed 0 --seconds 40 --trace 0

prints a summary with every metric by name, unit and sample count, then one
JSON line {"correct", "attempted", "failed", "metrics"}.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  All workloads (norms, plans, verify, cli), several seeds each,
and a result file with the environment they ran in:

    python3 bench/run.py --workload all --runs 5 --seed 0 --out bench_results/new.json

Two result files side by side, one row per workload and metric:

    python3 bench/run.py --compare bench_results/old.json bench_results/new.json

BENCHMARK.json gates norms and plans only.  On a shared 2-vCPU machine the
interpreter-bound verify and cli workloads run up to 1.6 times slower for
minutes at a time, so their run-to-run spread reaches the largest bound the
contract allows; they stay here for comparisons made by hand.

Load comes from this one process as a closed loop with one caller: the next
op starts when the previous one has returned.  Every op is checked against a
reference computed by oracles.py; a wrong answer, a non-converged report, an
unexpected exception or exit code counts as a failed op and the run goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import compare  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
# Set-up is measured in this many fresh processes per run; setup_s is their median.
SETUP_PROBES = 3
# Fresh interpreters behind each cli.interpreter_ms / cli.import_ms value.
CLI_PROBES = 3
# A run stops at the end of the round in which --seconds elapse, or, after
# its first round, mid-round once this many times --seconds have passed.
HARD_STOP = 3.0
FAILURES_KEPT = 20


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, as set at start-up (never changed here)."""
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Latencies, checks and failures of repeated rounds of the same ops."""

    def __init__(self):
        self.labels: list[str] = []
        self.latencies: list[list[float]] = []  # per op of the round
        self.checks: list[list[int]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @property
    def rounds(self) -> int:
        return min(len(x) for x in self.latencies)

    @property
    def samples(self) -> list[float]:
        return [x for op in self.latencies for x in op]

    def typical_round_s(self) -> float:
        """A round's duration, summing each op's median latency over the run.

        Medians per op smooth the machine's speed changes between rounds
        better than the median of whole-round times when rounds are few.
        """
        return sum(statistics.median(x) for x in self.latencies)

    def ops_per_s(self) -> float:
        return len(self.latencies) / self.typical_round_s()

    def checks_per_s(self) -> float:
        return sum(statistics.median(c) for c in self.checks) / self.typical_round_s()

    def run(self, ops, seconds: float) -> "Loop":
        """Repeat the round until ``seconds`` have elapsed at a round boundary.

        Latency covers the call under test only, not the check after it.
        """
        self.labels = [op.label for op in ops]
        self.latencies = [[] for _ in ops]
        self.checks = [[] for _ in ops]
        start = time.perf_counter()
        while True:
            for i, op in enumerate(ops):
                t0 = time.perf_counter()
                try:
                    result, error = op.call(), None
                except Exception as exc:  # a failed op is recorded, never fatal
                    result, error = None, exc
                elapsed = time.perf_counter() - t0
                ok, n_checks = False, 0
                if error is None:
                    try:
                        ok, n_checks = op.check(result)
                    except Exception as exc:
                        error = exc
                self.latencies[i].append(elapsed)
                self.checks[i].append(n_checks if ok else 0)
                self.attempted += 1
                if not ok:
                    self.failed += 1
                    if len(self.failures) < FAILURES_KEPT:
                        why = f"{type(error).__name__}: {error}" if error else "wrong answer"
                        self.failures.append(f"{op.label}: {why}")
                if self.latencies[-1] and time.perf_counter() - start >= HARD_STOP * seconds:
                    return self
            if time.perf_counter() - start >= seconds:
                return self


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def end_to_end(workload, loop: Loop, setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metric values and the sample counts behind them."""
    latencies = loop.samples
    n = len(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": loop.ops_per_s(),
        "op_p50_ms": 1e3 * _percentile(latencies, 50),
        "op_p90_ms": 1e3 * _percentile(latencies, 90),
        "checks_per_s": loop.checks_per_s(),
        "peak_rss_mb": workload.peak_rss_kib() / 1024.0,
    }
    above_p90 = sum(1 for x in latencies if 1e3 * x > values["op_p90_ms"])
    per_op = f"{len(loop.labels)} ops a round, median of {loop.rounds} rounds per op"
    samples = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": per_op,
        "op_p50_ms": f"{n} samples",
        "op_p90_ms": f"{n} samples, {above_p90} above p90",
        "checks_per_s": per_op,
        "peak_rss_mb": "cli children" if workload.name == "cli" else "this process",
    }
    return values, samples


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def set_up(name: str, seed: int):
    workload = workloads.WORKLOADS[name](seed)
    workload.build()
    workload.warm_up()
    return workload


def probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh process to the end of its set-up."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {name} failed with exit code {code}")
    return elapsed


def cli_controls() -> tuple[float, float]:
    """(interpreter ms, import ms): medians of fresh `python -c` processes."""

    def median_ms(code: str) -> float:
        times = []
        for _ in range(CLI_PROBES):
            t0 = time.perf_counter()
            status = workloads.run_child([sys.executable, "-c", code])[0]
            times.append(time.perf_counter() - t0)
            if status != 0:
                raise RuntimeError(f"python -c {code!r} exited with {status}")
        return 1e3 * statistics.median(times)

    interpreter = median_ms("pass")
    return interpreter, median_ms("import radial_mult.cli") - interpreter


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    setups = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    workload = set_up(name, seed)
    setup_here = time.perf_counter() - t0
    loop = Loop().run(workload.ops(), seconds)
    values, samples = end_to_end(workload, loop, setups)
    record = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "values": values,
        "detail": {
            "samples": samples,
            "setup_probes_s": setups,
            "setup_in_run_s": setup_here,
            "rounds": loop.rounds,
            "op_median_ms": [
                [label, 1e3 * statistics.median(x)] for label, x in zip(loop.labels, loop.latencies)
            ],
            "failures": loop.failures,
        },
    }
    if name == "norms":
        sweep = workload.sweep()
        wrong = [label for label, ok in sweep if not ok]
        record["detail"]["sweep"] = {"checked": len(sweep), "wrong": wrong}
    return record


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics: a traced build, then half the time untraced and half traced.

    The untraced half only serves to measure the tracing overhead; the
    end-to-end metrics always come from untraced runs.
    """
    interpreter_ms, import_ms = cli_controls()
    import radial_mult.cli  # noqa: F401  (so the tracer also patches the CLI's names)

    workload = workloads.WORKLOADS[name](seed)
    with Tracer() as setup_trace:
        workload.build()
    workload.warm_up()
    if name == "cli":
        ops = workload.ops(in_process=True)
        for op in ops:
            op.call()
    else:
        ops = workload.ops()
    untraced = Loop().run(ops, seconds / 2)
    with Tracer() as loop_trace:
        traced = Loop().run(ops, seconds / 2)
    values = layer_metrics(setup_trace, loop_trace, traced.rounds)
    values["cli.interpreter_ms"] = interpreter_ms
    values["cli.import_ms"] = import_ms
    values["cli.main_ms"] = (
        1e3 * statistics.mean(untraced.samples) if name == "cli" else 0.0
    )
    values["trace.overhead_share"] = (
        untraced.ops_per_s() / traced.ops_per_s() - 1.0
    )
    failures = untraced.failures + traced.failures
    return {
        "correct": untraced.failed + traced.failed == 0,
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "values": values,
        "detail": {
            "rounds_untraced": untraced.rounds,
            "rounds_traced": traced.rounds,
            "failures": failures[:FAILURES_KEPT],
        },
    }


def metrics_json(spec: dict, values: dict, trace: int) -> dict:
    # The tracer records more spans than BENCHMARK.json lists: the ones only
    # the verify and cli workloads reach stay in the run record and result files.
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]}


def print_summary(name: str, seed: int, seconds: float, trace: int, record: dict, spec: dict):
    detail = record["detail"]
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {trace}")
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = record["values"][m["name"]]
        note = detail.get("samples", {}).get(m["name"], "")
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']:<8} {note}")
    ratio = record["failed"] / record["attempted"]
    print(f"  {'fail_ratio':<44} {ratio:>14.6g} {'-':<8} {record['failed']} of {record['attempted']} ops")
    for failure in detail["failures"]:
        print(f"    failed: {failure}")
    if "sweep" in detail:
        sweep = detail["sweep"]
        print(
            f"  untimed range sweep of Indicator(n0), n0 <= {workloads.SWEEP_N0_MAX}: "
            f"{len(sweep['wrong'])} of {sweep['checked']} wrong"
        )
        for label in sweep["wrong"]:
            print(f"    wrong: {label}")


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    record = run_traced(name, seed, seconds) if trace else run_untraced(name, seed, seconds)
    record.update(workload=name, seed=seed, seconds=seconds, trace=trace)
    return record


def run_many(args, spec: dict) -> int:
    """Each (workload, seed) in its own process; optionally a result file."""
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    for name in names:
        for seed in range(args.seed, args.seed + args.runs):
            argv = [
                sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--record",
            ]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines if not line.startswith("record ")), flush=True)
            if proc.returncode != 0:
                print(f"run of {name} seed {seed} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            runs.extend(json.loads(line[7:]) for line in lines if line.startswith("record "))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(), "runs": runs}, fh, indent=1)
            fh.write("\n")
    print()
    compare.print_spreads(runs, spec)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, help="seeds per workload, each run in its own process")
    parser.add_argument("--out", help="write a result file of all runs")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two result files")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.compare and not args.workload:
        parser.error("--workload or --compare is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], spec)
    if not (ROOT / "src" / "radial_mult" / "__init__.py").is_file():
        print(f"radial_mult sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all" or args.runs or args.out:
        args.seconds = seconds
        args.runs = args.runs or 1
        return run_many(args, spec)
    record = run_one(args.workload, args.seed, seconds, args.trace)
    print_summary(args.workload, args.seed, seconds, args.trace, record, spec)
    metrics = metrics_json(spec, record["values"], args.trace)
    if args.record:
        print("record " + json.dumps({**record, "metrics": metrics}))
    line = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
