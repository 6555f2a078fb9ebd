"""Benchmark of tandemqbd: the exact QBD route and the simulation route.

Run from the repository root:

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` and driven only through its public
entry points: ``tandemqbd.cli.main`` in-process for ``analyze``, ``sweep``
and ``simulate``, and ``tandemqbd.simulate_with_arrivals`` directly. Load
is a closed loop from this one process, one operation at a time.

A run repeats passes over the workload's operations until ``--seconds``
have gone by. Each pass ends with a cross-check of the reference line
[0.8, 1, 1], B=1 by both routes, so every layer works in every workload;
cross-check operations are checked and traced but not timed. With
``--trace 0`` the last line of standard output gives the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` passes alternate untraced
and traced, and it gives the per-layer metrics. Each run also writes a
result set (machine, metrics, checks) and, when traced, its spans to
``perfbench/out/``. The exit code is 1 when an output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS threads: at most the CPUs this process may run on, and at most 2
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

COLD_STARTS = 5
SETUP_CODE = "import tandemqbd.cli as cli; cli.build_parser()"

# The paper's reference grids, mu_rest = 1: (servers, mu0, B) -> lambda_max
PUBLISHED_GRID = {
    (3, 0.8, 0): 0.519989942, (3, 1.0, 0): 0.564102564, (3, 1.25, 0): 0.598437788,
    (4, 0.8, 0): 0.485029352, (4, 1.0, 0): 0.514775489, (4, 1.25, 0): 0.535049700,
    (5, 0.8, 0): 0.463993704, (5, 1.0, 0): 0.485798122, (5, 1.25, 0): 0.499168087,
    (6, 0.8, 0): 0.449869861, (6, 1.0, 0): 0.466713263, (6, 1.25, 0): 0.476185018,
    (3, 0.8, 1): 0.615528799, (3, 1.0, 1): 0.670466159, (3, 1.25, 1): 0.707254387,
    (4, 0.8, 1): 0.592393780, (4, 1.0, 1): 0.631152686, (4, 1.25, 1): 0.652598317,
    (5, 0.8, 1): 0.578207816, (5, 1.0, 1): 0.607583286, (5, 1.25, 1): 0.621585610,
    (6, 0.8, 1): 0.568521082, (6, 1.0, 1): 0.591825779, (6, 1.25, 1): 0.601677388,
}
GRID_TOL = 5e-9

# Large lines: (rates, buffers, phases, lambda_max pinned from dense LU)
HETERO_RATES = [0.9, 1.0, 1.1, 1.0, 1.0, 1.0, 1.0]
HETERO_BUFFERS = [2, 0, 3, 1, 0, 2]
LARGE_LINES = [
    ([1.25] + [1.0] * 6, [1] * 6, 2911, 0.587831941967),
    (HETERO_RATES, HETERO_BUFFERS, 3833, 0.573909757323),
    (HETERO_RATES[::-1], HETERO_BUFFERS[::-1], 3833, 0.573909757323),
    ([1.0] * 10, [0] * 9, 6765, 0.428960732725),
]
REVERSAL_TOL = 1e-9

# Reference line of the simulation workloads and of every cross-check
REF_RATES, REF_BUFFERS, REF_PHASES, REF_LAMBDA = [0.8, 1.0, 1.0], [1, 1], 15, 0.615528799
# 2x10^4 rather than the CLI default of 10^6: departures per second are the
# same (the fixed cost of a call is under 1%), and a run holds about 150
# short simulations of each loop instead of 6 long ones, enough for each
# loop's quickest tenth to fall in the moments other tenants leave the CPU alone
SIM_DEPARTURES = 20_000
ARRIVAL_LOAD = 0.95
CHECK_DEPARTURES = 10_000
# sanity band of a 10^4-departure estimate (about 20 standard errors)
CHECK_SIM_TOL = 0.05

WORKLOADS = ("grid_sweep", "large_line", "simulate")


@dataclass
class Op:
    """One call into the program: ``call`` is timed, ``check`` is not.

    ``check`` returns an error message or None; ``work`` counts the units
    of work in the result (lines, departures or events).
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    work: Callable[[Any], float] = lambda out: 1.0


class Bench:
    def __init__(self, args, tandemqbd, cli, shift: float):
        self.args = args
        self.tq = tandemqbd
        self.cli = cli
        self.shift = shift  # added to every expected lambda_max by --wrong-expected
        self.rng = random.Random(args.seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.last_sim = None
        self.ref_config = tandemqbd.validate_config(REF_RATES, REF_BUFFERS)
        self.sim_departures = CHECK_DEPARTURES if args.tiny else SIM_DEPARTURES
        original = cli.simulate_saturated

        def capture(*a, **kw):  # keeps the SimResult the CLI does not print
            self.last_sim = original(*a, **kw)
            return self.last_sim

        cli.simulate_saturated = capture

    # -- calls into the program -------------------------------------------

    def cli_json(self, argv: list[str]) -> Any:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"tandemqbd {' '.join(argv)} exited {code}")
        return json.loads(buf.getvalue())

    def expect(self, out: dict, phases: int, want: float) -> str | None:
        """Check an analytic result: exact phase count, lambda_max within 5e-9."""
        if out["M"] != phases:
            return f"M = {out['M']}, expected {phases}"
        err = abs(out["lambda_max"] - (want + self.shift))
        return f"lambda_max off by {err:.3g}" if err > GRID_TOL else None

    def simulate_op(self, departures: int, seed: int, label: str) -> Op:
        argv = ["simulate", "--mu", ",".join(map(str, REF_RATES)), "--buffers",
                ",".join(map(str, REF_BUFFERS)), "--departures", str(departures),
                "--seed", str(seed)]

        def call():
            out = self.cli_json(argv)
            return out, self.last_sim

        def check(result):
            out, sim = result
            if out["departures"] != departures or sim.departures_counted != departures:
                return f"counted {out['departures']} departures, asked {departures}"
            if sim.customers_injected != sim.total_departures + sim.customers_in_system:
                return "saturated run does not conserve customers"
            tol = (max(3 * out["ci95"], 0.005) if departures >= SIM_DEPARTURES
                   else CHECK_SIM_TOL)
            err = abs(out["estimate"] - (REF_LAMBDA + self.shift))
            if err > tol:
                return f"estimate {out['estimate']} off by {err:.3g} > {tol:.3g}"
            return None

        return Op(label, call, check, lambda r: r[1].total_departures)

    def arrivals_op(self, horizon_departures: int, seed: int, label: str) -> Op:
        rate = ARRIVAL_LOAD * REF_LAMBDA
        horizon = horizon_departures / REF_LAMBDA

        def call():
            return self.tq.simulate_with_arrivals(self.ref_config, rate, horizon, seed=seed)

        def check(r):
            if r.arrivals != r.departures + r.in_system:
                return "arrival run does not conserve customers"
            if r.departures <= 0 or r.horizon != horizon:
                return f"arrival run ended with {r.departures} departures"
            return None

        return Op(label, call, check, lambda r: r.arrivals + r.departures)

    def analyze_op(self, rates, buffers, phases: int, want: float, label: str) -> Op:
        argv = ["analyze", "--mu", ",".join(map(str, rates)),
                "--buffers", ",".join(map(str, buffers))]
        return Op(label, lambda: self.cli_json(argv),
                  lambda out: self.expect(out, phases, want))

    # -- workloads: the operations of one pass ------------------------------

    def grid_sweep(self) -> list[Op]:
        keys = self.rng.sample(sorted(PUBLISHED_GRID), len(PUBLISHED_GRID))
        ops = []
        for servers, mu0, buffer in keys:
            argv = ["sweep", "--servers", str(servers), "--mu0", str(mu0),
                    "--buffer", str(buffer), "--format", "json", "--precision", "full"]
            phases = self.tq.count_phases_closed_form(buffer, servers - 1)
            want = PUBLISHED_GRID[servers, mu0, buffer]
            ops.append(Op(f"grid {servers} {mu0} B={buffer}",
                          lambda argv=argv: self.cli_json(argv),
                          lambda rows, p=phases, w=want: self.expect(*rows, p, w)))
        return ops

    def large_line(self) -> list[Op]:
        count = 1 if self.args.tiny else len(LARGE_LINES)
        order = self.rng.sample(range(count), count)
        return [self.analyze_op(*LARGE_LINES[i], label=f"large {i}") for i in order]

    def simulate(self) -> list[Op]:
        return [self.simulate_op(self.sim_departures, self.rng.randrange(2**32), "saturated"),
                self.arrivals_op(self.sim_departures, self.rng.randrange(2**32), "arrivals")]

    def cross_check(self) -> list[Op]:
        seed = self.rng.randrange(2**32)
        return [
            self.analyze_op(REF_RATES, REF_BUFFERS, REF_PHASES, REF_LAMBDA, "check analyze"),
            self.simulate_op(CHECK_DEPARTURES, seed, "check simulate"),
            self.arrivals_op(CHECK_DEPARTURES, seed, "check arrivals"),
        ]

    def pass_checks(self, results: dict[str, Any]) -> None:
        """Checks across the operations of one pass."""
        if "large 1" in results and "large 2" in results:
            self.attempted += 1
            a, b = results["large 1"]["lambda_max"], results["large 2"]["lambda_max"]
            if abs(a - b) > REVERSAL_TOL:
                self.failures.append(f"reversal: {a!r} vs {b!r}")

    def determinism(self) -> None:
        """A short seeded repeat of each simulation loop is bit-identical."""
        seed = self.rng.randrange(2**32)
        for make in (
            lambda: self.simulate_op(CHECK_DEPARTURES, seed, "repeat"),
            lambda: self.arrivals_op(CHECK_DEPARTURES, seed, "repeat"),
        ):
            self.attempted += 1
            try:
                first, second = make().call(), make().call()
            except Exception:
                self.failures.append("determinism: " + traceback.format_exc())
                continue
            if repr(first) != repr(second):
                self.failures.append(f"determinism: {first!r} != {second!r}")

    # -- running ------------------------------------------------------------

    def run_op(self, op: Op, tracer, kind: str):
        """Run, time and check one operation; returns (latency, work, result)."""
        self.attempted += 1
        span = tracer.span("op", kind=kind, label=op.label) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                out = op.call()
        except Exception:
            self.failures.append(f"{op.label}: " + traceback.format_exc())
            return None
        latency = time.perf_counter() - t0
        try:
            error = op.check(out)
        except Exception:
            error = traceback.format_exc()
        if error is not None:
            self.failures.append(f"{op.label}: {error}")
            return None
        return latency, float(op.work(out)), out

    def run_pass(self, tracer=None) -> dict:
        """One pass: the workload's operations, then the cross-check."""
        main = getattr(self, self.args.workload)()
        ops, results = {}, {}  # label -> (latency, work), label -> output
        for op in main:
            done = self.run_op(op, tracer, "main")
            if done is not None:
                ops[op.label] = done[:2]
                results[op.label] = done[2]
        for op in self.cross_check():
            self.run_op(op, tracer, "check")
        self.pass_checks(results)
        return {"time": sum(t for t, _ in ops.values()),
                "work": sum(w for _, w in ops.values()), "ops": ops}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def cold_start_seconds(count: int) -> list[float]:
    """Wall time of fresh interpreters that import tandemqbd and build the parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def fastest_tenth(values: list) -> list:
    """The quickest tenth of the samples, at least one.

    Other tenants of a shared machine slow the CPU by up to 2x for seconds
    to minutes at a time, so a median over all samples moves with how much
    of the run they took. The quickest samples are the ones they left alone.
    """
    return sorted(values)[: math.ceil(len(values) / 10)]


def end_to_end(passes: list[dict], setup: list[float]) -> tuple[dict, dict]:
    # each operation, such as one grid line, is represented by the median of
    # its quickest tenth of calls; the pass time is their sum, so it needs no
    # whole pass to escape the slow periods, and the percentiles are taken
    # over them, so every input counts equally
    by_op: dict[str, list[tuple[float, float]]] = {}
    for p in passes:
        for label, call in p["ops"].items():
            by_op.setdefault(label, []).append(call)
    quick_ops = {label: fastest_tenth(calls) for label, calls in by_op.items()}
    per_op = {label: {"latency_s": statistics.median(t for t, _ in calls),
                      "work": statistics.median(w for _, w in calls),
                      "work_per_s": statistics.median(w / t for t, w in calls),
                      "calls_used": len(calls)}
              for label, calls in quick_ops.items()}
    latencies = [op["latency_s"] for op in per_op.values()]
    p90 = percentile(latencies, 0.9)
    pass_s = sum(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_s": pass_s,
        "work_per_s": sum(op["work"] for op in per_op.values()) / pass_s,
        "op_p50_ms": 1000 * percentile(latencies, 0.5),
        "op_p90_ms": 1000 * p90,
    }
    samples = {
        "passes": len(passes),
        "operations": len(per_op),
        "calls_used": sum(op["calls_used"] for op in per_op.values()),
        # operations above the p90, and the calls their medians are taken over
        "beyond_p90": sum(t > p90 for t in latencies),
        "calls_beyond_p90": sum(op["calls_used"] for op in per_op.values()
                                if op["latency_s"] > p90),
        "setup_s": setup,
        "pass_s": [p["time"] for p in passes],
        "per_op": per_op,
    }
    return metrics, samples


def workload_names(workload: str, metrics: dict, per_op: dict) -> dict:
    """The end-to-end readings under the workload-specific names of README.md."""
    if workload == "grid_sweep":
        return {"lines_per_s": metrics["work_per_s"], "line_p50_ms": metrics["op_p50_ms"],
                "line_p90_ms": metrics["op_p90_ms"]}
    if workload == "large_line":
        return {"large_line_s": metrics["pass_s"]}
    return {"sat_departures_per_s": per_op.get("saturated", {}).get("work_per_s"),
            "arr_events_per_s": per_op.get("arrivals", {}).get("work_per_s")}


LAYER_TIMES = {  # span name -> (total-time metric, self-time metric)
    "phases.enumerate": ("phases.enumerate_s", None),
    "generator.build": ("generator.build_s", None),
    "stationary.densify": ("stationary.densify_s", None),
    "stationary.solve": ("stationary.solve_s", None),
    "throughput.lambda_max": ("throughput.lambda_max_s", "throughput.fold_s"),
    "simulate.saturated": ("simulate.saturated_s", None),
    "simulate.arrivals": ("simulate.arrivals_s", None),
    "cli.main": (None, "cli.self_s"),
}
LAYERS = ("phases", "generator", "stationary", "throughput", "simulate", "cli")


def per_layer(tracer, traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    """Per-pass layer readings from the traced passes, plus trace overhead.

    Times, counts and calls are totals over the traced passes divided by
    their number; errors are totals; peak allocation and residual are the
    largest single readings.
    """
    own = tracer.self_times()
    totals: dict[str, float] = {f"{layer}.{kind}": 0 for layer in LAYERS
                                for kind in ("calls", "errors")}
    totals.update({key: 0.0 for pair in LAYER_TIMES.values() for key in pair if key})
    totals.update({"phases.phases": 0, "generator.nnz": 0})
    peak_alloc = residual = 0.0
    kind = {}  # op_id -> "main" | "check"
    op_time = {"main": 0.0, "check": 0.0}
    main_self: dict[str, float] = {}
    worst_unaccounted = 0.0
    for s, own_s in zip(tracer.spans, own):
        if s.name == "op":
            kind[s.span_id] = s.extra["kind"]
            op_time[s.extra["kind"]] += s.duration
            worst_unaccounted = max(worst_unaccounted, own_s / s.duration)
            continue
        layer = s.name.split(".")[0]
        if kind[s.op_id] == "main":
            main_self[layer] = main_self.get(layer, 0.0) + own_s
        totals[f"{layer}.calls"] += 1
        total, self_ = LAYER_TIMES[s.name]
        if total:
            totals[total] += s.duration
        if self_:
            totals[self_] += own_s
        totals["phases.phases"] += s.extra.get("phases", 0)
        totals["generator.nnz"] += s.extra.get("nnz", 0)
        peak_alloc = max(peak_alloc, s.extra.get("peak_alloc_bytes", 0) / 2**20)
        residual = max(residual, s.extra.get("residual_rel", 0.0))
    n = len(traced)
    m = {k: v if k.endswith(".errors") else v / n for k, v in totals.items()}
    m.update({f"{layer}.errors": sum(s.error for s in tracer.spans
                                     if s.name.startswith(layer + "."))
              for layer in LAYERS})
    m["stationary.peak_alloc_mb"] = peak_alloc
    m["stationary.residual_rel"] = residual
    m["phases.phases_per_s"] = m["phases.phases"] / m["phases.enumerate_s"]
    m["generator.nnz_per_s"] = m["generator.nnz"] / m["generator.build_s"]
    m["trace.overhead_s"] = (statistics.median(fastest_tenth([p["time"] for p in traced]))
                             - statistics.median(fastest_tenth([p["time"] for p in untraced])))
    summary = {
        "traced_passes": n,
        "untraced_passes": len(untraced),
        "main_op_s_per_pass": op_time["main"] / n,
        "check_op_s_per_pass": op_time["check"] / n,
        # share of main-operation time spent as each layer's self time
        "main_layer_shares": {k: v / op_time["main"] for k, v in main_self.items()},
        # the largest share of one operation's time that no layer span covers
        "worst_op_unaccounted_share": worst_unaccounted,
    }
    return m, summary


def machine(args) -> dict:
    import numpy
    import scipy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_set": BLAS_THREADS,
        "seed": args.seed,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["ram_gib"] = int(line.split()[1]) / 2**20
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    info["blas_threads"] = blas_thread_counts()
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30) if (ROOT / ".git").exists() else None
    info["git_commit"] = git.stdout.strip() if git and git.returncode == 0 else None
    return info


def blas_thread_counts() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    counts = {}
    with contextlib.suppress(OSError):
        libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                if "openblas" in line and line.split()[-1].startswith("/")}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    fn = getattr(lib, symbol)
                    fn.restype = ctypes.c_int
                    counts[Path(path).name] = fn()
                    break
    return counts


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one large line, 10^4-departure simulations, one cold start")
    p.add_argument("--wrong-expected", action="store_true",
                   help="shift every expected lambda_max by 1e-6 (self-test of the checks)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tandemqbd" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import tandemqbd
    import tandemqbd.cli as cli
    import tandemqbd.throughput as throughput
    from spans import Tracer, package_targets

    bench = Bench(args, tandemqbd, cli, 1e-6 if args.wrong_expected else 0.0)
    setup = cold_start_seconds(1 if args.tiny else COLD_STARTS) if args.trace == 0 else []

    bench.determinism()
    for op in bench.cross_check():  # warm-up: every layer runs once before timing
        bench.run_op(op, None, "check")

    tracer = Tracer() if args.trace else None
    targets = package_targets(tandemqbd, throughput, cli)
    traced, untraced = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds or not untraced
           or (tracer and not traced)):
        if tracer and len(untraced) > len(traced):
            tracer.install(targets)
            try:
                traced.append(bench.run_pass(tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(bench.run_pass())

    result: dict[str, Any] = {"workload": args.workload, "seconds": args.seconds,
                              "trace": args.trace, "machine": machine(args)}
    measured = [p for p in untraced if p["ops"]]
    if not measured:
        bench.failures.append("no operation completed")
    elif args.trace == 0:
        metrics, result["samples"] = end_to_end(measured, setup)
        wanted = spec["end_to_end"]
    else:
        metrics, result["trace_summary"] = per_layer(tracer, traced, untraced)
        wanted = spec["per_layer"]
    failed = len(bench.failures)
    attempted = max(bench.attempted, failed, 1)
    result.update(attempted=attempted, failed=failed, error_rate=failed / attempted,
                  failures=bench.failures)
    if measured and args.trace == 0:
        result["workload_names"] = workload_names(args.workload, metrics,
                                                  result["samples"]["per_op"])
    line: dict[str, Any] = {"correct": failed == 0, "attempted": attempted,
                            "failed": failed, "metrics": {}}
    if measured:
        line["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                           for m in wanted}
    result["metrics"] = line["metrics"]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()))
    for failure in bench.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
