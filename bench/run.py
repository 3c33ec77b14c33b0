#!/usr/bin/env python3
"""The priorcs benchmark: end-to-end and per-layer timing of ``priorcs`` runs.

Run from the root of a checkout (see bench/README.md):

    python3 bench/run.py --workload verify-noisy --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another
    python3 bench/run.py --smoke                 # tiny sizes; checks every metric prints

Each workload command runs as a fresh ``python3 -c 'priorcs.cli.main()'``
process, one at a time (a closed loop with one client), writing into a
temporary directory under the checkout. Repetitions of the workload are
timed from outside until --seconds have passed; medians are reported. With
--trace 1, traced repetitions (bench/traced_cli.py) alternate with untraced
ones, and the per-layer metrics plus the tracing overhead are reported.

Times are rescaled to a reference speed of the CPU. On a shared host a
core's speed swings by up to 2x within seconds, as other tenants load it, so
the benchmark and its children are pinned to one CPU, and a sampler thread
in the benchmark runs a short fixed burst of work every 50 ms on that CPU.
A child's time, less the sampler's bursts, is scaled by CAL_REF_S over the
mean burst time seen while it ran. The measured seconds are printed too.

Every repetition's outputs are checked against bench/reference.json. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every check passed,
1 when one failed, 2 when the checkout holds no priorcs sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from time import perf_counter, thread_time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
STATE_FILE = os.path.join(ROOT, ".bench_state", "iterations.json")
REFERENCE_FILE = os.path.join(BENCH, "reference.json")

# One BLAS thread: with threads unpinned, verify-noisy varied 5.5-9.0 s over
# six runs on a 2-core machine, against 5.2-5.6 s pinned.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Sampler: a burst every SAMPLE_PERIOD_S of sleep, taking about 5% of the
# CPU. CAL_REF_S is the median burst time on a 2-vCPU Xeon VM at 2.0 GHz
# (Python 3.11, numpy 2.4, one BLAS thread); a reference second is a second
# of work at that speed.
SAMPLE_PERIOD_S = 0.05
CAL_REF_S = 0.0026

PRIORCS_MAIN = "import sys; from priorcs.cli import main; sys.exit(main())"
SETUP_PROBES = 7
# Untraced repetitions per run at least; a traced run needs two of each kind.
MIN_REPS = 3

END_TO_END = {
    "norm_wall_s": "s",
    "setup_s": "s",
    "norm_points_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "matrices.generate_s": "s",
    "matrices.coherence_s": "s",
    "solver.calls": "count",
    "solver.self_s": "s",
    "solver.opnorm_s": "s",
    "solver.iters_total": "count",
    "solver.iters_p50": "count",
    "solver.iters_p90": "count",
    "solver.iters_max": "count",
    "solver.us_per_iter": "us",
    "solver.solve_ms_p50": "ms",
    "solver.solve_ms_tail": "ms",
    "solver.kkt_max": "residual",
    "supports.calls": "count",
    "supports.self_s": "s",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "experiments.self_s": "s",
    "experiments.emit_s": "s",
    "tables.csv_s": "s",
    "tables.svg_s": "s",
    "tables.csv_bytes": "bytes",
    "tables.svg_bytes": "bytes",
    "tables.rows": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Rep:
    """One timed pass over a workload's commands."""

    wall: float
    norm_wall: float
    rss_mb: float
    rows: int = 0
    solves: int = 0
    attempted: int = 0
    failed: int = 0
    iterations: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PRIORCS_OUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in BLAS_THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def run_process(args: list, stderr_path: str) -> tuple:
    """Run one child to completion; returns (seconds, exit code, peak RSS in MB)."""
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        took = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return took, proc.returncode, usage.ru_maxrss / 1024.0


class Sampler:
    """Gauges the speed of the CPU the benchmark is pinned to, all the time.

    A thread sleeps SAMPLE_PERIOD_S, then times a fixed burst of the kinds
    of work priorcs does, written here so that no change to priorcs moves
    it: proximal-gradient steps on a 64x128 matrix (the solver's loop),
    least squares and power iteration on a 32x64 matrix (a solve's set-up)
    and formatting of CSV rows (the sweeps' output). Bursts run on the same
    CPU as the child process being timed, and so at its speed: over 28 runs
    each of four priorcs commands on a shared 2-vCPU host, rescaling by the
    mean burst during each run cut the commands' spread from 16-22% of the
    mean to 3%. A burst of only matrix-vector products and a scalar loop
    left 4-6%, and under-corrected the slow periods by 10-19% of their
    slowdown.
    """

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self.np = numpy
        self.a = rng.standard_normal((64, 128))
        self.x = rng.standard_normal(128)
        self.y = rng.standard_normal(64)
        self.b = rng.standard_normal((32, 64))
        self.bursts = []  # (start, seconds), in start order
        self.stopping = threading.Event()
        self.thread = threading.Thread(target=self._loop, name="sampler", daemon=True)

    def _step(self, z, tau: float) -> tuple:
        np = self.np
        g = self.a.T @ (self.a @ z - self.y)
        w = z - tau * g
        w = np.sign(w) * np.maximum(np.abs(w) - 0.05 * tau, 0.0)
        return w, float(np.linalg.norm(w - z))

    def burst(self) -> float:
        """CPU seconds of one burst: time the thread was preempted is not in it."""
        np = self.np
        start = thread_time()
        z = self.x.copy()
        for _ in range(25):
            z, _ = self._step(z, 0.01)
            z[np.flatnonzero(np.abs(z) > 0.1)[:3]] *= 0.999
        for _ in range(3):
            np.linalg.lstsq(self.b, self.y[:32], rcond=None)
        v = np.ones(64) / 8.0
        for _ in range(10):
            u = self.b.T @ (self.b @ v)
            v = u / np.linalg.norm(u)
        rows = []
        for i in range(150):
            rec = {"rho": i * 0.1, "alpha": math.sqrt(i + 1.0), "w": i / 7.0, "b": math.log1p(i)}
            rows.append(",".join(f"{v:.6g}" for v in rec.values()))
        "\n".join(rows)
        return thread_time() - start

    def _loop(self):
        while not self.stopping.wait(SAMPLE_PERIOD_S):
            start = perf_counter()
            self.bursts.append((start, self.burst()))

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stopping.set()
        self.thread.join()

    def rescale(self, start: float, took: float) -> float:
        """Reference seconds of work in a child's span of `took` measured seconds.

        The sampler's own bursts in the span are taken out, and the rest is
        scaled by CAL_REF_S over the mean burst. A span too short to hold a
        burst uses the latest one.
        """
        inside = [b for t, b in self.bursts if start <= t < start + took]
        if not inside:
            inside = [self.bursts[-1][1]] if self.bursts else [CAL_REF_S]
            busy = 0.0
        else:
            busy = sum(inside)
        return max(took - busy, 0.0) * CAL_REF_S * len(inside) / sum(inside)


def run_timed(sampler: Sampler, args: list, stderr_path: str) -> tuple:
    """run_process, plus the reference-scale factor of the child's span."""
    start = perf_counter()
    took, code, rss = run_process(args, stderr_path)
    return took, code, rss, sampler.rescale(start, took) / took


def _stderr_tail(path: str) -> str:
    with open(path, errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else "no stderr"


def run_rep(sampler: Sampler, cmds: list, refs: list, rep_dir: str, traced: bool) -> Rep:
    """Run the workload's commands once, then check their outputs."""
    os.makedirs(rep_dir)
    runs = []
    for i, cmd in enumerate(cmds):
        out = os.path.join(rep_dir, f"out{i}")
        args = workloads.argv(cmd, out)
        if traced:
            trace_path = os.path.join(rep_dir, f"trace{i}.json")
            args = [sys.executable, os.path.join(BENCH, "traced_cli.py"), trace_path, "--"] + args
        else:
            args = [sys.executable, "-c", PRIORCS_MAIN] + args
        runs.append((out, run_timed(sampler, args, os.path.join(rep_dir, f"stderr{i}"))))
    rep = Rep(wall=0.0, norm_wall=0.0, rss_mb=max(rss for _, (_, _, rss, _) in runs))

    for i, (cmd, ref, (out, (took, code, _, scale))) in enumerate(zip(cmds, refs, runs)):
        solves = len(ref["lhs"]) if cmd[0] == "verify" else 0
        operations = solves or 1  # a solve in verify, a command elsewhere
        rep.attempted += operations
        rep.solves += solves
        if traced and code == 0:
            with open(os.path.join(rep_dir, f"trace{i}.json")) as fh:
                rep.traces.append(dict(json.load(fh), scale=scale))
            took -= rep.traces[-1]["post_s"]
        rep.wall += took
        rep.norm_wall += took * scale
        if code != 0:
            rep.failed += operations
            rep.problems.append(
                f"{cmd[0]} exited {code}: {_stderr_tail(os.path.join(rep_dir, f'stderr{i}'))}"
            )
            continue
        problems, facts = workloads.check_outputs(cmd, out, ref)
        rep.problems += problems
        rep.rows += facts["rows"]
        rep.iterations += facts.get("iterations", [])
        rep.failed += facts.get("nonconverged", 0)
    if traced:
        for t in rep.traces:
            if t["kkt_worst"] > workloads.KKT_TOL:
                rep.problems.append(
                    f"optimality residual {t['kkt_worst']:.3g} exceeds {workloads.KKT_TOL:g}"
                )
    shutil.rmtree(rep_dir)
    return rep


def measure_setup(sampler: Sampler, cmds: list, tmp: str) -> tuple:
    """Seconds for fresh interpreters to get ready, measured and rescaled.

    The first probe warms caches and is not counted.
    """
    args = [sys.executable, os.path.join(BENCH, "setup_probe.py"), json.dumps(cmds)]
    times, norm_times = [], []
    for i in range(SETUP_PROBES + 1):
        took, code, _, scale = run_timed(sampler, args, os.path.join(tmp, "setup_stderr"))
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {_stderr_tail(os.path.join(tmp, 'setup_stderr'))}")
        if i > 0:
            times.append(took)
            norm_times.append(took * scale)
    return times, norm_times


def nearest_rank(values: list, q: float):
    """The q-quantile by the nearest-rank rule; 0 for no values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0


def tail_quantile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (1.0 when n <= 10)."""
    return math.floor(100 * (1 - 10 / n)) / 100 if n > 10 else 1.0


def src_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def check_determinism(reps: list, key: str) -> list:
    """Per-trial iteration counts must repeat across every run of the same code.

    Within this run all repetitions are compared; across runs in the same
    checkout, a digest per (source digest, workload, inputs) is kept in
    .bench_state/iterations.json.
    """
    first = reps[0].iterations
    if any(r.iterations != first for r in reps):
        return ["determinism contract broken: iteration counts differ between repetitions"]
    digest = hashlib.sha256(json.dumps(first).encode()).hexdigest()
    state = {}
    if os.path.exists(STATE_FILE):
        with open(STATE_FILE) as fh:
            state = json.load(fh)
    full_key = f"{src_digest()}:{key}"
    if state.setdefault(full_key, digest) != digest:
        return ["determinism contract broken: iteration counts differ from an earlier run of this code"]
    os.makedirs(os.path.dirname(STATE_FILE), exist_ok=True)
    with open(STATE_FILE, "w") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)
    return []


def layer_values(rep: Rep) -> dict:
    """Per-layer metrics of one traced repetition, summed over its commands.

    Times are rescaled to reference seconds with their command's factor.
    """
    layers, spans, solves, outputs = {}, {}, [], []
    for t in rep.traces:
        scale = t["scale"]
        for name, (calls, secs) in t["layers"].items():
            acc = layers.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += secs * scale
        for name, secs in t["spans"].items():
            spans[name] = spans.get(name, 0.0) + secs * scale
        solves += [(took * scale, iters, ok) for took, iters, ok in t["solves"]]
        outputs += t["outputs"]
    iters = [it for _, it, _ in solves]
    solve_ms = [took * 1000.0 for took, _, _ in solves]
    iters_total = sum(iters)
    calls = {name: layers.get(name, (0, 0.0))[0] for name in ("supports", "bounds")}
    self_s = {name: layers.get(name, (0, 0.0))[1]
              for name in ("cli", "solver", "supports", "bounds", "experiments")}
    return {
        "cli.import_s": sum(t["import_s"] * t["scale"] for t in rep.traces),
        "cli.self_s": self_s["cli"],
        "matrices.generate_s": spans.get("matrices.generate_matrix", 0.0),
        "matrices.coherence_s": spans.get("matrices.coherence", 0.0),
        "solver.calls": len(solves),
        "solver.self_s": self_s["solver"],
        "solver.opnorm_s": spans.get("solver.operator_norm", 0.0),
        "solver.iters_total": iters_total,
        "solver.iters_p50": nearest_rank(iters, 0.5),
        "solver.iters_p90": nearest_rank(iters, 0.9),
        "solver.iters_max": max(iters, default=0),
        "solver.us_per_iter": self_s["solver"] / iters_total * 1e6 if iters_total else 0.0,
        "solver.solve_ms_p50": nearest_rank(solve_ms, 0.5),
        "solver.solve_ms_tail": nearest_rank(solve_ms, tail_quantile(len(solves))),
        "solver.kkt_max": max((t["kkt_max"] for t in rep.traces), default=0.0),
        "supports.calls": calls["supports"],
        "supports.self_s": self_s["supports"],
        "bounds.calls": calls["bounds"],
        "bounds.self_s": self_s["bounds"],
        "experiments.self_s": self_s["experiments"],
        "experiments.emit_s": spans.get("experiments.emit_experiment_outputs", 0.0),
        "tables.csv_s": spans.get("tables.emit_csv", 0.0),
        "tables.svg_s": spans.get("tables.emit_svg", 0.0),
        "tables.csv_bytes": sum(size for kind, size, _ in outputs if kind == "csv"),
        "tables.svg_bytes": sum(size for kind, size, _ in outputs if kind == "svg"),
        "tables.rows": sum(rows for kind, _, rows in outputs if kind == "csv"),
    }


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": ",".join(map(str, sorted(os.sched_getaffinity(0)))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
    }


def _number(value) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(sampler: Sampler, workload: str, size: str, seed: int, seconds: float, trace: bool,
            tmp: str) -> dict:
    """Run one workload; returns its result and the lines describing it."""
    cmds = workloads.commands(workload, size, seed)
    variant = workloads.variant_of(workload, seed)
    with open(REFERENCE_FILE) as fh:
        refs = json.load(fh)[workload][size][variant]

    setup_raw, setup = measure_setup(sampler, cmds, tmp)
    plain, traced = [], []
    start = perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        rep = run_rep(sampler, cmds, refs, os.path.join(tmp, f"rep{len(plain) + len(traced)}"), use_trace)
        (traced if use_trace else plain).append(rep)
        done = len(plain) + len(traced)
        elapsed = perf_counter() - start
        enough = len(plain) >= MIN_REPS - trace and len(traced) >= (MIN_REPS - 1) * trace
        if enough and elapsed + 0.5 * elapsed / done >= seconds:
            break

    reps = plain + traced
    problems = [p for r in reps for p in r.problems]
    if workloads.is_verify(workload) and not problems:
        problems += check_determinism(reps, f"{workload}:{size}:{variant}")
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    walls = [r.norm_wall for r in plain]
    wall_s = statistics.median(walls)
    bursts = [b for _, b in sampler.bursts]
    env = environment()
    lines = [
        f"workload {workload} size={size} seed={seed} inputs={variant} trace={int(trace)}",
        "env " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"loop closed, 1 client, {len(plain)} untraced and {len(traced)} traced repetitions "
        f"in {perf_counter() - start:.1f} s",
        f"commands {' ; '.join(' '.join(workloads.argv(c, 'OUT')[:-2]) for c in cmds)}",
        f"sampler {len(bursts)} bursts, median {statistics.median(bursts) * 1e3:.3f} ms "
        f"(reference {CAL_REF_S * 1e3:g} ms), quartiles "
        + " ".join(f"{q * 1e3:.3f}" for q in quartiles(bursts)) + " ms",
    ]
    if not trace:
        metrics = {
            "norm_wall_s": wall_s,
            "setup_s": statistics.median(setup),
            "norm_points_per_s": statistics.median(r.rows / r.norm_wall for r in plain),
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
        }
        units = END_TO_END
        q1, q3 = quartiles(walls)
        lines.append(f"norm_wall_s quartiles {q1:.4f} {q3:.4f} s over {len(walls)} repetitions: "
                     + " ".join(f"{w:.4f}" for w in walls))
        lines.append(f"measured wall_s median {statistics.median(r.wall for r in plain):.4f} s: "
                     + " ".join(f"{r.wall:.4f}" for r in plain))
        lines.append(f"setup_s median of {len(setup)} probes: " + " ".join(f"{t:.4f}" for t in setup)
                     + f"; measured median {statistics.median(setup_raw):.4f} s")
        if plain[0].solves:
            solves_per_s = statistics.median(r.solves / r.norm_wall for r in plain)
            lines.append(f"norm_solves_per_s = {solves_per_s:.6g} 1/s  ({plain[0].solves} solves per repetition)")
        lines.append(f"failed_frac = {failed / attempted:.6g} fraction  ({failed} of {attempted} "
                     f"{'solves' if plain[0].solves else 'commands'})")
    else:
        per_rep = [layer_values(r) for r in traced]
        metrics = {name: statistics.median(v[name] for v in per_rep) for name in per_rep[0]}
        metrics["solver.kkt_max"] = max(v["solver.kkt_max"] for v in per_rep)
        traced_wall_s = statistics.median(r.norm_wall for r in traced)
        metrics["trace.overhead_s"] = traced_wall_s - wall_s
        units = PER_LAYER
        n_solves = per_rep[0]["solver.calls"]
        lines.append(f"traced norm_wall_s {traced_wall_s:.4f} s, untraced norm_wall_s {wall_s:.4f} s")
        if n_solves:
            lines.append(f"solver.solve_ms_tail is the p{round(100 * tail_quantile(n_solves))} of "
                         f"{n_solves} solves per repetition; times are medians over repetitions")
        certified = sum(t["kkt_certified"] for t in traced[0].traces)
        if certified:
            lines.append(f"kkt_check above {workloads.KKT_TOL:g} on {certified} eps=0 solve(s); "
                         "each was certified optimal by the solver's multiplier")
    for name in units:
        lines.append(f"{name} = {_number(metrics[name])} {units[name]}")
    for p in sorted(set(problems)):
        lines.append(f"CHECK FAILED: {p}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "lines": lines,
    }


def smoke(sampler: Sampler, names: list, seed: int, tmp: str) -> int:
    """Run every workload at tiny size in both modes; check every declared metric prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    failures = []
    for workload in names:
        for trace, declared in ((False, contract["end_to_end"]), (True, contract["per_layer"])):
            result = measure(sampler, workload, "smoke", seed, 0.0, trace, tmp)
            print("\n".join(result["lines"]))
            tag = f"{workload} trace={int(trace)}"
            if not result["correct"]:
                failures.append(f"{tag}: checks failed")
            for metric in declared:
                name, unit = metric["name"], metric["unit"]
                printed = any(
                    line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                    for line in result["lines"]
                )
                if not printed or result["metrics"].get(name, {}).get("unit") != unit:
                    failures.append(f"{tag}: metric {name} [{unit}] not reported")
            if len(result["metrics"]) != len(declared):
                failures.append(f"{tag}: reports {len(result['metrics'])} metrics, "
                                f"BENCHMARK.json declares {len(declared)}")
    for f in failures:
        print(f"SMOKE FAILED: {f}")
    print("smoke ok" if not failures else "smoke failed")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, minimum repetitions, both trace modes")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "priorcs", "cli.py")):
        print(f"error: no priorcs sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    # The benchmark, its sampler thread and its children (which inherit this)
    # share one CPU, so the sampler runs at the speed the timed work runs at.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS

    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        with Sampler() as sampler:
            if args.smoke:
                return smoke(sampler, names, args.seed, tmp)
            results = {}
            for workload in names:
                results[workload] = measure(sampler, workload, "full", args.seed, args.seconds,
                                            bool(args.trace), tmp)
                print("\n".join(results[workload]["lines"]), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    if len(results) == 1:
        out = results[names[0]]
        out = {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
