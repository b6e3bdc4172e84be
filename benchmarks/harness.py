"""Closed-loop benchmark driver: one client, one op after another.

``run.py`` pins the BLAS threads and puts ``src`` on the path before this
module (and numpy) is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import time

T_IMPORT = time.perf_counter()
import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - T_IMPORT

SETUP_REPEATS = 2
OP_LIMIT_S = 60.0
# every run must end within 180 s; stop starting work well before that
RUN_DEADLINE_S = 165.0
WORKDIR = ".bench_out"
# layer metrics predicted to make up most of a workload's traced op time
PREDICTED_SHARE = {
    "train-cd": ("samplers.sgld_chain_self_s", "autodiff.input_grad_s"),
    "eval-ood": ("data.load_csv_s", "evaluate.ap_s"),
}


class OpTimeout(BaseException):
    """Raised by the wall-clock guard. A BaseException, so that
    ``run_experiment_suite`` and ``cli.main``, which catch ``Exception``,
    cannot swallow it."""


@contextlib.contextmanager
def wall_clock_limit(seconds: float):
    """Raise OpTimeout in the main thread once ``seconds`` have passed."""
    def on_alarm(signum, frame):
        raise OpTimeout(f"op exceeded its {seconds:.1f} s wall-clock limit")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads():
    """Thread count OpenBLAS reports at run time, or None if unavailable."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_runtime": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
    }


class Runner:
    def __init__(self, workload, deadline: float):
        self.wl = workload
        self.deadline = deadline
        self.reference = None  # digest of the first op's output
        self.problems: list[str] = []

    def _limit(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 1.0:
            raise OpTimeout("run deadline reached")
        return min(OP_LIMIT_S, left)

    def setup(self) -> float:
        """Set up and run one untimed warm-up op; returns the set-up time."""
        t0 = time.perf_counter()
        with wall_clock_limit(self._limit()):
            self.wl.setup()
            self.wl.before_op()
            out = self.wl.op()
        elapsed = time.perf_counter() - t0
        self.wl.after_setup()
        problems, digest = self.wl.check(out)
        if problems:
            raise RuntimeError(f"warm-up op failed its checks: {problems}")
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            raise RuntimeError("set-up repeat produced different output")
        return elapsed

    def op(self, tracer=None):
        """One guarded, timed op: (seconds, work done or None if it failed)."""
        self.wl.before_op()
        limit = self._limit()
        t0 = time.perf_counter()
        try:
            with wall_clock_limit(limit):
                if tracer is None:
                    out = self.wl.op()
                else:
                    with tracer:
                        root = tracer.open_span("op")
                        out = self.wl.op()
                        tracer.close_span(root)
        except (Exception, OpTimeout) as exc:
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        problems, digest = self.wl.check(out)
        if digest != self.reference:
            problems.append(f"output digest {digest[:12]} != first op's {self.reference[:12]}")
        if problems:
            self.problems.extend(problems)
            return dt, None
        return dt, self.wl.work(out)


def measure(runner: Runner, seconds: float) -> dict:
    setups = [runner.setup() for _ in range(SETUP_REPEATS)]
    times, works, failed = [], [], 0
    t0 = time.perf_counter()
    while not times or time.perf_counter() - t0 < seconds:
        dt, work = runner.op()
        times.append(dt)
        if work is None:
            failed += 1
        else:
            works.append((dt, work))
    return {
        "attempted": len(times),
        "failed": failed,
        "op_times": times,
        "setup_times": setups,
        "metrics": {
            "setup_s": IMPORT_S + statistics.median(setups),
            "op_s_p50": statistics.median(times),
            # 0 only when every op failed, which already makes the run incorrect
            "work_per_s": statistics.median(w / dt for dt, w in works) if works else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def measure_traced(runner: Runner, seconds: float, spans_path: str) -> dict:
    """Alternate untraced and traced ops; per-layer metrics are per traced op."""
    runner.setup()
    plain, traced, failed = [], [], 0
    totals: dict[str, float] = {}
    shares: dict[str, float] = {}
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        dt, work = runner.op()
        plain.append(dt)
        failed += work is None
        tracer = tracing.Tracer()
        dt, work = runner.op(tracer)
        traced.append(dt)
        failed += work is None
        if not traced[1:]:
            tracer.dump(spans_path)
        layer = tracing.layer_metrics(tracer.spans, tracer.counts)
        for k, v in layer.items():
            totals[k] = totals.get(k, 0.0) + v
        op_s = tracer.spans[0][2] - tracer.spans[0][1] if tracer.spans else float("nan")
        for k in tracing.LAYERS:
            shares[k] = shares.get(k, 0.0) + layer[f"{k}.self_s"] / op_s
    n = len(traced)
    metrics = {k: v / n for k, v in totals.items()}
    metrics["trace.untraced_op_s_p50"] = statistics.median(plain)
    metrics["trace.op_s_p50"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.op_s_p50"] - metrics["trace.untraced_op_s_p50"]
    return {
        "attempted": len(plain) + n,
        "failed": failed,
        "op_times": plain,
        "traced_op_times": traced,
        "layer_self_share": {k: v / n for k, v in shares.items()},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ebmlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S - IMPORT_S

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    workdir = os.path.join(WORKDIR, args.workload)
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    runner = Runner(wl, deadline)
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        res = measure_traced(runner, args.seconds, os.path.join(WORKDIR, f"spans-{tag}.json"))
    else:
        res = measure(runner, args.seconds)
    if set(res["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(set(res['metrics']) ^ set(units))} "
                           "differ from BENCHMARK.json")

    print(f"workload {args.workload} seed {args.seed}: {res['attempted']} ops "
          f"({res['failed']} failed) in a closed loop, one client")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {runner.reference}")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    if args.trace:
        for k, v in sorted(res["layer_self_share"].items()):
            print(f"  share of op time in {k + ' self':<22} {v:8.3f}")
        parts = PREDICTED_SHARE.get(args.workload)
        if parts:
            mean_op = statistics.fmean(res["traced_op_times"])
            share = sum(res["metrics"][p] for p in parts) / mean_op
            print(f"  share of op time in {' + '.join(parts)}: {share:.3f}")
    else:
        alias = {"train_steps": ("train_steps_per_s", "1/s"), "eval_rows": ("eval_rows_per_s", "rows/s")}
        name, unit = alias[wl.work_unit]
        print(f"  {name:<22} {res['metrics']['work_per_s']:.6g} {unit}")
        print(f"  {'failed_frac':<22} {res['failed'] / res['attempted']:.6g} frac")
        # a percentile above the median needs ten samples beyond it
        print(f"  op samples: {res['attempted']}; median only, no upper percentile")
    for k in sorted(res["metrics"]):
        print(f"  {k:<34} {res['metrics'][k]:.6g} {units[k]}")

    with open(os.path.join(WORKDIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(res, env=env, digest=runner.reference, problems=runner.problems,
                       workload=args.workload, seed=args.seed), fh, indent=1)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }))
    return 0
