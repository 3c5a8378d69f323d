"""emcool benchmark: one workload per process, closed loop, one client.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload readme_fit --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 40

`--trace 0` measures the end-to-end metrics with the program untouched,
looping over a fixed, seed-made set of inputs for `--seconds`; times are
scaled to the nominal machine by a kernel timed between the operations
(see reference.py).  `--trace 1` loops over a few of those inputs, first
untouched and then with the public functions of each layer wrapped (see
tracing.py), and reports the per-layer metrics, the tracing overhead and
the exact counters.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines above it starting with `#`
record the environment and a summary.  `--workload all` runs each workload
in its own child process and prints a table.

The exit code is 0 whenever the benchmark itself worked, also when
operations of the program failed; those are counted in `failed`.  It is 2
when emcool cannot be imported from this checkout's `src/` or a wrap point
of the traced run no longer resolves.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread: set here, in the benchmark's own process, before
# numpy is imported; the set-up probes inherit it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference  # noqa: E402  (after the thread settings: imports numpy)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7
FILL = 0.7  # share of --seconds that one pass over the inputs takes on the nominal machine
WORKLOAD_NAMES = ("readme_fit", "cooling_sweep", "calibration_io")
# per-layer counts that depend only on the seed's inputs and the program
EXACT_COUNTERS = (
    "spectra.model_evals_per_fit",
    "leastsq.starts_per_fit",
    "leastsq.iters_per_fit",
    "leastsq.kept_start_frac",
    "leastsq.fit_weighted.calls",
    "dynamics.final_occupancy.calls_per_point",
    "spectra.write_trace.calls",
    "spectra.read_trace.calls",
)
IMPORT_PROBE = "import time; t = time.perf_counter(); import emcool; print(time.perf_counter() - t)"


class BenchmarkBroken(RuntimeError):
    """The benchmark cannot measure this checkout."""


class _Discard:
    """Sink for the program's own stdout/stderr during the timed loop."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def import_emcool():
    """Import emcool from this checkout's src/ and nowhere else."""
    if not (SRC / "emcool" / "__init__.py").is_file():
        raise BenchmarkBroken(f"no emcool sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import emcool

    if Path(emcool.__file__).resolve().parent != SRC / "emcool":
        raise BenchmarkBroken(f"emcool imported from {emcool.__file__}, not from {SRC}")
    return emcool


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def code_hash() -> str:
    """Digest of the program's and the benchmark's sources: records of runs are per code."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "emcool").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "clients": 1,
        "page_cache": "trace files go through the OS page cache; nothing on the machine is dropped or tuned",
    }


def import_seconds() -> float:
    """Time `import emcool` in a fresh interpreter (numpy included)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    if done.returncode != 0:
        raise BenchmarkBroken(f"import probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def n_inputs(cls, seconds: int) -> int:
    """Distinct inputs of a run: one pass takes FILL of the measured time on the nominal machine."""
    return max(cls.TRACE_INPUTS, math.ceil(FILL * seconds / cls.OP_S))


def measure_setup(workload, tracer=None) -> tuple[float, float]:
    """Median over repeats of (import of emcool + generation of the inputs).

    Returns the median as measured and scaled to the nominal machine.
    """
    probe = reference.SpeedProbe()
    samples = []
    for k in range(SETUP_REPEATS):
        t_import = import_seconds()
        if tracer is not None:
            tracer.op = -1 - k
        t0 = time.perf_counter()
        workload.setup()
        samples.append(t_import + time.perf_counter() - t0)
        probe.after(samples[-1])
    raw = statistics.median(samples)
    return raw, raw * probe.scale


class Outcomes:
    """The first outcome of each input; a later run of an input must repeat its output."""

    def __init__(self, n: int) -> None:
        self.first: list = [None] * n
        self.mismatches = 0

    def add(self, k: int, outcome) -> None:
        if self.first[k] is None:
            self.first[k] = outcome
        elif outcome.digest != self.first[k].digest:
            self.mismatches += 1


def run_loop(workload, execute, n: int, budget_s: float, outcomes: Outcomes):
    """Closed loop over inputs 0 .. n-1, again and again until the budget is spent.

    Every input runs at least once.  Returns each input's latencies and the
    speed probe that ran in the gaps between operations.
    """
    probe = reference.SpeedProbe()
    times: list[list[float]] = [[] for _ in range(n)]
    start = time.perf_counter()
    i = 0
    while i < n or time.perf_counter() - start < budget_s:
        k = i % n
        latency, outcome = execute(workload, k)
        probe.after(latency)
        times[k].append(latency)
        outcomes.add(k, outcome)
        i += 1
    return times, probe


def mean_latencies(times) -> list[float]:
    """Each input's mean latency: every input weighs the same, however often it ran."""
    return [statistics.fmean(t) for t in times]


def fail_counts(outcomes, kinds) -> dict[str, int]:
    counts = dict.fromkeys(kinds, 0)
    for outcome in outcomes:
        for kind in outcome.failures:
            counts[kind] += 1
    return counts


def check_across_runs(key: str, record: dict) -> list[str]:
    """Compare with the record of an earlier run of the same code, workload and seed."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "determinism.json"
    try:
        records = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        records = {}
    earlier = records.setdefault(key, {})
    drift = [name for name, value in record.items() if name in earlier and earlier[name] != value]
    for name, value in record.items():
        earlier.setdefault(name, value)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return drift


def measure(args) -> tuple[dict, dict]:
    units_of = declared_metrics(args.trace)
    import_emcool()
    import tracing
    import workloads

    try:
        tracer = tracing.Tracer() if args.trace else None  # resolves every wrap point first
    except tracing.MissingWrapPoint as exc:
        raise BenchmarkBroken(str(exc)) from exc
    cls = workloads.WORKLOADS[args.workload]
    n = cls.TRACE_INPUTS if args.trace else n_inputs(cls, args.seconds)
    work = BENCH_DIR / f".work-{args.workload}-{os.getpid()}"
    work.mkdir()
    workload = cls(args.seed, work, n)
    outcomes = Outcomes(n)
    try:
        if tracer is not None:
            tracer.install()
        setup_raw, setup_s = measure_setup(workload, tracer)
        if tracer is not None:
            tracer.uninstall()
        with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(_Discard()):
            outcomes.add(0, workloads.execute(workload, 0)[1])  # warm-up, not timed
            if tracer is None:
                times, probe = run_loop(workload, workloads.execute, n, args.seconds, outcomes)
            else:
                # the same inputs untraced for half the time, then traced
                times, probe = run_loop(workload, workloads.execute, n, args.seconds / 2, outcomes)
                traced_op = itertools.count()

                def execute_traced(wl, k):
                    tracer.op = next(traced_op)
                    return workloads.execute(wl, k)

                tracer.install()
                try:
                    times_t, probe_t = run_loop(workload, execute_traced, n, args.seconds / 2, outcomes)
                finally:
                    tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = outcomes.first
    units = sum(o.units for o in first)
    failed = sum(len(o.failures) for o in first)
    notes: list[str] = []
    if outcomes.mismatches:
        notes.append(f"{outcomes.mismatches} repeated operation(s) gave different outputs")
    digest = hashlib.sha256("".join(o.digest for o in first).encode()).hexdigest()
    record = {"output_digest": digest}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "inputs": n,
        "ops": 1 + sum(map(len, times)) + (sum(map(len, times_t)) if tracer is not None else 0),
        "fail_frac": failed / units,
        "fail": fail_counts(first, workloads.FAIL_KINDS),
    }

    if tracer is None:
        raw = mean_latencies(times)
        scaled = [t * probe.scale for t in raw]
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": n / sum(scaled),
            "op_p50_ms": 1e3 * statistics.median(scaled),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        summary.update(
            # at least ten inputs beyond the 90th percentile
            op_p90_ms=1e3 * statistics.quantiles(scaled, n=10)[8] if n >= 100 else None,
            raw={"setup_s": setup_raw, "ops_per_s": n / sum(raw), "op_p50_ms": 1e3 * statistics.median(raw)},
            kernel_ms=1e3 * probe.kernel_s,
            scale=probe.scale,
        )
    else:
        layer = tracing.layer_metrics(tracer.spans, sum(map(len, times_t)), n, first[0].units, probe_t.scale)
        layer.update({f"fail.{kind}": count for kind, count in summary["fail"].items()})
        untraced_rate = n / sum(mean_latencies(times)) / probe.scale
        traced_rate = n / sum(mean_latencies(times_t)) / probe_t.scale
        layer["trace.overhead_ops_per_s"] = untraced_rate - traced_rate
        layer["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
        layer["trace.ops"] = sum(map(len, times_t))
        layer["check.digest_mismatches"] = outcomes.mismatches
        record["counters"] = {name: layer[name] for name in EXACT_COUNTERS}
        metrics = layer
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        summary["spans"] = str(spans_path.relative_to(ROOT))

    drift = check_across_runs(f"{args.workload}/seed{args.seed}/n{n}/{code_hash()[:16]}", record)
    if drift:
        notes.append("differs from an earlier run of the same code and seed: " + ", ".join(drift))
    summary["output_digest"] = digest
    summary["notes"] = notes
    correct = not outcomes.mismatches and not drift and failed < units
    if set(units_of) != set(metrics):
        raise BenchmarkBroken(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units_of)}")
    result = {
        "correct": correct,
        "attempted": units,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()},
    }
    return summary, result


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"{name}: benchmark exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        summary = json.loads(next(l for l in lines if l.startswith("# summary "))[len("# summary "):])
        rows.append((name, summary, json.loads(lines[-1])))
        if len(rows) == 1:
            print(next(l for l in lines if l.startswith("# env ")))
    for name, summary, result in rows:
        print(_line(name, summary, result))
    return 0


def _line(name: str, summary: dict, result: dict) -> str:
    parts = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    if not summary["trace"]:
        if summary["op_p90_ms"] is not None:
            parts.append(f"op_p90_ms={summary['op_p90_ms']:.6g} ms")
        parts.append(f"fail_frac={summary['fail_frac']:.4g} ({result['failed']}/{result['attempted']})")
    parts.append(f"ops={summary['ops']} correct={result['correct']}")
    return f"{name}: " + "  ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="emcool benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (non-negative)")
    parser.add_argument("--seconds", type=int, default=40, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    try:
        summary, result = measure(args)
    except BenchmarkBroken as exc:
        print(f"benchmark broken: {exc}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment()))
    print("# summary " + json.dumps(summary))
    for note in summary["notes"]:
        print(f"# note: {note}")
    print(_line(args.workload, summary, result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
