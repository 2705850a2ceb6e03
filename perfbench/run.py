"""confcl benchmark: one seeded workload, timed or traced, in one process.

    python3 perfbench/run.py --workload study|detect|cli-files \
        --seed N --seconds S --trace 0|1

Run from the repository root.  It imports confcl from ``src/`` of the same
checkout and fails (exit 2, no result) when that is missing.

The load is a closed loop with one client: each operation starts when the
previous one and its output check have finished.  Operations run in whole
rounds, a round being one pass over the workload's operation mix.
``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs each round untraced and then again with per-layer spans,
until the untraced rounds add up to S/2 seconds, and reports per-op layer
metrics plus the tracing overhead (traced over untraced busy time, minus
one).

The last line of stdout is the result object; the line before it is a
report with provenance, the tail percentile and its sample count, the error
rate, unscaled figures and per-label latencies.  Both are also written
under ``perfbench/_out/``.  Exit status: 0 when every operation and final
check passed, 1 when any failed, 2 on a usage or environment error.
"""

from __future__ import annotations

import os

# These matrices are too small for a second BLAS thread to pay off, and a
# thread pool would blur the CPU-time metric.  This pins the benchmark
# process only; it is recorded in the provenance block.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "_out"
WORK_DIR = HERE / "_work"

WORKLOAD_NAMES = ("study", "detect", "cli-files")
SETUP_REPEATS = 3
# Stop a run early once this many operations failed; it is already incorrect.
MAX_FAILURES = 20
# Seconds that calibration_s() takes on the reference machine (2-CPU Intel
# Xeon, Python 3.11, numpy 2.4 with OpenBLAS, otherwise idle).
CAL_REF_S = 0.060
# The tail is the latency with exactly this many samples above it.
TAIL_BEYOND = 10

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import confcl, confcl.cli; "
    "print(time.perf_counter() - t)"
)


def calibration_s() -> float:
    """Seconds for a fixed mix of interpreter and small-BLAS work.

    Timed between rounds, never during an operation.  On a shared host the
    machine's speed drifts with other tenants' load by tens of percent over
    minutes; scaling by this sample keeps that drift out of the metrics.
    """
    x = np.linspace(0.0, 1.0, 40_000).reshape(200, 200)
    start = time.perf_counter()
    for _ in range(10):
        total = 0
        for i in range(20_000):
            total += i * i
        for _ in range(20):
            x @ x
    return time.perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor converting seconds measured between two calibration samples
    into seconds at the reference speed."""
    return 2.0 * CAL_REF_S / (before + after)


@dataclass
class Phase:
    """Outcome of whole rounds of operations, timed or traced."""

    # Per passed operation: (seconds, round index within this phase).
    latencies: list[tuple[float, int]] = field(default_factory=list)
    by_label: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    # Per round: [busy seconds, CPU seconds], and its speed scale.
    rounds: list[list[float]] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(r[0] for r in self.rounds)

    def scaled_busy(self) -> float:
        return sum(r[0] * s for r, s in zip(self.rounds, self.scales))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_seconds() -> float:
    """Time ``import confcl`` in a fresh interpreter, as a user pays it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def set_up(workload_cls, seed: int, work: Path):
    """Build the workload SETUP_REPEATS times and keep the last build.

    Returns the workload and, per build, the import-plus-generate seconds
    and the speed scale around it.
    """
    totals, scales, detail = [], [], []
    before = calibration_s()
    for rep in range(SETUP_REPEATS):
        imported = import_seconds()
        directory = work / f"setup-{rep}"
        directory.mkdir(parents=True)
        start = time.perf_counter()
        workload = workload_cls(str(directory), seed)
        generated = time.perf_counter() - start
        after = calibration_s()
        scales.append(speed_scale(before, after))
        before = after
        totals.append(imported + generated)
        detail.append({"import_s": imported, "generate_s": generated})
        if rep < SETUP_REPEATS - 1:
            shutil.rmtree(directory)
    return workload, totals, scales, detail


class Runner:
    """Runs rounds one after another, with a calibration sample between any
    two rounds; a round's speed scale comes from the samples around it."""

    def __init__(self, workload):
        self.workload = workload
        self.last_calibration = calibration_s()

    def round(self, index: int, phase: Phase, tracer=None) -> None:
        """Run round ``index`` into ``phase``.  Output checks are not timed."""
        from workloads import CheckFailed

        current = [0.0, 0.0]
        phase.rounds.append(current)
        n = self.workload.round_len
        for k in range(index * n, (index + 1) * n):
            if phase.failed >= MAX_FAILURES:
                break
            op = self.workload.op(k)
            phase.attempted += 1
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                if tracer is None:
                    output = op.run()
                else:
                    with tracer.installed(k):
                        output = op.run()
            except Exception:  # a failed operation is counted, the run goes on
                current[0] += time.perf_counter() - t0
                phase.failed += 1
                phase.errors.append(f"op {k} {op.label}: {traceback.format_exc(limit=3)}")
                continue
            elapsed, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            current[0] += elapsed
            current[1] += cpu
            try:
                op.check(output)
            except (CheckFailed, KeyError, ValueError, OSError) as exc:
                phase.failed += 1
                phase.errors.append(f"op {k} {op.label}: check failed: {exc!r}")
            else:
                phase.latencies.append((elapsed, len(phase.rounds) - 1))
                phase.by_label[op.label].append(elapsed)
        sample = calibration_s()
        phase.scales.append(speed_scale(self.last_calibration, sample))
        self.last_calibration = sample


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    i = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n - i - 1


def end_to_end(phase: Phase, setup_totals: list[float], setup_scales: list[float]):
    """The end-to-end metrics, with times in seconds at the reference speed.

    Each time is multiplied by the speed scale of the round it was measured
    in (see calibration_s), so load from other tenants does not read as a
    slower confcl.  The same figures without the scaling are returned
    beside them.
    """
    scales = phase.scales
    ok = len(phase.latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def figures(scales: list[float], setup_scales: list[float]) -> dict:
        latencies = [t * scales[r] for t, r in phase.latencies]
        busy = sum(r[0] * s for r, s in zip(phase.rounds, scales))
        cpu = sum(r[1] * s for r, s in zip(phase.rounds, scales))
        return {
            "setup_s": (statistics.median(t * s for t, s in zip(setup_totals, setup_scales)), "s"),
            "ops_per_s": (ok / busy, "1/s"),
            "op_s.p50": (statistics.median(latencies), "s"),
            "op_s.tail": (tail(latencies)[0], "s"),
            "cpu_s_per_op": (cpu / ok, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    metrics = figures(scales, setup_scales)
    unscaled = figures([1.0] * len(scales), [1.0] * len(setup_scales))
    _, tail_pct, beyond = tail([t for t, _ in phase.latencies])
    extra = {
        "error_rate": {"value": phase.failed / phase.attempted, "unit": "ratio"},
        "op_s.tail_percentile": tail_pct,
        "op_s.tail_samples_beyond": beyond,
        "op_s.samples": ok,
        "unscaled": {k: {"value": v, "unit": u} for k, (v, u) in unscaled.items()},
        "speed_scale": {"setup": setup_scales, "rounds": scales},
    }
    return metrics, extra


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args: argparse.Namespace) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "load": "closed loop, 1 client, 1 process",
        "cal_ref_s": CAL_REF_S,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "confcl" / "__init__.py").is_file():
        print(f"error: no confcl sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import confcl
    from workloads import WORKLOADS

    if Path(confcl.__file__).resolve().parent != SRC / "confcl":
        print(f"error: imported confcl from {confcl.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = None
    try:
        workload, setup_totals, setup_scales, setup_detail = set_up(
            WORKLOADS[args.workload], args.seed, work
        )
        runner = Runner(workload)
        phase = Phase()
        if args.trace:
            from tracer import Tracer

            # Each round runs untraced and then traced, back to back, so a
            # drift in machine speed cannot pass for tracing overhead.
            tracer, traced = Tracer(), Phase()
            while phase.busy < args.seconds / 2 and phase.failed + traced.failed < MAX_FAILURES:
                runner.round(len(phase.rounds), phase)
                runner.round(len(traced.rounds), traced, tracer)
            n_traced = len(traced.latencies)
            metrics = tracer.metrics(max(1, n_traced), traced.scaled_busy() / traced.busy)
            metrics["trace.overhead"] = (traced.scaled_busy() / phase.scaled_busy() - 1.0, "ratio")
            extra = {
                "untraced_busy_s": phase.busy,
                "traced_busy_s": traced.busy,
                "traced_ops": n_traced,
            }
            phases = (phase, traced)
        else:
            while phase.busy < args.seconds and phase.failed < MAX_FAILURES:
                runner.round(len(phase.rounds), phase)
            if phase.latencies:
                metrics, extra = end_to_end(phase, setup_totals, setup_scales)
            else:
                metrics, extra = {}, {}
            phases = (phase,)
        final_error = None
        try:
            workload.final_check()
        except Exception as exc:  # reported below; the run is incorrect
            final_error = f"final check: {exc!r}"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors] + ([final_error] if final_error else [])
    correct = failed == 0 and final_error is None
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "provenance": provenance(args),
        "setup": setup_detail,
        "details": extra,
        "latency_by_label": {
            label: {"n": len(v), "unscaled_median_s": statistics.median(v)}
            for label, v in sorted(phase.by_label.items())
        },
        "errors": errors[:10],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}"
    if tracer is not None:
        tracer.dump(f"{stem}-spans.npz")
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "report": report,
                "result": result,
                "rounds": phase.rounds,
                "scales": phase.scales,
                "ops": phase.latencies,
            },
            handle,
        )
    for e in errors[:10]:
        print(e, file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
