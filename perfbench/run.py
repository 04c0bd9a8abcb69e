"""Benchmark runner for ottomon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of the
checkout the script sits in.  A run measures set-up time in fresh
interpreters, then repeats whole passes over the workload's operation list
until S seconds of passes have been timed.  Each pass draws new inputs from
the seed and the pass number; every output is checked against the
benchmark's own reference after the pass, outside the timed region, and on
the first pass every checker is also fed a perturbed copy of its output,
which it must reject.

A fixed numpy computation, the reference kernel, is timed at the start and
end of every pass and between operations whenever KERNEL_EVERY_S seconds of
operations have run since the last timing.  Each pass time is scaled by
REFERENCE_KERNEL_S over the mean kernel time of that pass, which gives the
pass time at the machine speed at which the kernel takes REFERENCE_KERNEL_S;
``run_ref_s`` is the median of the scaled pass times.  ``setup_s`` is
scaled the same way, by the kernel timed right before each of its fresh
interpreters.  On a shared host whose speed changes from second to second
and drifts over minutes, this keeps a slower or faster host from reading as
a slower or faster program; the raw times stay in the report line.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.  With
``--trace 1`` every pass runs twice, untraced and then traced, and the last
line reports the per-layer metrics of the traced passes, the command metrics
of the untraced ones and the tracing overhead.  Progress and a readable
summary go to stderr; the line before the result holds the full report.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process per workload with single-threaded BLAS/OpenMP, set before
# numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
REFERENCE_KERNEL_S = 0.2
KERNEL_EVERY_S = 1.0
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import ottomon.cli\n"
    "ottomon.cli.build_parser()\n"
    "print(repr(time.perf_counter() - start))\n"
)
COMMAND_METRICS = {
    "sweep": ("sweep_points_per_s", "points/s"),
    "asymptotic": ("asymptotic_s", "s"),
    "pdf": ("pdf_s", "s"),
    "moments": ("moments_s", "s"),
    "series": ("series_s", "s"),
    "validate": ("validate_s", "s"),
    "joint": ("joint_s", "s"),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def measure_setup() -> tuple[list[float], list[float]]:
    """Times to import ottomon.cli and build its parser in fresh interpreters.

    Each interpreter is preceded by a reference kernel timing.  Returns the
    set-up times and the kernel times.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples, kernels = [], []
    for _ in range(SETUP_SAMPLES):
        kernels.append(reference_kernel())
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples, kernels


def at_reference_speed(seconds: float, kernels: list[float]) -> float:
    """``seconds`` scaled to the speed at which the kernel takes REFERENCE_KERNEL_S."""
    return seconds * REFERENCE_KERNEL_S / statistics.fmean(kernels)


def reference_kernel() -> float:
    """Seconds taken by a fixed numpy computation at the machine's current speed.

    It mixes the kinds of work the workloads do: many tiny Kronecker and 4x4
    products (call-overhead bound, like the branch tabulation), scatters of a
    (61, 121, 4) complex grid (like a lattice advance) and Gaussian
    evaluations (like a mixture density).  Its arrays stay under 1 MB so that
    it does not set the process's peak resident set size.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    op = rng.normal(size=(4, 4)) + 0j
    grid = rng.normal(size=(61, 121, 4)) + 0j
    x = np.linspace(-5.0, 5.0, 4096)
    centers = rng.normal(size=16)
    start = time.perf_counter()
    for _ in range(6000):
        np.kron(small.conj(), small) @ op
    for _ in range(128):
        out = np.zeros((65, 125, 4), dtype=complex)
        out[2:63, 2:123] += (grid.reshape(-1, 4) @ op.T).reshape(grid.shape)
    for _ in range(64):
        np.exp(-((x[None, :] - centers[:, None]) ** 2)).sum(axis=0)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_call(op, tracer=None):
    """One call of an operation, traced when a tracer is given."""
    if tracer is not None:
        tracer.install()
    try:
        begin = time.perf_counter()
        outcome = op.call()
        return outcome, time.perf_counter() - begin
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_pass(ops, tracer=None) -> tuple[float, float, list, list[float]]:
    """Execute every operation once, untraced, timing the reference kernel too.

    The kernel is timed before the first operation, after the last, and
    between two operations once KERNEL_EVERY_S seconds of operations have run
    since its last timing.  With a tracer each operation also runs traced
    right beside its untraced run, the order alternating from one operation
    to the next, so that the two pass times see the same machine load.
    Returns (untraced seconds, traced seconds, traced copies of the
    operations, kernel seconds).
    """
    plain = traced = 0.0
    traced_ops = []
    kernels = [reference_kernel()]
    since_kernel = 0.0
    for position, op in enumerate(ops):
        if since_kernel >= KERNEL_EVERY_S:
            kernels.append(reference_kernel())
            since_kernel = 0.0
        modes = [None] if tracer is None else [None, tracer][:: 1 if position % 2 == 0 else -1]
        for mode in modes:
            outcome, elapsed = timed_call(op, mode)
            since_kernel += elapsed
            if mode is None:
                op.outcome, op.elapsed = outcome, elapsed
                plain += elapsed
            else:
                traced_ops.append(dataclasses.replace(op, outcome=outcome, elapsed=elapsed))
                traced += elapsed
    kernels.append(reference_kernel())
    return plain, traced, traced_ops, kernels


def command_metrics(ops) -> dict[str, float]:
    """Per-command time of the operations that succeeded, and sweep throughput."""
    times: dict[str, float] = {}
    points = 0
    for op in ops:
        if op.failed() or op.command not in COMMAND_METRICS:
            continue
        times[op.command] = times.get(op.command, 0.0) + op.elapsed
        points += op.points
    out = {}
    for command, total in times.items():
        name, _ = COMMAND_METRICS[command]
        out[name] = points / total if command == "sweep" else total
    return out


def check_ops(ops, problems: list[str], self_test: bool) -> None:
    """Compare outputs with the reference; optionally prove each check bites."""
    for op in ops:
        if op.failed():
            continue
        try:
            found = op.check(op.outcome)
        except Exception as exc:  # a malformed output is a wrong output
            found = [f"checker raised {type(exc).__name__}: {exc}"]
        problems += [f"{op.label}: {p}" for p in found]
        if not self_test or found:
            continue
        try:
            caught = op.check(op.perturb(op.outcome))
        except Exception as exc:  # rejecting by raising still rejects
            caught = [f"raised {type(exc).__name__}"]
        if not caught:
            problems.append(f"{op.label}: checker accepted a perturbed output")


def describe_failures(ops) -> list[str]:
    out = []
    for op in ops:
        if op.failed():
            reason = op.outcome.error if op.outcome and op.outcome.error else f"exit {op.outcome.code}"
            out.append(f"{op.label}: {reason}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ottomon" / "__init__.py").is_file():
        log(f"error: no ottomon sources under {SRC}; run from a checkout of the repository")
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import numpy as np

    import ottomon
    import ottomon.cli  # noqa: F401  (the CLI entry point the operations call)

    if Path(ottomon.__file__).resolve().parent != (SRC / "ottomon").resolve():
        log(f"error: imported ottomon from {ottomon.__file__}, not from {SRC}")
        return 2
    import layers
    from workloads import WARMUP_ARGV, WORKLOADS, cli_call

    factory = WORKLOADS.get(args.workload)
    if factory is None:
        log(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2

    reference_kernel()  # the first call pays for warming caches
    setup_samples, setup_kernels = measure_setup()
    setup_raw_s = statistics.median(setup_samples)
    setup_s = at_reference_speed(setup_raw_s, setup_kernels)
    log(f"{args.workload}: setup {setup_raw_s:.3f} s, {setup_s:.3f} s at reference speed")
    for argv in WARMUP_ARGV[args.workload]:
        cli_call(ottomon, argv)()

    problems: list[str] = []
    failures: list[str] = []
    attempted = failed = 0
    pass_times: list[float] = []
    ref_pass_times: list[float] = []
    traced_times: list[float] = []
    commands: list[dict[str, float]] = []
    op_times: dict[str, list[float]] = {}
    layer_rows: list[dict[str, float]] = []
    kernel_times: list[list[float]] = []
    timed = 0.0
    index = 0
    while index == 0 or timed < args.seconds:
        rng = np.random.default_rng([args.seed, index])
        ops, extra_checks = factory(ottomon, rng)
        tracer = layers.new_tracer(ottomon) if args.trace else None
        elapsed, traced, traced_ops, kernels = run_pass(ops, tracer)
        timed += elapsed + traced
        pass_times.append(elapsed)
        ref_pass_times.append(at_reference_speed(elapsed, kernels))
        kernel_times.append(kernels)
        commands.append(command_metrics(ops))
        for position, op in enumerate(ops):
            op_times.setdefault(f"{position}: {op.label}", []).append(op.elapsed)
        if tracer is not None:
            traced_times.append(traced)
            layer_rows.append(layers.layer_metrics(tracer))
        for group, self_test in ((ops, index == 0), (traced_ops, False)):
            attempted += len(group)
            failed += sum(op.failed() for op in group)
            failures += describe_failures(group)
            check_ops(group, problems, self_test)
        for extra in extra_checks:
            extra.outcome = extra.call()
            if extra.failed():
                problems += describe_failures([extra])
                continue
            check_ops([extra], problems, self_test=index == 0)
        log(
            f"{args.workload}: pass {index} {pass_times[-1]:.3f} s"
            + f" ({ref_pass_times[-1]:.3f} s at reference speed)"
            + (f", traced {traced_times[-1]:.3f} s" if args.trace else "")
            + f", {sum(op.failed() for op in ops)} of {len(ops)} failed"
        )
        index += 1

    def median_of(rows: list[dict[str, float]], name: str) -> float:
        return statistics.median(row.get(name, 0.0) for row in rows)

    command_names = sorted({name for row in commands for name in row})
    command_values = {name: median_of(commands, name) for name in command_names}
    units = dict(COMMAND_METRICS.values())
    run_s = statistics.median(pass_times)
    if args.trace:
        metrics = {
            name: {"value": median_of(layer_rows, name), "unit": unit}
            for name, unit in layers.PER_LAYER_UNITS.items()
        }
        metrics["run_s"] = {"value": run_s, "unit": "s"}
        metrics["trace.run_s"] = {"value": statistics.median(traced_times), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(t - u for t, u in zip(traced_times, pass_times)),
            "unit": "s",
        }
        for command, (name, unit) in COMMAND_METRICS.items():
            metrics[f"cmd.{name}"] = {"value": command_values.get(name, 0.0), "unit": unit}
    else:
        metrics = {
            "run_ref_s": {"value": statistics.median(ref_pass_times), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(pass_times),
        "pass_s": pass_times,
        "traced_pass_s": traced_times,
        "ref_pass_s": ref_pass_times,
        "setup_s": setup_s,
        "setup_raw_s": setup_samples,
        "setup_kernel_s": setup_kernels,
        "run_s": run_s,
        "reference_kernel_s": kernel_times,
        "peak_rss_mb": peak_rss_mb(),
        "commands": {name: {"value": v, "unit": units[name]} for name, v in command_values.items()},
        "operation_s": op_times,
        "failures": sorted(set(failures)),
        "problems": problems,
    }
    for name, value in report["commands"].items():
        log(f"{args.workload}: {name} = {value['value']:.6g} {value['unit']}")
    log(f"{args.workload}: run_s = {run_s:.6g} s, attempted {attempted}, failed {failed}")
    for line in report["failures"] + problems:
        log(f"{args.workload}: {line}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
