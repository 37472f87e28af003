"""flexlife benchmark: one command for the end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload candidate --seed 1 --seconds 50 --trace 0

Workloads are described in ``workloads.py``. With ``--trace 0`` the run
repeats the workload's operation while another one is expected to end
within ``--seconds`` (it runs at least one) and reports, with tracing off:

* ``wall_s``      median wall time of one operation;
* ``cpu_s``       median user+sys CPU of one operation, this process and
                  its children together;
* ``setup_s``     median, over several fresh interpreters, of the time from
                  interpreter start to imports done, config loaded and plan
                  built: what every CLI invocation pays;
* ``peak_rss_mb`` peak RSS of this process plus that of its largest child.

With ``--trace 1`` it runs the operation twice untraced and once with every
layer boundary wrapped (``tracing.py``), and reports the per-layer metrics
in ``PER_LAYER``; ``trace.overhead_s`` is the traced wall time minus the
second untraced one. Every operation's outputs are checked against
``reference.json``; an operation that raises or misses the reference
counts in ``failed``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the
run, with host details and per-operation figures, goes to
``perfbench/out/``, next to the spans of a traced run.

The benchmark reads the library from ``src/`` of the working directory and
exits with status 2 without a result when it is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

SETUP_REPEATS = 3

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Metrics a workload does not exercise read 0 (dynamics on fatigue_history,
# the CSV reader on candidate).
PER_LAYER = {
    "config.load_s": "s",
    "trajectory.sample_calls": "count",
    "trajectory.sample_us": "us",
    "beam.build_s": "s",
    "dynamics.model_build_s": "s",
    "dynamics.presolve_s": "s",
    "dynamics.postsolve_s": "s",
    "dynamics.solver_self_s": "s",
    "dynamics.rhs_calls": "count",
    "dynamics.rhs_us": "us",
    "dynamics.nfev": "count",
    "dynamics.njev": "count",
    "dynamics.nlu": "count",
    "dynamics.steps": "count",
    "dynamics.mass_gradients_calls": "count",
    "dynamics.mass_gradients_us": "us",
    "dynamics.potential_grad_calls": "count",
    "dynamics.potential_grad_us": "us",
    "stress.read_csv_s": "s",
    "stress.tresca_s": "s",
    "stress.link_histories_s": "s",
    "rainflow.extract_s": "s",
    "rainflow.count_s": "s",
    "rainflow.bin_s": "s",
    "rainflow.extrema": "count",
    "rainflow.cycles": "count",
    "fatigue.accumulate_s": "s",
    "fatigue.planes": "count",
    "design.candidate_lifetime_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
}


class ProgramMissing(RuntimeError):
    pass


def load_program(root: Path) -> None:
    """Put the checkout's ``src/`` first on the path and import flexlife
    from there, never from an installed copy."""
    package = (root / "src" / "flexlife").resolve()
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no flexlife sources under {root / 'src'}")
    sys.path.insert(0, str(package.parent))
    import flexlife

    if Path(flexlife.__file__).resolve().parent != package:
        raise ProgramMissing(f"flexlife imported from {flexlife.__file__}, not {package}")


# ---------------------------------------------------------------------------
# host record


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record(root: Path, loadavg: tuple[float, float, float]) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
        "loadavg_start": list(loadavg),
    }


# ---------------------------------------------------------------------------
# timing


def _cpu_seconds() -> tuple[float, float]:
    """(this process, reaped children) user+sys CPU seconds."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class OpRecord:
    label: str
    wall_s: float
    cpu_s: float
    child_cpu_s: float
    problems: list[str] = field(default_factory=list)
    outputs: dict | None = None


def timed_op(label, op, ctx, reference, tracer=None, **kwargs) -> OpRecord:
    """Run one operation, time it and check its outputs. A failure is
    recorded with its traceback and counted, never raised."""
    import workloads

    span = tracer.enter("bench.op") if tracer is not None else None
    self0, kids0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        outputs = op(ctx, **kwargs)
        error = None
    except Exception:  # noqa: BLE001 - the benchmark counts the failure and goes on
        outputs, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    self1, kids1 = _cpu_seconds()
    if span is not None:
        tracer.exit(span)
    problems = [error] if error else workloads.check(ctx.inputs, outputs, reference)
    return OpRecord(
        label=label,
        wall_s=wall,
        cpu_s=(self1 - self0) + (kids1 - kids0),
        child_cpu_s=kids1 - kids0,
        problems=problems,
        outputs=outputs,
    )


def measure_setup(root: Path, config_path: Path) -> list[float]:
    """Wall time of fresh interpreters that import, load and plan. One
    untimed probe first compiles bytecode and warms the file cache."""
    cmd = [sys.executable, str(Path("perfbench") / "setup_probe.py"), str(config_path)]
    times = []
    for k in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# per-layer metrics

# layer self times that, with the RHS total, should make up the traced
# operation's wall time (trace.accounted_share)
ACCOUNTED = (
    "dynamics.solver_self_s",
    "dynamics.presolve_s",
    "dynamics.postsolve_s",
    "dynamics.model_build_s",
    "stress.read_csv_s",
    "stress.link_histories_s",
    "stress.tresca_s",
    "rainflow.extract_s",
    "rainflow.count_s",
    "rainflow.bin_s",
    "fatigue.accumulate_s",
)


def layer_metrics(tracer, wall_s: float) -> dict[str, float]:
    s = tracer.summary()  # a span name that never ran reads as zeros
    counts = tracer.counts

    def total(name):
        return s[name]["total_s"]

    def calls(name):
        return s[name]["calls"]

    def us_per_call(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    pre, post = tracer.simulate_phases()
    m = {
        "trajectory.sample_calls": calls("trajectory.sample"),
        "trajectory.sample_us": us_per_call("trajectory.sample"),
        "beam.build_s": total("beam.shape_basis") + total("beam.stiffness"),
        "dynamics.model_build_s": total("dynamics.model_build"),
        "dynamics.presolve_s": pre,
        "dynamics.postsolve_s": post,
        "dynamics.solver_self_s": s["dynamics.solve_ivp"]["self_s"],
        "dynamics.rhs_calls": calls("dynamics.rhs"),
        "dynamics.rhs_us": us_per_call("dynamics.rhs"),
        **{f"dynamics.{k}": counts[f"dynamics.{k}"] for k in ("nfev", "njev", "nlu", "steps")},
        "dynamics.mass_gradients_calls": calls("dynamics.mass_gradients"),
        "dynamics.mass_gradients_us": us_per_call("dynamics.mass_gradients"),
        "dynamics.potential_grad_calls": calls("dynamics.potential_grad"),
        "dynamics.potential_grad_us": us_per_call("dynamics.potential_grad"),
        "stress.read_csv_s": total("stress.read_csv"),
        "stress.tresca_s": total("stress.tresca"),
        "stress.link_histories_s": total("stress.link_histories"),
        "rainflow.extract_s": total("rainflow.extract"),
        "rainflow.count_s": total("rainflow.count"),
        "rainflow.bin_s": total("rainflow.bin"),
        "rainflow.extrema": counts["rainflow.extrema"],
        "rainflow.cycles": counts["rainflow.cycles"],
        "fatigue.accumulate_s": total("fatigue.accumulate"),
        "fatigue.planes": calls("fatigue.accumulate"),
        "design.candidate_lifetime_s": total("design.candidate_lifetime"),
    }
    # The named layer times do not overlap: the RHS total holds the model
    # calls and trajectory samples made inside it, presolve leaves out the
    # model build, and the stress/rainflow/fatigue steps are siblings inside
    # each plane of critical_plane_lifetime. What they leave out (loop and
    # glue code between the layers) shows as a share below 1.
    named = total("dynamics.rhs") + sum(m[k] for k in ACCOUNTED)
    m["trace.accounted_share"] = named / wall_s
    return m


# ---------------------------------------------------------------------------
# runs


def run_untraced(ctx, op, reference, seconds: float) -> tuple[list[OpRecord], dict]:
    """Repeat the operation while another one is expected to end within
    ``seconds``; the first always runs."""
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        ops.append(timed_op(f"op{len(ops) + 1}", op, ctx, reference))
        typical = statistics.median(r.wall_s for r in ops)
        if time.perf_counter() + typical > deadline:
            break
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in ops),
        "cpu_s": statistics.median(r.cpu_s for r in ops),
        "peak_rss_mb": peak_rss_mb(),
    }
    return ops, metrics


def run_traced(ctx, op, reference, out_stem: Path) -> tuple[list[OpRecord], dict]:
    import workloads
    from tracing import Tracer

    metrics = dict.fromkeys(PER_LAYER, 0)
    with Tracer() as setup_tracer:
        ctx = workloads.prepare(ctx.inputs)
    metrics["config.load_s"] = setup_tracer.summary()["config.load"]["total_s"]

    # the first operation warms caches; the overhead compares the second
    ops = [timed_op(f"untraced{k}", op, ctx, reference) for k in (1, 2)]
    with Tracer() as tracer:
        ops.append(timed_op("traced", op, ctx, reference, tracer))
    tracer.write(f"{out_stem}-spans.json")
    wall = ops[-1].wall_s
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - ops[1].wall_s
    metrics.update(layer_metrics(tracer, wall))
    return ops, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("candidate", "fatigue_history"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    root = Path.cwd()
    try:
        load_program(root)
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    import workloads

    reference = workloads.load_reference()
    inputs = workloads.generate(args.workload, args.seed)
    ctx = workloads.prepare(inputs)
    op = workloads.OPERATIONS[args.workload]
    out_stem = workloads.OUT_DIR / f"{args.workload}-s{args.seed}-trace{args.trace}"

    record = {"args": vars(args), "inputs": inputs.describe()}
    if args.trace:
        ops, values = run_traced(ctx, op, reference, out_stem)
        units = PER_LAYER
    else:
        ops, values = run_untraced(ctx, op, reference, args.seconds)
        setup = measure_setup(root, inputs.config_path)
        values["setup_s"] = statistics.median(setup)
        record["setup_runs_s"] = setup
        units = END_TO_END
    # git runs as a child process, so only after the peak-RSS reading
    host = record["host"] = host_record(root, loadavg)

    failed = sum(1 for r in ops if r.problems)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record.update(ops=[asdict(r) for r in ops], metrics=metrics)
    Path(f"{out_stem}.json").write_text(json.dumps(record, indent=1, default=str))

    print("host " + json.dumps(host))
    for r in ops:
        verdict = "ok" if not r.problems else "FAILED: " + "; ".join(p.strip() for p in r.problems)
        print(f"{r.label}: wall {r.wall_s:.3f} s, cpu {r.cpu_s:.3f} s - {verdict}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
