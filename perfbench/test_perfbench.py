"""Self-tests of the benchmark; not part of the library's test suite.

Run from the repository root with ``python3 -m pytest perfbench``. The two
traced candidate runs take about half a minute each.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program(ROOT)

import workloads  # noqa: E402

REPEATABLE = [
    "dynamics.rhs_calls",
    "dynamics.nfev",
    "dynamics.njev",
    "dynamics.nlu",
    "dynamics.steps",
    "dynamics.mass_gradients_calls",
    "dynamics.potential_grad_calls",
    "trajectory.sample_calls",
    "rainflow.extrema",
    "rainflow.cycles",
    "fatigue.planes",
]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_candidate_counts_repeat_exactly():
    args = ("--workload", "candidate", "--seed", "11", "--seconds", "1", "--trace", "1")
    first, second = _result(_bench(ROOT, *args)), _result(_bench(ROOT, *args))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == set(run.PER_LAYER)
        # the layer self times cover the traced operation
        assert res["metrics"]["trace.accounted_share"]["value"] >= 0.95
    for name in REPEATABLE:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0, name


def _candidate_case(cell: int = 8):
    reference = workloads.load_reference()
    ref = reference["cells"][str(cell)]
    inputs = workloads.Inputs("candidate", 0, workloads.BASE_CONFIG, cell=cell)
    outputs = {k: ref[k] for k in ("j_vib", "d_max", "finite_life")}
    return reference, inputs, outputs


def test_recorded_outputs_pass_the_check():
    reference, inputs, outputs = _candidate_case()
    assert workloads.check(inputs, outputs, reference) == []


def test_perturbed_reference_fails_the_check():
    reference, inputs, outputs = _candidate_case()
    for key, change in (
        ("d_max", lambda v: v * 1.01),
        ("j_vib", lambda v: v * 1.01),
        ("finite_life", lambda v: not v),
    ):
        bad = copy.deepcopy(reference)
        bad["cells"]["8"][key] = change(bad["cells"]["8"][key])
        assert workloads.check(inputs, outputs, bad), key


def test_fatigue_history_run_fails_on_perturbed_reference(tmp_path):
    inputs = workloads.generate("fatigue_history", 5, tmp_path)
    ctx = workloads.prepare(inputs)
    reference = workloads.load_reference()
    bad = copy.deepcopy(reference)
    bad["records"][str(inputs.record_variant)]["d_max"] *= 1.01
    record = run.timed_op("op", workloads.run_fatigue_history, ctx, bad)
    assert record.problems
    assert workloads.check(inputs, record.outputs, reference) == []


def test_same_seed_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 3, tmp_path / "a")
        b = workloads.generate(workload, 3, tmp_path / "b")
        assert a.describe() == b.describe()
        assert a.config_path.read_text() == b.config_path.read_text()


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "candidate", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
