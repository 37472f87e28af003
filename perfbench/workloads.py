"""Seeded inputs, operations and output checks of the flexlife benchmark.

Two workloads, each a function of the workload seed only:

* ``candidate`` - one full-fidelity demo load case (simulate, vibration
  criterion, both link stress histories, 73-plane lifetime) for one
  seed-chosen cell of the 6x6 demo thickness grid. Almost all of its time
  is the dynamics right-hand side, and it never touches the design pool.
* ``fatigue_history`` - a synthetic plane-stress record of 1e5 samples,
  written to CSV before timing, then ``read_stress_csv`` plus
  ``critical_plane_lifetime`` over 73 planes. No dynamics: it isolates the
  stress, rainflow and fatigue layers on a few long histories, where
  candidate runs 146 short ones.

Every operation's outputs are compared with ``reference.json``, recorded
with ``make_reference.py``; the tolerances are in ``TOLERANCE``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flexlife import config, design, dynamics, fatigue, stress, trajectory

HERE = Path(__file__).resolve().parent
BASE_CONFIG = HERE / "demo.json"
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"

WORKLOADS = ("candidate", "fatigue_history")

# Relative tolerances of the output check. Halving rtol of the integrator
# moves J_vib by < 1e-7 and D_max by < 5e-6 (relative) on demo cells 1 and
# 27, so these admit any integration path that is as accurate as today's
# and still reject a 1 % error. The fatigue_history path has no integrator:
# only summation order may change there. Its phi_critical is compared
# exactly; make_reference.py checks that every record's critical plane
# leads the runner-up by more than record_d_max.
TOLERANCE = {
    "j_vib": 1e-5,
    "d_max": 1e-4,
    "record_d_max": 1e-9,
}

RECORD_RATE = 10_000.0  # Hz
RECORD_SAMPLES = 100_000
RECORD_T_TASK = RECORD_SAMPLES / RECORD_RATE  # the record covers one task
RECORD_VARIANTS = 8
_RECORD_SALT = 20251023


@dataclass
class Inputs:
    """Generated inputs of one run; the library sees only the files."""

    workload: str
    seed: int
    config_path: Path
    cell: int | None = None  # 1-based demo-grid configuration id
    record_path: Path | None = None
    record_variant: int | None = None
    record_sha256: str | None = None

    def describe(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "config": self.config_path.name,
            "cell": self.cell,
            "record_variant": self.record_variant,
            "record_sha256": self.record_sha256,
        }


def _demo_cell(raw: dict, cell: int) -> tuple[int, int]:
    """0-based (t1, t2) grid indices of a 1-based demo configuration id."""
    n1 = len(raw["sweep"]["t1_values"])
    return (cell - 1) % n1, (cell - 1) // n1


def demo_cells() -> int:
    raw = json.loads(BASE_CONFIG.read_text())
    return len(raw["sweep"]["t1_values"]) * len(raw["sweep"]["t2_values"])


def cell_config(raw: dict, cell: int) -> dict:
    """Demo config with both link walls set to one grid cell."""
    i, j = _demo_cell(raw, cell)
    out = copy.deepcopy(raw)
    out["robot"]["links"][0]["wall_thickness"] = raw["sweep"]["t1_values"][i]
    out["robot"]["links"][1]["wall_thickness"] = raw["sweep"]["t2_values"][j]
    return out


def make_record(variant: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synthetic link-root plane stress: a quasi-static pick-and-place
    swing, decaying bursts of the 0.47 kHz bending mode and the 1.8 kHz
    torsion shear after each stop, and measurement noise."""
    rng = np.random.default_rng([_RECORD_SALT, variant])
    t = np.arange(RECORD_SAMPLES) / RECORD_RATE
    swing = 2.0 * math.pi * 0.5 * t + rng.uniform(0.0, 2.0 * math.pi)
    sxx = 8e6 + 22e6 * np.sin(swing)
    sxy = 3e6 * np.sin(swing + rng.uniform(0.0, 2.0 * math.pi))
    for t0 in np.sort(rng.uniform(0.0, t[-1], 12)):
        late = t >= t0
        env = np.exp(-(t[late] - t0) / rng.uniform(0.02, 0.08))
        sxx[late] += rng.uniform(2e6, 8e6) * env * np.sin(2.0 * math.pi * 470.0 * (t[late] - t0))
        sxy[late] += rng.uniform(1e6, 4e6) * env * np.sin(2.0 * math.pi * 1800.0 * (t[late] - t0))
    sxx += rng.normal(0.0, 0.3e6, t.size)
    sxy += rng.normal(0.0, 0.15e6, t.size)
    return t, sxx, sxy


def generate(workload: str, seed: int, out_dir: Path = OUT_DIR) -> Inputs:
    """Write the inputs of one run into out_dir; same seed, same files."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    stem = out_dir / f"{workload}-s{seed}"
    if workload == "candidate":
        return cell_inputs(rng.randrange(demo_cells()) + 1, stem.with_suffix(".json"), seed)
    return record_inputs(rng.randrange(RECORD_VARIANTS), stem.with_suffix(".csv"), seed)


def cell_inputs(cell: int, path: Path, seed: int = -1) -> Inputs:
    """Candidate inputs for one demo cell: its config written to path."""
    path.write_text(json.dumps(cell_config(json.loads(BASE_CONFIG.read_text()), cell), indent=1))
    return Inputs(workload="candidate", seed=seed, config_path=path, cell=cell)


def record_inputs(variant: int, path: Path, seed: int = -1) -> Inputs:
    """fatigue_history inputs for one record variant: the record written
    to path as CSV and the demo config next to it."""
    config_path = path.with_suffix(".json")
    config_path.write_text(BASE_CONFIG.read_text())
    return Inputs(
        workload="fatigue_history",
        seed=seed,
        config_path=config_path,
        record_path=path,
        record_variant=variant,
        record_sha256=write_record(variant, path),
    )


def write_record(variant: int, path: Path) -> str:
    """Write record ``variant`` as a stress CSV; returns its digest."""
    t, sxx, sxy = make_record(variant)
    np.savetxt(
        path,
        np.column_stack([t, sxx, sxy]),
        fmt="%.17g",
        delimiter=",",
        header="t,sigma_xx,sigma_xy",
        comments="",
    )
    return hashlib.sha256(np.stack([t, sxx, sxy]).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# operations (library calls only go through module attributes, so the
# tracer's wrappers see them)


@dataclass
class Context:
    """What every CLI invocation builds before the work starts."""

    cfg: config.RunConfig
    plan: trajectory.TrajectoryPlan
    inputs: Inputs


def prepare(inputs: Inputs) -> Context:
    cfg = config.load_config(inputs.config_path)
    plan = trajectory.plan_joint_move(cfg.q_pick, cfg.q_place, cfg.limits)
    return Context(cfg=cfg, plan=plan, inputs=inputs)


def run_candidate(ctx: Context) -> dict:
    cfg = ctx.cfg
    result = dynamics.simulate(cfg.design, ctx.plan, cfg.sim)
    j_vib = design.vibration_criterion(result)
    histories = design.link_stress_histories(cfg.design, result)
    d_max, t_life = design.candidate_lifetime(histories, cfg.sweep_settings(), ctx.plan.t_task)
    return {"j_vib": j_vib, "d_max": d_max, "finite_life": math.isfinite(t_life)}


def record_lifetime(ctx: Context) -> fatigue.DamageReport:
    cfg = ctx.cfg
    history = stress.read_stress_csv(ctx.inputs.record_path)
    return fatigue.critical_plane_lifetime(
        history,
        fatigue.angle_grid(cfg.n_angles),
        cfg.fatigue_material,
        RECORD_T_TASK,
        n_mean_bins=cfg.n_mean_bins,
        n_amp_bins=cfg.n_amp_bins,
        hysteresis_gate=cfg.hysteresis_gate,
        include_residue=cfg.include_residue,
    )


def run_fatigue_history(ctx: Context) -> dict:
    return record_outputs(record_lifetime(ctx))


def record_outputs(report: fatigue.DamageReport) -> dict:
    return {
        "d_max": report.d_max,
        "phi_critical": report.phi_critical,
        "finite_life": report.finite_life,
    }


OPERATIONS = {
    "candidate": run_candidate,
    "fatigue_history": run_fatigue_history,
}


# ---------------------------------------------------------------------------
# output check


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(Path(path).read_text())


def _close(name: str, got, want, rtol: float, problems: list[str]) -> None:
    if got is None or not math.isfinite(got) or abs(got - want) > rtol * abs(want):
        problems.append(f"{name}: got {got!r}, reference {want!r} (rtol {rtol:g})")


def check(inputs: Inputs, outputs: dict, reference: dict) -> list[str]:
    """Mismatches between one operation's outputs and the reference."""
    problems: list[str] = []
    if inputs.workload == "fatigue_history":
        ref = reference["records"][str(inputs.record_variant)]
        if inputs.record_sha256 != ref["sha256"]:
            problems.append("generated record differs from the one the reference was made from")
        _close("D_max", outputs["d_max"], ref["d_max"], TOLERANCE["record_d_max"], problems)
        if outputs["phi_critical"] != ref["phi_critical"]:
            problems.append(
                f"phi_critical: got {outputs['phi_critical']!r}, reference {ref['phi_critical']!r}"
            )
        if outputs["finite_life"] != ref["finite_life"]:
            problems.append("finite/infinite-life verdict differs from the reference")
        return problems

    cell = inputs.cell
    ref = reference["cells"][str(cell)]
    _close(f"cell {cell} J_vib", outputs["j_vib"], ref["j_vib"], TOLERANCE["j_vib"], problems)
    _close(f"cell {cell} D_max", outputs["d_max"], ref["d_max"], TOLERANCE["d_max"], problems)
    if outputs["finite_life"] != ref["finite_life"]:
        problems.append(f"cell {cell}: finite/infinite-life verdict differs from the reference")
    return problems
