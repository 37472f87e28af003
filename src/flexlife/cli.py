"""Command-line front-end of the simulation / fatigue / sweep pipeline.

Commands are pure functions of their input files: re-running with the
same inputs reproduces the outputs byte for byte. Exit codes: 0 success,
2 configuration or input validation error, 3 numerical failure.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import fatigue as fat
from . import rainflow as rfc
from .config import ConfigError, load_config, parse_fatigue_material
from .design import SweepOutcome, link_stress_histories, pareto_front as extract_front
from .design import MAX_ANGLES, MAX_BINS, RUN_STATS, CandidateResult, run_sweep
from .dynamics import SimulationError, simulate
from .stress import read_stress_csv, write_stress_csv
from .trajectory import plan_joint_move

EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _fmt(x) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _finite(ctx, param, value):
    """Option callback: click's float types let nan and inf through."""
    if value is not None and not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


@click.group()
def main():
    """Elastic-arm load-case simulation and fatigue lifetime estimation."""


def _load(config_path):
    try:
        return load_config(config_path)
    except ConfigError as exc:
        _fail(EXIT_INPUT, str(exc))


def _write_history(path: Path, result, n_e1: int, n_e2: int) -> None:
    header = (
        ["t"]
        + [f"qM{i}" for i in (1, 2, 3)]
        + [f"qL{i}" for i in (1, 2, 3)]
        + [f"qe1_{k + 1}" for k in range(n_e1)]
        + [f"qe2_{k + 1}" for k in range(n_e2)]
        + ["kappa1_t", "kappa1_v", "kappa1_w", "kappa2_t", "kappa2_v", "kappa2_w"]
        + ["drEE_x", "drEE_y", "drEE_z"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(result.times.size):
            row = [result.times[k], *result.q[k], *result.kappa1[k], *result.kappa2[k],
                   *result.dr_ee[k]]
            writer.writerow([_fmt(x) for x in row])


@main.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out-dir", type=click.Path(), default=None, help="Output directory.")
def cmd_simulate(config_path, out_dir):
    """Run one load-case simulation; write history and stress CSV files."""
    cfg = _load(config_path)
    out = Path(out_dir or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    plan = plan_joint_move(cfg.q_pick, cfg.q_place, cfg.limits)
    if plan.t_task == 0.0:
        click.echo("note: q_pick equals q_place (t_task = 0); settling-only run")
    try:
        result = simulate(cfg.design, plan, cfg.sim)
    except SimulationError as exc:
        _fail(EXIT_NUMERIC, str(exc))
    spec1, spec2 = cfg.design.beam_spec(0), cfg.design.beam_spec(1)
    _write_history(out / "history.csv", result, spec1.n_elastic, spec2.n_elastic)
    h1, h2 = link_stress_histories(cfg.design, result)
    write_stress_csv(out / "stress_link1.csv", h1)
    write_stress_csv(out / "stress_link2.csv", h2)
    click.echo(
        f"simulated {result.times[-1]:.3f} s (task {result.t_task:.3f} s); wrote "
        f"{out / 'history.csv'}"
    )


def _report_dict(report: fat.DamageReport) -> dict:
    finite = report.finite_life
    return {
        "t_task_seconds": report.t_task,
        "d_max": report.d_max,
        "phi_critical_rad": report.phi_critical,
        "finite_life": finite,
        "t_life_seconds": report.t_life_seconds if finite else None,
        "t_life_hours": report.t_life_hours if finite else None,
        "angles_rad": [float(a) for a in report.angles],
        "damage": [float(d) for d in report.damage],
    }


@main.command("fatigue")
@click.argument("stress_csv", type=click.Path(exists=True))
@click.argument("material_json", type=click.Path(exists=True))
@click.option("--t-task", type=float, default=None, callback=_finite,
              help="Task duration in s (default: history span).")
@click.option("--angles", type=click.IntRange(1, MAX_ANGLES), default=73, show_default=True)
@click.option("--mean-bins", type=click.IntRange(1, MAX_BINS), default=32, show_default=True)
@click.option("--amp-bins", type=click.IntRange(1, MAX_BINS), default=32, show_default=True)
@click.option("--gate", type=click.FloatRange(min=0.0), default=0.0, show_default=True,
              callback=_finite, help="Hysteresis gate in Pa.")
@click.option("--out-dir", type=click.Path(), default=".")
def cmd_fatigue(stress_csv, material_json, t_task, angles, mean_bins, amp_bins, gate, out_dir):
    """Critical-plane damage and lifetime from a stress-history CSV."""
    try:
        history = read_stress_csv(stress_csv)
        with open(material_json) as fh:
            material = parse_fatigue_material(json.load(fh), ctx="material")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        _fail(EXIT_INPUT, str(exc))
    if t_task is None:
        t_task = float(history.times[-1] - history.times[0])
    if t_task <= 0.0:
        _fail(EXIT_INPUT, "t_task must be positive (pass --t-task for single-point histories)")
    try:
        with np.errstate(over="ignore"):  # overflow ends in a finiteness error
            report = fat.critical_plane_lifetime(
                history, fat.angle_grid(angles), material, t_task,
                n_mean_bins=mean_bins, n_amp_bins=amp_bins, hysteresis_gate=gate,
            )
    except ValueError as exc:  # e.g. a Tresca history that overflows
        _fail(EXIT_INPUT, str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "damage_report.json"
    with open(path, "w") as fh:
        json.dump(_report_dict(report), fh, indent=2)
        fh.write("\n")
    life = "infinite" if not report.finite_life else f"{report.t_life_hours:.4g} h"
    click.echo(f"D_max = {report.d_max:.6g} per task, lifetime {life}; wrote {path}")


@main.command("rainflow")
@click.argument("series_csv", type=click.Path(exists=True))
@click.option("--mean-bins", type=click.IntRange(1, MAX_BINS), default=32, show_default=True)
@click.option("--amp-bins", type=click.IntRange(1, MAX_BINS), default=32, show_default=True)
@click.option("--gate", type=click.FloatRange(min=0.0), default=0.0, show_default=True,
              callback=_finite)
@click.option("--out-dir", type=click.Path(), default=".")
def cmd_rainflow(series_csv, mean_bins, amp_bins, gate, out_dir):
    """Rainflow matrix of a scalar stress history CSV (columns t, sigma)."""
    try:
        data = np.genfromtxt(series_csv, delimiter=",", names=True, encoding="utf-8-sig")
        names = data.dtype.names or ()
        if "t" not in names or "sigma" not in names:
            raise ConfigError("series CSV needs columns 't' and 'sigma'")
        t = np.atleast_1d(data["t"])
        sigma = np.atleast_1d(data["sigma"])
        with np.errstate(over="ignore"):  # overflow ends in a finiteness error
            series = rfc.extract_extrema(t, sigma, gate)
            cycles = rfc.count_cycles(series)
            matrix = rfc.bin_cycles(cycles, mean_bins, amp_bins)
    except (OSError, ValueError) as exc:
        _fail(EXIT_INPUT, str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "rainflow_matrix.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma_m_center", "sigma_a_center", "count"])
        for i, mc in enumerate(matrix.mean_centers):
            for j, ac in enumerate(matrix.amp_centers):
                writer.writerow([_fmt(mc), _fmt(ac), _fmt(matrix.counts[i, j])])
    click.echo(
        f"counted {len(cycles)} cycles (total weight {cycles.total_weight}); wrote {path}"
    )


def _life_cell(res: CandidateResult) -> str:
    if res.t_life_seconds is None:
        return ""
    return _fmt(res.t_life_seconds / 3600.0)


def _write_sweep_outputs(out: Path, outcome: SweepOutcome, cap_hours: float) -> None:
    with open(out / "sweep_results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "t1_mm", "t2_mm", "Jm_percent", "Jvib_m", "Dmax", "lifetime_h"])
        for r in outcome.results:
            writer.writerow([
                r.config, _fmt(r.t1 * 1e3), _fmt(r.t2 * 1e3), _fmt(r.j_mass * 100.0),
                _fmt(r.j_vib) if math.isfinite(r.j_vib) else "nan",
                "" if r.d_max is None else _fmt(r.d_max),
                _life_cell(r),
            ])

    front_points = [r for r in outcome.results if r.config in outcome.front]
    payload = {
        "front": list(outcome.front.ids),
        "points": [
            {
                "config": r.config,
                "t1_mm": r.t1 * 1e3,
                "t2_mm": r.t2 * 1e3,
                "Jm_percent": r.j_mass * 100.0,
                "Jvib_m": r.j_vib,
                "Dmax": r.d_max,
                "finite_life": (None if r.t_life_seconds is None
                                else math.isfinite(r.t_life_seconds)),
                "lifetime_h": (
                    None
                    if r.t_life_seconds is None or math.isinf(r.t_life_seconds)
                    else r.t_life_seconds / 3600.0
                ),
            }
            for r in front_points
        ],
        "failures": [
            {"config": r.config, "error": r.error} for r in outcome.failures
        ],
    }
    with open(out / "pareto.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    with open(out / "pareto_points.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "Jm_percent", "Jvib_m", "on_front", "lifetime_h_capped"])
        for r in outcome.results:
            if r.error is not None:
                continue
            if r.t_life_seconds is None:
                life = ""
            else:
                life = _fmt(min(r.t_life_seconds / 3600.0, cap_hours))
            writer.writerow([
                r.config, _fmt(r.j_mass * 100.0), _fmt(r.j_vib),
                int(r.config in outcome.front), life,
            ])


def _write_sweep_stats(out: Path, outcome: SweepOutcome) -> None:
    """sweep_stats.json: each candidate's RUN_STATS (null where a stage did
    not run) and error, and their totals. Its times vary from run to run,
    so it is no part of the reproducible outputs."""
    candidates = [
        {"config": r.config, **{key: r.stats.get(key) for key in RUN_STATS}, "error": r.error}
        for r in outcome.results
    ]
    totals = {key: sum(c[key] for c in candidates if c[key] is not None) for key in RUN_STATS}
    totals["errors"] = len(outcome.failures)
    with open(out / "sweep_stats.json", "w") as fh:
        json.dump({"candidates": candidates, "totals": totals}, fh, indent=2)
        fh.write("\n")


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out-dir", type=click.Path(), default=None)
@click.option("--jobs", type=click.IntRange(min=1), default=None,
              help="Worker processes (default from config).")
@click.option("--only-pareto-fatigue", is_flag=True, default=False,
              help="Run the fatigue stage only for Pareto-front candidates.")
@click.option("--plot-cap-hours", type=click.FloatRange(min=0.0, min_open=True), default=3500.0,
              show_default=True, callback=_finite,
              help="Display ceiling for infinite lifetimes in plot CSV.")
def cmd_sweep(config_path, out_dir, jobs, only_pareto_fatigue, plot_cap_hours):
    """Evaluate the full thickness grid and extract the Pareto front."""
    cfg = _load(config_path)
    out = Path(out_dir or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    plan = plan_joint_move(cfg.q_pick, cfg.q_place, cfg.limits)
    settings = cfg.sweep_settings(
        jobs=jobs, only_pareto=(True if only_pareto_fatigue else None)
    )
    try:
        outcome = run_sweep(cfg.grid, cfg.design, plan, settings)
    except RuntimeError as exc:  # includes SimulationError
        _fail(EXIT_NUMERIC, str(exc))
    _write_sweep_outputs(out, outcome, plot_cap_hours)
    _write_sweep_stats(out, outcome)
    for r in outcome.failures:
        click.echo(f"warning: candidate {r.config} failed: {r.error}", err=True)
    click.echo(
        f"evaluated {len(outcome.results)} candidates; Pareto front "
        f"{list(outcome.front.ids)}; wrote {out / 'sweep_results.csv'}"
    )


@main.command("pareto")
@click.argument("points_csv", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default="pareto.json", show_default=True)
def cmd_pareto(points_csv, out):
    """Standalone front extraction from a CSV with columns config, jm, jvib."""
    try:
        data = np.genfromtxt(points_csv, delimiter=",", names=True, encoding="utf-8-sig")
        names = data.dtype.names or ()
        for col in ("config", "jm", "jvib"):
            if col not in names:
                raise ConfigError(f"points CSV is missing column '{col}'")
    except (OSError, ValueError) as exc:
        _fail(EXIT_INPUT, str(exc))
    ids = np.atleast_1d(data["config"])
    for c in ids:
        # a blank or non-numeric cell reads as nan
        if not (math.isfinite(c) and c == int(c) and c >= 1):
            _fail(EXIT_INPUT, f"config id {_fmt(c)} is not an integer >= 1")
    if np.unique(ids).size != ids.size:
        _fail(EXIT_INPUT, "config ids must be unique")
    results = [
        CandidateResult(
            config=int(c), t1=0.0, t2=0.0, j_mass=float(jm), j_vib=float(jv)
        )
        for c, jm, jv in zip(ids, np.atleast_1d(data["jm"]), np.atleast_1d(data["jvib"]))
    ]
    try:
        front = extract_front(results)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    with open(out, "w") as fh:
        json.dump({"front": list(front.ids)}, fh, indent=2)
        fh.write("\n")
    click.echo(f"front: {list(front.ids)}; wrote {out}")


if __name__ == "__main__":
    main()
