"""Run configuration: strict JSON schema for the CLI pipeline.

One JSON file describes the robot, the pick-and-place task, integrator
settings, the fatigue evaluation and the thickness sweep. Validation is
strict: unknown keys are rejected, every value passes through the one
reader of its kind (number, list of numbers, count, boolean, choice,
string) and is then range checked by the dataclass that owns it, so a
typo fails fast with the offending key path in the message. A key left
out takes that dataclass's default; null means "left out" only for
``t_settle``, ``haigh`` and ``stress_point``. All quantities are SI (m, kg,
s, Pa, rad); presentation units only appear in output columns with an
explicit suffix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import partial

from .beam import Material, section_properties
from .design import CandidateGrid, SweepSettings
from .dynamics import ControllerGains, DriveParams, LinkParams, RobotDesign, SimSettings
from .fatigue import FatigueMaterial
from .trajectory import JointLimits


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


# keys whose null value means the key is left out
_NULL_IS_ABSENT = {"t_settle", "haigh", "stress_point"}


def _number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _list(value, path: str, n: int | None = None, item=_number) -> tuple:
    """A list of exactly n entries, or of at least one if n is None."""
    if not isinstance(value, list) or not value or (n is not None and len(value) != n):
        raise ConfigError(f"{path}: expected a list of {n or 'one or more'} entries")
    return tuple(item(x, f"{path}[{i}]") for i, x in enumerate(value))


def _count(value, path: str) -> int:
    """An integral number >= 1; 73 and 73.0 load, 0.5 or 2.9 do not."""
    number = _number(value, path)
    if number < 1 or not number.is_integer():
        raise ConfigError(f"{path}: expected an integer >= 1, got {value!r}")
    return int(number)


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def _choice(value, path: str, options: tuple[str, ...]) -> str:
    if value not in options:
        raise ConfigError(f"{path}: expected one of {list(options)}, got {value!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _read(obj, ctx: str, readers: dict, required=()) -> dict:
    """Each present key of a JSON object through its reader, keyed by name."""
    where = ctx or "config"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - set(readers)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing required key '{sorted(missing)[0]}'")
    return {
        key: readers[key](value, f"{ctx}.{key}" if ctx else key)
        for key, value in obj.items()
        if value is not None or key not in _NULL_IS_ABSENT
    }


def _build(cls, ctx: str, **kw):
    """cls(**kw), with its ValueError as a ConfigError led by the key path."""
    try:
        return cls(**kw)
    except (ValueError, OverflowError) as exc:  # a**4 of a huge edge length overflows
        raise ConfigError(f"{ctx}: {exc}") from exc


def _object(cls, readers: dict, required=()):
    """Reader of a JSON object whose keys are the fields of cls."""
    return lambda value, path: _build(cls, path, **_read(value, path, readers, required))


_triple = partial(_list, n=3)
# the SweepSettings fields that RunConfig holds too
_SWEEP_FIELDS = [f.name for f in fields(SweepSettings) if f.name != "keep_histories"]


@dataclass
class RunConfig:
    """Validated configuration of a full pipeline run."""

    design: RobotDesign
    q_pick: tuple[float, float, float]
    q_place: tuple[float, float, float]
    limits: list[JointLimits]
    sim: SimSettings
    fatigue_material: FatigueMaterial
    n_angles: int
    n_mean_bins: int
    n_amp_bins: int
    hysteresis_gate: float
    include_residue: bool
    grid: CandidateGrid
    reference: tuple[float, float]
    jobs: int
    output_dir: str = "out"

    def sweep_settings(self, jobs: int | None = None,
                       keep_histories: bool = False) -> SweepSettings:
        kw = {name: getattr(self, name) for name in _SWEEP_FIELDS}
        if jobs is not None:
            kw["jobs"] = jobs
        return SweepSettings(**kw, keep_histories=keep_histories)


def _stress_point(value, path: str) -> tuple[float, float]:
    point = _read(value, path, {"y": _number, "z": _number}, {"y", "z"})
    return point["y"], point["z"]


def _link(value, path: str) -> LinkParams:
    kw = _read(value, path, {
        **dict.fromkeys(("length", "wall_thickness", "xi_crit", "damping_beta"), _number),
        "modes": partial(_triple, item=_count), "stress_point": _stress_point,
    }, {"length", "wall_thickness"})
    if "modes" in kw:
        kw["n_v"], kw["n_w"], kw["n_theta"] = kw.pop("modes")
    if "stress_point" in kw:
        kw["stress_y"], kw["stress_z"] = kw.pop("stress_point")
    return _build(LinkParams, path, **kw)


_drive = _object(DriveParams, dict.fromkeys(
    ("rotor_inertia", "gear_ratio", "stiffness", "damping", "torque_limit"), _number,
), {"rotor_inertia", "gear_ratio", "stiffness"})
_gains = _object(ControllerGains, {
    **dict.fromkeys(("kp_pos", "kp_vel", "ki_vel"), _triple), "feedforward": _flag,
}, {"kp_pos", "kp_vel", "ki_vel"})


def _robot(value, path: str) -> tuple[RobotDesign, ControllerGains]:
    kw = _read(value, path, {
        **dict.fromkeys(
            ("edge_length", "hub1_inertia", "hub2_mass", "hub2_inertia", "payload_mass"), _number
        ),
        "material": _object(Material, dict.fromkeys(("rho", "E", "nu"), _number),
                            {"rho", "E", "nu"}),
        "gravity": _triple,
        "links": partial(_list, n=2, item=_link),
        "drives": partial(_list, n=3, item=_drive),
        "controller": _gains,
    }, {"material", "edge_length", "links", "drives", "controller"})
    gains = kw.pop("controller")
    design = _build(RobotDesign, path, **kw)
    for k, link in enumerate(design.links):
        _check_wall(design, f"{path}.links[{k}].wall_thickness", link.wall_thickness)
        _build(design.beam_spec, f"{path}.links[{k}].modes", index=k)  # shape counts
    return design, gains


def _check_wall(design: RobotDesign, path: str, t: float) -> None:
    """A wall thickness must give a tube section, 0 < 2t < edge length."""
    _build(section_properties, path, a=design.edge_length, t=t)


_fatigue_material = _object(FatigueMaterial, {
    **dict.fromkeys(("yield_strength", "fatigue_strength", "n_lcf", "n_hcf"), _number),
    "haigh": partial(_list, item=partial(_list, n=2)),
}, {"yield_strength", "fatigue_strength"})


def parse_fatigue_material(obj: dict, ctx: str = "fatigue.material") -> FatigueMaterial:
    return _fatigue_material(obj, ctx)


_LIMITS = ("v_max", "a_max", "j_max")


def _trajectory(value, path: str) -> dict:
    kw = _read(value, path, {
        "q_pick": _triple, "q_place": _triple,
        "limits": lambda v, p: _read(v, p, dict.fromkeys(_LIMITS, _triple), _LIMITS),
    }, {"q_pick", "q_place", "limits"})
    lim = kw["limits"]
    kw["limits"] = [
        _build(JointLimits, f"{path}.limits, joint {i + 1}", **{k: lim[k][i] for k in _LIMITS})
        for i in range(3)
    ]
    return kw


def load_config(path) -> RunConfig:
    """Parse and validate a run-configuration JSON file (UTF-8, BOM allowed)."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    try:
        return _build_config(raw)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_config(raw: dict) -> RunConfig:
    top = _read(raw, "", {
        "robot": _robot,
        "trajectory": _trajectory,
        "simulation": lambda v, p: _read(v, p, {
            **dict.fromkeys(("rtol", "atol", "t_settle", "sample_rate"), _number),
            "method": partial(_choice, options=("BDF",)), "initial_elastic": _string,
        }),
        "fatigue": lambda v, p: _read(v, p, {
            **dict.fromkeys(("n_angles", "n_mean_bins", "n_amp_bins"), _count),
            "material": parse_fatigue_material, "hysteresis_gate": _number,
            "include_residue": _flag,
        }, {"material"}),
        "sweep": lambda v, p: _read(v, p, {
            "t1_values": _list, "t2_values": _list, "reference": partial(_list, n=2),
            "jobs": _count, "only_pareto_fatigue": _flag,
        }, {"t1_values", "t2_values", "reference"}),
        "output_dir": _string,
    }, {"robot", "trajectory", "fatigue", "sweep"})
    design, gains = top.pop("robot")
    sim_kw = top.pop("simulation", {})
    sim_kw.pop("method", None)  # VODE's BDF is the only integrator
    sim = _build(SimSettings, "simulation", gains=gains, **sim_kw)

    sweep = top.pop("sweep")
    if sweep.pop("only_pareto_fatigue", False):  # a retired report filter; false loads
        raise ConfigError("sweep.only_pareto_fatigue: only false is accepted; "
                          "every lifetime is now reported")
    for key in ("t1_values", "t2_values", "reference"):
        for i, t in enumerate(sweep[key]):
            _check_wall(design, f"sweep.{key}[{i}]", t)
    grid = _build(CandidateGrid, "sweep",
                  t1_values=sweep.pop("t1_values"), t2_values=sweep.pop("t2_values"))
    fat = top.pop("fatigue")
    # of the values read here the gate and the count bounds are left to check
    settings = _build(SweepSettings, "fatigue", sim=sim,
                      fatigue_material=fat.pop("material"), **fat, **sweep)
    shared = {name: getattr(settings, name) for name in _SWEEP_FIELDS}
    # top still holds output_dir, if given
    return RunConfig(design=design, grid=grid, **top.pop("trajectory"), **shared, **top)
