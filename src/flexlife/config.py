"""Run configuration: strict JSON schema for the CLI pipeline.

One JSON file describes the robot, the pick-and-place task, integrator
settings, the fatigue evaluation and the thickness sweep. Validation is
strict: unknown keys are rejected and every physical quantity is range
checked, so a typo fails fast with the offending key path in the message.
All quantities are SI (m, kg, s, Pa, rad); presentation units only appear
in output columns with an explicit suffix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .beam import Material
from .design import CandidateGrid, SweepSettings
from .dynamics import ControllerGains, DriveParams, LinkParams, RobotDesign, SimSettings
from .fatigue import FatigueMaterial, N_HCF_DEFAULT, N_LCF_DEFAULT
from .trajectory import JointLimits


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


def _check_keys(obj: dict, allowed: set[str], required: set[str], ctx: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{ctx}: unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{ctx}: missing required key '{sorted(missing)[0]}'")


def _number(obj: dict, key: str, ctx: str, *, positive=False, nonneg=False, default=None):
    if key not in obj:
        if default is None:
            raise ConfigError(f"{ctx}: missing required key '{key}'")
        value = default
    else:
        value = obj[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ConfigError(f"{ctx}.{key}: expected a finite number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{ctx}.{key}: must be positive, got {value}")
    if nonneg and value < 0:
        raise ConfigError(f"{ctx}.{key}: must be non-negative, got {value}")
    return float(value)


def _count(obj: dict, key: str, ctx: str, *, default: int) -> int:
    """An integral number >= 1; 73 and 73.0 load, 0.5 or 2.9 do not."""
    value = _number(obj, key, ctx, default=default)
    if value < 1 or not value.is_integer():
        raise ConfigError(f"{ctx}.{key}: expected an integer >= 1, got {obj[key]!r}")
    return int(value)


def _vector(obj: dict, key: str, n: int, ctx: str, *, positive=False) -> tuple[float, ...]:
    if key not in obj:
        raise ConfigError(f"{ctx}: missing required key '{key}'")
    value = obj[key]
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ConfigError(f"{ctx}.{key}: expected a list of {n} numbers")
    out = []
    for i, x in enumerate(value):
        if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
            raise ConfigError(f"{ctx}.{key}[{i}]: expected a finite number")
        if positive and x <= 0:
            raise ConfigError(f"{ctx}.{key}[{i}]: must be positive")
        out.append(float(x))
    return tuple(out)


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
    only_pareto_fatigue: bool
    output_dir: str

    def sweep_settings(self, jobs: int | None = None, only_pareto: bool | None = None,
                       keep_histories: bool = False) -> SweepSettings:
        return SweepSettings(
            sim=self.sim,
            fatigue_material=self.fatigue_material,
            reference=self.reference,
            n_angles=self.n_angles,
            n_mean_bins=self.n_mean_bins,
            n_amp_bins=self.n_amp_bins,
            hysteresis_gate=self.hysteresis_gate,
            include_residue=self.include_residue,
            jobs=self.jobs if jobs is None else jobs,
            only_pareto_fatigue=(
                self.only_pareto_fatigue if only_pareto is None else only_pareto
            ),
            keep_histories=keep_histories,
        )


def _parse_link(obj: dict, ctx: str) -> LinkParams:
    _check_keys(
        obj,
        {"length", "wall_thickness", "modes", "xi_crit", "damping_beta", "stress_point"},
        {"length", "wall_thickness"},
        ctx,
    )
    modes = obj.get("modes", [2, 2, 1])
    if not isinstance(modes, (list, tuple)) or len(modes) != 3 or any(
        not isinstance(m, int) or isinstance(m, bool) or m < 1 for m in modes
    ):
        raise ConfigError(f"{ctx}.modes: expected three integers >= 1 (n_v, n_w, n_theta)")
    stress_y = stress_z = None
    if obj.get("stress_point") is not None:
        sp = obj["stress_point"]
        _check_keys(sp, {"y", "z"}, {"y", "z"}, f"{ctx}.stress_point")
        stress_y = _number(sp, "y", f"{ctx}.stress_point")
        stress_z = _number(sp, "z", f"{ctx}.stress_point")
    return LinkParams(
        length=_number(obj, "length", ctx, positive=True),
        wall_thickness=_number(obj, "wall_thickness", ctx, positive=True),
        n_v=modes[0],
        n_w=modes[1],
        n_theta=modes[2],
        xi_crit=_number(obj, "xi_crit", ctx, nonneg=True, default=0.0),
        damping_beta=_number(obj, "damping_beta", ctx, nonneg=True, default=0.0),
        stress_y=stress_y,
        stress_z=stress_z,
    )


def _parse_robot(obj: dict) -> tuple[RobotDesign, ControllerGains]:
    ctx = "robot"
    _check_keys(
        obj,
        {
            "gravity", "material", "edge_length", "links", "hub1_inertia",
            "hub2_mass", "hub2_inertia", "payload_mass", "drives", "controller",
        },
        {"material", "edge_length", "links", "drives", "controller"},
        ctx,
    )
    mat_obj = obj["material"]
    _check_keys(mat_obj, {"rho", "E", "nu"}, {"rho", "E", "nu"}, f"{ctx}.material")
    material = Material(
        rho=_number(mat_obj, "rho", f"{ctx}.material", positive=True),
        E=_number(mat_obj, "E", f"{ctx}.material", positive=True),
        nu=_number(mat_obj, "nu", f"{ctx}.material", nonneg=True),
    )
    links = obj["links"]
    if not isinstance(links, list) or len(links) != 2:
        raise ConfigError(f"{ctx}.links: expected exactly two link objects")
    drives = obj["drives"]
    if not isinstance(drives, list) or len(drives) != 3:
        raise ConfigError(f"{ctx}.drives: expected exactly three drive objects")
    parsed_drives = []
    for k, dr in enumerate(drives):
        dctx = f"{ctx}.drives[{k}]"
        _check_keys(
            dr,
            {"rotor_inertia", "gear_ratio", "stiffness", "damping", "torque_limit"},
            {"rotor_inertia", "gear_ratio", "stiffness"},
            dctx,
        )
        parsed_drives.append(
            DriveParams(
                rotor_inertia=_number(dr, "rotor_inertia", dctx, positive=True),
                gear_ratio=_number(dr, "gear_ratio", dctx, positive=True),
                stiffness=_number(dr, "stiffness", dctx, positive=True),
                damping=_number(dr, "damping", dctx, nonneg=True, default=0.0),
                torque_limit=_number(dr, "torque_limit", dctx, positive=True, default=1e9),
            )
        )
    gravity = obj.get("gravity", [0.0, 0.0, -9.81])
    if not isinstance(gravity, (list, tuple)) or len(gravity) != 3:
        raise ConfigError(f"{ctx}.gravity: expected a 3-vector")
    ctr = obj["controller"]
    _check_keys(
        ctr, {"kp_pos", "kp_vel", "ki_vel", "feedforward"}, {"kp_pos", "kp_vel", "ki_vel"},
        f"{ctx}.controller",
    )
    gains = ControllerGains(
        kp_pos=_vector(ctr, "kp_pos", 3, f"{ctx}.controller", positive=True),
        kp_vel=_vector(ctr, "kp_vel", 3, f"{ctx}.controller", positive=True),
        ki_vel=_vector(ctr, "ki_vel", 3, f"{ctx}.controller"),
        feedforward=bool(ctr.get("feedforward", True)),
    )
    design = RobotDesign(
        material=material,
        edge_length=_number(obj, "edge_length", ctx, positive=True),
        links=(_parse_link(links[0], f"{ctx}.links[0]"), _parse_link(links[1], f"{ctx}.links[1]")),
        drives=tuple(parsed_drives),
        hub1_inertia=_number(obj, "hub1_inertia", ctx, nonneg=True, default=0.0),
        hub2_mass=_number(obj, "hub2_mass", ctx, nonneg=True, default=0.0),
        hub2_inertia=_number(obj, "hub2_inertia", ctx, nonneg=True, default=0.0),
        payload_mass=_number(obj, "payload_mass", ctx, nonneg=True, default=0.0),
        gravity=tuple(float(x) for x in gravity),
    )
    return design, gains


def parse_fatigue_material(obj: dict, ctx: str = "fatigue.material") -> FatigueMaterial:
    _check_keys(
        obj,
        {"yield_strength", "fatigue_strength", "haigh", "n_lcf", "n_hcf"},
        {"yield_strength", "fatigue_strength"},
        ctx,
    )
    haigh = ()
    if obj.get("haigh") is not None:
        raw = obj["haigh"]
        if not isinstance(raw, list) or any(
            not isinstance(p, (list, tuple)) or len(p) != 2 for p in raw
        ):
            raise ConfigError(f"{ctx}.haigh: expected a list of [mean, amplitude] pairs")
        haigh = tuple((float(m), float(a)) for m, a in raw)
    try:
        return FatigueMaterial(
            yield_strength=_number(obj, "yield_strength", ctx, positive=True),
            fatigue_strength=_number(obj, "fatigue_strength", ctx, positive=True),
            haigh=haigh,
            n_lcf=_number(obj, "n_lcf", ctx, positive=True, default=N_LCF_DEFAULT),
            n_hcf=_number(obj, "n_hcf", ctx, positive=True, default=N_HCF_DEFAULT),
        )
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def load_config(path) -> RunConfig:
    """Parse and validate a run-configuration JSON file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    try:
        return _build_config(raw)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_config(raw: dict) -> RunConfig:
    _check_keys(
        raw,
        {"robot", "trajectory", "simulation", "fatigue", "sweep", "output_dir"},
        {"robot", "trajectory", "fatigue", "sweep"},
        "config",
    )
    try:
        design, gains = _parse_robot(raw["robot"])
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"robot: {exc}") from exc

    tr = raw["trajectory"]
    _check_keys(tr, {"q_pick", "q_place", "limits"}, {"q_pick", "q_place", "limits"}, "trajectory")
    q_pick = _vector(tr, "q_pick", 3, "trajectory")
    q_place = _vector(tr, "q_place", 3, "trajectory")
    lim = tr["limits"]
    _check_keys(lim, {"v_max", "a_max", "j_max"}, {"v_max", "a_max", "j_max"}, "trajectory.limits")
    v = _vector(lim, "v_max", 3, "trajectory.limits", positive=True)
    a = _vector(lim, "a_max", 3, "trajectory.limits", positive=True)
    j = _vector(lim, "j_max", 3, "trajectory.limits", positive=True)
    limits = [JointLimits(v[i], a[i], j[i]) for i in range(3)]

    sim_obj = raw.get("simulation", {})
    _check_keys(
        sim_obj,
        {"rtol", "atol", "t_settle", "sample_rate", "method", "initial_elastic"},
        set(),
        "simulation",
    )
    method = sim_obj.get("method", "BDF")
    if method != "BDF":
        raise ConfigError(f"simulation.method: expected BDF (VODE), got {method!r}")
    t_settle = sim_obj.get("t_settle")
    if t_settle is not None:
        t_settle = _number(sim_obj, "t_settle", "simulation", positive=True)
    initial = sim_obj.get("initial_elastic", "static")
    if initial not in ("static", "zero"):
        raise ConfigError("simulation.initial_elastic: expected 'static' or 'zero'")
    sim = SimSettings(
        rtol=_number(sim_obj, "rtol", "simulation", positive=True, default=1e-6),
        atol=_number(sim_obj, "atol", "simulation", positive=True, default=1e-9),
        t_settle=t_settle,
        sample_rate=_number(sim_obj, "sample_rate", "simulation", positive=True, default=1000.0),
        initial_elastic=initial,
        gains=gains,
    )

    fat_obj = raw["fatigue"]
    _check_keys(
        fat_obj,
        {"material", "n_angles", "n_mean_bins", "n_amp_bins", "hysteresis_gate",
         "include_residue"},
        {"material"},
        "fatigue",
    )
    fatigue_material = parse_fatigue_material(fat_obj["material"])
    n_angles = _count(fat_obj, "n_angles", "fatigue", default=73)
    n_mean = _count(fat_obj, "n_mean_bins", "fatigue", default=32)
    n_amp = _count(fat_obj, "n_amp_bins", "fatigue", default=32)

    sw = raw["sweep"]
    _check_keys(
        sw,
        {"t1_values", "t2_values", "reference", "jobs", "only_pareto_fatigue"},
        {"t1_values", "t2_values", "reference"},
        "sweep",
    )
    for key in ("t1_values", "t2_values"):
        vals = sw[key]
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"sweep.{key}: expected a non-empty list of thicknesses (m)")
    grid = CandidateGrid(
        t1_values=tuple(float(t) for t in sw["t1_values"]),
        t2_values=tuple(float(t) for t in sw["t2_values"]),
    )
    reference = _vector(sw, "reference", 2, "sweep", positive=True)
    jobs = _count(sw, "jobs", "sweep", default=1)

    return RunConfig(
        design=design,
        q_pick=q_pick,
        q_place=q_place,
        limits=limits,
        sim=sim,
        fatigue_material=fatigue_material,
        n_angles=n_angles,
        n_mean_bins=n_mean,
        n_amp_bins=n_amp,
        hysteresis_gate=_number(fat_obj, "hysteresis_gate", "fatigue", nonneg=True, default=0.0),
        include_residue=bool(fat_obj.get("include_residue", True)),
        grid=grid,
        reference=(reference[0], reference[1]),
        jobs=jobs,
        only_pareto_fatigue=bool(sw.get("only_pareto_fatigue", False)),
        output_dir=str(raw.get("output_dir", "out")),
    )
