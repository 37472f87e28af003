"""Wall-thickness design sweep: criteria, Pareto front and orchestration.

Candidates are the cells of a (t1, t2) thickness grid, numbered like the
configuration matrix c(i, j) = (j-1) n + i (column-major over t1). Each
candidate is simulated once; the mass criterion is the relative change of
total beam mass against the reference design, the vibration criterion the
largest end-effector deviation during the post-motion settling window, and
the lifetime comes from the critical-plane fatigue analysis of both link
roots (the weaker link governs).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import fatigue
from .beam import section_properties
from .dynamics import RobotDesign, SimSettings, SimulationError, SimulationResult, simulate
from .stress import StressHistory, default_stress_point, material_point, stresses_from_curvature
from .trajectory import TrajectoryPlan


@dataclass(frozen=True)
class CandidateGrid:
    """Thickness values per link; configuration ids are 1-based."""

    t1_values: tuple[float, ...]
    t2_values: tuple[float, ...]

    def __post_init__(self):
        for name in ("t1_values", "t2_values"):
            values = tuple(float(t) for t in getattr(self, name))
            if not values:
                raise ValueError("thickness grids must not be empty")
            if min(values) <= 0.0:
                raise ValueError(f"{name} must be positive, got {min(values)}")
            object.__setattr__(self, name, values)

    def __len__(self) -> int:
        return len(self.t1_values) * len(self.t2_values)

    def config_id(self, i: int, j: int) -> int:
        """1-based id of cell (i, j) = (t1 index, t2 index), 0-based input."""
        return j * len(self.t1_values) + i + 1

    def candidates(self):
        """Yield (config_id, t1, t2) in configuration-id order."""
        for j, t2 in enumerate(self.t2_values):
            for i, t1 in enumerate(self.t1_values):
                yield self.config_id(i, j), t1, t2


# a candidate's run record: its simulate's solver counts, presolve and solve
# seconds, then the seconds run_sweep spends in its candidate_lifetime
SIM_STATS = ("nfev", "njev", "nlu", "steps", "presolve_s", "solve_s")
RUN_STATS = SIM_STATS + ("lifetime_s",)


@dataclass
class CandidateResult:
    """Criteria and lifetime of one evaluated candidate."""

    config: int
    t1: float
    t2: float
    j_mass: float  # signed fraction, -1 < J_m
    j_vib: float  # m
    d_max: float | None = None  # damage per task, None if fatigue stage skipped
    t_life_seconds: float | None = None  # inf for no-damage candidates
    error: str | None = None
    # run record, kept out of the reproducible result files: RUN_STATS (none
    # if the simulation raised, no lifetime_s without the fatigue stage)
    stats: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ParetoFront:
    """Configuration ids of the non-dominated candidates, ascending."""

    ids: tuple[int, ...]

    def __contains__(self, config: int) -> bool:
        return config in self.ids


def mass_criterion(design: RobotDesign, reference: RobotDesign) -> float:
    """Relative beam-mass change against the reference design.

    Uniform density cancels, so this is the cross-section-area ratio
    weighted by the link lengths.
    """
    if any(
        design.links[k].length != reference.links[k].length for k in range(2)
    ) or design.edge_length != reference.edge_length:
        raise ValueError("mass criterion requires identical link lengths and edge length")
    a = design.edge_length

    def beam_mass(d: RobotDesign) -> float:
        return sum(
            section_properties(a, link.wall_thickness).A_B * link.length for link in d.links
        )

    return beam_mass(design) / beam_mass(reference) - 1.0


def vibration_criterion(result: SimulationResult) -> float:
    """Largest end-effector deviation norm during the post-motion settling
    phase, from t_task to the last sample."""
    mask = result.times >= result.t_task
    if not np.any(mask):
        raise ValueError(f"no samples at or after t_task = {result.t_task}")
    return float(np.linalg.norm(result.dr_ee[mask], axis=1).max())


def pareto_front(results: list[CandidateResult]) -> ParetoFront:
    """Non-dominated candidates under weak-dominance minimization of
    (J_m, J_vib); exact ties on both criteria are all kept."""
    if not results:
        raise ValueError("need at least one candidate result")
    pts = [(r.j_mass, r.j_vib, r.config) for r in results]
    for jm, jv, cfg in pts:
        if not (math.isfinite(jm) and math.isfinite(jv)):
            raise ValueError(f"candidate {cfg} has non-finite criteria")
    order = sorted(pts, key=lambda p: (p[0], p[1]))
    front: list[int] = []
    best_vib = math.inf
    best_pair = None
    for jm, jv, cfg in order:
        if jv < best_vib or (jm, jv) == best_pair:
            front.append(cfg)
            if jv < best_vib:
                best_vib = jv
                best_pair = (jm, jv)
    return ParetoFront(ids=tuple(sorted(front)))


# upper bounds of the fatigue counts, so a huge count fails before any work
# starts: cutting planes at most 0.05 degrees apart, a rainflow matrix of
# <= 8 MB
MAX_ANGLES = 3601
MAX_BINS = 1000


@dataclass(frozen=True)
class SweepSettings:
    """Everything run_sweep needs besides the grid and the base design."""

    sim: SimSettings
    fatigue_material: fatigue.FatigueMaterial
    reference: tuple[float, float]  # reference wall thicknesses (m)
    n_angles: int = 73
    n_mean_bins: int = 32
    n_amp_bins: int = 32
    hysteresis_gate: float = 0.0
    include_residue: bool = True
    jobs: int = 1
    only_pareto_fatigue: bool = False
    keep_histories: bool = False

    def __post_init__(self):
        if self.hysteresis_gate < 0.0:
            raise ValueError(f"hysteresis_gate must be >= 0, got {self.hysteresis_gate}")
        for name, most in (("n_angles", MAX_ANGLES), ("n_mean_bins", MAX_BINS),
                           ("n_amp_bins", MAX_BINS)):
            count = getattr(self, name)
            if not 1 <= count <= most:
                raise ValueError(f"{name} must lie in [1, {most}], got {count:g}")


@dataclass
class SweepOutcome:
    results: list[CandidateResult]
    front: ParetoFront
    histories: dict[int, tuple[StressHistory, StressHistory]] = field(default_factory=dict)

    @property
    def failures(self) -> list[CandidateResult]:
        return [r for r in self.results if r.error is not None]


def _stress_point(design: RobotDesign, index: int):
    link = design.links[index]
    section = section_properties(design.edge_length, link.wall_thickness)
    if link.stress_y is None and link.stress_z is None:
        return default_stress_point(section, link.xi_crit)
    return material_point(section, link.xi_crit, link.stress_y or 0.0, link.stress_z or 0.0)


def link_stress_histories(
    design: RobotDesign, result: SimulationResult
) -> tuple[StressHistory, StressHistory]:
    """Plane-stress histories at both link roots of a finished run."""
    pts = (_stress_point(design, 0), _stress_point(design, 1))
    return (
        stresses_from_curvature(result.times, result.kappa1, pts[0], design.material),
        stresses_from_curvature(result.times, result.kappa2, pts[1], design.material),
    )


def candidate_lifetime(
    histories: tuple[StressHistory, StressHistory],
    settings: SweepSettings,
    t_task: float,
) -> tuple[float, float]:
    """(D_max, t_life) over both links; the worse link governs."""
    angles = fatigue.angle_grid(settings.n_angles)
    d_max = 0.0
    for hist in histories:
        report = fatigue.critical_plane_lifetime(
            hist,
            angles,
            settings.fatigue_material,
            t_task,
            n_mean_bins=settings.n_mean_bins,
            n_amp_bins=settings.n_amp_bins,
            hysteresis_gate=settings.hysteresis_gate,
            include_residue=settings.include_residue,
        )
        d_max = max(d_max, report.d_max)
    t_life = t_task / d_max if d_max > 0.0 else math.inf
    return d_max, t_life


def _evaluate_candidate(args):
    t1, t2, base, plan, settings = args
    design = base.with_thicknesses(t1, t2)
    try:
        result = simulate(design, plan, settings.sim)
        stats = {key: result.stats[key] for key in SIM_STATS}
        j_vib = vibration_criterion(result)
        histories = link_stress_histories(design, result)
        return j_vib, histories, None, stats
    except (SimulationError, ValueError) as exc:  # LinAlgError is a ValueError
        return math.nan, None, f"{type(exc).__name__}: {exc}", {}


def run_sweep(
    grid: CandidateGrid,
    base_design: RobotDesign,
    plan: TrajectoryPlan,
    settings: SweepSettings,
) -> SweepOutcome:
    """Simulate every candidate, rank the criteria and attach lifetimes.

    Candidates are evaluated independently (optionally by a process pool);
    results are reduced in configuration order, so the outcome does not
    depend on the worker count. A candidate whose simulation fails
    numerically (SimulationError or ValueError) is recorded as failed and
    the sweep continues; any other exception propagates.
    """
    reference = base_design.with_thicknesses(*settings.reference)
    cells = list(grid.candidates())
    tasks = [(t1, t2, base_design, plan, settings) for _, t1, t2 in cells]
    if settings.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a fork pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(settings.jobs, len(tasks))) as pool:
            raw = list(pool.map(_evaluate_candidate, tasks))
    else:
        raw = [_evaluate_candidate(t) for t in tasks]  # like pool.map, in task order

    results: list[CandidateResult] = []
    histories: dict[int, tuple[StressHistory, StressHistory]] = {}
    for (config, t1, t2), (j_vib, hists, err, stats) in zip(cells, raw):
        design = base_design.with_thicknesses(t1, t2)
        try:
            j_mass = mass_criterion(design, reference)
        except ValueError as exc:
            j_mass = math.nan
            err = err or f"{type(exc).__name__}: {exc}"
        res = CandidateResult(config=config, t1=t1, t2=t2, j_mass=j_mass, j_vib=j_vib, error=err,
                              stats=stats)
        results.append(res)
        if hists is not None:
            histories[config] = hists

    ok = [r for r in results if r.error is None]
    if not ok:
        raise RuntimeError("all candidates failed; nothing to rank")
    front = pareto_front(ok)

    fatigue_set = set(front.ids) if settings.only_pareto_fatigue else {r.config for r in ok}
    for res in results:
        if res.config in fatigue_set and res.config in histories:
            start = time.perf_counter()
            res.d_max, res.t_life_seconds = candidate_lifetime(
                histories[res.config], settings, plan.t_task
            )
            res.stats["lifetime_s"] = time.perf_counter() - start
    if not settings.keep_histories:
        histories = {}
    return SweepOutcome(results=results, front=front, histories=histories)
