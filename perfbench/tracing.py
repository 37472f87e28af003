"""In-memory span tracer that wraps flexlife's layer boundaries from outside.

A span is a ``[name, start, end, parent]`` record; ``parent`` is the index
of the enclosing span or -1. Spans stay in a list while the run goes on and
are written once, when it ends. Tracing replaces a module or class
attribute with a timing shim around the original callable, so the library
source is untouched; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from flexlife import config, design, dynamics, fatigue, rainflow, stress, trajectory

# (owner, attribute, span name). A boundary the library no longer has
# raises AttributeError on install, so a renamed layer cannot drop out of
# the trace unnoticed.
BOUNDARIES = (
    (config, "load_config", "config.load"),
    (trajectory, "plan_joint_move", "trajectory.plan"),
    (trajectory.TrajectoryPlan, "sample", "trajectory.sample"),
    (trajectory.TrajectoryPlan, "sample_grid", "trajectory.sample_grid"),
    (dynamics, "shape_basis", "beam.shape_basis"),
    (dynamics, "stiffness_matrix", "beam.stiffness"),
    (dynamics, "simulate", "dynamics.simulate"),
    (dynamics.RobotModel, "__init__", "dynamics.model_build"),
    (dynamics.RobotModel, "mass_gradients", "dynamics.mass_gradients"),
    (dynamics.RobotModel, "potential_grad", "dynamics.potential_grad"),
    (design, "link_stress_histories", "stress.link_histories"),
    (stress, "read_stress_csv", "stress.read_csv"),
    (fatigue, "tresca_history", "stress.tresca"),
    (rainflow, "extract_extrema", "rainflow.extract"),
    (rainflow, "count_cycles", "rainflow.count"),
    (rainflow, "bin_cycles", "rainflow.bin"),
    (fatigue, "accumulate", "fatigue.accumulate"),
    (fatigue, "critical_plane_lifetime", "fatigue.critical_plane"),
    (design, "vibration_criterion", "design.vibration"),
    (design, "candidate_lifetime", "design.candidate_lifetime"),
)

# counts taken from a boundary's return value
_RESULT_COUNTS = {
    "rainflow.extract": "rainflow.extrema",
    "rainflow.count": "rainflow.cycles",
}


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ----- spans -------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        count_key = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if count_key is not None:
                self.counts[count_key] += len(result)
            return result

        return traced

    def _wrap_solver(self, solve_ivp):
        """solve_ivp shim: traces the RHS it is given and keeps the
        solver's own counts."""

        @functools.wraps(solve_ivp)
        def traced(fun, *args, **kwargs):
            idx = self.enter("dynamics.solve_ivp")
            try:
                sol = solve_ivp(self.wrap(fun, "dynamics.rhs"), *args, **kwargs)
            finally:
                self.exit(idx)
            for key in ("nfev", "njev", "nlu"):
                self.counts[f"dynamics.{key}"] += int(getattr(sol, key))
            self.counts["dynamics.steps"] += int(sol.t.size - 1)
            return sol

        return traced

    # ----- installation ------------------------------------------------

    def _patch(self, owner, attr: str, shim) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, shim)

    def install(self) -> "Tracer":
        for owner, attr, name in BOUNDARIES:
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))
        self._patch(dynamics, "solve_ivp", self._wrap_solver(dynamics.solve_ivp))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ----- summaries ---------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds; names
        that never ran read as zeros."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, _), inner in zip(self.spans, child):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - inner
        return out

    def simulate_phases(self) -> tuple[float, float]:
        """(presolve, postsolve) seconds summed over simulate calls.

        Presolve runs from entry to simulate until its solve_ivp starts
        (equilibrium, periods, feedforward table) without the model build;
        postsolve runs from the solver's return to simulate's return
        (resampling and controller replay).
        """
        kids: dict[int, list[int]] = defaultdict(list)
        for idx, span in enumerate(self.spans):
            kids[span[3]].append(idx)
        pre = post = 0.0
        for idx, (name, start, end, _) in enumerate(self.spans):
            if name != "dynamics.simulate":
                continue
            mine = [self.spans[k] for k in kids[idx]]
            solve = next(s for s in mine if s[0] == "dynamics.solve_ivp")
            build = sum(s[2] - s[1] for s in mine if s[0] == "dynamics.model_build")
            pre += solve[1] - start - build
            post += end - solve[2]
        return pre, post

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )
