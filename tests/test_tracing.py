"""The benchmark tracer (perfbench/tracing.py) finds every layer boundary it
wraps, so renaming or deleting a traced layer fails here rather than in
the next traced benchmark run."""

import dataclasses
import importlib.util

from tests.conftest import REPO_ROOT


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_boundary_and_restores_it():
    tracing = load_tracing()
    originals = [owner.__dict__[attr] for owner, attr, _ in tracing.BOUNDARIES]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (owner, attr, _), original in zip(tracing.BOUNDARIES, originals):
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()
    for (owner, attr, _), original in zip(tracing.BOUNDARIES, originals):
        assert owner.__dict__[attr] is original, attr


def test_vectorised_rhs_makes_at_most_two_calls_per_jacobian(small_design, short_plan, fast_sim):
    """Each finite-difference Jacobian evaluates all its columns in one
    batched RHS call, plus at most one call for the columns it retries, so
    the traced RHS calls stay within nfev + 2 njev; a per-state RHS pays
    one call per column."""
    from flexlife import dynamics

    tracing = load_tracing()
    originals = [owner.__dict__[attr] for owner, attr, _ in tracing.BOUNDARIES]
    solver = dynamics.solve_ivp
    with tracing.Tracer() as tracer:
        dynamics.simulate(small_design, short_plan, fast_sim)
    counts = tracer.counts
    assert counts["dynamics.njev"] > 0
    rhs_calls = tracer.summary()["dynamics.rhs"]["calls"]
    assert rhs_calls <= counts["dynamics.nfev"] + 2 * counts["dynamics.njev"]
    assert dynamics.solve_ivp is solver
    for (owner, attr, _), original in zip(tracing.BOUNDARIES, originals):
        assert owner.__dict__[attr] is original, attr


def test_traced_simulate_records_the_presolve_oracles(small_design, short_plan, fast_sim):
    """The benchmark's self-test requires dynamics.potential_grad_calls and
    dynamics.mass_gradients_calls to be > 0. Both run only in the
    presolve: the equilibrium residual reads potential_grad, and the
    linearised periods of the default settling window read the mass
    matrix through mass_gradients."""
    from flexlife import dynamics

    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        dynamics.simulate(small_design, short_plan, dataclasses.replace(fast_sim, t_settle=None))
    summary = tracer.summary()
    for name in ("dynamics.potential_grad", "dynamics.mass_gradients"):
        assert summary[name]["calls"] > 0, name
