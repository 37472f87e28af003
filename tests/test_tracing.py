"""The benchmark tracer (perfbench/tracing.py) finds every layer boundary it
wraps, so renaming or deleting a traced layer fails here rather than in
the next traced benchmark run."""

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
